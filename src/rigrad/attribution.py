"""Attribution of a scalar field's change to tangent directions along paths.

The central object is a bilinear form on the tangent space at the point being
explained: both arguments are parallel-transported along the connecting curve
and paired with the field's differential and the curve velocity,

    entries[i, j] = - integral of dF(U_i(t)) * g(V_j(t), velocity(t)) dt,

where U_i, V_j are the transported frame vectors.  Along minimising geodesics
the diagonal of this matrix is the per-direction attribution; its trace
accounts for the total change F(p) - F(o).  The sign convention follows from
orienting the curve from the explained point p at t=0 to the base point o at
t=1; the flat-space method integrates base to input instead, and the minus
sign makes the two agree.

Every transport route gives the moved frame as constant coefficients C on
a moving frame E (``transport_frame``): U_i(t_k) = C[i] @ E[k].  Along a
geodesic the velocity is parallel, so g(V_j(t), velocity(t)) is the
constant c[j] = g(e_j, velocity(0)), and the form is the outer product
-A c^T of the n-vector A = C @ integral of dF(E(t)) dt: one integral per
frame vector of E, two on the 2-manifolds.  Along any other curve a level
integrates the m x m table of alpha[k] = dF(E[k]) against
beta[k] = g(E[k], velocity(t_k)), and the form is -C (that table) C^T.

The form is linear in the field, and its path side does not depend on the
field at all.  A path's transport is built once per call, with C and c;
each transport pass then gives the positions and E at its nodes.  Fields
attributed along one path (``_attribution_matrices``) share the transport,
the path tables, the geodesic and its defect check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenSolverFailure,
    InvalidTangent,
    NonFiniteValue,
    QuadratureNotConverged,
    WrongManifold,
)
from .fields import ScalarField, require_same_space
from .manifolds import Curve, Manifold, OrthonormalFrame, Point, TangentVector
from .manifolds.diagnostics import geodesic_residual
from .manifolds.transport import transport_frame
from .quadrature import Quadrature

DEFAULT_QUADRATURE = Quadrature()

# Successive levels whose gap is below this multiple of the largest entry
# differ by rounding noise alone, whatever the tolerance (1.4e-14 at unit scale).
ROUNDING_FLOOR = 64 * float(np.finfo(float).eps)

# directions scored per vectorized block by attribution_bound_check
BOUND_CHECK_BLOCK = 8192

METHOD_IG = "IG"
METHOD_RIG = "RIG"
METHOD_GENERIC_BAM = "GenericBAM"
METHOD_EIGEN_RIG = "EigenRIG"


@dataclass(frozen=True)
class PathDiagnostics:
    """How a path integral was computed."""

    curve_length: float
    nodes_used: int
    refinement_gap: float | None
    transport_mode: str
    transport_steps: int
    geodesic_defect: float | None


@dataclass(frozen=True)
class AttributionMatrix:
    """The bilinear attribution form evaluated on an orthonormal frame."""

    base: Point
    base_point: Point
    frame: OrthonormalFrame
    entries: np.ndarray
    diagnostics: PathDiagnostics

    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class EigenAttribution:
    """Spectral data of the symmetrized attribution form."""

    eigenvalues: np.ndarray
    frame: OrthonormalFrame
    coefficients: np.ndarray  # column k holds eigenvector k in the source frame
    residual: float


@dataclass(frozen=True)
class BoundCheckReport:
    """Monte Carlo audit of the extremal-eigenvalue bound on |form(u, u)|."""

    samples: int
    seed: int
    violations: int
    max_ratio: float
    max_abs_value: float
    largest_abs_eigenvalue: float


@dataclass(frozen=True)
class AttributionReport:
    """Per-direction attributions plus the bookkeeping that certifies them."""

    method: str
    manifold_kind: str
    point: Point
    base_point: Point
    frame: OrthonormalFrame
    attributions: np.ndarray
    value_at_point: float
    value_at_base: float
    completeness_residual: float
    error_term: float
    path_is_geodesic: bool
    eigenvalues: np.ndarray | None
    diagnostics: PathDiagnostics


def _check_frame(manifold: Manifold, p: Point, frame: OrthonormalFrame) -> np.ndarray:
    """``validate_frame`` for a frame that must sit at ``p``; returns its rows."""
    if not np.array_equal(frame.base.coords, p.coords):
        raise InvalidTangent("frame must be based at the point being explained")
    return manifold.validate_frame(frame)


def _path_tables(manifold, curve, transport, nodes):
    """Field-free tables of the path at K nodes, from one transport pass,
    ``nodes``, ``transport.at``'s (P, V, E, steps): the positions
    (K, coord_dim), ``transport``'s C, the pass's E, the pairing, the
    transport mode and the pass's panel or step count.  Along a geodesic the
    pairing is the transport's constant c[j] = g(e_j, velocity(0)) (n,);
    along any other curve it has a row per node,
    beta[k] = g(E[k], velocity(t_k)) (K, m), or the lowered velocity where E
    is None.
    """
    positions, velocities, E, steps = nodes
    pairing = transport.pairing
    if not curve.is_geodesic:
        # a path with NaN or infinity makes the entries non-finite, which
        # raises NonFiniteValue in _path_integral
        with np.errstate(invalid="ignore", over="ignore"):
            pairing = manifold.lower(positions, velocities)
            if E is not None:
                pairing = np.einsum("kmc,kc->km", E, pairing)
    return positions, transport.C, E, pairing, transport.mode, steps


def _levels(quadrature, schedule, manifold, curve, rows):
    """Yield (count, weights, path tables, nodes) for each level of
    ``schedule`` in order, where the slice ``nodes`` picks the level's rows
    of the tables' per-node arrays.

    The path's transport is built once, with the first pass.  The first two
    levels, which every refining call evaluates, share that pass over their
    joined nodes, and so one tables object; later levels are built only when
    refinement reaches them, each with a transport pass of its own.  The
    field is evaluated once per tables object, so its batches follow the
    passes.  On a 2-dimensional chart the transport keeps its sweeps of the
    connection form, so a later pass samples it again only where the two
    finest sweeps disagree at the pass's nodes.
    """
    head = [quadrature.nodes_weights(count) for count in schedule[:2]]
    joined = np.concatenate([ts for ts, _ in head])
    transport, first = transport_frame(manifold, curve, rows, joined)
    tables = _path_tables(manifold, curve, transport, first)
    start = 0
    for count, (_, weights) in zip(schedule, head):
        yield count, weights, tables, slice(start, start + count)
        start += count
    for count in schedule[2:]:
        ts, weights = quadrature.nodes_weights(count)
        tables = _path_tables(manifold, curve, transport, transport.at(ts))
        yield count, weights, tables, slice(None)


def _path_integral(field, manifold, curve, rows, quadrature, levels=None):
    """Quadrature of the form, refined until two successive levels agree.

    Along a geodesic a level integrates only the n-vector A, and -A c^T is
    formed once, after the last level; along any other curve a level
    integrates the m x m table of alpha and beta and forms -C (table) C^T.
    Levels agree when the form's largest entrywise gap is below
    ``quadrature.tol`` plus a rounding-noise floor of ROUNDING_FLOOR *
    max|entries|, both read on A along a geodesic: max|dA| max|c| and
    max|A| max|c|.  Returns the entries and the path's diagnostics, without
    a geodesic defect.  ``levels`` iterates over ``_levels``' output for
    this path, built here when None.  The field is evaluated once per
    transport pass, on all of its positions, and DimensionMismatch is raised
    unless the batch is (K, coord_dim); each level then reads its own rows,
    in order, and NonFiniteValue is raised at the first level whose entries
    are not finite.
    """
    schedule = quadrature.schedule()
    previous = None
    gap = None
    if levels is None:
        levels = _levels(quadrature, schedule, manifold, curve, rows)
    batch = None
    for count, weights, tables, nodes in levels:
        positions, C, E, pairing, mode, steps = tables
        # NaN and infinity raise NonFiniteValue below, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            if tables is not batch:  # one field batch per transport pass
                batch, grads = tables, field.coord_gradients(positions)
                if np.shape(grads) != positions.shape:
                    raise DimensionMismatch(
                        f"{type(field).__name__}.coord_gradients returned shape "
                        f"{np.shape(grads)} for positions of shape {positions.shape}"
                    )
                alpha = grads if E is None else np.einsum("kc,kmc->km", grads, E)
                # -A c^T scales A's gaps and size by max|c|
                scale = float(np.abs(pairing).max()) if curve.is_geodesic else 1.0
            if curve.is_geodesic:
                level = C @ (weights @ alpha[nodes])
            else:
                level = -(C @ ((weights[:, None] * alpha[nodes]).T @ pairing[nodes]) @ C.T)
        size = float(np.abs(level).max()) * scale
        if not math.isfinite(size):
            raise NonFiniteValue(
                f"attribution entries are not finite at {count} nodes; the field's "
                "gradient or the path takes a NaN or infinite value"
            )
        if previous is not None:
            gap = float(np.abs(level - previous).max()) * scale
            if gap < quadrature.tol + ROUNDING_FLOOR * size:
                break
        previous = level
    else:
        if quadrature.refine and len(schedule) > 1:
            raise QuadratureNotConverged(
                f"entries still moving by {gap:.3e} at {schedule[-1]} nodes "
                f"(tol {quadrature.tol:.1e})"
            )
    diagnostics = PathDiagnostics(curve_length=curve.length, nodes_used=count, refinement_gap=gap,
                                  transport_mode=mode, transport_steps=steps, geodesic_defect=None)
    return (-np.outer(level, pairing) if curve.is_geodesic else level), diagnostics


def _attribution_matrices(
    fields, manifold: Manifold, p: Point, o: Point, frame: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> list[AttributionMatrix]:
    """The attribution form of each of ``fields`` along one minimising geodesic.

    The form is linear in the field, and its path half is not a function of
    the field at all: the points and the frame are validated, and the
    geodesic, each level's path tables and the geodesic defect are built,
    once for all the fields.  A level is built when the first field reaches
    it and kept, so fields that stop refining at different node counts still
    share every level.  Each matrix equals the one ``attribution_matrix``
    gives for its field alone, bit for bit.
    """
    for field in fields:
        require_same_space(field, manifold)
    p = manifold.validate_point(p)
    o = manifold.validate_point(o)
    rows = _check_frame(manifold, p, frame)

    if np.array_equal(p.coords, o.coords):
        n = len(frame)
        zero = PathDiagnostics(curve_length=0.0, nodes_used=0, refinement_gap=None,
                               transport_mode="identity", transport_steps=0, geodesic_defect=0.0)
        return [AttributionMatrix(p, o, frame, np.zeros((n, n)), zero) for _ in fields]

    curve = manifold.make_geodesic(p, o)
    # one independent run over the same levels per field; tee keeps each
    # level until every run has passed it
    runs = itertools.tee(
        _levels(quadrature, quadrature.schedule(), manifold, curve, rows), len(fields)
    )
    integrals = [
        _path_integral(field, manifold, curve, rows, quadrature, levels=run)
        for field, run in zip(fields, runs)
    ]
    defect = geodesic_residual(manifold, curve)
    return [
        AttributionMatrix(p, o, frame, entries, replace(diagnostics, geodesic_defect=defect))
        for entries, diagnostics in integrals
    ]


def attribution_matrix(
    field: ScalarField,
    manifold: Manifold,
    p: Point,
    o: Point,
    frame: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> AttributionMatrix:
    """Evaluate the attribution form on ``frame`` along the minimising geodesic.

    Raises CutLocusAmbiguity when the geodesic is not unique,
    QuadratureNotConverged when refinement exhausts its node budget and
    NonFiniteValue when a quadrature level gives non-finite entries.
    """
    return _attribution_matrices([field], manifold, p, o, frame, quadrature)[0]


def bam_along_curve(
    field: ScalarField,
    curve: Curve,
    u: TangentVector,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> float:
    """Attribution to direction ``u`` along an arbitrary smooth curve."""
    manifold = curve.manifold
    require_same_space(field, manifold)
    if not np.array_equal(u.base.coords, curve.start.coords):
        raise InvalidTangent("u must be based at the curve's start point")
    if np.array_equal(curve.start.coords, curve.end.coords) and curve.length == 0.0:
        return 0.0
    entries, _ = _path_integral(field, manifold, curve, u.components[None, :], quadrature)
    return float(entries[0, 0])


def rig(
    field: ScalarField,
    manifold: Manifold,
    p: Point,
    o: Point,
    frame: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> AttributionReport:
    """Per-direction attributions along the minimising geodesic from p to o."""
    matrix = attribution_matrix(field, manifold, p, o, frame, quadrature)
    return _rig_report(field, manifold, matrix)


def eigen_rig(
    field: ScalarField,
    manifold: Manifold,
    p: Point,
    o: Point,
    frame: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> AttributionReport:
    """Attributions in the eigenframe of the symmetrized form.

    The reported values are the eigenvalues; re-running the plain method in
    the returned frame reproduces them through the quadratic form.
    """
    matrix = attribution_matrix(field, manifold, p, o, frame, quadrature)
    return _eigen_report(field, manifold, matrix)


def _rig_report(field, manifold, matrix: AttributionMatrix) -> AttributionReport:
    """``rig``'s report of ``field`` from its attribution matrix."""
    return _report(
        METHOD_RIG, field, manifold, matrix.base, matrix.base_point, matrix.frame,
        np.diag(matrix.entries).copy(), matrix.diagnostics,
    )


def _eigen_report(field, manifold, matrix: AttributionMatrix) -> AttributionReport:
    """``eigen_rig``'s report of ``field`` from its attribution matrix."""
    eigen = eigen_attributions(matrix)
    values = eigen.eigenvalues
    return _report(
        METHOD_EIGEN_RIG, field, manifold, matrix.base, matrix.base_point, eigen.frame,
        np.array(values), matrix.diagnostics, eigenvalues=np.array(values),
    )


def generic_bam_report(
    field: ScalarField,
    curve: Curve,
    frame: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> AttributionReport:
    """Per-direction attributions along a caller-supplied curve.

    Off-geodesic paths do not promise completeness; the residual against
    F(start) - F(end) is still reported so callers can judge it.
    """
    manifold = curve.manifold
    require_same_space(field, manifold)
    rows = _check_frame(manifold, curve.start, frame)
    entries, diagnostics = _path_integral(field, manifold, curve, rows, quadrature)
    return _report(
        METHOD_GENERIC_BAM, field, manifold, curve.start, curve.end, frame,
        np.diag(entries).copy(), diagnostics, path_is_geodesic=curve.is_geodesic,
    )


def _report(
    method: str,
    field: ScalarField,
    manifold: Manifold,
    p: Point,
    o: Point,
    frame: OrthonormalFrame,
    values: np.ndarray,
    diagnostics: PathDiagnostics,
    eigenvalues: np.ndarray | None = None,
    path_is_geodesic: bool = True,
) -> AttributionReport:
    value_p = field.value(p)
    value_o = field.value(o)
    if not (math.isfinite(value_p) and math.isfinite(value_o)):
        raise NonFiniteValue(
            f"the field is not finite at the path's ends: F(p) = {value_p!r}, "
            f"F(o) = {value_o!r}"
        )
    return AttributionReport(
        method=method,
        manifold_kind=manifold.kind,
        point=p,
        base_point=o,
        frame=frame,
        attributions=values,
        value_at_point=value_p,
        value_at_base=value_o,
        completeness_residual=abs(float(values.sum()) - (value_p - value_o)),
        error_term=-value_o,
        path_is_geodesic=path_is_geodesic,
        eigenvalues=eigenvalues,
        diagnostics=diagnostics,
    )


def ig(
    field: ScalarField,
    x: Point,
    x_prime: Point,
    basis: OrthonormalFrame,
    quadrature: Quadrature = DEFAULT_QUADRATURE,
) -> AttributionReport:
    """Straight-line attributions in flat space, integrating base to input,
    with ``rig``'s stop test: the line is a geodesic."""
    manifold = field.manifold
    if not manifold.flat:
        raise WrongManifold("the straight-line method is defined on flat space only")
    x = manifold.validate_point(x)
    x_prime = manifold.validate_point(x_prime)
    rows = _check_frame(manifold, x, basis)

    # The form is oriented from its curve's start, so along the line from
    # base to input its diagonal is the negated straight-line attribution.
    line = manifold.make_geodesic(x_prime, x)
    entries, diagnostics = _path_integral(field, manifold, line, rows, quadrature)
    return _report(METHOD_IG, field, manifold, x, x_prime, basis, -np.diag(entries), diagnostics)


def symmetrize(matrix: AttributionMatrix) -> AttributionMatrix:
    """Half-sum with the transpose; the diagonal is untouched."""
    return replace(matrix, entries=_symmetric(matrix.entries))


def _symmetric(entries: np.ndarray) -> np.ndarray:
    """``symmetrize``'s entries, without building a matrix around them."""
    return 0.5 * (entries + entries.T)


def _fix_signs(vectors: np.ndarray) -> None:
    """Negate, in place, each column whose leading entry (its first above 1e-12
    of its largest magnitude) is negative; an all-zero column has none, nor
    has one holding NaN.  The leads are read as Python floats, mostly off the
    first row: at n <= 8, numpy calls on masks and fancy indices took longer
    than the eigensolve."""
    signs = []
    tops = np.abs(vectors).max(axis=0).tolist()
    for j, (lead, top) in enumerate(zip(vectors[0].tolist(), tops)):
        threshold = 1e-12 * top
        if not abs(lead) > threshold:
            lead = next((v for v in vectors[:, j].tolist() if abs(v) > threshold), 0.0)
        signs.append(-1.0 if lead < 0.0 else 1.0)
    if -1.0 in signs:
        vectors *= signs


def eigen_attributions(matrix: AttributionMatrix) -> EigenAttribution:
    """Eigendecomposition of the symmetrized form.

    Eigenvalues are sorted by absolute value, ascending; each eigenvector's
    sign is fixed so its first nonzero coefficient is positive, and the
    eigenframe's rows are the eigenvectors' combinations of the source
    frame's rows.
    """
    sym = _symmetric(matrix.entries)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"symmetric eigensolver failed: {exc}") from exc

    order = np.argsort(np.abs(values), kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    _fix_signs(vectors)

    residual = float(np.abs(sym @ vectors - vectors * values).max()) if values.size else 0.0
    # a (1, n) @ (n, coord_dim) product per eigenvector: vectors.T @ rows rounds otherwise
    rows = (vectors.T[:, None, :] @ matrix.frame.rows)[:, 0]
    return EigenAttribution(
        eigenvalues=values,
        frame=OrthonormalFrame(matrix.base, rows),
        coefficients=vectors,
        residual=residual,
    )


def attribution_bound_check(
    matrix: AttributionMatrix, samples: int, seed: int
) -> BoundCheckReport:
    """Sample unit directions and compare |form(u, u)| to the top eigenvalue."""
    if samples < 1:
        raise ValueError("samples must be positive")
    eigen = eigen_attributions(matrix)
    bound = float(np.abs(eigen.eigenvalues[-1])) if eigen.eigenvalues.size else 0.0
    sym = _symmetric(matrix.entries)
    rng = np.random.default_rng(seed)
    worst_value = 0.0
    violations = 0
    # Drawing the directions a block at a time gives the same numbers as one
    # draw per sample, and bounds the memory a large sample count takes.
    for start in range(0, samples, BOUND_CHECK_BLOCK):
        count = min(BOUND_CHECK_BLOCK, samples - start)
        directions = rng.standard_normal((count, sym.shape[0]))
        norms = np.linalg.norm(directions, axis=1)
        keep = norms >= 1e-12
        units = directions[keep] / norms[keep, None]
        values = np.abs(np.einsum("si,ij,sj->s", units, sym, units))
        if values.size:
            worst_value = max(worst_value, float(np.max(values)))
        violations += int(np.count_nonzero(values > bound + 1e-10))
    ratio = worst_value / bound if bound > 0.0 else (1.0 if worst_value > 0.0 else 0.0)
    return BoundCheckReport(
        samples=samples,
        seed=seed,
        violations=violations,
        max_ratio=ratio,
        max_abs_value=worst_value,
        largest_abs_eigenvalue=bound,
    )
