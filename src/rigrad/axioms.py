"""Seeded certification checks for the attribution method's guarantees.

Each check builds randomized instances on a chosen manifold, measures a
residual that the theory says should vanish (or stay within a stated bound),
and reports pass/fail against a tolerance.  Reports are bitwise reproducible
from their seed.  Instances that hit a cut-locus refusal are redrawn and
counted as aborted, never as passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attribution import (
    _attribution_matrices,
    _rig_report,
    attribution_bound_check,
    attribution_matrix,
    bam_along_curve,
    ig,
    rig,
)
from .errors import CutLocusAmbiguity, ParseError, _integer, _real
from .fields import (
    CoordinateField,
    GaussianBumpField,
    LogHeightField,
    MLPField,
    CombinedField,
    LayerSpec,
    MLPWeights,
    PushforwardField,
    insert_identity_layer,
    permute_hidden_units,
    random_mlp,
    swap_input_columns,
)
from .manifolds import (
    KINDS,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    coordinate_swap,
    make_manifold,
    random_isometry,
)
from .quadrature import Quadrature

# Default RNG seed; the bytes spell the initials of the method (0x52 0x49 0x47).
DEFAULT_SEED = 0x524947

# With redraws allowed after cut-locus aborts, give up once attempts reach
# this multiple of the requested trial count.
ABORT_ATTEMPT_FACTOR = 10

FIXED_QUADRATURE = Quadrature(nodes=32, refine=False)

# Checks that hold on flat space only, with the refusal given elsewhere.
FLAT_ONLY = {
    "SymmetryInvariance": "the symmetry-invariance check runs on flat space only",
    "EuclideanRestriction": "the restriction check compares flat-space methods",
}


@dataclass(frozen=True)
class AxiomCheckSpec:
    """One configured check: which guarantee, where, how hard to try."""

    axiom: str
    tolerance: float
    trials: int
    seed: int = DEFAULT_SEED
    manifold_kind: str = "euclidean"
    dim: int = 4
    samples: int = 10_000  # used by the eigenvalue-bound check only

    def __post_init__(self):
        if self.axiom not in AXIOMS:
            raise ParseError(f"unknown axiom {self.axiom!r}; expected one of {AXIOMS}")
        if not 0.0 < _real(self.tolerance, "tolerance") < math.inf:
            raise ParseError(
                f"tolerance must be a positive finite number, got {self.tolerance!r}"
            )
        if _integer(self.trials, "trials") < 1:
            raise ParseError("trials must be at least 1")
        if _integer(self.seed, "seed") < 0:
            raise ParseError(f"seed must be non-negative, got {self.seed}")
        if _integer(self.samples, "samples") < 1:
            raise ParseError("samples must be at least 1")
        if self.manifold_kind not in KINDS:
            raise ParseError(
                f"unknown manifold kind {self.manifold_kind!r}; expected one of {KINDS}"
            )
        if _integer(self.dim, "dim") < 1 and self.manifold_kind == "euclidean":
            raise ParseError(f"dimension must be at least 1, got {self.dim}")
        if self.axiom in FLAT_ONLY and self.manifold_kind != "euclidean":
            raise ParseError(FLAT_ONLY[self.axiom])

    def make_manifold(self) -> Manifold:
        dim = self.dim if self.manifold_kind == "euclidean" else None
        return make_manifold(self.manifold_kind, dim)


@dataclass(frozen=True)
class AxiomReport:
    """Measured residuals for one check."""

    spec: AxiomCheckSpec
    residuals: tuple[float, ...]
    notes: tuple[str, ...]
    aborted: int
    max_residual: float
    passed: bool


def _finish(spec: AxiomCheckSpec, residuals, notes, aborted) -> AxiomReport:
    worst = max(residuals) if residuals else float("inf")
    return AxiomReport(
        spec=spec,
        residuals=tuple(residuals),
        notes=tuple(notes),
        aborted=aborted,
        max_residual=worst,
        passed=bool(worst <= spec.tolerance and len(residuals) >= spec.trials),
    )


def _run_trials(spec: AxiomCheckSpec, one_trial) -> AxiomReport:
    """Drive ``one_trial(rng) -> (residual, note)`` with abort accounting."""
    rng = np.random.default_rng(spec.seed)
    residuals: list[float] = []
    notes: list[str] = []
    aborted = 0
    attempts = 0
    budget = spec.trials * ABORT_ATTEMPT_FACTOR
    while len(residuals) < spec.trials and attempts < budget:
        attempts += 1
        try:
            residual, note = one_trial(rng)
        except CutLocusAmbiguity:
            aborted += 1
            continue
        residuals.append(float(residual))
        notes.append(note)
    return _finish(spec, residuals, notes, aborted)


def _random_pair(manifold: Manifold, rng) -> tuple[Point, Point]:
    return manifold.random_point(rng), manifold.random_point(rng)


def _mlp_field(manifold: Manifold, rng, hidden=(6, 5)) -> MLPField:
    return MLPField(manifold, random_mlp(manifold.coord_dim, hidden, rng))


# numpy's default print options, the ones _coords_text reproduces
_PRINT_DEFAULTS = {"floatmode": "maxprec", "suppress": False, "sign": "-", "linewidth": 75,
                   "threshold": 1000, "formatter": None, "legacy": False}


def _coords_text(v: np.ndarray) -> str:
    """``np.array2string(v, precision=4)`` of a 1-D float vector, built
    directly when numpy prints it positionally on one line under default
    options: unique digits to 4 decimals, padded to the widest integer part
    and fraction as array2string's ``maxprec`` mode pads them.  Otherwise
    (scientific notation for a non-finite entry, a nonzero magnitude below
    1e-4, a largest of 1e8 or more or a spread over 1e3) array2string runs."""
    xs = v.tolist()
    sizes = [abs(x) for x in xs if x != 0.0]
    options = np.get_printoptions()
    if (
        not xs
        or not all(map(math.isfinite, xs))
        or (sizes and (min(sizes) < 1e-4 or max(sizes) >= 1e8 or max(sizes) / min(sizes) > 1e3))
        or {key: options[key] for key in _PRINT_DEFAULTS} != _PRINT_DEFAULTS
    ):
        return np.array2string(v, precision=4)
    parts = [
        np.format_float_positional(x, precision=4, fractional=True, trim=".").partition(".")
        for x in xs
    ]
    left = max(len(whole) for whole, _, _ in parts)
    right = max(len(fraction) for _, _, fraction in parts)
    text = "[" + " ".join(w.rjust(left) + "." + f.ljust(right) for w, _, f in parts) + "]"
    return text if len(text) <= _PRINT_DEFAULTS["linewidth"] else np.array2string(v, precision=4)


def _describe(manifold: Manifold, p: Point, o: Point) -> str:
    return (
        f"{manifold.kind}(dim={manifold.dim}) "
        f"p={_coords_text(p.coords)} o={_coords_text(o.coords)}"
    )


def _zero_input_columns(weights: MLPWeights, columns) -> MLPWeights:
    first = weights.layers[0]
    w = np.array(first.weights)
    w[:, list(columns)] = 0.0
    return MLPWeights(
        weights.input_dim,
        (LayerSpec(w, first.bias, first.activation), *weights.layers[1:]),
    )


# -- the checks -------------------------------------------------------------


def check_implementation_invariance(spec: AxiomCheckSpec) -> AxiomReport:
    """Functionally equal networks must attribute identically.

    Equality is by construction: hidden units permuted, or a pass-through
    layer inserted.  (No general function-equality test exists; only such
    constructed pairs are certified.)
    """
    manifold = spec.make_manifold()

    def one_trial(rng):
        weights = random_mlp(manifold.coord_dim, (6, 5), rng)
        p, o = _random_pair(manifold, rng)
        frame = manifold.orthonormal_frame(p)
        perm = rng.permutation(weights.layers[0].weights.shape[0])
        fields = [
            MLPField(manifold, network)
            for network in (
                weights,
                permute_hidden_units(weights, 0, perm),
                insert_identity_layer(weights, int(rng.integers(0, 3))),
            )
        ]
        matrices = _attribution_matrices(fields, manifold, p, o, frame, FIXED_QUADRATURE)
        base, *others = (
            _rig_report(field, manifold, matrix) for field, matrix in zip(fields, matrices)
        )
        worst = 0.0
        for other in others:
            worst = max(
                worst,
                float(np.max(np.abs(base.attributions - other.attributions))),
                abs(base.completeness_residual - other.completeness_residual),
            )
        return worst, _describe(manifold, p, o)

    return _run_trials(spec, one_trial)


def check_linearity(spec: AxiomCheckSpec) -> AxiomReport:
    """Attributions of a*F + b*G equal the combination of attributions.

    Runs at a fixed node count: the guarantee is exact per quadrature rule,
    and adaptive refinement could stop the three runs at different depths.
    """
    manifold = spec.make_manifold()

    def one_trial(rng):
        field_f = _mlp_field(manifold, rng)
        field_g = _mlp_field(manifold, rng)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        p, o = _random_pair(manifold, rng)
        frame = manifold.orthonormal_frame(p)
        combined = CombinedField([a, b], [field_f, field_g])
        lhs, at_f, at_g = (
            np.diag(matrix.entries)
            for matrix in _attribution_matrices(
                [combined, field_f, field_g], manifold, p, o, frame, FIXED_QUADRATURE
            )
        )
        rhs = a * at_f + b * at_g
        residual = float(np.max(np.abs(lhs - rhs)))
        return residual, f"a={a:.3f} b={b:.3f} " + _describe(manifold, p, o)

    return _run_trials(spec, one_trial)


def check_sensitivity(spec: AxiomCheckSpec) -> AxiomReport:
    """Directions the field never reacts to get zero attribution.

    Instances are built so the differential of F annihilates the transported
    direction exactly, by symmetry: flat space uses a field with a dead input
    coordinate, the sphere a height-only field with the direction normal to a
    meridian plane, the half-plane a y-only field along a vertical geodesic.
    """
    manifold = spec.make_manifold()

    def euclidean_trial(rng):
        dead = int(rng.integers(0, manifold.dim))
        weights = _zero_input_columns(random_mlp(manifold.dim, (6, 5), rng), [dead])
        field = MLPField(manifold, weights)
        p, o = _random_pair(manifold, rng)
        direction = np.zeros(manifold.dim)
        direction[dead] = 1.0
        u = manifold.tangent(p, direction)
        value = bam_along_curve(field, manifold.geodesic_between(p, o), u, FIXED_QUADRATURE)
        return abs(value), f"dead coordinate {dead}, " + _describe(manifold, p, o)

    def sphere_trial(rng):
        # geodesic inside the plane spanned by the z-axis and a horizontal
        # direction; the plane normal is tangent all along and the field
        # depends on z only, so dF kills the transported normal exactly
        psi = rng.uniform(0.0, 2.0 * np.pi)
        meridian = np.array([np.cos(psi), np.sin(psi), 0.0])
        normal = np.array([-np.sin(psi), np.cos(psi), 0.0])
        theta_p, theta_o = rng.uniform(0.4, np.pi - 0.4, size=2)
        if abs(theta_p - theta_o) < 0.2:
            theta_o = theta_p + (0.2 if theta_o >= theta_p else -0.2)
        p = manifold.point(np.cos(theta_p) * np.array([0.0, 0.0, 1.0]) + np.sin(theta_p) * meridian)
        o = manifold.point(np.cos(theta_o) * np.array([0.0, 0.0, 1.0]) + np.sin(theta_o) * meridian)
        weights = _zero_input_columns(random_mlp(3, (6, 5), rng), [0, 1])
        field = MLPField(manifold, weights)
        u = manifold.tangent(p, normal)
        value = bam_along_curve(field, manifold.geodesic_between(p, o), u, FIXED_QUADRATURE)
        return abs(value), f"meridian psi={psi:.3f}, z-only field"

    def halfplane_trial(rng):
        x0 = rng.standard_normal()
        y_p, y_o = np.exp(rng.uniform(-1.0, 1.0, size=2))
        if abs(np.log(y_o / y_p)) < 0.1:
            y_o = y_p * np.exp(0.5)
        p = manifold.point(np.array([x0, y_p]))
        o = manifold.point(np.array([x0, y_o]))
        weights = _zero_input_columns(random_mlp(2, (6, 5), rng), [0])
        field = MLPField(manifold, weights)
        u = manifold.tangent(p, np.array([y_p, 0.0]))
        value = bam_along_curve(field, manifold.geodesic_between(p, o), u, FIXED_QUADRATURE)
        return abs(value), f"vertical geodesic at x={x0:.3f}, y-only field"

    trial = {
        "euclidean": euclidean_trial,
        "sphere2": sphere_trial,
        "half_plane2": halfplane_trial,
    }[manifold.kind]
    return _run_trials(spec, trial)


def check_symmetry_invariance(spec: AxiomCheckSpec) -> AxiomReport:
    """Swapping two coordinates of a swap-symmetric field swaps attributions.

    Flat space only: the statement compares attributions at x and at the
    swapped point, which needs the coordinate swap to be an isometry fixing
    the base point.
    """
    manifold = spec.make_manifold()

    def one_trial(rng):
        i, j = rng.choice(manifold.dim, size=2, replace=False)
        weights = random_mlp(manifold.dim, (6, 5), rng)
        symmetric = CombinedField(
            [1.0, 1.0],
            [
                MLPField(manifold, weights),
                MLPField(manifold, swap_input_columns(weights, int(i), int(j))),
            ],
        )
        swap = coordinate_swap(manifold, int(i), int(j))
        x = manifold.random_point(rng)
        o_raw = rng.standard_normal(manifold.dim)
        o_raw[j] = o_raw[i]
        o = manifold.point(o_raw)
        frame = manifold.orthonormal_frame(x)
        here = rig(symmetric, manifold, x, o, frame, FIXED_QUADRATURE).attributions
        swapped_x = swap.apply(x)
        there = rig(
            symmetric, manifold, swapped_x, o,
            manifold.orthonormal_frame(swapped_x), FIXED_QUADRATURE,
        ).attributions
        residual = abs(float(here[i] - there[j]))
        return residual, f"swap ({i},{j}), " + _describe(manifold, x, o)

    return _run_trials(spec, one_trial)


def check_completeness(spec: AxiomCheckSpec) -> AxiomReport:
    """Attributions must add up to the field's change from base to point."""
    manifold = spec.make_manifold()

    def analytic_field(rng):
        if manifold.kind == "euclidean":
            return GaussianBumpField(manifold, manifold.random_point(rng), width=1.0)
        if manifold.kind == "sphere2":
            return CoordinateField(manifold, 2)
        return LogHeightField(manifold)

    counter = {"n": 0}

    def one_trial(rng):
        use_mlp = counter["n"] % 2 == 0
        counter["n"] += 1
        field = _mlp_field(manifold, rng) if use_mlp else analytic_field(rng)
        p, o = _random_pair(manifold, rng)
        report = rig(field, manifold, p, o, manifold.orthonormal_frame(p))
        kind = "mlp" if use_mlp else "analytic"
        return report.completeness_residual, f"{kind} field, " + _describe(manifold, p, o)

    return _run_trials(spec, one_trial)


def check_isometry_invariance(spec: AxiomCheckSpec) -> AxiomReport:
    """Moving the whole problem by an isometry must not change the matrix."""
    manifold = spec.make_manifold()

    def one_trial(rng):
        field = _mlp_field(manifold, rng)
        p, o = _random_pair(manifold, rng)
        frame = manifold.orthonormal_frame(p)
        motion = random_isometry(manifold, rng)
        here = attribution_matrix(field, manifold, p, o, frame)
        there = attribution_matrix(
            PushforwardField(field, motion),
            manifold,
            motion.apply(p),
            motion.apply(o),
            motion.push_frame(frame),
        )
        residual = float(np.max(np.abs(here.entries - there.entries)))
        return residual, _describe(manifold, p, o)

    return _run_trials(spec, one_trial)


def check_euclidean_restriction(spec: AxiomCheckSpec) -> AxiomReport:
    """On flat space the geodesic method must equal the straight-line method."""

    def one_trial(rng):
        dim = int(rng.integers(2, 9))
        manifold = make_manifold("euclidean", dim)
        hidden = tuple(int(h) for h in rng.integers(2, 17, size=2))
        field = MLPField(manifold, random_mlp(dim, hidden, rng))
        x, x_prime = _random_pair(manifold, rng)
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        basis = OrthonormalFrame(x, tuple(TangentVector(x, row) for row in q.T))
        geodesic = rig(field, manifold, x, x_prime, basis)
        straight = ig(field, x, x_prime, basis)
        residual = float(np.max(np.abs(geodesic.attributions - straight.attributions)))
        return residual, f"dim={dim} hidden={hidden}"

    return _run_trials(spec, one_trial)


def check_eigen_bound(spec: AxiomCheckSpec) -> AxiomReport:
    """No unit direction may beat the top eigenvalue of the symmetrized form."""
    manifold = spec.make_manifold()

    def one_trial(rng):
        field = _mlp_field(manifold, rng)
        p, o = _random_pair(manifold, rng)
        matrix = attribution_matrix(field, manifold, p, o, manifold.orthonormal_frame(p))
        check = attribution_bound_check(
            matrix, spec.samples, seed=int(rng.integers(2**63))
        )
        excess = max(0.0, check.max_abs_value - check.largest_abs_eigenvalue)
        note = (
            f"{check.samples} samples, max ratio {check.max_ratio:.6f}, "
            + _describe(manifold, p, o)
        )
        return excess, note

    return _run_trials(spec, one_trial)


CHECKS = {
    "Implementation": check_implementation_invariance,
    "Linearity": check_linearity,
    "Sensitivity": check_sensitivity,
    "SymmetryInvariance": check_symmetry_invariance,
    "Completeness": check_completeness,
    "IsometryInvariance": check_isometry_invariance,
    "EuclideanRestriction": check_euclidean_restriction,
    "EigenBound": check_eigen_bound,
}
AXIOMS = tuple(CHECKS)


def run_check(spec: AxiomCheckSpec) -> AxiomReport:
    return CHECKS[spec.axiom](spec)


def run_suite(specs) -> list[AxiomReport]:
    return [run_check(spec) for spec in specs]


def default_suite(seed: int | None = None) -> list[AxiomCheckSpec]:
    """The stock certification matrix with per-manifold tolerances, drawn
    from ``seed`` (DEFAULT_SEED when None)."""
    seed = DEFAULT_SEED if seed is None else seed
    manifolds = ("euclidean", "sphere2", "half_plane2")
    specs: list[AxiomCheckSpec] = []
    for kind in manifolds:
        specs.append(AxiomCheckSpec("Implementation", 1e-10, 5, seed, kind))
    for kind in manifolds:
        specs.append(AxiomCheckSpec("Linearity", 1e-9, 50, seed, kind))
    for kind in manifolds:
        specs.append(AxiomCheckSpec("Sensitivity", 1e-12, 20, seed, kind))
    specs.append(AxiomCheckSpec("SymmetryInvariance", 1e-8, 50, seed, "euclidean"))
    for kind in manifolds:
        specs.append(AxiomCheckSpec("Completeness", 1e-6, 20, seed, kind))
    specs.append(AxiomCheckSpec("IsometryInvariance", 1e-10, 20, seed, "euclidean"))
    specs.append(AxiomCheckSpec("IsometryInvariance", 1e-7, 20, seed, "sphere2"))
    specs.append(AxiomCheckSpec("IsometryInvariance", 1e-7, 20, seed, "half_plane2"))
    specs.append(AxiomCheckSpec("EuclideanRestriction", 1e-8, 100, seed, "euclidean"))
    for kind in manifolds:
        specs.append(AxiomCheckSpec("EigenBound", 1e-10, 3, seed, kind))
    return specs


def suite_from_dict(data: dict) -> list[AxiomCheckSpec]:
    """Parse a harness configuration document."""
    if not isinstance(data, dict):
        raise ParseError("harness config must be a JSON object")
    unknown = set(data) - {"checks"}
    if unknown:
        raise ParseError(f"unknown harness config keys: {sorted(unknown)}")
    checks = data.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ParseError("no checks configured")
    specs = []
    allowed = {"axiom", "tolerance", "trials", "seed", "manifold", "dim", "samples"}
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict):
            raise ParseError(f"check {i} must be an object")
        extra = set(entry) - allowed
        if extra:
            raise ParseError(f"check {i} has unknown keys: {sorted(extra)}")
        missing = {"axiom", "tolerance", "trials"} - set(entry)
        if missing:
            raise ParseError(f"check {i} is missing {sorted(missing)}")
        tolerance = _real(entry["tolerance"], f"check {i} tolerance")
        for key in ("trials", "seed", "dim", "samples"):
            if key in entry:
                _integer(entry[key], f"check {i} {key}")
        try:
            specs.append(
                AxiomCheckSpec(
                    axiom=entry["axiom"],
                    tolerance=float(tolerance),
                    trials=entry["trials"],
                    seed=entry.get("seed", DEFAULT_SEED),
                    manifold_kind=entry.get("manifold", "euclidean"),
                    dim=entry.get("dim", 4),
                    samples=entry.get("samples", 10_000),
                )
            )
        except OverflowError as exc:  # an integer tolerance beyond float range
            raise ParseError(f"check {i} is malformed: {exc}") from exc
    return specs
