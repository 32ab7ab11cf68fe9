"""Core geometric types and the manifold interface.

Points, tangent vectors, curves and frames are immutable value objects;
every operation on them is a pure function, so instances are safe to share
across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (
    CutLocusAmbiguity,
    DimensionMismatch,
    InvalidCurve,
    InvalidPoint,
    InvalidTangent,
    NonFiniteValue,
)

# The most a g-orthonormal frame's Gram matrix may differ from the identity.
FRAME_TOL = 1e-10


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Point:
    """A manifold point in its canonical coordinate representation.

    Euclidean(n): ambient coordinates; Sphere2: unit vector in R^3;
    HalfPlane2: (x, y) with y > 0.
    """

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(self.coords))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at ``base``, stored in the same coordinates as points."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _freeze(self.components))
        if self.components.shape != self.base.coords.shape:
            raise InvalidTangent(
                f"components shape {self.components.shape} does not match "
                f"base point shape {self.base.coords.shape}"
            )

    def _same_base(self, other: "TangentVector") -> None:
        if not np.array_equal(self.base.coords, other.base.coords):
            raise InvalidTangent("tangent vectors live at different base points")

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, self.components * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Curve:
    """A parametrized path ``t in [0, 1] -> M`` with velocity access.

    ``start`` and ``end`` must be reproduced by the position evaluator at
    t = 0 and t = 1.  ``is_geodesic`` marks constant-speed length-minimising
    geodesics, which unlocks closed-form parallel transport; their g-speed
    must equal ``length`` at every t.

    The evaluators map a float array of K parameters to a (K, coord_dim)
    array; ``position`` and ``velocity`` are their one-parameter cases.
    ``frame_fn``, which ``make_geodesic`` supplies on a curved 2-manifold,
    maps them to the positions, the same bits as ``position_fn``'s, and a
    parallel g-orthonormal frame (K, 2, coord_dim) there: the unit tangent,
    then the normal that completes it to an oriented pair.  Transport reads
    the positions from it, so a copy that replaces ``position_fn`` replaces
    or drops ``frame_fn`` too.
    """

    manifold: "Manifold"
    position_fn: Callable[[np.ndarray], np.ndarray]
    velocity_fn: Callable[[np.ndarray], np.ndarray]
    start: Point
    end: Point
    is_geodesic: bool
    length: float
    frame_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def position(self, t: float) -> Point:
        return Point(self.positions([float(t)])[0])

    def velocity(self, t: float) -> TangentVector:
        return TangentVector(self.position(t), self.velocities([float(t)])[0])

    def positions(self, ts) -> np.ndarray:
        """Positions at every parameter in ``ts``, shape (len(ts), coord_dim)."""
        return self._rows(self.position_fn, "position", ts)

    def velocities(self, ts) -> np.ndarray:
        """Velocities at every parameter in ``ts``, shape (len(ts), coord_dim)."""
        return self._rows(self.velocity_fn, "velocity", ts)

    def _rows(self, evaluator, name: str, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        count, dim = len(ts), self.manifold.coord_dim
        if count == dim:  # where a (coord_dim, K) transpose has the right shape
            ts = np.concatenate([ts, ts[-1:]])
        out = np.asarray(evaluator(ts), dtype=float)
        expected = (len(ts), dim)
        if out.shape != expected:
            raise InvalidCurve(
                f"{name} evaluator returned shape {out.shape} for {len(ts)} "
                f"parameters; expected {expected}"
            )
        return out[:count]


@dataclass(frozen=True)
class OrthonormalFrame:
    """An ordered g-orthonormal basis of the tangent space at ``base``.

    ``rows`` holds the basis as one frozen, C-ordered (n, coord_dim) array of
    components. It is given as an array or a sequence of rows, which is
    copied, or as a sequence of ``TangentVector``s based at ``base``; anything
    else raises InvalidTangent. ``vectors`` builds them on each read.
    """

    base: Point
    rows: np.ndarray

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, np.ndarray) and np.iterable(rows):
            rows = tuple(rows)
            if rows and all(isinstance(v, TangentVector) for v in rows):
                for v in rows:
                    if not (v.base is self.base or np.array_equal(v.base.coords, self.base.coords)):
                        raise InvalidTangent("frame vector not based at the frame's point")
                rows = [v.components for v in rows]
            elif not rows:
                rows = np.empty((0, self.base.coords.size))
        try:
            rows = _freeze(rows)
        except (TypeError, ValueError) as exc:
            raise InvalidTangent(f"frame rows are not an array of numbers: {exc}") from None
        if rows.ndim != 2 or rows.shape[1] != self.base.coords.size:
            raise InvalidTangent(
                f"frame rows shape {rows.shape} is not (n, {self.base.coords.size})"
            )
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> tuple[TangentVector, ...]:
        return tuple(TangentVector(self.base, row) for row in self.rows)


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Each row of A dotted with the row of B, or the vector B, as a (1, n) @ (n, 1)
    product per row: np.dot's bits, which sum, einsum and A @ b do not give."""
    return (A[:, None, :] @ B[..., :, None])[:, 0, 0]


def float_dot(u, v) -> float:
    """The dot product of two short sequences of Python floats, summed in order
    as numpy sums a row of two or three products."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def christoffel_contraction(gamma: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """B[..., j, k] = -Gamma[..., k, i, j] xdot[..., i].

    The transport equation for the chart components w of a vector moved along
    a curve with chart velocity xdot is linear in w: w' = w @ B.
    """
    dim = xdot.shape[-1]
    # Gamma as [..., i, (j, k)], so the sum over i is one batched matmul
    flat = np.moveaxis(gamma, -3, -1).reshape(gamma.shape[:-3] + (dim, dim * dim))
    return -(xdot[..., None, :] @ flat).reshape(xdot.shape + (dim,))


class Chart(ABC):
    """A coordinate chart used for Christoffel symbols and transport ODEs.

    The batched methods take canonical positions ``P`` and vectors ``V`` of
    shape (K, coord_dim).  Their defaults loop over the scalar methods; a
    chart overrides them with array formulas only for speed.
    """

    dim: int

    @abstractmethod
    def to_chart(self, p: Point) -> np.ndarray:
        """Chart coordinates of a point."""

    @abstractmethod
    def metric(self, x: np.ndarray) -> np.ndarray:
        """Metric matrix in chart coordinates, shape (dim, dim)."""

    @abstractmethod
    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j] in chart coordinates."""

    @abstractmethod
    def push(self, x: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """Push tangent components from the chart basis to canonical coordinates."""

    @abstractmethod
    def pull(self, p: Point, comps: np.ndarray) -> np.ndarray:
        """Pull canonical tangent components back to the chart basis.

        ``comps`` is one vector (coord_dim,) or n vectors (n, coord_dim) at
        ``p``; the result has one row of chart components per vector.
        """

    def transport_matrices(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Transport-equation matrices B (K, dim, dim) at points P moving with
        canonical velocities V; see ``christoffel_contraction``."""
        points = [Point(p) for p in P]
        gamma = np.array([self.christoffel(self.to_chart(p)) for p in points])
        xdot = np.array([self.pull(p, v) for p, v in zip(points, V)])
        return christoffel_contraction(gamma, xdot)

    def _metrics(self, P: np.ndarray) -> np.ndarray:
        return np.array([self.metric(self.to_chart(Point(p))) for p in P])

    def orthonormal_rows(self, P: np.ndarray) -> np.ndarray:
        """Chart components F (K, dim, dim) of a g-orthonormal frame at each
        point, F g F^T = I, with the first vector along the first coordinate
        vector (Gram-Schmidt): the inverse Cholesky factor of the metric."""
        return np.linalg.inv(np.linalg.cholesky(self._metrics(P)))

    def connection_forms(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The connection 1-form omega = g(nabla_V e1, e2) (K,) of the frame
        ``orthonormal_rows`` on a 2-dimensional chart.  In that frame parallel
        transport turns the coefficients a + i b of a vector by z' = -i omega z.
        The frame's first vector moves along the first coordinate vector, so
        only the connection term of its derivative is normal to it:
        omega = -F[0] B g F[1]^T."""
        F = self.orthonormal_rows(P)
        B = self.transport_matrices(P, V)
        return -np.einsum("ka,kab,kbc,kc->k", F[:, 0], B, self._metrics(P), F[:, 1])

    def frames(self, P: np.ndarray) -> np.ndarray:
        """The ``orthonormal_rows`` frame at each point in canonical components,
        shape (K, dim, coord_dim)."""
        return self.orthonormal_rows(P) @ self.coordinate_basis(P)

    def coordinate_basis(self, P: np.ndarray) -> np.ndarray:
        """Canonical components of the chart's coordinate basis vectors at each
        point, shape (K, dim, coord_dim): chart components W push to W @ basis."""
        eye = np.eye(self.dim)
        return np.array(
            [[self.push(self.to_chart(Point(p)), e) for e in eye] for p in P]
        )


class IdentityChart(Chart):
    """Canonical coordinates used directly as the chart (Euclidean, half-plane).

    The metric is the manifold's ``metric_at``; ``christoffel_fn`` maps an
    array of points (K, dim) to their Christoffel symbols (K, dim, dim, dim).
    """

    def __init__(self, manifold: "Manifold", christoffel_fn):
        self.dim = manifold.dim
        self._manifold = manifold
        self._christoffel_fn = christoffel_fn

    def to_chart(self, p: Point) -> np.ndarray:
        return np.array(p.coords)

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self._manifold.metric_at(Point(x))

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        return self._christoffel_fn(np.asarray(x, dtype=float)[None, :])[0]

    def push(self, x: np.ndarray, comps: np.ndarray) -> np.ndarray:
        return np.array(comps)

    def pull(self, p: Point, comps: np.ndarray) -> np.ndarray:
        return np.array(comps)

    def transport_matrices(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return christoffel_contraction(self._christoffel_fn(P), V)

    def coordinate_basis(self, P: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(self.dim), (len(P), self.dim, self.dim))


class Manifold(ABC):
    """A complete Riemannian manifold with closed-form geodesics.

    Methods taking ``P`` and ``V`` work on arrays of points and vectors with a
    leading axis over samples, shape (K, coord_dim), row k of ``V`` based at
    row k of ``P``.
    """

    kind: str
    dim: int
    coord_dim: int
    # zero curvature and zero Christoffel symbols in the canonical chart, so
    # transport leaves components unchanged along any curve
    flat: bool = False

    def __repr__(self):
        return f"{type(self).__name__}()"

    # -- points and tangent vectors ------------------------------------

    def point(self, coords) -> Point:
        """Validated point from raw coordinates; raises InvalidPoint."""
        return Point(self._point_coords(np.asarray(coords, dtype=float)))

    def point_rows(self, P) -> np.ndarray:
        """Validated points from the rows of ``P`` (K, coord_dim), the one
        check behind ``point``; raises InvalidPoint for the first bad row.
        Manifolds with constraints beyond finiteness extend it and
        ``_point_coords``."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.coord_dim:
            raise InvalidPoint(
                f"expected rows of {self.coord_dim} coordinates, got shape {P.shape}"
            )
        if not np.isfinite(P).all():
            raise InvalidPoint("coordinates must be finite")
        return P

    def validate_point(self, p: Point) -> Point:
        """``p`` itself where ``point``'s check keeps its coordinates."""
        coords = self._point_coords(p.coords)
        return p if coords is p.coords else Point(coords)

    def _point_coords(self, x: np.ndarray) -> np.ndarray:
        """The one-point check behind ``point`` and ``validate_point``, as
        ``point_rows`` checks a row; ``x`` itself, which ``validate_point``
        hands back as the caller's Point.  Manifolds that extend
        ``point_rows`` override it too."""
        if x.shape != (self.coord_dim,):
            raise InvalidPoint(f"expected {self.coord_dim} coordinates, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidPoint("coordinates must be finite")
        return x

    def _coord_floats(self, x: np.ndarray) -> list[float]:
        """One point's coordinates as Python floats, with ``_point_coords``' refusals."""
        if x.shape != (self.coord_dim,):
            raise InvalidPoint(f"expected {self.coord_dim} coordinates, got shape {x.shape}")
        values = x.tolist()
        if not all(map(math.isfinite, values)):
            raise InvalidPoint("coordinates must be finite")
        return values

    def _components(self, components) -> np.ndarray:
        """One vector's canonical components as floats; raises
        DimensionMismatch unless there are ``coord_dim`` of them."""
        arr = np.asarray(components, dtype=float)
        if arr.shape != (self.coord_dim,):
            raise DimensionMismatch(
                f"expected {self.coord_dim} components, got shape {arr.shape}"
            )
        return arr

    def tangent(self, p: Point, components) -> TangentVector:
        """Validated tangent vector at ``p``; raises InvalidTangent.  By
        default every vector of ``coord_dim`` components is tangent."""
        return TangentVector(p, self._components(components))

    def project_tangent(self, p: Point, components) -> TangentVector:
        """Closest tangent vector to arbitrary coordinate components."""
        return self.tangent(p, components)

    # -- metric ---------------------------------------------------------

    def metric_at(self, p: Point) -> np.ndarray:
        """Metric matrix in canonical coordinates (Sphere2: 3x3 projector):
        ``lower`` applied to the coordinate vectors at ``p``."""
        n = self.coord_dim
        return self.lower(np.repeat(p.coords[None, :], n, axis=0), np.eye(n))

    @abstractmethod
    def lower(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The metric applied to each vector: row k is metric_at(P[k]) @ V[k]."""

    def inner(self, u: TangentVector, v: TangentVector) -> float:
        u._same_base(v)
        g = self.metric_at(u.base)
        return float(u.components @ g @ v.components)

    def norm(self, u: TangentVector) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def raise_gradient(self, p: Point, coord_grad) -> TangentVector:
        """Tangent vector v with g(v, u) equal to coord_grad . u for all tangent u."""
        grad = self._components(coord_grad)
        return TangentVector(p, self.raise_gradients(p.coords[None, :], grad[None, :])[0])

    def lower_floats(self, p: list[float], v: list[float]) -> list[float]:
        """``lower``'s row for one vector ``v`` at one point ``p``, in Python
        floats, where numpy's per-call cost exceeds the arithmetic."""
        with np.errstate(all="ignore"):
            return self.lower(np.array([p]), np.array([v]))[0].tolist()

    @abstractmethod
    def raise_gradients(self, P: np.ndarray, G: np.ndarray) -> np.ndarray:
        """The metric raise of each row of ``G``, the inverse of ``lower``: row k
        is the tangent vector at P[k] that G[k] pairs with as a covector."""

    # -- charts and Christoffel symbols ----------------------------------

    @abstractmethod
    def chart_for_curve(self, samples) -> Chart:
        """Chart valid along a whole curve, given sample points on it: a list
        of Points or an array of their canonical coordinates, one per row."""

    # -- geodesics --------------------------------------------------------

    @abstractmethod
    def exp_map(self, v: TangentVector) -> Point:
        """Point reached by the geodesic with initial velocity ``v`` at t = 1."""

    @abstractmethod
    def log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Initial velocities (K, coord_dim) and lengths (K,) of the minimising
        geodesics from each validated row of ``P`` to the validated point ``q``.
        A row whose minimising geodesic is not unique has a NaN velocity and
        its finite length."""

    def unique_log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log_rows``, raising CutLocusAmbiguity for a row it marks as not unique."""
        V, lengths = self.log_rows(P, q)
        # a NaN anywhere makes the minimum NaN, and +inf with -inf does not: one
        # reduction when no row is marked
        if math.isnan(V.min(initial=np.inf)) and (np.isnan(V).any(axis=1) & np.isfinite(lengths)).any():
            raise CutLocusAmbiguity(
                "base point pair is antipodal; the minimising geodesic is not unique"
            )
        return V, lengths

    def log_map(self, p: Point, q: Point) -> TangentVector:
        """The one-row case of ``unique_log_rows``: the initial velocity from p to q."""
        return TangentVector(p, self.unique_log_rows(p.coords[None, :], q.coords)[0][0])

    def dist(self, p: Point, q: Point) -> float:
        """The one-row case of ``log_rows``: the geodesic distance."""
        return float(self.log_rows(p.coords[None, :], q.coords)[1][0])

    @abstractmethod
    def make_geodesic(self, p: Point, o: Point) -> Curve:
        """``geodesic_between`` of points already validated, as the kernel's are."""

    def geodesic_between(self, p: Point, o: Point) -> Curve:
        """Constant-speed length-minimising geodesic with gamma(0)=p, gamma(1)=o;
        validates both points, then calls ``make_geodesic``."""
        return self.make_geodesic(self.validate_point(p), self.validate_point(o))

    @abstractmethod
    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Right-hand side a(x, x') of the geodesic equation x'' = a(x, x') in
        canonical coordinates: the acceleration of the geodesic through each
        row of ``P`` with velocity the same row of ``V``."""

    # -- frames -----------------------------------------------------------

    @abstractmethod
    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        """Deterministic g-orthonormal basis of the tangent space at ``p``."""

    def validate_frame(self, frame: OrthonormalFrame) -> np.ndarray:
        """``frame.rows`` if they are a g-orthonormal basis; raises otherwise."""
        if len(frame) != self.dim:
            raise InvalidTangent(
                f"frame has {len(frame)} vectors; manifold dimension is {self.dim}"
            )
        rows = frame.rows
        gap = self._frame_gap(frame.base.coords, rows)
        if not math.isfinite(gap):
            raise NonFiniteValue("the frame's Gram matrix is not finite")
        if gap > FRAME_TOL:
            raise InvalidTangent("frame is not g-orthonormal")
        return rows

    def _frame_gap(self, p: np.ndarray, rows: np.ndarray) -> float:
        """max |G - I|, G the Gram matrix of ``rows`` at ``p`` in the metric, in
        Python floats through ``lower_floats``; NaN where an entry is."""
        p, vectors = p.tolist(), rows.tolist()
        lowered = [self.lower_floats(p, v) for v in vectors]
        gaps = [abs(float_dot(u, w) - (i == j))
                for i, u in enumerate(vectors) for j, w in enumerate(lowered)]
        return math.nan if math.isnan(sum(gaps)) else max(gaps)

    # -- sampling (seeded; used by tests and the axiom harness) ------------

    @abstractmethod
    def random_point(self, rng: np.random.Generator) -> Point:
        ...

    def random_tangent(self, p: Point, rng: np.random.Generator) -> TangentVector:
        return self.project_tangent(p, rng.standard_normal(self.coord_dim))


def pin_endpoints(evaluator, p: Point, o: Point):
    """Make a position evaluator, or a frame evaluator that gives the
    positions first, reproduce its endpoints exactly.

    Closed-form geodesic parametrizations recompute the endpoints through
    trigonometric identities and can be off in the last bits, which would
    break the base-point identity checks downstream.
    """

    def wrapped(t):
        out = evaluator(t)
        positions = out[0] if isinstance(out, tuple) else out
        positions[t == 0.0] = p.coords
        positions[t == 1.0] = o.coords
        return out

    return wrapped


def constant_curve(manifold: Manifold, p: Point) -> Curve:
    """Degenerate zero-length curve sitting at ``p``."""
    coords = np.array(p.coords)

    def position(t):
        return np.tile(coords, np.shape(t) + (1,))

    return Curve(
        manifold=manifold,
        position_fn=position,
        velocity_fn=lambda t: np.zeros(np.shape(t) + coords.shape),
        start=p,
        end=p,
        is_geodesic=True,
        length=0.0,
    )
