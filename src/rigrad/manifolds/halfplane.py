"""The hyperbolic upper half-plane with metric (dx^2 + dy^2) / y^2.

Geodesics are vertical rays and semicircles centred on the x-axis.  Both
are handled through the unit-speed parameter s with sinh(s) = (c - x) / y,
which stays well conditioned for nearby points where the classical arccosh
distance formula loses digits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ..errors import InvalidPoint, NonFiniteValue
from .base import (
    Chart,
    Curve,
    IdentityChart,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    constant_curve,
    float_squares,
    pin_endpoints,
)

# Below this fraction of the coordinate scale a horizontal offset is treated
# as zero and the geodesic as a vertical ray; the semicircle construction
# divides by the offset and would otherwise blow up.
VERTICAL_CUTOFF = 1e-13

# sinh overflows past this argument, so no longer geodesic is traced
_LONGEST = math.asinh(sys.float_info.max)


def _sech(s):
    """Overflow-free 1/cosh, elementwise."""
    e = np.exp(-np.abs(s))
    return 2.0 * e / (1.0 + e * e)


def _arc_velocity(r, sp, ds, t, square):
    """Velocity at t of the arc of radius r as s runs from sp by ds; sech^2 by ``square``."""
    s = sp + t * ds
    sech = _sech(s)
    return np.expand_dims(ds, -1) * np.stack([-r * square(sech), -r * sech * np.tanh(s)], axis=-1)


def _ray_velocity(y, k, t):
    """Velocity at t of the vertical ray y exp(k t)."""
    vy = y * k * np.exp(k * t)
    return np.stack([np.zeros_like(vy), vy], axis=-1)


def _constants(xp, yp, xq: float, yq: float):
    """Whether the geodesic from (xp, yp), arrays or one pair of floats, to
    (xq, yq) is a vertical ray (offset below VERTICAL_CUTOFF of the coordinate
    scale), its rate k, and the semicircle's radius r, ends sp, sq and span
    ds, which vertical rows lack.  dx is a numpy value even for floats, so a
    zero offset divides to inf rather than raising ZeroDivisionError."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = np.subtract(xq, xp)
        scale = np.maximum(np.maximum(abs(xp), yp), max(abs(xq), yq))
        k = np.log(yq / yp)
        c = 0.5 * (xp + xq) + (yq - yp) * (yq + yp) / (2.0 * dx)
        r = np.hypot(xp - c, yp)
        sp = np.arcsinh((c - xp) / yp)
        sq = np.arcsinh((c - xq) / yq)
        return abs(dx) <= VERTICAL_CUTOFF * scale, k, r, sp, sq, sq - sp


def _christoffel(X: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at each point of X, shape (K, 2, 2, 2)."""
    inv_y = 1.0 / X[:, 1]
    gamma = np.zeros((len(X), 2, 2, 2))
    gamma[:, 0, 0, 1] = -inv_y
    gamma[:, 0, 1, 0] = -inv_y
    gamma[:, 1, 0, 0] = inv_y
    gamma[:, 1, 1, 1] = -inv_y
    return gamma


class HalfPlaneChart(IdentityChart):
    """The half-plane's canonical coordinates, with the closed-form frame and
    connection form of the metric I / y^2."""

    def orthonormal_rows(self, P: np.ndarray) -> np.ndarray:
        """y I: the coordinate vectors scaled to unit length."""
        return P[:, 1, None, None] * np.eye(2)

    def connection_forms(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """omega = x' / y."""
        return V[:, 0] / P[:, 1]


class HalfPlane2(Manifold):
    """Poincare upper half-plane; points are (x, y) with y > 0."""

    kind = "half_plane2"
    dim = 2
    coord_dim = 2

    def __init__(self):
        self._chart = HalfPlaneChart(self, _christoffel)

    def point_rows(self, P) -> np.ndarray:
        """Rows with a positive second coordinate."""
        P = super().point_rows(P)
        lowest = P[:, 1].min(initial=np.inf)
        if lowest <= 0.0:
            raise InvalidPoint(f"second coordinate must be positive, got {float(lowest)!r}")
        return P

    def lower(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return V / P[:, 1:] ** 2

    def raise_gradients(self, P: np.ndarray, G: np.ndarray) -> np.ndarray:
        return P[:, 1:] ** 2 * G

    def chart_for_curve(self, samples) -> Chart:
        return self._chart

    def exp_map(self, v: TangentVector) -> Point:
        (x0, y0), (a, b) = v.base.coords.tolist(), v.components.tolist()
        speed = np.hypot(a, b) / y0
        if speed < 1e-300:
            return Point(np.array(v.base.coords))
        if abs(a) <= VERTICAL_CUTOFF * np.hypot(a, b):
            return Point(np.array([x0, y0 * np.exp(b / y0)]))
        r = (y0 / abs(a)) * np.hypot(a, b)
        s0 = np.arcsinh(b / a)
        s1 = s0 - np.sign(a) * speed
        y1 = max(r * _sech(s1), np.finfo(float).tiny)
        # x0 + r (tanh s0 - tanh s1), without the cancellation of c - r tanh(s1);
        # past the speed where sinh overflows, c - r tanh(s1) gives the limit
        with np.errstate(over="ignore", invalid="ignore"):
            x1 = x0 + y0 * np.sinh(s0 - s1) * _sech(s1)
        if not math.isfinite(x1):
            x1 = x0 + (b / a) * y0 - r * np.tanh(s1)
        return Point(np.array([x1, y1]))

    def _geodesic(self, p: Point, q: Point):
        """Position and velocity evaluators (of a float t or an array), the
        length and the highest y of the geodesic from p to q, from the pair's
        ``_constants``: the ray y = yp exp(k t), or the semicircle as s runs
        from sp to sp + ds, with x = xp - yp sinh(t ds) sech(s), the tanh
        difference without the cancellation of c - r tanh(s) at large c, r."""
        (xp, yp), (xq, yq) = p.coords.tolist(), q.coords.tolist()
        vertical, k, r, sp, sq, ds = _constants(xp, yp, xq, yq)
        if vertical:

            def v_position(t):
                t = np.asarray(t, dtype=float)
                return np.stack([np.full_like(t, xp), yp * np.exp(k * t)], axis=-1)

            def v_velocity(t):
                return _ray_velocity(yp, k, np.asarray(t, dtype=float))

            return v_position, v_velocity, abs(float(k)), max(yp, yq)

        def position(t):
            a = np.asarray(t, dtype=float) * ds
            sech = _sech(sp + a)
            return np.stack([xp - yp * np.sinh(a) * sech, r * sech], axis=-1)

        def velocity(t):
            return _arc_velocity(r, sp, ds, np.asarray(t, dtype=float), lambda a: a**2)

        top = float(r) if min(sp, sq) <= 0.0 <= max(sp, sq) else max(yp, yq)
        return position, velocity, abs(float(ds)), top

    def log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``velocity(0.0)``, whose square is one float's, and length."""
        vertical, k, r, sp, _, ds = _constants(P[:, 0], P[:, 1], *q.tolist())
        with np.errstate(invalid="ignore", over="ignore"):
            arc = _arc_velocity(r, sp, ds, 0.0, float_squares)
            ray = _ray_velocity(P[:, 1], k, 0.0)
        return np.where(vertical[:, None], ray, arc), np.abs(np.where(vertical, k, ds))

    geodesic_between = Manifold.geodesic_between  # bench/tracing.py wraps it per class

    def make_geodesic(self, p: Point, o: Point) -> Curve:
        if np.array_equal(p.coords, o.coords):
            return constant_curve(self, p)
        position, velocity, length, top = self._geodesic(p, o)
        # lowering squares y, and the coordinate speed reaches top * length
        if not (math.isfinite(top * top) and math.isfinite(top * length) and length < _LONGEST):
            raise NonFiniteValue(
                f"the half-plane geodesic overflows: highest y {top:.3e}, length {length:.3e}"
            )
        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=velocity,
            start=p,
            end=o,
            is_geodesic=True,
            length=length,
        )

    def geodesic_normal(self, P: np.ndarray, T: np.ndarray) -> np.ndarray:
        return np.stack([-T[:, 1], T[:, 0]], axis=1)

    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return -np.einsum("skij,si,sj->sk", _christoffel(P), V, V)

    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        y = float(p.coords[1])
        return OrthonormalFrame(
            p,
            (
                TangentVector(p, np.array([y, 0.0])),
                TangentVector(p, np.array([0.0, y])),
            ),
        )

    def random_point(self, rng: np.random.Generator) -> Point:
        x = rng.standard_normal()
        y = float(np.exp(0.5 * rng.standard_normal()))
        return Point(np.array([x, y]))
