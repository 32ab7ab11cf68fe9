"""The hyperbolic upper half-plane with metric (dx^2 + dy^2) / y^2.

Geodesics are vertical rays and semicircles centred on the x-axis.  Both
are handled through the unit-speed parameter s with sinh(s) = (c - x) / y,
which stays well conditioned for nearby points where the classical arccosh
distance formula loses digits.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidPoint
from .base import (
    Chart,
    Curve,
    IdentityChart,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    constant_curve,
    pin_endpoints,
)

# Below this fraction of the coordinate scale a horizontal offset is treated
# as zero and the geodesic as a vertical ray; the semicircle construction
# divides by the offset and would otherwise blow up.
VERTICAL_CUTOFF = 1e-13


def _sech(s):
    """Overflow-free 1/cosh, elementwise."""
    e = np.exp(-np.abs(s))
    return 2.0 * e / (1.0 + e * e)


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
        x0, y0 = float(v.base.coords[0]), float(v.base.coords[1])
        a, b = float(v.components[0]), float(v.components[1])
        speed = np.hypot(a, b) / y0
        if speed < 1e-300:
            return Point(np.array(v.base.coords))
        if abs(a) <= VERTICAL_CUTOFF * np.hypot(a, b):
            return Point(np.array([x0, y0 * np.exp(b / y0)]))
        c = x0 + (b / a) * y0
        r = (y0 / abs(a)) * np.hypot(a, b)
        s0 = np.arcsinh(b / a)
        s1 = s0 - np.sign(a) * speed
        y1 = max(r * _sech(s1), np.finfo(float).tiny)
        return Point(np.array([c - r * np.tanh(s1), y1]))

    def _geodesic(self, p: Point, q: Point):
        """Position and velocity evaluators and the length of the geodesic
        from p to q, the one construction behind log_map, dist and
        make_geodesic.  The evaluators take a float t or an array of
        parameters.  A horizontal offset below VERTICAL_CUTOFF of the
        coordinate scale gives the vertical ray y = yp exp(k t); otherwise
        the semicircle of centre c and radius r is traced as s runs from sp
        to sp + ds."""
        xp, yp = float(p.coords[0]), float(p.coords[1])
        xq, yq = float(q.coords[0]), float(q.coords[1])
        dx = xq - xp
        if abs(dx) <= VERTICAL_CUTOFF * max(abs(xp), abs(xq), yp, yq):
            k = np.log(yq / yp)

            def v_position(t):
                t = np.asarray(t, dtype=float)
                return np.stack([np.full_like(t, xp), yp * np.exp(k * t)], axis=-1)

            def v_velocity(t):
                t = np.asarray(t, dtype=float)
                return np.stack([np.zeros_like(t), yp * k * np.exp(k * t)], axis=-1)

            return v_position, v_velocity, abs(float(k))

        c = 0.5 * (xp + xq) + (yq - yp) * (yq + yp) / (2.0 * dx)
        r = np.hypot(xp - c, yp)
        sp = np.arcsinh((c - xp) / yp)
        ds = np.arcsinh((c - xq) / yq) - sp

        def position(t):
            s = sp + np.asarray(t, dtype=float) * ds
            return np.stack([c - r * np.tanh(s), r * _sech(s)], axis=-1)

        def velocity(t):
            s = sp + np.asarray(t, dtype=float) * ds
            sech = _sech(s)
            return ds * np.stack([-r * sech**2, -r * sech * np.tanh(s)], axis=-1)

        return position, velocity, abs(float(ds))

    def log_map(self, p: Point, q: Point) -> TangentVector:
        return TangentVector(p, self._geodesic(p, q)[1](0.0))

    def dist(self, p: Point, q: Point) -> float:
        return self._geodesic(p, q)[2]

    geodesic_between = Manifold.geodesic_between  # bench/tracing.py wraps it per class

    def make_geodesic(self, p: Point, o: Point) -> Curve:
        if np.array_equal(p.coords, o.coords):
            return constant_curve(self, p)
        position, velocity, length = self._geodesic(p, o)
        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=velocity,
            start=p,
            end=o,
            is_geodesic=True,
            length=length,
            vectorized=True,
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
