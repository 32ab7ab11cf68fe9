"""The hyperbolic upper half-plane with metric (dx^2 + dy^2) / y^2.

Every geodesic, semicircle or vertical ray, is one formula, ``_walk``: the
geodesic through i moved by z -> x_p + y_p z, which sends i to p (J. W.
Anderson, *Hyperbolic Geometry*, 2005; A. F. Beardon, *The Geometry of
Discrete Groups*, 1983, ch. 7).  No centre or radius appears.
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
    pin_endpoints,
)

_TINY = sys.float_info.min
_LONGEST = -math.log(_TINY)  # past this length exp(-s) is no longer a normal float


def _directions(xp, yp, xq: float, yq: float):
    """Length d = 2 asinh(|h| / sqrt(yp yq)), exact for nearby points, and unit initial
    direction (cos, sin), that of (yp hx, hx^2 + hy (yp + yq) / 2) / |h|, of the geodesic
    from (xp, yp), arrays or floats, to (xq, yq), where h = (q - p) / 2 cannot overflow.
    A point equal to q has direction (0, 0); at tiny y, d overflows to infinity."""
    hx, hy = 0.5 * xq - 0.5 * xp, 0.5 * yq - 0.5 * yp
    h = np.hypot(hx, hy)
    d = 2.0 * np.arcsinh(h / (np.sqrt(yp) * math.sqrt(yq)))
    nx, ny = np.array([hx, hy]) / np.where(h == 0.0, 1.0, h)
    mean_y = yp + hy
    norm = np.hypot(hx, mean_y)
    return d, yp * nx / norm, (hx * nx + mean_y * ny) / norm


def _cos2_factors(cos: float, sin: float) -> tuple[float, float]:
    """m = 1 - sin and P = 1 + sin; the smaller is cos^2 over the larger, which does not cancel."""
    larger = 1.0 + abs(sin)
    return (cos * cos / larger, larger) if sin >= 0.0 else (larger, cos * cos / larger)


def _walk(cos: float, m: float, P: float, s):
    """c = cos (1 - u^2) / D and w = u (m + P) / D, D = m + u^2 P, u = exp(-s), at arc
    lengths s from p in the direction (cos, sin), m and P its ``_cos2_factors``:
    x = x_p + y_p c, y = y_p w, and the unit direction is (cos w, sin - cos c).
    Finite while D is a normal float; c = 0 and w = 1 exactly at s = 0."""
    u = np.exp(-s)
    denominator = m + u * u * P
    return cos * -np.expm1(-2.0 * s) / denominator, u * (m + P) / denominator


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.stack([a, b], axis=-1) of two arrays of one shape, at less cost."""
    out = np.empty(a.shape + (2,))
    out[..., 0], out[..., 1] = a, b
    return out


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

    frames = orthonormal_rows  # the chart is the canonical coordinates

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

    def _frame_gram(self, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # the rows over y, whose squares stay normal floats where y**2 in lower() does not
        scaled = rows / p[1]
        return scaled @ scaled.T

    def chart_for_curve(self, samples) -> Chart:
        return self._chart

    def exp_map(self, v: TangentVector) -> Point:
        """The walk from the base along the tangent for its speed; y is clamped to the
        smallest positive float, and NonFiniteValue raised where the walk leaves the floats.

        Past a speed of _LONGEST, u = exp(-s) is no longer a normal float, and u^2 P
        vanishes beside m, so y = y_p u (m + P) / m is taken through its logarithm:
        y_p e^-s can be a normal float where e^-s is not."""
        (x0, y0), (a, b) = v.base.coords.tolist(), v.components.tolist()
        norm = math.hypot(a, b)
        if norm / y0 < 1e-300:
            return Point(np.array(v.base.coords))
        cos, sin, s = a / norm, b / norm, norm / y0
        m, P = _cos2_factors(cos, sin)
        stays = m + P * math.exp(-2.0 * s) >= _TINY
        with np.errstate(all="ignore"):
            c, w = _walk(cos, m, P, s)
            x, y = x0 + y0 * c, y0 * w
            if stays and s > _LONGEST:
                y = float(np.exp(math.log(y0) + math.log((m + P) / m) - s))
        if not (math.isfinite(x) and math.isfinite(y) and stays):
            raise NonFiniteValue(f"the half-plane exp_map overflows at speed {s:.3e}")
        return Point(np.array([x, max(y, _TINY)]))

    def log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's velocity y_p d (cos, sin) at 0, NaN where d overflows, and d."""
        with np.errstate(over="ignore"):
            d, cos, sin = _directions(P[:, 0], P[:, 1], *q.tolist())
            V = np.where(d < np.inf, d, np.nan)[:, None] * np.stack([cos, sin], axis=1)
            return P[:, 1:] * V, d

    geodesic_between = Manifold.geodesic_between  # bench/tracing.py wraps it per class

    def make_geodesic(self, p: Point, o: Point) -> Curve:
        if np.array_equal(p.coords, o.coords):
            return constant_curve(self, p)
        (xp, yp), (xq, yq) = p.coords.tolist(), o.coords.tolist()
        with np.errstate(over="ignore"):  # an infinite length is refused below
            d, cos, sin = map(float, _directions(xp, yp, xq, yq))
        m, P = _cos2_factors(cos, sin)
        # y peaks at yp / |cos| where s = atanh(sin) = log(P / m) / 2, if the walk gets there
        end = P * math.exp(-2.0 * d)  # u^2 P at the end of the walk
        top = yp / abs(cos) if sin > 0.0 and 0.0 < m and end <= m else max(yp, yq)
        # lowering squares y, the coordinate speed reaches top * length, and the walk's
        # denominator m + u^2 P, smallest at the end, must stay a normal float, as in exp_map
        if not (math.isfinite(top * max(top, d)) and m + end >= _TINY and d < _LONGEST):
            raise NonFiniteValue(
                f"the half-plane geodesic overflows: highest y {top:.3e}, length {d:.3e}"
            )

        def position(t):
            c, w = _walk(cos, m, P, np.asarray(t, dtype=float) * d)
            return _pairs(xp + yp * c, yp * w)

        def velocity(t):  # y times the g-speed d times the unit direction
            c, w = _walk(cos, m, P, np.asarray(t, dtype=float) * d)
            return (yp * w)[..., None] * (d * _pairs(cos * w, sin - cos * c))

        def frame(t):  # the unit tangent T = y (cos w, sin - cos c) and N = (-T_y, T_x)
            c, w = _walk(cos, m, P, t * d)
            y = yp * w
            E = np.empty((len(t), 2, 2))
            E[:, 0, 0] = E[:, 1, 1] = y * (cos * w)
            E[:, 0, 1] = y * (sin - cos * c)
            E[:, 1, 0] = -E[:, 0, 1]
            return _pairs(xp + yp * c, y), E

        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=velocity,
            start=p,
            end=o,
            is_geodesic=True,
            length=d,
            frame_fn=pin_endpoints(frame, p, o),
        )

    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return -np.einsum("skij,si,sj->sk", _christoffel(P), V, V)

    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        return OrthonormalFrame(p, float(p.coords[1]) * np.eye(2))

    def random_point(self, rng: np.random.Generator) -> Point:
        x = rng.standard_normal()
        y = float(np.exp(0.5 * rng.standard_normal()))
        return Point(np.array([x, y]))
