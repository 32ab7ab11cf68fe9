"""The unit 2-sphere embedded in R^3.

Points are unit vectors; tangent vectors live in the plane orthogonal to the
base point.  Charts are rotated spherical coordinates; a curve takes the one
of seven fixed charts, poled on the coordinate axes and the cube diagonals,
whose pole is farthest from its samples.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CutLocusAmbiguity, InvalidCurve, InvalidPoint, InvalidTangent
from .base import (
    Chart,
    Curve,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    christoffel_contraction,
    constant_curve,
    float_dot,
    pin_endpoints,
    row_dots,
)

# Points of interest must stay at least this far (radians) from a chart pole.
POLE_MARGIN = 0.1

# Inner products at or below -1 + this slack mean the base point pair is
# treated as antipodal and the minimising geodesic as ambiguous.
ANTIPODAL_SLACK = 1e-9

# the coordinate axes as rows, read-only, and the two other than each one, in order
_AXES = np.eye(3)
_AXES.setflags(write=False)
_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of 3-vectors or rows of them.

    The same arithmetic as np.cross, so bit-identical to it, at about a third
    of its per-call cost.
    """
    out = np.empty(np.broadcast(a, b).shape)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _check_radial(p: np.ndarray, V: np.ndarray) -> None:
    """Refuse a row of ``V``, one of a few, whose radial part at ``p`` exceeds 1e-9 (1 + |v|)."""
    p = p.tolist()
    for v in V.tolist():
        radial = abs(float_dot(v, p))
        if radial > 1e-9 * (1.0 + math.sqrt(float_dot(v, v))):
            raise InvalidTangent(f"components have radial part {radial!r}; not tangent to the sphere")


def _pole_frame(n: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal rows (u, w, n) completing the pole axis n."""
    j = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[j] = 1.0
    u = e - np.dot(e, n) * n
    u /= np.linalg.norm(u)
    w = _cross3(n, u)
    return np.array([u, w, n])


class SphericalChart(Chart):
    """Colatitude/longitude coordinates after rotating ``pole`` to the z-axis.

    Chart coordinates are (theta, phi) with theta in (0, pi) measured from the
    pole; the metric is diag(1, sin(theta)^2).  The helpers take one point or
    an array of them, with the coordinates on the last axis.
    """

    dim = 2

    def __init__(self, pole: np.ndarray):
        pole = np.asarray(pole, dtype=float)
        norm = np.linalg.norm(pole)
        if norm < 1e-12:
            raise ValueError("chart pole must be a nonzero vector")
        self.pole = pole / norm
        self.rotation = _pole_frame(self.pole)
        self.pole.setflags(write=False)
        self.rotation.setflags(write=False)

    def _angles(self, P: np.ndarray):
        q = P @ self.rotation.T
        theta = np.arctan2(np.hypot(q[..., 0], q[..., 1]), q[..., 2])
        return theta, np.arctan2(q[..., 1], q[..., 0])

    @staticmethod
    def _christoffel(theta) -> np.ndarray:
        sin, cos = np.sin(theta), np.cos(theta)
        gamma = np.zeros(np.shape(theta) + (2, 2, 2))
        gamma[..., 0, 1, 1] = -sin * cos
        gamma[..., 1, 0, 1] = gamma[..., 1, 1, 0] = cos / sin
        return gamma

    @staticmethod
    def _basis(theta, phi) -> np.ndarray:
        """Coordinate basis vectors (d/dtheta, d/dphi) as rotated ambient rows."""
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        sin_p, cos_p = np.sin(phi), np.cos(phi)
        d_theta = np.stack([cos_t * cos_p, cos_t * sin_p, -sin_t], axis=-1)
        d_phi = np.stack([-sin_t * sin_p, sin_t * cos_p, np.zeros_like(sin_t)], axis=-1)
        return np.stack([d_theta, d_phi], axis=-2)

    def _pull(self, P: np.ndarray, V: np.ndarray):
        """Colatitude of P and the chart components of V based there."""
        theta, phi = self._angles(P)
        basis = self._basis(theta, phi)
        comps = np.einsum("...ac,...c->...a", basis, V @ self.rotation.T)
        comps[..., 1] /= np.sin(theta) ** 2
        return theta, comps

    def to_chart(self, p: Point) -> np.ndarray:
        return np.array(self._angles(p.coords))

    def metric(self, x: np.ndarray) -> np.ndarray:
        return np.diag([1.0, np.sin(float(x[0])) ** 2])

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        return self._christoffel(float(x[0]))

    def push(self, x: np.ndarray, comps: np.ndarray) -> np.ndarray:
        return comps @ self._basis(float(x[0]), float(x[1])) @ self.rotation

    def pull(self, p: Point, comps: np.ndarray) -> np.ndarray:
        return self._pull(p.coords, np.asarray(comps, dtype=float))[1]

    def transport_matrices(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        theta, xdot = self._pull(P, V)
        return christoffel_contraction(self._christoffel(theta), xdot)

    def _unit_rotated(self, P: np.ndarray) -> np.ndarray:
        q = P @ self.rotation.T
        return q / np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2])[:, None]

    def connection_forms(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """omega = cos(theta) phi' = q_z (q_x u_y - q_y u_x) / rho^2, free of
        trigonometry, with q = P R^T / |P|, u = V R^T and rho^2 = q_x^2 + q_y^2."""
        q, u = self._unit_rotated(P), V @ self.rotation.T
        qx, qy = q[:, 0], q[:, 1]
        return q[:, 2] * (qx * u[:, 1] - qy * u[:, 0]) / (qx * qx + qy * qy)

    def frames(self, P: np.ndarray) -> np.ndarray:
        """(d/dtheta, d/dphi / sin(theta)) = ((q_z q_x / rho, q_z q_y / rho, -rho),
        (-q_y / rho, q_x / rho, 0)) R, free of trigonometry, with q = P R^T / |P|
        and rho = sin(theta)."""
        q = self._unit_rotated(P)
        rho = np.hypot(q[:, 0], q[:, 1])
        F = np.empty((len(q), 2, 3))
        F[:, 0, :2] = (q[:, 2] / rho)[:, None] * q[:, :2]
        F[:, 0, 2] = -rho
        F[:, 1, 0] = -q[:, 1] / rho
        F[:, 1, 1] = q[:, 0] / rho
        F[:, 1, 2] = 0.0
        return F @ self.rotation

    def coordinate_basis(self, P: np.ndarray) -> np.ndarray:
        return self._basis(*self._angles(P)) @ self.rotation


# the curve charts, constants of the geometry, and their poles as rows
_CURVE_CHARTS = tuple(SphericalChart(pole) for pole in (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)))
_CURVE_POLES = np.array([chart.pole for chart in _CURVE_CHARTS])
_CURVE_POLES.setflags(write=False)


class Sphere2(Manifold):
    """S^2 with the round metric induced from R^3."""

    kind = "sphere2"
    dim = 2
    coord_dim = 3

    def point_rows(self, P) -> np.ndarray:
        """Rows of unit norm within 1e-9, renormalised when off by more than 1e-12."""
        P = super().point_rows(P)
        norms = np.sqrt((P * P).sum(axis=1))
        off = np.abs(norms - 1.0)
        worst = off.max(initial=0.0)
        if worst > 1e-9:
            norm = float(norms[np.argmax(off)])
            raise InvalidPoint(f"point norm {norm!r} is not 1 within 1e-9")
        if worst > 1e-12:
            P = np.where((off > 1e-12)[:, None], P / norms[:, None], P)
        return P

    def _point_coords(self, x: np.ndarray) -> np.ndarray:
        a, b, c = self._coord_floats(x)
        norm = math.sqrt(a * a + b * b + c * c)  # point_rows' bits
        off = abs(norm - 1.0)
        if off > 1e-9:
            raise InvalidPoint(f"point norm {norm!r} is not 1 within 1e-9")
        return x if off <= 1e-12 else np.array([a / norm, b / norm, c / norm])

    def tangent(self, p: Point, components) -> TangentVector:
        arr = self._components(components)
        _check_radial(p.coords, arr[None, :])
        return self.project_tangent(p, arr)

    def project_tangent(self, p: Point, components) -> TangentVector:
        arr = self._components(components)
        return TangentVector(p, arr - np.dot(p.coords, arr) * p.coords)

    def lower(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return V - (P * V).sum(axis=-1, keepdims=True) * P

    def lower_floats(self, p: list[float], v: list[float]) -> list[float]:
        (x, y, z), (a, b, c) = p, v
        s = x * a + y * b + z * c
        return [a - s * x, b - s * y, c - s * z]

    def validate_frame(self, frame: OrthonormalFrame) -> np.ndarray:
        # lower() projects radial parts away, so the Gram check cannot see them
        rows = super().validate_frame(frame)
        _check_radial(frame.base.coords, rows)
        return rows

    def raise_gradients(self, P: np.ndarray, G: np.ndarray) -> np.ndarray:
        # the metric is the tangent projector, so raising projects as lowering does
        return self.lower(P, G)

    def chart_for_curve(self, samples) -> Chart:
        """The fixed chart whose pole has the least largest |s . pole|."""
        if not isinstance(samples, np.ndarray):
            samples = np.array([s.coords for s in samples])
        nearest = np.abs(samples @ _CURVE_POLES.T).max(axis=0)
        best = int(np.argmin(nearest))
        if nearest[best] > math.cos(POLE_MARGIN):
            raise InvalidCurve("curve passes within 0.1 rad of the best available chart pole")
        return _CURVE_CHARTS[best]

    def exp_map(self, v: TangentVector) -> Point:
        theta = np.linalg.norm(v.components)
        if theta < 1e-300:
            return Point(np.array(v.base.coords))
        out = np.cos(theta) * v.base.coords + np.sin(theta) / theta * v.components
        return Point(out / np.linalg.norm(out))

    def log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cos = row_dots(P, q)
        cross = _cross3(P, q - P)  # p x q, free of cancellation for nearby points
        w = _cross3(cross, P)
        w_norm = np.sqrt(row_dots(w, w))
        theta = np.arctan2(np.sqrt(row_dots(cross, cross)), cos)
        zero = w_norm < 1e-300
        V = (theta / np.where(zero, 1.0, w_norm))[:, None] * w
        V[zero] = 0.0
        V[cos <= -1.0 + ANTIPODAL_SLACK] = np.nan  # antipodal: no unique minimiser
        return V, theta

    geodesic_between = Manifold.geodesic_between  # bench/tracing.py wraps it per class

    def make_geodesic(self, p: Point, o: Point) -> Curve:
        """``log_rows``' constants of one pair in Python floats: the angle theta, the
        unit tangent u at p, (p x q) x p over its norm, and the normal p x u."""
        (p0, p1, p2), (q0, q1, q2) = p.coords.tolist(), o.coords.tolist()
        cos = p0 * q0 + p1 * q1 + p2 * q2
        if cos <= -1.0 + ANTIPODAL_SLACK:
            raise CutLocusAmbiguity(
                "base point pair is antipodal; the minimising geodesic is not unique"
            )
        d0, d1, d2 = q0 - p0, q1 - p1, q2 - p2
        c0, c1, c2 = p1 * d2 - p2 * d1, p2 * d0 - p0 * d2, p0 * d1 - p1 * d0  # p x q, as in log_rows
        theta = math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), cos)
        if theta < 1e-14:
            return constant_curve(self, p)
        w0, w1, w2 = c1 * p2 - c2 * p1, c2 * p0 - c0 * p2, c0 * p1 - c1 * p0
        w_norm = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        u0, u1, u2 = w0 / w_norm, w1 / w_norm, w2 / w_norm
        axis_p = np.array(p.coords)
        axis_t = np.array([u0, u1, u2])
        normal = np.array([p1 * u2 - p2 * u1, p2 * u0 - p0 * u2, p0 * u1 - p1 * u0])

        def position(t):
            angle = theta * np.asarray(t)[..., None]
            return np.cos(angle) * axis_p + np.sin(angle) * axis_t

        def velocity(t):
            angle = theta * np.asarray(t)[..., None]
            return theta * (-np.sin(angle) * axis_p + np.cos(angle) * axis_t)

        def frame(t):  # the great circle turns its tangent about its constant normal p x u
            angle = theta * t[:, None]
            cos, sin = np.cos(angle), np.sin(angle)
            E = np.empty((len(t), 2, 3))
            E[:, 0] = cos * axis_t - sin * axis_p
            E[:, 1] = normal
            return cos * axis_p + sin * axis_t, E

        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=velocity,
            start=p,
            end=o,
            is_geodesic=True,
            length=theta,
            frame_fn=pin_endpoints(frame, p, o),
        )

    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return -(V * V).sum(axis=-1, keepdims=True) * P

    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        """Gram-Schmidt on the two coordinate axes e other than the one of p's
        largest component, each first projected onto the tangent plane:
        e - (e . p) p, where e . p is p's component along e."""
        x = p.coords
        size = [abs(c) for c in x.tolist()]
        a, b = _OTHER_AXES[size.index(max(size))]
        u = _AXES[a] - x[a] * x
        v = _AXES[b] - x[b] * x
        u /= math.sqrt(np.dot(u, u))
        v -= np.dot(v, u) * u
        v /= math.sqrt(np.dot(v, v))
        return OrthonormalFrame(p, (u, v))

    def random_point(self, rng: np.random.Generator) -> Point:
        while True:
            raw = rng.standard_normal(3)
            norm = np.linalg.norm(raw)
            if norm > 1e-6:
                return Point(raw / norm)

    def latitude_loop(self, colatitude: float) -> Curve:
        """Closed constant-colatitude circle around the z-axis, t in [0, 1].

        Not a geodesic (except at the equator); used to exercise transport
        along non-geodesic curves, where one full loop rotates tangent
        vectors by 2*pi*(1 - cos(colatitude)).
        """
        theta = float(colatitude)
        if not 0.0 < theta < np.pi:
            raise InvalidCurve("colatitude must lie strictly between 0 and pi")
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        speed = 2.0 * np.pi * sin_t

        def position(t):
            phi = 2.0 * np.pi * np.asarray(t, dtype=float)
            out = np.full(phi.shape + (3,), cos_t)
            out[..., 0], out[..., 1] = sin_t * np.cos(phi), sin_t * np.sin(phi)
            return out

        def velocity(t):
            phi = 2.0 * np.pi * np.asarray(t, dtype=float)
            out = np.zeros(phi.shape + (3,))
            out[..., 0], out[..., 1] = speed * -np.sin(phi), speed * np.cos(phi)
            return out

        start = Point(position(0.0))
        return Curve(
            manifold=self,
            position_fn=position,
            velocity_fn=velocity,
            start=start,
            end=start,
            is_geodesic=False,
            length=speed,
        )
