"""The unit 2-sphere embedded in R^3.

Points are unit vectors; tangent vectors live in the plane orthogonal to the
base point.  Charts are rotated spherical coordinates whose pole is chosen to
stay away from the points of interest.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidCurve, InvalidPoint, InvalidTangent
from .base import (
    Chart,
    Curve,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    christoffel_contraction,
    constant_curve,
    pin_endpoints,
    row_dots,
)

# Points of interest must stay at least this far (radians) from a chart pole.
POLE_MARGIN = 0.1

# Inner products at or below -1 + this slack mean the base point pair is
# treated as antipodal and the minimising geodesic as ambiguous.
ANTIPODAL_SLACK = 1e-9


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

    def from_chart(self, x: np.ndarray) -> Point:
        theta, phi = float(x[0]), float(x[1])
        q = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        return Point(self.rotation.T @ q)

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
        return q / np.sqrt(np.sum(q * q, axis=1))[:, None]

    def orthonormal_rows(self, P: np.ndarray) -> np.ndarray:
        """diag(1, 1/rho): d/dtheta and d/dphi / sin(theta), with sin(theta) = rho."""
        q = self._unit_rotated(P)
        F = np.zeros((len(q), 2, 2))
        F[:, 0, 0] = 1.0
        F[:, 1, 1] = 1.0 / np.hypot(q[:, 0], q[:, 1])
        return F

    def connection_forms(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """omega = cos(theta) phi' = q_z (q_x u_y - q_y u_x) / rho^2, free of
        trigonometry, with q = P R^T / |P|, u = V R^T and rho^2 = q_x^2 + q_y^2."""
        q, u = self._unit_rotated(P), V @ self.rotation.T
        qx, qy = q[:, 0], q[:, 1]
        return q[:, 2] * (qx * u[:, 1] - qy * u[:, 0]) / (qx * qx + qy * qy)

    def coordinate_basis(self, P: np.ndarray) -> np.ndarray:
        return self._basis(*self._angles(P)) @ self.rotation


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

    def tangent(self, p: Point, components) -> TangentVector:
        arr = self._components(components)
        radial = abs(float(np.dot(p.coords, arr)))
        if radial > 1e-9 * (1.0 + np.linalg.norm(arr)):
            raise InvalidTangent(
                f"components have radial part {radial!r}; not tangent to the sphere"
            )
        return self.project_tangent(p, arr)

    def project_tangent(self, p: Point, components) -> TangentVector:
        arr = self._components(components)
        return TangentVector(p, arr - np.dot(p.coords, arr) * p.coords)

    def lower(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return V - (P * V).sum(axis=-1, keepdims=True) * P

    def raise_gradients(self, P: np.ndarray, G: np.ndarray) -> np.ndarray:
        # the metric is the tangent projector, so raising projects as lowering does
        return self.lower(P, G)

    def chart_for_curve(self, samples) -> Chart:
        if isinstance(samples, np.ndarray):
            matrix = samples
        else:
            matrix = np.array([s.coords for s in samples])
        _, _, vt = np.linalg.svd(matrix)
        pole = vt[-1]
        lead = np.flatnonzero(np.abs(pole) > 1e-12)
        if lead.size and pole[lead[0]] < 0:
            pole = -pole
        cos_angles = np.abs(matrix @ pole)
        if np.max(cos_angles) > np.cos(POLE_MARGIN):
            raise InvalidCurve(
                "curve passes within 0.1 rad of the best available chart pole"
            )
        return SphericalChart(pole)

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
        v = self.unique_log_rows(p.coords[None, :], o.coords)[0][0]
        theta = np.sqrt(v.dot(v))
        if theta < 1e-14:
            return constant_curve(self, p)
        axis_p = np.array(p.coords)
        axis_t = v / theta

        def position(t):
            angle = theta * np.asarray(t)[..., None]
            return np.cos(angle) * axis_p + np.sin(angle) * axis_t

        def velocity(t):
            angle = theta * np.asarray(t)[..., None]
            return theta * (-np.sin(angle) * axis_p + np.cos(angle) * axis_t)

        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=velocity,
            start=p,
            end=o,
            is_geodesic=True,
            length=float(theta),
        )

    def geodesic_normal(self, P: np.ndarray, T: np.ndarray) -> np.ndarray:
        return _cross3(P, T)

    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return -(V * V).sum(axis=-1, keepdims=True) * P

    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        drop = int(np.argmax(np.abs(p.coords)))
        vectors = []
        for i in range(3):
            if i == drop:
                continue
            e = np.zeros(3)
            e[i] = 1.0
            v = e - np.dot(e, p.coords) * p.coords
            for u in vectors:
                v = v - np.dot(v, u) * u
            v /= np.linalg.norm(v)
            vectors.append(v)
        return OrthonormalFrame(p, tuple(TangentVector(p, v) for v in vectors))

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

        def position(t):
            phi = 2.0 * np.pi * np.asarray(t, dtype=float)
            return np.stack(
                [sin_t * np.cos(phi), sin_t * np.sin(phi), np.full_like(phi, cos_t)], axis=-1
            )

        def velocity(t):
            phi = 2.0 * np.pi * np.asarray(t, dtype=float)
            return 2.0 * np.pi * sin_t * np.stack(
                [-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1
            )

        start = Point(position(0.0))
        return Curve(
            manifold=self,
            position_fn=position,
            velocity_fn=velocity,
            start=start,
            end=start,
            is_geodesic=False,
            length=2.0 * np.pi * sin_t,
        )
