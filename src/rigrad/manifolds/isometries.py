"""Metric-preserving maps for each supported manifold.

Flat space gets rigid motions, the sphere gets ambient rotations (including
reflections), and the half-plane gets real Moebius maps with unit
determinant.  Every map knows its differential and its inverse, which is all
the invariance checks downstream need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import InvalidIsometry, WrongManifold
from .base import Manifold, OrthonormalFrame, Point, TangentVector
from .euclidean import Euclidean
from .halfplane import HalfPlane2
from .sphere import Sphere2

ORTHOGONALITY_TOL = 1e-10
DETERMINANT_TOL = 1e-12


class Isometry(ABC):
    """A distance-preserving self-map of a fixed manifold.

    Each map has one formula, in its row methods, which take points and
    tangent components as (K, coord_dim) arrays with row k of ``V`` based at
    row k of ``P``.  ``apply``, ``differential`` and ``push_frame`` wrap them.
    """

    manifold: Manifold

    @abstractmethod
    def apply_rows(self, P: np.ndarray) -> np.ndarray:
        """Images of the points in the rows of ``P``; raises InvalidPoint for an
        image the manifold rejects, as ``manifold.point`` does."""

    @abstractmethod
    def differential_rows(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Images of the tangent components ``V`` under the map's derivative,
        based at ``apply_rows(P)``."""

    @abstractmethod
    def inverse(self) -> "Isometry":
        ...

    def apply(self, p: Point) -> Point:
        return Point(self.apply_rows(p.coords[None, :])[0])

    def differential(self, u: TangentVector) -> TangentVector:
        """Image of the tangent vector ``u`` under the map's derivative."""
        moved = self.differential_rows(u.base.coords[None, :], u.components[None, :])
        return TangentVector(self.apply(u.base), moved[0])

    def push_frame(self, frame: OrthonormalFrame) -> OrthonormalFrame:
        base = self.apply(frame.base)
        moved = self.differential_rows(np.tile(frame.base.coords, (len(frame), 1)), frame.rows)
        return OrthonormalFrame(base, moved)


def _check_orthogonal(matrix: np.ndarray, dim: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (dim, dim):
        raise InvalidIsometry(f"expected a {dim}x{dim} matrix, got {matrix.shape}")
    defect = np.max(np.abs(matrix.T @ matrix - np.eye(dim)))
    if defect > ORTHOGONALITY_TOL:
        raise InvalidIsometry(f"matrix is not orthogonal (defect {defect:.2e})")
    return matrix


class EuclideanMotion(Isometry):
    """x -> Qx + b with Q orthogonal."""

    def __init__(self, manifold: Euclidean, matrix, offset):
        if manifold.kind != "euclidean":
            raise WrongManifold("EuclideanMotion requires a Euclidean manifold")
        self.manifold = manifold
        self.matrix = _check_orthogonal(matrix, manifold.dim)
        self.offset = np.asarray(offset, dtype=float)
        if self.offset.shape != (manifold.dim,):
            raise InvalidIsometry(f"offset shape {self.offset.shape} does not match dim")

    def apply_rows(self, P: np.ndarray) -> np.ndarray:
        return self.manifold.point_rows(P @ self.matrix.T + self.offset)

    def differential_rows(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return V @ self.matrix.T

    def inverse(self) -> "EuclideanMotion":
        return EuclideanMotion(self.manifold, self.matrix.T, -self.matrix.T @ self.offset)


class SphereRotation(Isometry):
    """p -> Rp with R in O(3)."""

    def __init__(self, manifold: Sphere2, matrix):
        if manifold.kind != "sphere2":
            raise WrongManifold("SphereRotation requires the sphere manifold")
        self.manifold = manifold
        self.matrix = _check_orthogonal(matrix, 3)

    def apply_rows(self, P: np.ndarray) -> np.ndarray:
        return self.manifold.point_rows(P @ self.matrix.T)

    def differential_rows(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        # RV is tangent at RP up to rounding, which the projection removes
        return self.manifold.lower(self.apply_rows(P), V @ self.matrix.T)

    def inverse(self) -> "SphereRotation":
        return SphereRotation(self.manifold, self.matrix.T)


class MoebiusMap(Isometry):
    """z -> (az + b) / (cz + d) on the upper half-plane, with ad - bc = 1."""

    def __init__(self, manifold: HalfPlane2, a: float, b: float, c: float, d: float):
        if manifold.kind != "half_plane2":
            raise WrongManifold("MoebiusMap requires the half-plane manifold")
        self.manifold = manifold
        det = a * d - b * c
        if abs(det - 1.0) > DETERMINANT_TOL:
            raise InvalidIsometry(f"coefficient determinant {det!r} must equal 1")
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)

    def apply_rows(self, P: np.ndarray) -> np.ndarray:
        z = P[:, 0] + 1j * P[:, 1]
        # a non-finite row raises InvalidPoint below, so numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            w = (self.a * z + self.b) / (self.c * z + self.d)
        return self.manifold.point_rows(np.stack([w.real, w.imag], axis=1))

    def differential_rows(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        # the derivative of the map is 1 / (cz + d)^2, a complex scalar per row
        z = P[:, 0] + 1j * P[:, 1]
        w = (V[:, 0] + 1j * V[:, 1]) / (self.c * z + self.d) ** 2
        return np.stack([w.real, w.imag], axis=1)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.manifold, self.d, -self.b, -self.c, self.a)


def coordinate_swap(manifold: Euclidean, i: int, j: int) -> EuclideanMotion:
    """The rigid motion exchanging coordinates i and j."""
    if not (0 <= i < manifold.dim and 0 <= j < manifold.dim):
        raise InvalidIsometry(f"swap indices ({i}, {j}) out of range for dim {manifold.dim}")
    matrix = np.eye(manifold.dim)
    matrix[[i, j]] = matrix[[j, i]]
    return EuclideanMotion(manifold, matrix, np.zeros(manifold.dim))


def random_isometry(manifold: Manifold, rng: np.random.Generator) -> Isometry:
    """Seeded sample from the manifold's isometry group."""
    if manifold.kind == "euclidean":
        q, r = np.linalg.qr(rng.standard_normal((manifold.dim, manifold.dim)))
        q = q * np.sign(np.diag(r))
        return EuclideanMotion(manifold, q, rng.standard_normal(manifold.dim))
    if manifold.kind == "sphere2":
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        return SphereRotation(manifold, q)
    if manifold.kind == "half_plane2":
        while True:
            a, b, c, d = rng.standard_normal(4)
            det = a * d - b * c
            if abs(det) > 1e-3:
                break
        if det < 0.0:
            b, a = a, b
            d, c = c, d
            det = -det
        root = np.sqrt(det)
        return MoebiusMap(manifold, a / root, b / root, c / root, d / root)
    raise WrongManifold(f"no isometry family for manifold kind {manifold.kind!r}")
