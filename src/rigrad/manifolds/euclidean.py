"""Flat n-dimensional space with the standard inner product."""

from __future__ import annotations

import numpy as np

from ..errors import _integer
from .base import (
    Chart,
    Curve,
    IdentityChart,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    pin_endpoints,
    row_dots,
)


class Euclidean(Manifold):
    """R^n with the identity metric; geodesics are straight segments."""

    kind = "euclidean"
    flat = True

    def __init__(self, dim: int):
        _integer(dim, "dimension", ValueError)
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        self.dim = int(dim)
        self.coord_dim = self.dim
        self._chart = IdentityChart(
            self, lambda X: np.zeros((len(X), self.dim, self.dim, self.dim))
        )

    def __repr__(self):
        return f"Euclidean(dim={self.dim})"

    def lower(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return V

    def raise_gradients(self, P: np.ndarray, G: np.ndarray) -> np.ndarray:
        return G

    def _frame_gram(self, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return rows @ rows.T  # lower() is the identity

    def chart_for_curve(self, samples) -> Chart:
        return self._chart

    def exp_map(self, v: TangentVector) -> Point:
        return Point(v.base.coords + v.components)

    def log_rows(self, P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        V = q - P
        return V, np.sqrt(row_dots(V, V))  # norm()'s bits per row

    geodesic_between = Manifold.geodesic_between  # bench/tracing.py wraps it per class

    def make_geodesic(self, p: Point, o: Point) -> Curve:
        delta = o.coords - p.coords
        start = np.array(p.coords)
        with np.errstate(over="ignore"):
            length = float(np.linalg.norm(delta))
        if length == np.inf and np.isfinite(delta).all():  # the squares overflowed
            scale = float(np.abs(delta).max())
            length = scale * float(np.linalg.norm(delta / scale))

        def position(t):
            return start + np.asarray(t)[..., None] * delta

        return Curve(
            manifold=self,
            position_fn=pin_endpoints(position, p, o),
            velocity_fn=lambda t: np.tile(delta, np.shape(t) + (1,)),
            start=p,
            end=o,
            is_geodesic=True,
            length=length,
        )

    def geodesic_acceleration(self, P: np.ndarray, V: np.ndarray) -> np.ndarray:
        return np.zeros_like(V)

    def orthonormal_frame(self, p: Point) -> OrthonormalFrame:
        return OrthonormalFrame(p, np.eye(self.dim))

    def random_point(self, rng: np.random.Generator) -> Point:
        return Point(rng.standard_normal(self.dim))
