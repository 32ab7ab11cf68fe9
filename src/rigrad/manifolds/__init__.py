"""Manifolds, geodesics, transport and isometries."""

from .base import (
    Chart,
    Curve,
    Manifold,
    OrthonormalFrame,
    Point,
    TangentVector,
    constant_curve,
)
from .config import KINDS, make_manifold, manifold_from_dict, manifold_from_file, manifold_to_dict
from .diagnostics import geodesic_residual
from .euclidean import Euclidean
from .halfplane import HalfPlane2
from .isometries import (
    EuclideanMotion,
    Isometry,
    MoebiusMap,
    SphereRotation,
    coordinate_swap,
    random_isometry,
)
from .sphere import Sphere2, SphericalChart
from .transport import ode_transport, transport_along

__all__ = [
    "Chart",
    "KINDS",
    "Curve",
    "Euclidean",
    "EuclideanMotion",
    "HalfPlane2",
    "Isometry",
    "Manifold",
    "MoebiusMap",
    "OrthonormalFrame",
    "Point",
    "Sphere2",
    "SphereRotation",
    "SphericalChart",
    "TangentVector",
    "constant_curve",
    "coordinate_swap",
    "geodesic_residual",
    "make_manifold",
    "manifold_from_dict",
    "manifold_from_file",
    "manifold_to_dict",
    "ode_transport",
    "random_isometry",
    "transport_along",
]
