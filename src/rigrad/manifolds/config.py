"""Construction of manifolds from JSON-style configuration."""

from __future__ import annotations

from pathlib import Path

from ..errors import ParseError, _integer, _read_json
from .base import Manifold
from .euclidean import Euclidean
from .halfplane import HalfPlane2
from .sphere import Sphere2

KINDS = ("euclidean", "sphere2", "half_plane2")


def make_manifold(kind: str, dim: int | None = None) -> Manifold:
    if kind == "euclidean":
        if dim is None:
            raise ParseError("euclidean manifolds need an explicit dim")
        return Euclidean(dim)
    if kind == "sphere2":
        if dim not in (None, 2):
            raise ParseError(f"sphere2 is two dimensional; got dim={dim}")
        return Sphere2()
    if kind == "half_plane2":
        if dim not in (None, 2):
            raise ParseError(f"half_plane2 is two dimensional; got dim={dim}")
        return HalfPlane2()
    raise ParseError(f"unknown manifold kind {kind!r}; expected one of {KINDS}")


def manifold_from_dict(data: dict) -> Manifold:
    if not isinstance(data, dict):
        raise ParseError("manifold config must be a JSON object")
    unknown = set(data) - {"kind", "dim"}
    if unknown:
        raise ParseError(f"unknown manifold config keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ParseError("manifold config needs a 'kind' entry")
    dim = data.get("dim")
    if dim is not None:
        _integer(dim, "dim")
    try:
        return make_manifold(data["kind"], dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def manifold_from_file(path: str | Path) -> Manifold:
    return manifold_from_dict(_read_json(path, f"manifold config {path}"))


def manifold_to_dict(manifold: Manifold) -> dict:
    return {"kind": manifold.kind, "dim": manifold.dim}
