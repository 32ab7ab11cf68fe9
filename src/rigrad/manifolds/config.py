"""Construction of manifolds from JSON-style configuration."""

from __future__ import annotations

import math
from pathlib import Path

from ..errors import ParseError, _read_json
from .base import Manifold
from .euclidean import Euclidean
from .halfplane import HalfPlane2
from .sphere import Sphere2

KINDS = ("euclidean", "sphere2", "half_plane2")


def make_manifold(
    kind: str,
    dim: int | None = None,
    transport_steps: int = 256,
    bvp_tol: float = 1e-10,
) -> Manifold:
    if kind == "euclidean":
        if dim is None:
            raise ParseError("euclidean manifolds need an explicit dim")
        return Euclidean(dim, transport_steps, bvp_tol)
    if kind == "sphere2":
        if dim not in (None, 2):
            raise ParseError(f"sphere2 is two dimensional; got dim={dim}")
        return Sphere2(transport_steps, bvp_tol)
    if kind == "half_plane2":
        if dim not in (None, 2):
            raise ParseError(f"half_plane2 is two dimensional; got dim={dim}")
        return HalfPlane2(transport_steps, bvp_tol)
    raise ParseError(f"unknown manifold kind {kind!r}; expected one of {KINDS}")


def manifold_from_dict(data: dict) -> Manifold:
    if not isinstance(data, dict):
        raise ParseError("manifold config must be a JSON object")
    unknown = set(data) - {"kind", "dim", "transport_steps", "bvp_tol"}
    if unknown:
        raise ParseError(f"unknown manifold config keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ParseError("manifold config needs a 'kind' entry")
    kind = data["kind"]
    dim = data.get("dim")
    if dim is not None and (not isinstance(dim, int) or isinstance(dim, bool)):
        raise ParseError(f"dim must be an integer, got {dim!r}")
    steps = data.get("transport_steps", 256)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ParseError(f"transport_steps must be a positive integer, got {steps!r}")
    tol = data.get("bvp_tol", 1e-10)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol < math.inf:
        raise ParseError(f"bvp_tol must be a positive finite number, got {tol!r}")
    try:
        return make_manifold(kind, dim, steps, float(tol))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def manifold_from_file(path: str | Path) -> Manifold:
    return manifold_from_dict(_read_json(path, f"manifold config {path}"))


def manifold_to_dict(manifold: Manifold) -> dict:
    return {
        "kind": manifold.kind,
        "dim": manifold.dim,
        "transport_steps": manifold.transport_steps,
        "bvp_tol": manifold.bvp_tol,
    }
