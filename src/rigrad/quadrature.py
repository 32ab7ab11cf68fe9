"""The Gauss-Legendre rule on [0, 1] for the path integrals, with refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParseError, _integer, _real


# leggauss(n) is an n x n eigensolve (about 0.1 s at n = 1024); every caller
# shares the cached arrays, hence read-only.
@lru_cache(maxsize=64)
def nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights with n nodes on [0, 1], read-only."""
    if n < 1:
        raise ParseError("gauss_legendre needs at least 1 node")
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class Quadrature:
    """Integration policy: a Gauss-Legendre node count and optional refinement.

    With ``refine`` on, results are recomputed with doubled node counts until
    two successive answers agree to ``tol`` entrywise or ``max_nodes`` is hit.
    The path integrals widen ``tol`` by a rounding-noise floor of 64 machine
    epsilons times the largest entry, so a ``tol`` below the resolution of
    large entries still stops; at unit scale the floor is about 1.4e-14.
    """

    nodes: int = 32
    refine: bool = True
    tol: float = 1e-10
    max_nodes: int = 1024

    def __post_init__(self):
        if _integer(self.nodes, "quadrature nodes") < 2:
            raise ParseError("quadrature needs at least 2 nodes")
        if not isinstance(self.refine, bool):
            raise ParseError(f"quadrature refine must be a bool, got {self.refine!r}")
        if not 0.0 < _real(self.tol, "quadrature tol") < math.inf:
            raise ParseError(f"quadrature tol must be a positive finite number, got {self.tol!r}")
        if _integer(self.max_nodes, "max_nodes") < self.nodes:
            raise ParseError("max_nodes must be at least the starting node count")

    def nodes_weights(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        return nodes_weights(self.nodes if n is None else n)

    def schedule(self) -> list[int]:
        """Node counts to try in order; a single entry when refine is off."""
        if not self.refine:
            return [self.nodes]
        counts = [self.nodes]
        while counts[-1] * 2 <= self.max_nodes:
            counts.append(counts[-1] * 2)
        return counts
