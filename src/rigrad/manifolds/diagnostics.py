"""Numerical checks on geometric constructions.

These helpers measure defects by finite differences and are meant for tests
and verification runs, not for hot paths.
"""

from __future__ import annotations

import numpy as np

from .base import Curve, Manifold, Point


def _unwrap(reference: np.ndarray, x: np.ndarray, angular) -> np.ndarray:
    out = np.array(x)
    for i in angular:
        out[i] = reference[i] + np.remainder(x[i] - reference[i] + np.pi, 2.0 * np.pi) - np.pi
    return out


def geodesic_residual(
    manifold: Manifold,
    curve: Curve,
    samples: int = 17,
    h: float = 1e-4,
) -> float:
    """Worst finite-difference defect of the geodesic equation along a curve.

    At each interior sample the curve is read off in the chart at that point
    and acceleration is compared against the Christoffel correction term.
    Expect roughly 1e-7 noise from the second-difference stencil.
    """
    ts = np.linspace(0.0, 1.0, samples)
    ts = ts[(ts - h >= 0.0) & (ts + h <= 1.0)]
    stencils = curve.positions(np.concatenate([ts, ts - h, ts + h]))
    worst = 0.0
    for centre, before, after in zip(*np.split(stencils, 3)):
        centre = Point(centre)
        chart = manifold.chart_at(centre)
        x0 = chart.to_chart(centre)
        xm = _unwrap(x0, chart.to_chart(Point(before)), chart.angular)
        xp = _unwrap(x0, chart.to_chart(Point(after)), chart.angular)
        acc = (xp - 2.0 * x0 + xm) / h**2
        defect = acc
        if not manifold.flat:  # flat charts have zero Christoffel symbols
            vel = (xp - xm) / (2.0 * h)
            defect = acc + np.einsum("kij,i,j->k", chart.christoffel(x0), vel, vel)
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst


def constant_speed_defect(manifold: Manifold, curve: Curve, samples: int = 17) -> float:
    """Largest deviation of the curve's speed from its t=0 value."""
    speed0 = manifold.norm(curve.velocity(0.0))
    worst = 0.0
    for t in np.linspace(0.0, 1.0, samples):
        worst = max(worst, abs(manifold.norm(curve.velocity(t)) - speed0))
    return worst
