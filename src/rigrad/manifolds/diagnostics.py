"""Numerical checks on geometric constructions.

These helpers measure defects by finite differences.  ``geodesic_residual``
runs on every attribution along a geodesic, so it evaluates its samples as
arrays, one batch per chart.
"""

from __future__ import annotations

import numpy as np

from .base import Chart, Curve, Manifold, Point


def _unwrap(reference: np.ndarray, X: np.ndarray, angular) -> np.ndarray:
    """Shift the periodic columns of ``X`` to within pi of ``reference``."""
    out = np.array(X)
    for i in angular:
        out[:, i] = (
            reference[:, i]
            + np.remainder(X[:, i] - reference[:, i] + np.pi, 2.0 * np.pi)
            - np.pi
        )
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
    Samples that share a chart are evaluated together.  Expect roughly 1e-7
    noise from the second-difference stencil.
    """
    ts = np.linspace(0.0, 1.0, samples)
    ts = ts[(ts - h >= 0.0) & (ts + h <= 1.0)]
    m = len(ts)
    # rows k, m + k and 2m + k: the curve at ts[k], ts[k] - h and ts[k] + h
    stencils = curve.positions(np.concatenate([ts, ts - h, ts + h]))
    groups: dict[Chart, list[int]] = {}  # charts hash by identity
    for k in range(m):
        groups.setdefault(manifold.chart_at(Point(stencils[k])), []).append(k)
    worst = 0.0
    for chart, index in groups.items():
        index = np.array(index)
        rows = np.concatenate([index, index + m, index + 2 * m])
        x0, xm, xp = np.split(chart.to_charts(stencils[rows]), 3)
        xm = _unwrap(x0, xm, chart.angular)
        xp = _unwrap(x0, xp, chart.angular)
        defect = (xp - 2.0 * x0 + xm) / h**2
        if not manifold.flat:  # flat charts have zero Christoffel symbols
            vel = (xp - xm) / (2.0 * h)
            defect = defect + np.einsum("skij,si,sj->sk", chart.christoffels(x0), vel, vel)
        # a (1, dim) @ (dim, 1) product per row takes the same dot product as
        # norm() of one row, so the norms agree bit for bit
        squares = defect[:, None, :] @ defect[:, :, None]
        worst = max(worst, float(np.sqrt(np.max(squares))))
    return worst


def constant_speed_defect(manifold: Manifold, curve: Curve, samples: int = 17) -> float:
    """Largest deviation of the curve's speed from its t=0 value."""
    speed0 = manifold.norm(curve.velocity(0.0))
    worst = 0.0
    for t in np.linspace(0.0, 1.0, samples):
        worst = max(worst, abs(manifold.norm(curve.velocity(t)) - speed0))
    return worst
