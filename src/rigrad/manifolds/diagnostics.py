"""The geodesic-defect check on geometric constructions.

``geodesic_residual`` measures the defect by finite differences.  It runs on
every attribution along a geodesic, so it evaluates all its samples as
arrays in one pass.
"""

from __future__ import annotations

import functools

import numpy as np

from .base import Curve, Manifold, row_dots


def geodesic_residual(
    manifold: Manifold,
    curve: Curve,
    samples: int = 17,
    h: float = 1e-4,
) -> float:
    """Worst finite-difference defect of the geodesic equation along a curve.

    At each interior sample the second difference of the curve's canonical
    coordinates is compared with the manifold's ``geodesic_acceleration`` at
    the centred velocity.  Canonical coordinates need no chart, so the value
    does not depend on where a sample lies.  Expect roughly 1e-7 noise from
    the second-difference stencil; with no interior sample it is 0.0.
    """
    times = _stencil_times(samples, h)
    n = times.size // 3
    if not n:
        return 0.0
    x = curve.positions(times)
    x0, xm, xp = x[:n], x[n : 2 * n], x[2 * n :]
    defect = (xp - 2.0 * x0 + xm) / h**2
    defect = defect - manifold.geodesic_acceleration(x0, (xp - xm) / (2.0 * h))
    return float(np.sqrt(row_dots(defect, defect).max()))  # norm()'s bits per row


@functools.lru_cache(maxsize=8)
def _stencil_times(samples: int, h: float) -> np.ndarray:
    """The interior samples ``t``, then ``t - h``, then ``t + h``, read-only."""
    ts = np.linspace(0.0, 1.0, samples)
    ts = ts[(ts - h >= 0.0) & (ts + h <= 1.0)]
    times = np.concatenate([ts, ts - h, ts + h])
    times.flags.writeable = False
    return times
