"""The geodesic-defect check on geometric constructions.

``geodesic_residual`` measures the defect by finite differences.  It runs on
every attribution along a geodesic, so it evaluates all its samples as
arrays in one pass.
"""

from __future__ import annotations

import numpy as np

from .base import Curve, Manifold, row_dots

# geodesic_residual's stencil: samples evenly spaced over [0, 1], and the
# step h, below their spacing, of the differences at each interior sample
RESIDUAL_SAMPLES = 17
RESIDUAL_STEP = 1e-4

# the interior samples t, then t - h, then t + h, read-only
_INTERIOR = np.linspace(0.0, 1.0, RESIDUAL_SAMPLES)[1:-1]
_STENCIL_TIMES = np.concatenate([_INTERIOR, _INTERIOR - RESIDUAL_STEP, _INTERIOR + RESIDUAL_STEP])
_STENCIL_TIMES.flags.writeable = False


def geodesic_residual(manifold: Manifold, curve: Curve) -> float:
    """Worst finite-difference defect of the geodesic equation along a curve.

    At each interior sample the second difference of the curve's canonical
    coordinates is compared with the manifold's ``geodesic_acceleration`` at
    the centred velocity.  Canonical coordinates need no chart, so the value
    does not depend on where a sample lies.  Expect roughly 1e-7 noise from
    the second-difference stencil.
    """
    h = RESIDUAL_STEP
    n = _INTERIOR.size
    x = curve.positions(_STENCIL_TIMES)
    x0, xm, xp = x[:n], x[n : 2 * n], x[2 * n :]
    defect = (xp - 2.0 * x0 + xm) / h**2
    defect = defect - manifold.geodesic_acceleration(x0, (xp - xm) / (2.0 * h))
    with np.errstate(over="ignore"):
        worst = float(np.sqrt(row_dots(defect, defect).max()))  # norm()'s bits per row
    if worst == np.inf and np.isfinite(defect).all():  # the squares overflowed
        scale = float(np.abs(defect).max())
        worst = scale * float(np.sqrt(row_dots(defect / scale, defect / scale).max()))
    return worst
