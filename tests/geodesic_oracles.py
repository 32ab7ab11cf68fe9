"""Geodesic oracles for the tests, independent of the closed forms they check.

``shoot_geodesic`` finds the initial velocity whose exponential hits a target
point by damped Gauss-Newton iteration on the coordinate residual.  It
deliberately avoids the closed-form logarithm so the two routes stay
independent.  ``constant_speed_defect`` measures how far a curve's speed
drifts from its value at t=0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rigrad.manifolds import Curve, Manifold, Point, TangentVector

MAX_ITERATIONS = 50
MAX_BACKTRACKS = 25


@dataclass(frozen=True)
class ShootingResult:
    velocity: TangentVector
    residual: float
    iterations: int
    converged: bool


def shoot_geodesic(manifold: Manifold, p: Point, o: Point, tol: float = 1e-10) -> ShootingResult:
    """Solve exp_p(v) = o for v by shooting, to a residual norm of ``tol``."""
    frame = manifold.orthonormal_frame(p)
    basis = frame.component_matrix()
    g = manifold.metric_at(p)

    def assemble(coeffs: np.ndarray) -> TangentVector:
        return TangentVector(p, coeffs @ basis)

    def residual(coeffs: np.ndarray) -> np.ndarray:
        return manifold.exp_map(assemble(coeffs)).coords - o.coords

    guess = manifold.project_tangent(p, o.coords - p.coords)
    coeffs = basis @ g @ guess.components
    # A short first shot keeps the iteration away from the wildly nonlinear
    # far field (hyperbolic exp grows exponentially); Newton extends it.
    norm = float(np.linalg.norm(coeffs))
    if norm > 2.0:
        coeffs *= 2.0 / norm

    def safe_norm(r: np.ndarray) -> float:
        if not np.all(np.isfinite(r)):
            return float("inf")
        return float(np.linalg.norm(r))

    res = residual(coeffs)
    res_norm = safe_norm(res)
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        if res_norm <= tol:
            break
        iterations += 1
        jac = np.zeros((o.coords.size, manifold.dim))
        for k in range(manifold.dim):
            h = 1e-7 * (1.0 + abs(coeffs[k]))
            bumped = np.array(coeffs)
            bumped[k] += h
            plus = residual(bumped)
            bumped[k] -= 2.0 * h
            minus = residual(bumped)
            jac[:, k] = (plus - minus) / (2.0 * h)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)

        scale = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = coeffs + scale * step
            trial_res = residual(trial)
            trial_norm = safe_norm(trial_res)
            if trial_norm < res_norm:
                coeffs, res, res_norm = trial, trial_res, trial_norm
                break
            scale *= 0.5
        else:
            break

    return ShootingResult(
        velocity=assemble(coeffs),
        residual=res_norm,
        iterations=iterations,
        converged=res_norm <= tol,
    )


def constant_speed_defect(manifold: Manifold, curve: Curve, samples: int = 17) -> float:
    """Largest deviation of the curve's speed from its t=0 value."""
    speed0 = manifold.norm(curve.velocity(0.0))
    worst = 0.0
    for t in np.linspace(0.0, 1.0, samples):
        worst = max(worst, abs(manifold.norm(curve.velocity(t)) - speed0))
    return worst
