"""Geodesic oracles for the tests, independent of the closed forms they check.

``shoot_geodesic`` finds the initial velocity whose exponential hits a target
point by damped Gauss-Newton iteration on the coordinate residual.  It
deliberately avoids the closed-form logarithm so the two routes stay
independent.  ``constant_speed_defect`` measures how far a curve's speed
drifts from its value at t=0.  ``halfplane_geodesic_oracle`` and
``halfplane_decimal_dist`` evaluate the half-plane geodesic and distance in
``decimal`` from the semicircle's centre and radius, a construction the
package no longer uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

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
    basis = frame.rows
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


def halfplane_decimal_dist(p, q, digits: int = 40) -> float:
    """The half-plane distance 2 asinh(|q - p| / (2 sqrt(yp yq))) in decimals."""
    with localcontext() as ctx:
        ctx.prec = digits
        (xp, yp), (xq, yq) = ([Decimal(float(v)) for v in point] for point in (p, q))
        z = ((xq - xp) ** 2 + (yq - yp) ** 2).sqrt() / (2 * (yp * yq).sqrt())
        return float(2 * (z + (z * z + 1).sqrt()).ln())


def halfplane_geodesic_oracle(p, q, ts):
    """Positions and velocities (len(ts), 2) along the half-plane geodesic from
    p to q at the parameters ts, in 60-digit decimals, for a pair with
    xp != xq: the semicircle's centre c and radius r, s running linearly from
    asinh((c - xp) / yp) to asinh((c - xq) / yq), x = c - r tanh(s) and
    y = r sech(s), whose cancellations cost nothing at this precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        (xp, yp), (xq, yq) = ([Decimal(float(v)) for v in point] for point in (p, q))
        c = (xp + xq) / 2 + (yq - yp) * (yq + yp) / (2 * (xq - xp))
        r = ((xp - c) ** 2 + yp**2).sqrt()

        def asinh(z):
            return (z.copy_abs() + (z * z + 1).sqrt()).ln().copy_sign(z)

        sp, sq = asinh((c - xp) / yp), asinh((c - xq) / yq)
        positions, velocities = [], []
        for t in ts:
            e = (sp + Decimal(float(t)) * (sq - sp)).exp()
            tanh, sech = (e * e - 1) / (e * e + 1), 2 * e / (e * e + 1)
            positions.append([float(c - r * tanh), float(r * sech)])
            velocities.append([float(-r * sech * sech * (sq - sp)), float(-r * sech * tanh * (sq - sp))])
    return np.array(positions), np.array(velocities)
