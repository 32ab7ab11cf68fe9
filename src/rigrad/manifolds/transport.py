"""Parallel transport along curves.

Three routes, picked automatically:

* flat space: transport leaves components unchanged along any curve;
* geodesics on the 2-manifolds: exact velocity/normal frame rotation;
* everything else: Runge-Kutta integration of the transport equation in a
  chart, with step doubling until successive refinements agree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import InvalidCurve, InvalidTangent
from .base import Curve, Manifold, Point, TangentVector

ODE_TOL = 1e-9
ODE_MAX_STEPS = 4096
CURVE_CHART_SAMPLES = 65


def _check_bases(curve: Curve, vectors: Sequence[TangentVector]) -> None:
    for u in vectors:
        if not np.array_equal(u.base.coords, curve.start.coords):
            raise InvalidTangent("vectors must be based at the curve's start point")


def _clamp_params(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    outside = (ts < -1e-9) | (ts > 1.0 + 1e-9)
    if np.any(outside):
        raise InvalidCurve(f"transport parameter {ts[outside][0]} outside [0, 1]")
    return np.clip(ts, 0.0, 1.0)


def _unit_tangents(manifold: Manifold, P: np.ndarray, V: np.ndarray) -> np.ndarray:
    speed = np.sqrt(np.maximum(np.sum(manifold.lower(P, V) * V, axis=-1), 0.0))
    if np.any(speed < 1e-13):
        raise InvalidCurve("geodesic transport needs a nonvanishing velocity")
    return V / speed[:, None]


def _closed_form_transport(manifold, curve, rows, P, V):
    """Rotate with the geodesic's velocity/normal frame, all nodes at once."""
    start = curve.start.coords[None, :]
    t0 = _unit_tangents(manifold, start, curve.velocity_fn(0.0)[None, :])
    n0 = manifold.geodesic_normal(start, t0)
    a = rows @ manifold.lower(start, t0)[0]
    b = rows @ manifold.lower(start, n0)[0]
    tangents = _unit_tangents(manifold, P, V)
    normals = manifold.geodesic_normal(P, tangents)
    return a[None, :, None] * tangents[:, None, :] + b[None, :, None] * normals[:, None, :]


def ode_transport(
    manifold: Manifold,
    curve: Curve,
    components: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
    chart=None,
) -> np.ndarray:
    """Integrate the transport equation with ``steps`` uniform RK4 steps.

    ``components`` has one row of chart components per vector; the returned
    array holds the transported chart components at t1.
    """
    if chart is None:
        samples = [curve.position(t) for t in np.linspace(0.0, 1.0, CURVE_CHART_SAMPLES)]
        chart = manifold.chart_for_curve(samples)

    def rhs(t: float, w: np.ndarray) -> np.ndarray:
        p = curve.position(t)
        x = chart.to_chart(p)
        xdot = chart.pull(p, curve.velocity_fn(t))
        gamma = chart.christoffel(x)
        return -np.einsum("kij,i,...j->...k", gamma, xdot, w)

    w = np.array(components, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, w)
        k2 = rhs(t + 0.5 * h, w + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, w + 0.5 * h * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return w


def _ode_pass(manifold, curve, chart, w0, ts_sorted, total_steps):
    """One integration sweep hitting every target parameter in order."""
    results = []
    w = np.array(w0)
    prev = 0.0
    for t in ts_sorted:
        if t > prev:
            seg_steps = max(1, int(np.ceil((t - prev) * total_steps)))
            w = ode_transport(manifold, curve, w, prev, t, seg_steps, chart)
            prev = t
        results.append(np.array(w))
    return results


def _ode_route(manifold, curve, rows, ts, P, steps):
    samples = [curve.position(t) for t in np.linspace(0.0, 1.0, CURVE_CHART_SAMPLES)]
    chart = manifold.chart_for_curve(samples)
    w0 = np.array([chart.pull(curve.start, u) for u in rows])

    order = np.argsort(ts, kind="stable")
    ts_sorted = [float(ts[i]) for i in order]

    n = steps
    coarse = _ode_pass(manifold, curve, chart, w0, ts_sorted, n)
    while True:
        fine = _ode_pass(manifold, curve, chart, w0, ts_sorted, 2 * n)
        gap = max(
            float(np.max(np.abs(a - b))) if a.size else 0.0
            for a, b in zip(coarse, fine)
        )
        n *= 2
        if gap < ODE_TOL or n >= ODE_MAX_STEPS:
            break
        coarse = fine

    out = np.empty((len(ts), len(rows), manifold.coord_dim))
    for k, w in zip(order, fine):
        p = Point(P[k])
        x = chart.to_chart(p)
        out[k] = [manifold.project_tangent(p, chart.push(x, row)).components for row in w]
    return out, n


def transport_rows(
    manifold: Manifold,
    curve: Curve,
    rows: np.ndarray,
    ts: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    steps: int | None = None,
):
    """Array core of parallel transport.

    ``rows`` (n, coord_dim) holds the components of n vectors at curve(0);
    ``positions`` and ``velocities`` (K, coord_dim) are the curve at the K
    parameters ``ts`` in [0, 1].  Returns (moved, mode, steps_used) with
    moved[k, i] vector i transported to curve(ts[k]), shape (K, n, coord_dim).
    Identity transport returns a read-only broadcast view of ``rows``.
    """
    identity = np.broadcast_to(rows, (len(ts), *rows.shape))
    if manifold.flat:
        return identity, "identity", 0
    if curve.is_geodesic:
        if curve.length < 1e-13:
            return identity, "closed-form", 0
        return _closed_form_transport(manifold, curve, rows, positions, velocities), "closed-form", 0
    moved, steps_used = _ode_route(
        manifold, curve, rows, ts, positions, steps or manifold.transport_steps
    )
    return moved, "ode", steps_used


def transport_along(
    manifold: Manifold,
    curve: Curve,
    vectors: Sequence[TangentVector],
    ts: Sequence[float],
    steps: int | None = None,
):
    """Parallel transport of ``vectors`` from curve(0) to each parameter in ``ts``.

    Returns (results, mode, steps_used) where results[i][j] is vector j moved
    to curve(ts[i]), mode is one of "identity", "closed-form" or "ode", and
    steps_used is the final RK4 step count (0 off the ODE route).
    """
    _check_bases(curve, vectors)
    ts = _clamp_params(list(ts))
    if not vectors or not ts.size:
        return [[] for _ in ts], "identity", 0
    rows = np.array([u.components for u in vectors])
    positions = curve.positions(ts)
    moved, mode, steps_used = transport_rows(
        manifold, curve, rows, ts, positions, curve.velocities(ts), steps
    )
    results = [
        [TangentVector(Point(p), w) for w in at_p] for p, at_p in zip(positions, moved)
    ]
    return results, mode, steps_used
