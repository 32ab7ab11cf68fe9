"""Parallel transport along curves.

Three routes, picked automatically:

* flat space: transport leaves components unchanged along any curve;
* geodesics on the 2-manifolds: exact velocity/normal frame rotation;
* everything else: Runge-Kutta integration of the transport equation in a
  chart, with step doubling until successive refinements agree.  The
  equation is linear in the vector moved, so each RK4 step is a matrix; a
  sweep evaluates the chart at all its step times at once and multiplies
  the step matrices together.  Each later sweep halves every step of the
  one before, so it reuses the transport matrices at the earlier grid points
  and midpoints and evaluates the chart only at its new midpoints.
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


def curve_chart(manifold: Manifold, curve: Curve):
    """The manifold's chart for a whole curve, from evenly spaced samples on it."""
    samples = curve.positions(np.linspace(0.0, 1.0, CURVE_CHART_SAMPLES))
    return manifold.chart_for_curve(samples)


def _midpoints(grid: np.ndarray) -> np.ndarray:
    return grid[:-1] + 0.5 * np.diff(grid)


def _chart_matrices(chart, curve, times: np.ndarray) -> np.ndarray:
    return chart.transport_matrices(curve.positions(times), curve.velocities(times))


def _grid_matrices(chart, curve, grid: np.ndarray) -> np.ndarray:
    """B at the grid points, then at the midpoints, in one chart call."""
    return _chart_matrices(chart, curve, np.concatenate([grid, _midpoints(grid)]))


def _halved(chart, curve, grid: np.ndarray, B: np.ndarray):
    """The grid with every step halved, and B at its points and midpoints.

    The halved grid's points are the old grid points with the old midpoints
    interleaved, so their B rows are reused; only the new midpoints are
    evaluated, in one chart call.
    """
    steps = len(grid) - 1
    fine = np.empty(2 * steps + 1)
    fine[0::2], fine[1::2] = grid, _midpoints(grid)
    at_fine = np.empty((len(fine),) + B.shape[1:])
    at_fine[0::2], at_fine[1::2] = B[: steps + 1], B[steps + 1 :]
    new = _chart_matrices(chart, curve, _midpoints(fine))
    return fine, np.concatenate([at_fine, new])


def _step_propagators(grid: np.ndarray, B: np.ndarray) -> np.ndarray:
    """RK4 steps between consecutive grid parameters as matrices, (S, dim, dim).

    The transport equation w' = w @ B(t) is linear in w, so one classical RK4
    step from t to t + h is exactly w -> w @ M with
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = B(t), K2 = (I + h/2 K1) B(t + h/2),
    K3 = (I + h/2 K2) B(t + h/2), K4 = (I + h K3) B(t + h).  ``B`` holds the
    matrices at the S + 1 grid points followed by the S midpoints, as
    ``_grid_matrices`` or ``_halved`` give them.
    """
    steps = len(grid) - 1
    h = np.diff(grid)[:, None, None]
    b0, b1, bm = B[:steps], B[1 : steps + 1], B[steps + 1 :]
    k2 = bm + 0.5 * h * (b0 @ bm)
    k3 = bm + 0.5 * h * (k2 @ bm)
    k4 = b1 + h * (k3 @ b1)
    return np.eye(B.shape[-1]) + (h / 6.0) * (b0 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagate(w0: np.ndarray, grid: np.ndarray, ends: np.ndarray, B: np.ndarray) -> np.ndarray:
    """RK4 transport of the rows ``w0`` over ``grid``; entry k of the result
    holds them after the first ends[k] steps, shape (len(ends), *w0.shape).
    ``B`` is the grid's transport matrices, as ``_step_propagators`` takes them.

    The step matrices are multiplied in order, as two batched reductions: the
    steps of each run between consecutive ends pairwise, then the runs by
    prefix doubling, so the Python loops take logarithmically many rounds.
    """
    M = _step_propagators(grid, B)
    counts = np.diff(ends, prepend=0)
    width = 1 << (max(int(counts.max()), 1) - 1).bit_length()
    runs = np.tile(np.eye(B.shape[-1]), (len(ends), width, 1, 1))
    offsets = np.arange(len(M)) - np.repeat(ends - counts, counts)
    runs[np.repeat(np.arange(len(ends)), counts), offsets] = M
    while runs.shape[1] > 1:
        runs = runs[:, 0::2] @ runs[:, 1::2]
    totals = runs[:, 0]
    shift = 1
    while shift < len(totals):
        totals[shift:] = totals[:-shift] @ totals[shift:]
        shift *= 2
    return w0 @ totals


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
        chart = curve_chart(manifold, curve)
    grid = np.linspace(t0, t1, steps + 1)
    w0 = np.array(components, dtype=float)
    B = _grid_matrices(chart, curve, grid)
    return _propagate(w0, grid, np.array([steps]), B)[0]


def _pass_grid(ts_sorted: np.ndarray, total_steps: int):
    """Step grid of one sweep from 0 through the sorted targets ``ts_sorted``.

    Each gap t_k - t_(k-1) > 0 gets max(1, ceil(gap * total_steps)) uniform
    steps.  Returns the grid parameters and, per target, the number of steps
    taken on reaching it.
    """
    prev = np.concatenate([[0.0], ts_sorted[:-1]])
    gaps = ts_sorted - prev
    counts = np.where(gaps > 0.0, np.maximum(1, np.ceil(gaps * total_steps)), 0).astype(int)
    ends = np.cumsum(counts)
    runs = np.repeat(np.arange(len(ts_sorted)), counts)
    index = np.arange(1, ends[-1] + 1) - np.repeat(ends - counts, counts)
    grid = np.concatenate([[0.0], prev[runs] + gaps[runs] * (index / counts[runs])])
    grid[ends] = ts_sorted
    return grid, ends


def _ode_route(manifold, curve, rows, ts, P, steps):
    chart = curve_chart(manifold, curve)
    w0 = np.array([chart.pull(curve.start, u) for u in rows])
    order = np.argsort(ts, kind="stable")
    ts_sorted = np.asarray(ts, dtype=float)[order]

    n = steps
    grid, ends = _pass_grid(ts_sorted, n)
    B = _grid_matrices(chart, curve, grid)
    coarse = _propagate(w0, grid, ends, B)
    while True:
        n *= 2
        grid, B = _halved(chart, curve, grid, B)
        ends = 2 * ends
        fine = _propagate(w0, grid, ends, B)
        gap = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
        if gap < ODE_TOL or n >= ODE_MAX_STEPS:
            break
        coarse = fine

    out = np.empty((len(ts), len(rows), manifold.coord_dim))
    out[order] = fine @ chart.coordinate_basis(P[order])
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
