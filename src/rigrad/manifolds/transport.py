"""Parallel transport along curves.

One entry point, ``transport_frame``, picks the route and splits transport
into what depends on the path and what depends on the nodes.  It builds the
path's constants once, as a ``PathTransport``, with its first pass of nodes;
each later pass calls the transport's ``at``.  Every route gives the same
shape: constant coefficients C (n, m) on a moving frame E (K, m, coord_dim),
so vector i at node k is C[i] @ E[k] (E is None where transport is the
identity and C holds the vectors themselves).

* flat space: transport leaves components unchanged along any curve;
* geodesics on the 2-manifolds: a vector keeps its coefficients on the
  parallel unit tangent and normal, which the curve's ``frame_fn`` gives
  with the positions in one evaluation per pass.  A curve marked
  ``is_geodesic`` gets it, and the attribution kernel's rank-one integrand,
  whether or not it is one;
* everything else: the transport equation in a chart, refined by sweeps
  until successive ones agree.  On a 2-dimensional chart transport turns
  the chart's g-orthonormal ``frames`` by the integral theta(t) of the
  connection 1-form omega, a composite Gauss sum on uniform panels of
  [0, 1] plus, inside a panel, the integral of its interpolant; the path
  keeps its two finest sweeps for later passes.  Other charts move chart
  components by RK4 steps, each a matrix; ``ode_transport`` keeps that
  kernel as the independent check of the rotation.  The first pass
  evaluates the curve in one ``positions`` and one ``velocities`` call, at
  its nodes and, on a 2-manifold, the panel points of the first two
  sweeps, and the chart is the manifold's ``chart_for_curve`` of those
  positions and curve(0): no separate samples, and on the sphere one of
  seven fixed charts.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import (
    InvalidCurve,
    InvalidTangent,
    NonFiniteValue,
    TransportNotConverged,
    WrongManifold,
)
from ..quadrature import nodes_weights
from .base import Curve, Manifold, Point, TangentVector

ODE_START_STEPS = 256
ODE_TOL = 1e-9
ODE_MAX_STEPS = 4096
PANELS_START = 8
PANELS_MAX = 256
PANEL_POINTS = 12

# the parameters of a geodesic's two ends, and of its start, read-only
_ENDS = np.array([0.0, 1.0])
_START = np.zeros(1)
_ENDS.setflags(write=False)
_START.setflags(write=False)


def _check_bases(curve: Curve, vectors: Sequence[TangentVector]) -> None:
    for u in vectors:
        if not np.array_equal(u.base.coords, curve.start.coords):
            raise InvalidTangent("vectors must be based at the curve's start point")


def _clamp_params(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    outside = ~((ts >= -1e-9) & (ts <= 1.0 + 1e-9))  # NaN is outside too
    if np.any(outside):
        raise InvalidCurve(f"transport parameter {ts[outside][0]} outside [0, 1]")
    return np.clip(ts, 0.0, 1.0)


def _midpoints(grid: np.ndarray) -> np.ndarray:
    return grid[:-1] + 0.5 * np.diff(grid)


def _chart_matrices(chart, curve, times: np.ndarray) -> np.ndarray:
    return chart.transport_matrices(curve.positions(times), curve.velocities(times))


def _grid_matrices(chart, curve, grid: np.ndarray) -> np.ndarray:
    """B at the grid points, then at the midpoints, in one chart call."""
    return _chart_matrices(chart, curve, np.concatenate([grid, _midpoints(grid)]))


def _finer(grid: np.ndarray) -> np.ndarray:
    """``grid`` with every step halved: its points, its midpoints interleaved."""
    fine = np.empty(2 * len(grid) - 1)
    fine[0::2], fine[1::2] = grid, _midpoints(grid)
    return fine


def _halved(evaluate, grid: np.ndarray, values: np.ndarray):
    """The grid with every step halved, and ``evaluate`` at its points and
    midpoints.

    The halved grid's points are the old grid points with the old midpoints
    interleaved, so their ``values`` rows are reused; only the new midpoints
    are evaluated, in one call.
    """
    steps = len(grid) - 1
    fine = _finer(grid)
    at_fine = np.empty((len(fine),) + values.shape[1:], dtype=values.dtype)
    at_fine[0::2], at_fine[1::2] = values[: steps + 1], values[steps + 1 :]
    return fine, np.concatenate([at_fine, evaluate(_midpoints(fine))])


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
    chart,
) -> np.ndarray:
    """Integrate the transport equation in ``chart`` with ``steps`` uniform RK4 steps.

    ``components`` has one row of chart components per vector; the returned
    array holds the transported chart components at t1.
    """
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


@lru_cache(maxsize=None)
def _panel_rule(n: int) -> np.ndarray:
    """(n, n + 2): a panel's values at its n Gauss-Legendre nodes to, per unit
    panel width, their Gauss sum, the panel's integral, then the monomial
    coefficients, in y in [-1, 1] across the panel, of the integral from its
    start of the polynomial that interpolates them.  Built on first use and
    cached, read-only.

    The interpolant's Legendre coefficients are (2j + 1) sum_i w_i P_j(y_i) f_i,
    since the rule integrates P_j P_i exactly, and P_j's integral from -1 is
    (P_(j+1) - P_(j-1)) / (2j + 1), y + 1 for j = 0; dt is half of dy per
    unit width.  Centred on the panel, the monomials stay well conditioned:
    at 12 nodes they amplify rounding about 10^4 times less than monomials
    in the offset from the panel's start, and theta around a latitude loop
    stays within about 1e-15 of the closed form."""
    legendre = np.polynomial.legendre  # loaded on first use, as by nodes_weights
    x, w = nodes_weights(n)
    degrees = (2.0 * np.arange(n) + 1.0)[:, None]
    to_legendre = degrees * legendre.legvander(2.0 * x - 1.0, n - 1).T * w
    to_monomials = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        to_monomials[: j + 1, j] = legendre.leg2poly(np.eye(j + 1)[j])
    integrals = to_monomials @ legendre.legint(to_legendre, lbnd=-1, scl=0.5)
    rule = np.concatenate([w[None, :], integrals]).T
    rule.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def _panel_points(counts: tuple, n: int) -> np.ndarray:
    """The n Gauss-Legendre nodes of every panel of each uniform sweep of
    [0, 1] into ``counts`` panels, one sweep after another; cached, read-only."""
    x, _ = nodes_weights(n)
    at = np.concatenate([((np.arange(count)[:, None] + x) / count).ravel() for count in counts])
    at.setflags(write=False)
    return at


class _Sweep(NamedTuple):
    """The connection form's integral theta on ``panels`` uniform panels of
    [0, 1], as ``coefficients`` (panels, PANEL_POINTS + 1): theta in each
    panel is the polynomial with these monomial coefficients in y in [-1, 1]
    across it.  Its constant terms carry theta at the panels' starts, the
    composite Gauss sums before them."""

    panels: int
    coefficients: np.ndarray


def _rotations(sweeps, ts: np.ndarray) -> np.ndarray:
    """R(theta) (len(sweeps), K, 2, 2) of each of ``sweeps`` at the
    parameters ``ts`` in [0, 1], read in one batch: theta at a node is its
    panel's polynomial there.  The powers of y are a loop of products, which
    at 1024 nodes takes half the time of a cumprod along their short axis."""
    counts = np.array([[sweep.panels] for sweep in sweeps])
    u = counts * ts
    panel = np.minimum(u.astype(np.intp), counts - 1)
    powers = np.empty((sweeps[0].coefficients.shape[1],) + u.shape)
    powers[0] = 1.0
    powers[1] = 2.0 * (u - panel) - 1.0
    for k in range(2, len(powers)):
        np.multiply(powers[k - 1], powers[1], out=powers[k])
    first = np.cumsum(counts, axis=0) - counts  # each sweep's first row in the stacked coefficients
    coefficients = np.concatenate([sweep.coefficients for sweep in sweeps])
    theta = np.einsum("dsk,skd->sk", powers, coefficients[first + panel])
    cos, sin = np.cos(theta), np.sin(theta)
    return np.array([[cos, -sin], [sin, cos]]).transpose(2, 3, 0, 1)


def _sampled_sweeps(chart, counts: tuple, P: np.ndarray, V: np.ndarray) -> list:
    """A ``_Sweep`` per panel count in ``counts``, from the connection form in
    one chart call, at the curve's positions ``P`` and velocities ``V`` at
    ``_panel_points(counts, PANEL_POINTS)``."""
    omega = chart.connection_forms(P, V)
    table = omega.reshape(-1, PANEL_POINTS) @ _panel_rule(PANEL_POINTS)
    sweeps, start = [], 0
    for count in counts:
        rows = table[start : start + count] / count
        start += count
        coefficients = rows[:, 1:]
        coefficients[1:, 0] += np.cumsum(rows[:-1, 0])
        sweeps.append(_Sweep(count, coefficients))
    return sweeps


def _angle_kernel(manifold, chart, curve, rows, P: np.ndarray, first: tuple):
    """(C, basis, basis_at, sweeps, unit) of the ODE route on a 2-dimensional
    chart: C is the ``rows`` on the chart's g-orthonormal ``frames`` at
    curve(0), read off by the metric, and ``basis`` that frame in canonical
    components at the first pass's sorted positions ``P``, from one chart
    call with curve(0); ``basis_at`` gives it at a later pass's.  At a pass's
    sorted nodes ``ts``, ``sweeps(ts)`` yields (panels, R), the rotations
    R(theta) (K, 2, 2) by the transport angle there.  ``first`` holds the
    first two sweeps' panel counts and the curve's (P, V) at their points.

    In that frame transport is z' = -i omega z, so the frame at t is turned by
    theta(t), the integral of omega from 0 to t.  A sweep cuts [0, 1] into
    uniform panels, whatever the nodes, and samples omega at the
    PANEL_POINTS Gauss-Legendre nodes of each: theta at a panel's end is the
    composite Gauss sum, and at a node inside a panel the integral from the
    panel's start of the polynomial that interpolates the panel's values
    (``_panel_rule``, ``_rotations``).  The first sweep has PANELS_START
    panels and each later one twice as many, up to PANELS_MAX; the first two
    are sampled together, in one chart call, when the first pass needs
    them: 3 * PANELS_START * PANEL_POINTS = 288 evaluations of
    omega, however many nodes the pass has.  The two finest sweeps are kept
    for the path, so a later pass reads its nodes off them and samples a
    finer sweep only where they disagree by ODE_TOL at those nodes; along a
    path the first pass converged, it evaluates omega nowhere.
    """
    Q = np.concatenate([curve.start.coords[None, :], P])
    F = chart.frames(Q)
    C = rows @ manifold.lower(Q[[0, 0]], F[0]).T
    finest = []  # the path's two finest sweeps so far

    def sweeps(ts):
        if not finest:
            finest.extend(_sampled_sweeps(chart, *first))
        for sweep, R in zip(finest, _rotations(finest, ts)):
            yield sweep.panels, R
        while finest[-1].panels < PANELS_MAX:
            counts = (2 * finest[-1].panels,)
            at = _panel_points(counts, PANEL_POINTS)
            finer = _sampled_sweeps(chart, counts, curve.positions(at), curve.velocities(at))
            finest[:] = [finest[-1], *finer]
            yield finest[-1].panels, _rotations(finest[1:], ts)[0]

    return C, F[1:], chart.frames, sweeps, "panels"


def _matrix_kernel(manifold, chart, curve, rows, P: np.ndarray, first: tuple):
    """(C, basis, basis_at, sweeps, unit) on any chart, ``first`` unused: C
    is the pulled ``rows``, ``basis`` the chart's ``coordinate_basis`` at the
    first pass's sorted positions ``P``, ``basis_at`` at a later pass's, and
    ``sweeps(ts)`` yields the RK4 propagators that move chart components to
    a pass's sorted nodes ``ts``, from ODE_START_STEPS steps per unit
    parameter, each later sweep halving every step, up to ODE_MAX_STEPS."""
    evaluate = partial(_chart_matrices, chart, curve)
    start = np.eye(chart.dim)

    def sweeps(ts):
        count = ODE_START_STEPS
        grid, ends = _pass_grid(ts, count)
        values = _grid_matrices(chart, curve, grid)
        while True:
            yield count, _propagate(start, grid, ends, values)
            if count >= ODE_MAX_STEPS:
                return
            count, ends = 2 * count, 2 * ends
            grid, values = _halved(evaluate, grid, values)

    basis_at = chart.coordinate_basis
    return chart.pull(curve.start, rows), basis_at(P), basis_at, sweeps, "RK4 steps"


class PathTransport(NamedTuple):
    """Parallel transport along one curve, split into what the path fixes and
    what each pass of nodes gives: vector i reaches curve(ts[k]) as
    C[i] @ E[k], with E from ``at(ts)``.

    ``mode`` is the route, "identity", "closed-form" or "ode"; ``C`` (n, m)
    the constant coefficients, or the rows themselves where E is None;
    ``pairing`` (n,), along a geodesic, each row's g-product with the
    velocity at curve(0) (None off one).  ``at(ts)`` gives, for K parameters
    in [0, 1], (P, V, E, steps): the positions (K, coord_dim), the velocities
    there off a geodesic (None along one), the frame E (K, m, coord_dim) or
    None, and on the ODE route the panels of the sweep the pass stopped at,
    uniform over [0, 1], or its RK4 steps per unit parameter (0 elsewhere).
    """

    mode: str
    C: np.ndarray
    pairing: np.ndarray | None
    at: Callable[[np.ndarray], tuple]


def _ode_route(manifold, curve, rows, ts):
    """``transport_frame``'s ODE route: the chart and a kernel's C are built
    once per path, with the kernel's ``basis`` at the first pass's sorted
    nodes; each pass then turns its basis by ``_turned``.  The chart is
    picked from the first pass's one curve evaluation (see the module)."""
    count, counts = len(ts), (PANELS_START, 2 * PANELS_START)
    times = np.concatenate([ts, _panel_points(counts, PANEL_POINTS)]) if manifold.dim == 2 else ts
    P, V = curve.positions(times), curve.velocities(times)
    samples = np.concatenate([curve.start.coords[None, :], P])
    if not np.isfinite(samples).all():
        raise NonFiniteValue("curve positions are not finite at the chart samples")
    chart = manifold.chart_for_curve(samples)
    P, V, first = P[:count], V[:count], (counts, P[count:], V[count:])
    order = np.argsort(ts, kind="stable")
    kernel = _angle_kernel if manifold.dim == 2 else _matrix_kernel
    with np.errstate(invalid="ignore", over="ignore"):
        C, basis, basis_at, sweeps_at, unit = kernel(manifold, chart, curve, rows, P[order], first)
    turn = partial(_turned, C, sweeps_at, unit)

    def at(ts):
        P, V = curve.positions(ts), curve.velocities(ts)
        order = np.argsort(ts, kind="stable")
        with np.errstate(invalid="ignore", over="ignore"):
            basis = basis_at(P[order])
        return turn(ts, P, V, order, basis)

    return PathTransport("ode", C, None, at), turn(ts, P, V, order, basis)


@np.errstate(invalid="ignore", over="ignore")  # non-finite frames raise NonFiniteValue
def _turned(C, sweeps_at, unit, ts, P, V, order, basis):
    """One ODE pass at ``ts``, with the positions ``P``, velocities ``V``, the
    sorting ``order`` and the kernel's ``basis`` at the sorted nodes: the
    sweeps of (dim, dim) coefficient matrices run until the moved
    coefficients C @ matrices agree, and E is the last sweep's
    matrices @ basis (K, dim, coord_dim).  Returns ``at``'s (P, V, E, steps)."""
    if not np.isfinite(basis).all():
        raise NonFiniteValue("transport frames are not finite at the nodes")
    coarse = None
    for count, matrices in sweeps_at(ts[order]):
        if not np.isfinite(matrices).all():
            raise NonFiniteValue(f"transport frames are not finite at {count} {unit}")
        fine = C @ matrices
        if coarse is not None:
            gap = float(np.abs(fine - coarse).max(initial=0.0))
            if gap < ODE_TOL:
                break
        coarse = fine
    else:
        raise TransportNotConverged(
            f"transport still moving by {gap:.3e} at {count} {unit}, its cap (tol {ODE_TOL:.0e})"
        )
    E = np.empty(basis.shape)
    E[order] = matrices @ basis
    return P, V, E, count


def transport_frame(manifold: Manifold, curve: Curve, rows: np.ndarray, ts: np.ndarray):
    """Parallel transport of the n vectors ``rows`` (n, coord_dim) at curve(0)
    along ``curve``, as constant coefficients on a moving frame.  What depends
    on the path alone is built here, once; returns it as a PathTransport,
    with its first pass at the K parameters ``ts`` in [0, 1], ``at(ts)``'s
    (P, V, E, steps).  Later passes call ``at``.  The route is picked here
    and only here:

    * "identity" in flat space: C is ``rows`` and E is None;
    * "closed-form" along a curve marked ``is_geodesic``, whether or not it
      is one: C (n, 2) holds the coefficients on the parallel unit tangent
      and normal that the curve's ``frame_fn`` gives, and E (K, 2, coord_dim)
      that pair at the nodes, from one ``frame_fn`` call per pass; the first
      pass's call also gives the pair at curve(0).  A geodesic's g-speed is
      its length, which its speeds at both ends must confirm to 1e-9
      relative.  A curve without ``frame_fn`` raises WrongManifold.  A
      geodesic shorter than 1e-13 keeps C = ``rows`` and E None.  Along every
      geodesic the velocities at both ends are one curve call per path,
      which also gives the ``pairing``;
    * "ode" along any other curve: E (K, dim, coord_dim) is a kernel's frame
      at each node, turned by its last sweep.  On a 2-dimensional chart it is
      the chart's g-orthonormal ``frames``, turned by the Gauss-Legendre
      integral of the connection form on PANELS_START to PANELS_MAX uniform
      panels of [0, 1], and C (n, 2) holds the rows' coefficients on it at
      curve(0); the path keeps its two finest sweeps, and a later pass
      samples a finer one only if they disagree at its nodes.  On other
      charts it is the coordinate basis, moved by RK4 on ODE_START_STEPS to
      ODE_MAX_STEPS steps per unit parameter, swept afresh by each pass, and
      C the pulled rows.  The chart, from curve(0) and the positions of the
      first pass's one curve evaluation, and C are built once per path, and
      each sweep halves the last one's panels or steps.  The stop test compares
      successive sweeps' coefficients C @ matrices, so on a 2-dimensional
      chart it reads their difference on a g-orthonormal frame, whatever
      the chart's coordinates.
      A chart sample, a frame at the nodes or a sweep that is not finite
      raises NonFiniteValue; two sweeps still ODE_TOL or more apart at the cap raise
      TransportNotConverged.
    """
    if not curve.is_geodesic:
        if not manifold.flat:
            return _ode_route(manifold, curve, rows, ts)
        transport = PathTransport("identity", rows, None, partial(_nodes, curve, True))
        return transport, transport.at(ts)
    V = curve.velocities(_ENDS)
    if manifold.flat or curve.length < 1e-13:
        with np.errstate(invalid="ignore", over="ignore"):  # see _closed_form
            pairing = rows @ manifold.lower(curve.start.coords[None, :], V[:1])[0]
        mode = "identity" if manifold.flat else "closed-form"
        transport = PathTransport(mode, rows, pairing, partial(_nodes, curve, False))
        return transport, transport.at(ts)
    if curve.frame_fn is None:
        raise WrongManifold(
            f"closed-form transport along a {type(manifold).__name__} geodesic needs "
            "the curve's frame_fn, which make_geodesic supplies"
        )
    return _closed_form(manifold, curve, rows, V, ts)


def _closed_form(manifold, curve, rows, V, ts):
    """``transport_frame``'s closed-form route, given the velocities ``V`` at
    both ends: one ``frame_fn`` call at 0 and ``ts`` gives the first pass and
    the frame at curve(0), and one ``lower`` at the ends reads the end
    speeds, C on that frame and the pairing."""
    length = curve.length
    P, E = curve.frame_fn(np.concatenate([_START, ts]))
    p = curve.start.coords
    bases = np.array([p, p, p, curve.end.coords])
    # NaN or infinity in the pairing makes the attribution entries non-finite,
    # which raises NonFiniteValue there, and a speed that is not finite raises here
    with np.errstate(all="ignore"):
        lowered = manifold.lower(bases, np.concatenate([E[0], V]))
        speeds = np.sqrt((lowered[2:] * V).sum(axis=-1))
        C = rows @ lowered[:2].T
        pairing = rows @ lowered[2]
    if not (np.abs(speeds - length) <= 1e-9 * length).all():
        error = InvalidCurve if np.isfinite([length, *speeds]).all() else NonFiniteValue
        raise error(f"geodesic end speeds {speeds} do not match its length {length!r}")
    transport = PathTransport("closed-form", C, pairing, partial(_frames, curve.frame_fn))
    return transport, (P[1:], None, E[1:], 0)


def _nodes(curve, with_velocities, ts):
    """``at`` where E is None: the positions at ``ts``, and the velocities if asked."""
    return curve.positions(ts), curve.velocities(ts) if with_velocities else None, None, 0


def _frames(frame_fn, ts):
    """``at`` on the closed-form route: positions and frames from one evaluation."""
    P, E = frame_fn(ts)
    return P, None, E, 0


def transport_along(
    manifold: Manifold,
    curve: Curve,
    vectors: Sequence[TangentVector],
    ts: Sequence[float],
):
    """Parallel transport of ``vectors`` from curve(0) to each parameter in ``ts``.

    Returns (results, mode, steps_used) where results[i][j] is vector j moved
    to curve(ts[i]), mode is one of "identity", "closed-form" or "ode", and
    steps_used is the pass's: on the ODE route the panels of the sweep it
    stopped at on a 2-dimensional chart and its RK4 steps per unit parameter
    otherwise, 0 off it.
    """
    _check_bases(curve, vectors)
    ts = _clamp_params(list(ts))
    if not vectors or not ts.size:
        return [[] for _ in ts], "identity", 0
    rows = np.array([u.components for u in vectors])
    transport, (positions, _, E, steps_used) = transport_frame(manifold, curve, rows, ts)
    moved = np.broadcast_to(rows, (len(ts), *rows.shape)) if E is None else transport.C @ E
    results = [
        [TangentVector(Point(p), w) for w in at_p] for p, at_p in zip(positions, moved)
    ]
    return results, transport.mode, steps_used
