"""Parallel transport: closed forms, the ODE fallback, and their agreement."""

import math

import numpy as np
import pytest

import rigrad as rg
from rigrad.manifolds import ode_transport, transport_along
from rigrad.manifolds.sphere import SphericalChart
from rigrad.manifolds.transport import (
    _grid_matrices,
    _pass_grid,
    _propagate,
    curve_chart,
    transport_rows,
)

from conftest import (
    assert_close_rel,
    loop_ode_pass,
    loop_ode_transport,
    loop_transport,
    random_unit_tangent,
)


def ambient_gap(u_components, v_components):
    return float(np.max(np.abs(u_components - v_components)))


def test_euclidean_transport_is_identity(rng):
    man = rg.make_manifold("euclidean", dim=4)
    p = man.random_point(rng)
    o = man.random_point(rng)
    curve = man.geodesic_between(p, o)
    u = man.random_tangent(p, rng)
    results, mode, steps = transport_along(man, curve, [u], [0.3, 1.0])
    assert mode == "identity"
    assert steps == 0
    for row in results:
        assert np.array_equal(row[0].components, u.components)


def test_closed_form_transport_preserves_inner_products(rng):
    for kind in ("sphere2", "half_plane2"):
        man = rg.make_manifold(kind)
        for _ in range(10):
            p = man.random_point(rng)
            o = man.random_point(rng)
            if man.kind == "sphere2" and man.dist(p, o) > 2.9:
                continue
            curve = man.geodesic_between(p, o)
            u = man.random_tangent(p, rng)
            v = man.random_tangent(p, rng)
            before = man.inner(u, v)
            results, mode, _ = transport_along(man, curve, [u, v], [0.25, 0.7, 1.0])
            assert mode == "closed-form"
            for row in results:
                after = man.inner(row[0], row[1])
                assert abs(after - before) <= 1e-8 * (1.0 + abs(before))


def test_transport_on_zero_length_curve_is_identity():
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([0.0, 1.0, 0.0]))
    curve = man.geodesic_between(p, p)
    u = man.tangent(p, np.array([0.3, 0.0, -0.2]))
    results, mode, _ = transport_along(man, curve, [u], [0.5])
    assert np.array_equal(results[0][0].components, u.components)
    assert mode in ("identity", "closed-form")


def test_ode_matches_closed_form_on_tilted_sphere_geodesic():
    """Fixed-step integration against the closed form, in a chart where the
    connection coefficients do not vanish along the path."""
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([1.0, 0.0, 0.0]))
    q = man.point(np.array([0.0, 0.6, 0.8]))
    curve = man.geodesic_between(p, q)
    chart = man.chart_at(curve.position(0.5))
    u = man.tangent(p, np.array([0.0, -0.5, 1.2]))

    closed, mode, _ = transport_along(man, curve, [u], [1.0])
    assert mode == "closed-form"

    w0 = chart.pull(p, u.components)[None, :]
    w1 = ode_transport(man, curve, w0, 0.0, 1.0, steps=256, chart=chart)
    end = curve.position(1.0)
    ambient = chart.push(chart.to_chart(end), w1[0])
    assert ambient_gap(ambient, closed[0][0].components) <= 1e-5


def test_ode_matches_closed_form_on_halfplane_geodesic():
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([-1.2, 0.8]))
    q = man.point(np.array([2.0, 2.5]))
    curve = man.geodesic_between(p, q)
    chart = man.chart_at(p)
    u = man.tangent(p, np.array([0.7, 0.4]))

    closed, mode, _ = transport_along(man, curve, [u], [1.0])
    assert mode == "closed-form"

    w0 = chart.pull(p, u.components)[None, :]
    w1 = ode_transport(man, curve, w0, 0.0, 1.0, steps=256, chart=chart)
    ambient = chart.push(chart.to_chart(curve.position(1.0)), w1[0])
    assert ambient_gap(ambient, closed[0][0].components) <= 1e-5


def test_non_geodesic_route_uses_ode_and_preserves_norm(rng):
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(math.pi / 3.0)
    p = loop.position(0.0)
    u = random_unit_tangent(man, p, rng)
    results, mode, steps = transport_along(man, loop, [u], [0.5, 1.0])
    assert mode == "ode"
    assert steps >= 256
    for row in results:
        moved = row[0]
        norm = float(np.linalg.norm(moved.components))
        assert abs(norm - 1.0) <= 1e-8


def test_ode_convergence_order_on_latitude_loop():
    """Around a non-geodesic loop the integrator shows its fourth-order
    behaviour; the acceptance bar is only order >= 1.9."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(math.pi / 3.0)
    p = loop.position(0.0)
    u = man.project_tangent(p, np.array([0.0, 0.0, -1.0]))
    u = rg.TangentVector(p, u.components / np.linalg.norm(u.components))
    samples = [loop.position(t) for t in np.linspace(0.0, 1.0, 65)]
    chart = man.chart_for_curve(samples)

    # full-loop transport rotates tangent vectors by half a turn here,
    # so the exact end state is the negated start vector
    exact = -u.components
    errors = []
    for steps in (8, 16, 32, 64):
        w0 = chart.pull(p, u.components)[None, :]
        w1 = ode_transport(man, loop, w0, 0.0, 1.0, steps=steps, chart=chart)
        ambient = chart.push(chart.to_chart(loop.position(1.0)), w1[0])
        errors.append(float(np.linalg.norm(ambient - exact)))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    assert min(orders) >= 1.9
    assert errors[-1] <= 1e-6


def test_holonomy_angle_on_latitude_loop(rng):
    """Transport around the closed latitude circle at colatitude pi/3 turns
    vectors by 2*pi*(1 - cos(pi/3)) = pi."""
    man = rg.make_manifold("sphere2")
    colat = math.pi / 3.0
    loop = man.latitude_loop(colat)
    p = loop.position(0.0)
    u = random_unit_tangent(man, p, rng)
    results, mode, _ = transport_along(man, loop, [u], [1.0])
    assert mode == "ode"
    moved = results[0][0]
    # the loop returns to its start only up to roundoff, so compare raw
    # component vectors instead of using base-point-checked operations
    cosang = float(
        np.dot(moved.components, u.components)
        / (np.linalg.norm(moved.components) * np.linalg.norm(u.components))
    )
    angle = math.acos(max(-1.0, min(1.0, cosang)))
    expected = 2.0 * math.pi * (1.0 - math.cos(colat))
    assert abs(angle - expected) <= 1e-4
    assert ambient_gap(moved.components, -u.components) <= 1e-4


def wandering_loop(man, theta0, eps, waves=3):
    """The closed sphere curve theta(phi) = theta0 + eps * sin(waves * phi),
    phi = 2*pi*t: not planar, so no latitude circle and no geodesic."""

    def angles(t):
        phi = 2.0 * np.pi * np.asarray(t, dtype=float)
        return theta0 + eps * np.sin(waves * phi), phi

    def position(t):
        theta, phi = angles(t)
        return np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
        )

    def velocity(t):
        theta, phi = angles(t)
        d_theta = 2.0 * np.pi * waves * eps * np.cos(waves * phi)
        along_theta = np.stack(
            [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
        )
        along_phi = np.stack(
            [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.zeros_like(phi)],
            axis=-1,
        )
        return d_theta[..., None] * along_theta + 2.0 * np.pi * along_phi

    start = man.point(position(0.0))
    ts = np.arange(512) / 512
    length = float(np.mean(np.linalg.norm(velocity(ts), axis=-1)))
    curve = rg.Curve(man, position, velocity, start, start, False, length, vectorized=True)
    return curve, 2.0 * np.pi * float(np.mean(1.0 - np.cos(angles(ts)[0])))


@pytest.mark.parametrize("theta0, eps", [(0.9, 0.2), (2.0, 0.4)])
def test_holonomy_angle_on_a_wandering_loop(theta0, eps):
    """One loop turns every tangent vector by the enclosed area
    integral of (1 - cos theta) dphi, modulo 2*pi.  The area comes from the
    periodic trapezoid rule, exact to roundoff for this smooth integrand."""
    man = rg.make_manifold("sphere2")
    loop, area = wandering_loop(man, theta0, eps)
    p = loop.start.coords
    frame = man.orthonormal_frame(loop.start)
    results, mode, _ = transport_along(man, loop, frame.vectors, [1.0])
    assert mode == "ode"
    for u, moved in zip(frame.vectors, results[0]):
        u, w = u.components, moved.components
        angle = math.atan2(float(np.dot(p, np.cross(u, w))), float(np.dot(u, w)))
        assert abs(math.remainder(angle - area, 2.0 * math.pi)) <= 1e-8
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-8


def test_transport_rejects_vector_from_wrong_base(rng):
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([1.0, 0.0, 0.0]))
    q = man.point(np.array([0.0, 1.0, 0.0]))
    curve = man.geodesic_between(p, q)
    stray = man.tangent(q, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(rg.InvalidTangent):
        man.parallel_transport(curve, stray, 1.0)


def _batched(man, curve, vectors, ts):
    rows = np.array([u.components for u in vectors])
    return transport_rows(
        man, curve, rows, ts, curve.positions(ts), curve.velocities(ts)
    )


def test_batched_transport_matches_the_node_loop(manifold, rng):
    ts = np.linspace(0.0, 1.0, 11)
    for _ in range(4):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        for q in (o, p):  # p itself gives the zero-length geodesic
            curve = manifold.geodesic_between(p, q)
            frame = manifold.orthonormal_frame(p)
            moved, mode, steps = _batched(manifold, curve, frame.vectors, ts)
            assert moved.shape == (ts.size, manifold.dim, manifold.coord_dim)
            assert_close_rel(moved, loop_transport(manifold, curve, frame.vectors, ts))
            wrapped, wrapped_mode, wrapped_steps = transport_along(
                manifold, curve, frame.vectors, ts
            )
            assert (mode, steps) == (wrapped_mode, wrapped_steps)
            assert np.array_equal(
                moved, [[w.components for w in row] for row in wrapped]
            )


def test_batched_transport_on_the_ode_route_matches_the_wrapper(rng):
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)
    frame = man.orthonormal_frame(loop.start)
    ts = np.array([0.9, 0.1, 0.5, 1.0])
    moved, mode, steps = _batched(man, loop, frame.vectors, ts)
    wrapped, wrapped_mode, wrapped_steps = transport_along(man, loop, frame.vectors, ts)
    assert mode == wrapped_mode == "ode"
    assert steps == wrapped_steps
    assert np.array_equal(moved, [[w.components for w in row] for row in wrapped])
    for k, t in enumerate(ts):
        p = loop.position(t)
        assert np.array_equal(wrapped[k][0].base.coords, p.coords)


def test_flat_transport_is_a_view_of_the_frame():
    man = rg.make_manifold("euclidean", dim=64)
    p = man.point(np.zeros(64))
    curve = man.geodesic_between(p, man.point(np.ones(64)))
    frame = man.orthonormal_frame(p)
    moved, mode, _ = _batched(man, curve, frame.vectors, np.linspace(0.0, 1.0, 1024))
    assert mode == "identity"
    assert moved.strides[0] == 0 and not moved.flags.writeable
    assert np.array_equal(moved[517], np.eye(64))


# -- the RK4 propagators of the ODE route --------------------------------------


def halfplane_bow(man, vectorized):
    """A non-geodesic half-plane curve whose evaluators use only + and *, so
    array and scalar evaluation give the same bits."""

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([-0.7 + 1.9 * t, 0.6 + t * (2.2 - 1.5 * t)], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.full_like(t, 1.9), 2.2 - 3.0 * t], axis=-1)

    return rg.Curve(
        manifold=man,
        position_fn=position,
        velocity_fn=velocity,
        start=man.point(position(0.0)),
        end=man.point(position(1.0)),
        is_geodesic=False,
        length=2.0,
        vectorized=vectorized,
    )


def squared_sphere_curve(man):
    """A sphere geodesic run on the clock t^2, so not a geodesic as a curve."""
    geo = man.geodesic_between(
        man.point(np.array([1.0, 0.0, 0.0])), man.point(np.array([0.0, 0.6, 0.8]))
    )
    return rg.Curve(
        manifold=man,
        position_fn=lambda t: geo.position(t * t).coords,
        velocity_fn=lambda t: 2.0 * t * geo.velocity_fn(t * t),
        start=geo.start,
        end=geo.end,
        is_geodesic=False,
        length=geo.length,
    )


def ode_curve(name):
    """(manifold, curve, chart) with nonzero Christoffel symbols along the curve."""
    if name == "halfplane_bow":
        man = rg.make_manifold("half_plane2")
        curve = halfplane_bow(man, vectorized=True)
        return man, curve, curve_chart(man, curve)
    man = rg.make_manifold("sphere2")
    if name == "squared_sphere":
        # the curve-adapted chart has the great circle on its equator, where
        # the connection vanishes; a tilted chart keeps it in play
        curve = squared_sphere_curve(man)
        return man, curve, man.chart_at(curve.position(0.5))
    curve = man.latitude_loop(float(name.split("_")[1]))
    return man, curve, curve_chart(man, curve)


ODE_CURVES = ["loop_0.3", "loop_1.1", "loop_2.6", "squared_sphere", "halfplane_bow"]


@pytest.mark.parametrize("name", ODE_CURVES)
def test_propagators_match_the_per_step_rk4(name):
    man, curve, chart = ode_curve(name)
    rows = man.orthonormal_frame(curve.start).component_matrix()
    w0 = np.array([chart.pull(curve.start, u) for u in rows])
    for t0, t1, steps in ((0.0, 1.0, 64), (0.2, 0.45, 7), (0.9, 0.3, 5)):
        assert_close_rel(
            ode_transport(man, curve, w0, t0, t1, steps, chart),
            loop_ode_transport(man, curve, w0, t0, t1, steps, chart),
        )
    nodes, _ = rg.Quadrature().nodes_weights(16)
    ts = np.sort(np.concatenate([[0.0], nodes, nodes[3:5], [1.0]]))
    grid, ends = _pass_grid(ts, 64)
    first_sweep = _propagate(w0, grid, ends, _grid_matrices(chart, curve, grid))
    assert_close_rel(first_sweep, loop_ode_pass(man, curve, chart, w0, ts, 64))


def test_pass_grid_takes_ceil_gap_steps_per_target():
    rng = np.random.default_rng(3)
    ts = np.sort(np.concatenate([[0.0, 0.0], rng.uniform(0.0, 1.0, 40), [0.5, 0.5, 1.0]]))
    gaps = np.diff(ts, prepend=0.0)
    for total in (256, 512, 4096):
        grid, ends = _pass_grid(ts, total)
        expected = sum(max(1, math.ceil(gap * total)) for gap in gaps if gap > 0.0)
        assert len(grid) - 1 == ends[-1] == expected
        assert np.array_equal(grid[ends], ts)
        assert np.all(np.diff(grid) > 0.0)


@pytest.mark.parametrize("colatitude, steps", [(0.8, 1024), (1.2, 512)])
def test_ode_route_step_count_on_pinned_loops(colatitude, steps):
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(64)
    _, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", steps)


def test_scalar_only_curve_transports_like_its_vectorized_twin():
    man = rg.make_manifold("half_plane2")
    scalar, vectorized = halfplane_bow(man, False), halfplane_bow(man, True)
    frame = man.orthonormal_frame(scalar.start)
    ts, _ = rg.Quadrature().nodes_weights(32)
    moved, mode, steps = _batched(man, scalar, frame.vectors, ts)
    twin, twin_mode, twin_steps = _batched(man, vectorized, frame.vectors, ts)
    assert mode == twin_mode == "ode"
    assert steps == twin_steps
    assert np.array_equal(moved, twin)
    field = rg.LogHeightField(man)
    a = rg.generic_bam_report(field, scalar, frame)
    b = rg.generic_bam_report(field, vectorized, frame)
    assert np.array_equal(a.attributions, b.attributions)
    assert a.diagnostics == b.diagnostics


def _recording_sweeps(monkeypatch):
    """Grids of the ``_propagate`` calls and row counts of the sphere chart's
    ``transport_matrices`` calls, in call order."""
    from rigrad.manifolds import transport

    grids, rows_per_call = [], []
    matrices = SphericalChart.transport_matrices
    propagate = transport._propagate

    def counting_matrices(chart, P, V):
        rows_per_call.append(len(P))
        return matrices(chart, P, V)

    def recording_propagate(w0, grid, ends, B):
        grids.append(grid)
        return propagate(w0, grid, ends, B)

    monkeypatch.setattr(SphericalChart, "transport_matrices", counting_matrices)
    monkeypatch.setattr(transport, "_propagate", recording_propagate)
    return grids, rows_per_call


@pytest.mark.parametrize(
    "loop_name, nodes, steps",
    [(2.4, 64, 1024), ("wandering", 64, 2048), (0.8, 512, 1024), (2.4, 1024, 512)],
)
def test_every_later_sweep_halves_the_grid(monkeypatch, loop_name, nodes, steps):
    """The first sweep of S steps is _pass_grid's and evaluates B at its S + 1
    grid points and S midpoints.  Every later sweep of S' steps is the previous
    grid with its midpoints interleaved and evaluates B only at its S' new
    midpoints, however many nodes there are."""
    man = rg.make_manifold("sphere2")
    if loop_name == "wandering":
        loop, _ = wandering_loop(man, 0.9, 0.2)
    else:
        loop = man.latitude_loop(loop_name)
    grids, rows_per_call = _recording_sweeps(monkeypatch)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    _, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", steps)
    assert len(grids) == int(math.log2(steps // man.transport_steps)) + 1
    assert np.array_equal(grids[0], _pass_grid(np.sort(ts), man.transport_steps)[0])
    assert rows_per_call[0] == 2 * (len(grids[0]) - 1) + 1
    for coarse, fine, rows in zip(grids, grids[1:], rows_per_call[1:]):
        assert np.array_equal(fine[0::2], coarse)
        assert np.array_equal(fine[1::2], coarse[:-1] + 0.5 * np.diff(coarse))
        assert rows == len(fine) - 1


def test_few_starting_steps_still_refine_every_sweep(monkeypatch):
    """With 8 starting steps and 65 targets, every gap gets one step at both
    N = 8 and N = 16, so a fresh grid at N = 16 would repeat the first sweep
    and agree with it exactly.  Halved sweeps double the steps each time, and
    the frame at t = 1 comes back turned by 2 pi (1 - cos 1.2)."""
    man = rg.make_manifold("sphere2", transport_steps=8)
    colatitude = 1.2
    loop = man.latitude_loop(colatitude)
    grids, _ = _recording_sweeps(monkeypatch)
    frame = man.orthonormal_frame(loop.start)
    nodes, _ = rg.Quadrature().nodes_weights(64)
    moved, mode, _ = _batched(man, loop, frame.vectors, np.append(nodes, 1.0))
    assert mode == "ode"
    sweeps = [len(grid) - 1 for grid in grids]
    assert len(sweeps) >= 2
    assert all(fine == 2 * coarse for coarse, fine in zip(sweeps, sweeps[1:]))
    p = loop.start.coords
    expected = 2.0 * math.pi * (1.0 - math.cos(colatitude))
    for u, w in zip(frame.vectors, moved[-1]):
        u = u.components
        angle = math.atan2(float(np.dot(p, np.cross(u, w))), float(np.dot(u, w)))
        assert abs(math.remainder(angle - expected, 2.0 * math.pi)) <= 1e-9


def test_many_nodes_refine_to_a_fine_reference_sweep():
    """At 1024 nodes every gap has one step at N = 256 and N = 512 alike; the
    route still refines until its frames agree with one 2^15-step sweep."""
    man = rg.make_manifold("sphere2")
    loop, _ = wandering_loop(man, 0.9, 0.2)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(1024)
    moved, mode, steps = _batched(man, loop, frame.vectors, ts)
    assert (mode, steps) == ("ode", 1024)
    chart = curve_chart(man, loop)
    w0 = np.array([chart.pull(loop.start, u) for u in frame.component_matrix()])
    grid, ends = _pass_grid(ts, 2**15)
    reference = _propagate(w0, grid, ends, _grid_matrices(chart, loop, grid))
    reference = reference @ chart.coordinate_basis(loop.positions(ts))
    assert float(np.max(np.abs(moved - reference))) <= 1e-9
