"""Parallel transport: closed forms, the ODE fallback, and their agreement."""

import dataclasses
import math

import numpy as np
import pytest

import rigrad as rg
from rigrad.errors import TransportNotConverged
from rigrad.manifolds import ode_transport, transport_along
from rigrad.manifolds.euclidean import Euclidean
from rigrad.manifolds.sphere import SphericalChart
from rigrad.manifolds.transport import (
    ODE_START_STEPS,
    _grid_matrices,
    _pass_grid,
    _propagate,
    curve_chart,
    transport_rows,
)

from conftest import (
    assert_close_rel,
    latitude_loop_transport,
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


@pytest.mark.parametrize("kind", ["sphere2", "half_plane2"])
def test_closed_form_transport_refuses_a_length_that_is_not_the_speed(kind, rng):
    """Closed-form transport divides the velocity by the geodesic's length, so
    a curve marked geodesic whose speed at its ends is not its length is
    refused; one within the 1e-9 tolerance is moved."""
    man = rg.make_manifold(kind)
    p = man.random_point(rng)
    curve = man.geodesic_between(p, man.exp_map(random_unit_tangent(man, p, rng) * 0.8))
    u = man.random_tangent(p, rng)
    for factor in (1.0 + 1e-6, 0.5, 2.0):
        wrong = dataclasses.replace(curve, length=curve.length * factor)
        with pytest.raises(rg.InvalidCurve, match="do not match its length"):
            transport_along(man, wrong, [u], [0.5])
    close = dataclasses.replace(curve, length=curve.length * (1.0 + 1e-12))
    assert transport_along(man, close, [u], [0.5])[1] == "closed-form"


def test_a_geodesic_that_overflows_raises_non_finite_value():
    """A half-plane pair whose semicircle overflows has an infinite length;
    that is a non-finite value, not a speed that disagrees with the length.
    ``rig`` refuses the frame first, whose metric underflows at y = 1e-200."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, 1e-200]))
    o = man.point(np.array([1e200, 1e-200]))
    field = rg.AffineField(man, [0.3, -0.7])
    with np.errstate(all="ignore"), pytest.raises(rg.NonFiniteValue):
        rg.rig(field, man, p, o, man.orthonormal_frame(p))
    with pytest.raises(rg.NonFiniteValue, match="overflows"):
        man.geodesic_between(p, o)


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
    chart = man.chart_for_curve([curve.position(0.5)])
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
    chart = man.chart_for_curve([p])
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
    curve = rg.Curve(man, position, velocity, start, start, False, length)
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


def test_transport_that_outruns_the_step_cap_raises():
    """160 waves at the 64 Gauss nodes need more than ODE_MAX_STEPS steps:
    the last two sweeps still differ by more than ODE_TOL, so the route
    refuses instead of returning the unconverged frames."""
    man = rg.make_manifold("sphere2")
    loop, _ = wandering_loop(man, 1.5, 0.3, waves=160)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(64)
    with pytest.raises(TransportNotConverged, match=r"moving by \d\.\d+e-0\d at 4096 steps"):
        _batched(man, loop, frame.vectors, ts)
    with pytest.raises(TransportNotConverged):
        rg.generic_bam_report(rg.CoordinateField(man, 2), loop, frame)


@pytest.mark.parametrize("call", ["generic_bam_report", "bam_along_curve", "transport_along"])
def test_public_calls_raise_the_exported_transport_error(call):
    """The public calls that take the RK4 route raise ``rg.TransportNotConverged``
    at its step cap, the class the package exports next to QuadratureNotConverged."""
    man = rg.make_manifold("sphere2")
    loop, _ = wandering_loop(man, 1.5, 0.3, waves=160)
    frame = man.orthonormal_frame(loop.start)
    field = rg.CoordinateField(man, 2)
    calls = {
        "generic_bam_report": lambda: rg.generic_bam_report(field, loop, frame),
        "bam_along_curve": lambda: rg.bam_along_curve(field, loop, frame.vectors[0]),
        "transport_along": lambda: rg.transport_along(
            man, loop, frame.vectors, rg.Quadrature().nodes_weights(64)[0]
        ),
    }
    assert rg.TransportNotConverged is TransportNotConverged
    with pytest.raises(rg.TransportNotConverged, match="at 4096 steps"):
        calls[call]()


def test_pull_of_several_rows_matches_one_row_at_a_time(manifold, rng):
    """Chart.pull takes (n, coord_dim) rows, as the RK4 route passes them."""
    p = manifold.random_point(rng)
    curve = manifold.geodesic_between(p, manifold.random_point(rng))
    charts = [curve_chart(manifold, curve)]
    if manifold.kind == "sphere2":
        charts += [SphericalChart(pole) for pole in rng.standard_normal((3, 3))]
    rows = np.array([manifold.random_tangent(p, rng).components for _ in range(4)])
    for chart in charts:
        batched = chart.pull(p, rows)
        assert batched.shape == (4, chart.dim)
        one_by_one = np.array([chart.pull(p, u) for u in rows])
        assert np.max(np.abs(batched - one_by_one)) <= 1e-15


def test_transport_rejects_vector_from_wrong_base(rng):
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([1.0, 0.0, 0.0]))
    q = man.point(np.array([0.0, 1.0, 0.0]))
    curve = man.geodesic_between(p, q)
    stray = man.tangent(q, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(rg.InvalidTangent):
        transport_along(man, curve, [stray], [1.0])


def test_curve_too_close_to_every_chart_pole_is_refused():
    """theta = pi/2 + 1.45 sin(2 phi) comes within 0.1 rad of the pole of
    the plane its samples fit best, so Sphere2 has no chart for it."""
    man = rg.make_manifold("sphere2")
    loop, _ = wandering_loop(man, math.pi / 2.0, 1.45, waves=2)
    with pytest.raises(rg.InvalidCurve, match="within 0.1 rad"):
        rg.generic_bam_report(rg.CoordinateField(man, 2), loop, man.orthonormal_frame(loop.start))


def test_a_curve_evaluating_columns_is_refused():
    """Evaluators map K parameters to K rows.  A curve whose evaluators
    return the (coord_dim, K) transpose is refused, naming both shapes,
    before anything is computed from it."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)
    transposed = dataclasses.replace(
        loop,
        position_fn=lambda t: loop.position_fn(t).T,
        velocity_fn=lambda t: loop.velocity_fn(t).T,
    )
    frame = man.orthonormal_frame(loop.start)
    calls = [
        lambda: rg.generic_bam_report(rg.CoordinateField(man, 2), transposed, frame),
        lambda: rg.transport_along(man, transposed, frame.vectors, [0.2, 0.5, 0.7, 0.9]),
        lambda: rg.geodesic_residual(man, transposed),
    ]
    for call in calls:
        with pytest.raises(
            rg.InvalidCurve, match=r"returned shape \(3, (\d+)\) for \1 parameters; expected \(\1, 3\)"
        ):
            call()


def test_transport_parameters_outside_the_unit_interval(rng):
    """A parameter beyond [0, 1] by more than 1e-9 is refused; one within it
    is clamped to the end."""
    man = rg.make_manifold("sphere2")
    p, o = man.random_point(rng), man.random_point(rng)
    curve = man.geodesic_between(p, o)
    u = man.random_tangent(p, rng)
    with pytest.raises(rg.InvalidCurve, match="outside"):
        transport_along(man, curve, [u], [1.5])
    clamped, _, _ = transport_along(man, curve, [u], [1.0 + 5e-10])
    at_end, _, _ = transport_along(man, curve, [u], [1.0])
    assert np.array_equal(clamped[0][0].base.coords, o.coords)
    assert np.array_equal(clamped[0][0].components, at_end[0][0].components)


@pytest.mark.parametrize("colatitude", [0.0, math.pi])
def test_latitude_loop_at_a_pole_is_refused(colatitude):
    with pytest.raises(rg.InvalidCurve):
        rg.make_manifold("sphere2").latitude_loop(colatitude)


def _batched(man, curve, vectors, ts, steps=ODE_START_STEPS):
    rows = np.array([u.components for u in vectors])
    return transport_rows(
        man, curve, rows, ts, curve.positions(ts), curve.velocities(ts), steps
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


def halfplane_bow(man):
    """A non-geodesic half-plane curve: a parabola arc."""

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
    )


def squared_sphere_curve(man):
    """A sphere geodesic run on the clock t^2, so not a geodesic as a curve."""
    geo = man.geodesic_between(
        man.point(np.array([1.0, 0.0, 0.0])), man.point(np.array([0.0, 0.6, 0.8]))
    )

    def position(t):
        return geo.positions(t * t)

    def velocity(t):
        return 2.0 * t[:, None] * geo.velocities(t * t)

    return rg.Curve(
        manifold=man,
        position_fn=position,
        velocity_fn=velocity,
        start=geo.start,
        end=geo.end,
        is_geodesic=False,
        length=geo.length,
    )


def ode_curve(name):
    """(manifold, curve, chart) with nonzero Christoffel symbols along the curve."""
    if name == "halfplane_bow":
        man = rg.make_manifold("half_plane2")
        curve = halfplane_bow(man)
        return man, curve, curve_chart(man, curve)
    man = rg.make_manifold("sphere2")
    if name == "squared_sphere":
        # the curve-adapted chart has the great circle on its equator, where
        # the connection vanishes; the chart fitted to the midpoint alone is
        # tilted against the circle and keeps it in play
        curve = squared_sphere_curve(man)
        return man, curve, man.chart_for_curve([curve.position(0.5)])
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


def _recording_sweeps(monkeypatch):
    """Grids of the ``_rotate`` calls and row counts of the sphere chart's
    ``connection_forms`` calls, in call order."""
    from rigrad.manifolds import transport

    grids, rows_per_call = [], []
    forms = SphericalChart.connection_forms
    rotate = transport._rotate

    def counting_forms(chart, P, V):
        rows_per_call.append(len(P))
        return forms(chart, P, V)

    def recording_rotate(z0, grid, ends, lam):
        grids.append(grid)
        return rotate(z0, grid, ends, lam)

    monkeypatch.setattr(SphericalChart, "connection_forms", counting_forms)
    monkeypatch.setattr(transport, "_rotate", recording_rotate)
    return grids, rows_per_call


@pytest.mark.parametrize(
    "loop_name, nodes, steps",
    [(2.4, 64, 1024), ("wandering", 64, 2048), (0.8, 512, 512), (2.4, 1024, 512)],
)
def test_every_later_sweep_halves_the_grid(monkeypatch, loop_name, nodes, steps):
    """The first sweep of S steps is _pass_grid's and evaluates the connection
    form at its S + 1 grid points and S midpoints.  Every later sweep of S'
    steps is the previous grid with its midpoints interleaved and evaluates
    the form only at its S' new midpoints, however many nodes there are.  On
    the latitude loops the frames agree with the closed form."""
    man = rg.make_manifold("sphere2")
    if loop_name == "wandering":
        loop, _ = wandering_loop(man, 0.9, 0.2)
    else:
        loop = man.latitude_loop(loop_name)
    grids, rows_per_call = _recording_sweeps(monkeypatch)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    moved, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", steps)
    assert len(grids) == int(math.log2(steps // ODE_START_STEPS)) + 1
    assert np.array_equal(grids[0], _pass_grid(np.sort(ts), ODE_START_STEPS)[0])
    assert rows_per_call[0] == 2 * (len(grids[0]) - 1) + 1
    for coarse, fine, rows in zip(grids, grids[1:], rows_per_call[1:]):
        assert np.array_equal(fine[0::2], coarse)
        assert np.array_equal(fine[1::2], coarse[:-1] + 0.5 * np.diff(coarse))
        assert rows == len(fine) - 1
    if loop_name != "wandering":
        expected = np.stack(
            [latitude_loop_transport(loop_name, u.components, ts) for u in frame.vectors], axis=1
        )
        assert float(np.max(np.abs(moved - expected))) <= 1e-9


def test_few_starting_steps_still_refine_every_sweep(monkeypatch):
    """With 8 starting steps and 65 targets, every gap gets one step at both
    N = 8 and N = 16, so a fresh grid at N = 16 would repeat the first sweep
    and agree with it exactly.  Halved sweeps double the steps each time, and
    the frame at t = 1 comes back turned by 2 pi (1 - cos 1.2)."""
    man = rg.make_manifold("sphere2")
    colatitude = 1.2
    loop = man.latitude_loop(colatitude)
    grids, _ = _recording_sweeps(monkeypatch)
    frame = man.orthonormal_frame(loop.start)
    nodes, _ = rg.Quadrature().nodes_weights(64)
    moved, mode, _ = _batched(man, loop, frame.vectors, np.append(nodes, 1.0), steps=8)
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


def _route_curve(name):
    """(manifold, curve, chart) of ``ode_curve`` or of a wandering loop."""
    if name.startswith("wandering"):
        man = rg.make_manifold("sphere2")
        theta0, eps = (float(x) for x in name.split("_")[1:])
        curve, _ = wandering_loop(man, theta0, eps)
        return man, curve, curve_chart(man, curve)
    return ode_curve(name)


@pytest.mark.parametrize("nodes", [64, 512, 1024])
@pytest.mark.parametrize("name", ODE_CURVES + ["wandering_0.9_0.2", "wandering_2.0_0.4"])
def test_route_matches_a_fine_matrix_sweep(name, nodes):
    """The route's rotation kernel against one 2^15-step sweep of the matrix
    kernel, to 1e-9 at every node."""
    man, curve, chart = _route_curve(name)
    frame = man.orthonormal_frame(curve.start)
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    moved, mode, _ = _batched(man, curve, frame.vectors, ts)
    assert mode == "ode"
    w0 = np.array([chart.pull(curve.start, u) for u in frame.component_matrix()])
    grid, ends = _pass_grid(ts, 2**15)
    reference = _propagate(w0, grid, ends, _grid_matrices(chart, curve, grid))
    reference = reference @ chart.coordinate_basis(curve.positions(ts))
    assert float(np.max(np.abs(moved - reference))) <= 1e-9


class UnflaggedEuclidean(Euclidean):
    """Flat space that does not say so, so transport takes the ODE route."""

    flat = False


def test_three_dimensional_chart_takes_the_matrix_kernel():
    """A 3-dimensional chart has no rotation kernel; with zero Christoffel
    symbols the matrix kernel's steps are identities and the rows come back
    unchanged."""
    man = UnflaggedEuclidean(3)

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, t * t, 1.0 - t * t * t], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), 2.0 * t, -3.0 * t * t], axis=-1)

    curve = rg.Curve(
        man, position, velocity, man.point(position(0.0)), man.point(position(1.0)), False, 2.0
    )
    rows = np.array([[0.3, -1.2, 0.5], [2.0, 0.1, -0.7]])
    ts, _ = rg.Quadrature().nodes_weights(64)
    moved, mode, _ = transport_rows(man, curve, rows, ts, curve.positions(ts), curve.velocities(ts))
    assert mode == "ode"
    assert np.array_equal(moved, np.broadcast_to(rows, (len(ts), *rows.shape)))
