"""Parallel transport: closed forms, the ODE fallback, and their agreement."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import rigrad as rg
from rigrad.errors import TransportNotConverged
from rigrad.manifolds import ode_transport, transport_along
from rigrad.manifolds.euclidean import Euclidean
from rigrad.manifolds.sphere import SphericalChart
from rigrad.manifolds.transport import (
    ODE_START_STEPS,
    PANEL_POINTS,
    PANELS_MAX,
    PANELS_START,
    _panel_points,
    _panel_rule,
    _grid_matrices,
    _pass_grid,
    _propagate,
    transport_frame,
)

from conftest import (
    ScalarMethodsChart,
    assert_close_rel,
    latitude_loop_frames,
    latitude_loop_transport,
    loop_ode_pass,
    loop_ode_transport,
    loop_transport,
    random_unit_tangent,
)


def curve_chart(man, curve):
    """``man``'s chart for 65 evenly spaced positions on ``curve``: on the
    curves here, the chart the ODE route picks from its own evaluations."""
    return man.chart_for_curve(curve.positions(np.linspace(0.0, 1.0, 65)))


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
    """Closed-form transport trusts a geodesic's length as its g-speed, so a
    curve marked geodesic whose speed at its ends is not its length is
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
    ``rig`` accepts the frame at y = 1e-200, whose check reads the rows over
    y, and the refusal comes from ``make_geodesic``."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, 1e-200]))
    o = man.point(np.array([1e200, 1e-200]))
    field = rg.AffineField(man, [0.3, -0.7])
    with np.errstate(all="ignore"), pytest.raises(rg.NonFiniteValue, match="overflows"):
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
    """A latitude loop takes the ODE route, which stops at its second sweep:
    the connection form is constant along the loop, so the first sweep is
    already exact.  The moved vectors keep their norm and match the closed form."""
    man = rg.make_manifold("sphere2")
    colatitude = math.pi / 3.0
    loop = man.latitude_loop(colatitude)
    p = loop.position(0.0)
    u = random_unit_tangent(man, p, rng)
    results, mode, steps = transport_along(man, loop, [u], [0.5, 1.0])
    assert mode == "ode"
    assert steps == 2 * PANELS_START
    expected = latitude_loop_transport(colatitude, u.components, [0.5, 1.0])
    for row, closed in zip(results, expected):
        moved = row[0]
        norm = float(np.linalg.norm(moved.components))
        assert abs(norm - 1.0) <= 1e-8
        assert ambient_gap(moved.components, closed) <= 1e-12


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


# a turn by 0.7 rad about (1, 2, 2) / 3, as the matrix I + sin K + (1 - cos) K^2
_AXIS = np.array([[0.0, -2.0, 2.0], [2.0, 0.0, -1.0], [-2.0, 1.0, 0.0]]) / 3.0
TILT = np.eye(3) + math.sin(0.7) * _AXIS + (1.0 - math.cos(0.7)) * _AXIS @ _AXIS


def tilted(man, curve):
    """``curve`` turned by TILT: a loop about the z-axis comes out about an
    axis that is no fixed chart's pole."""
    position = lambda t: curve.position_fn(t) @ TILT.T
    start = man.point(position(np.zeros(1))[0])
    return dataclasses.replace(
        curve, position_fn=position, velocity_fn=lambda t: curve.velocity_fn(t) @ TILT.T,
        start=start, end=start,
    )


def circle_through_the_axes(man):
    """The closed circle through e_x, e_y and e_z, at t = 0, 1/3 and 2/3: it
    passes through the poles of the three axis charts, and keeps
    acos(1 / sqrt(3)) = 0.955 rad from those of the chart poled on
    (1, 1, 1) / sqrt(3)."""
    centre = np.full(3, 1.0 / 3.0)
    a = np.array([2.0, -1.0, -1.0]) / 3.0  # e_x - centre, of length sqrt(2/3)
    b = np.array([0.0, 1.0, -1.0]) / math.sqrt(3.0)  # the diagonal cross a
    angle = lambda t: 2.0 * np.pi * np.asarray(t, dtype=float)[..., None]
    position = lambda t: centre + np.cos(angle(t)) * a + np.sin(angle(t)) * b
    velocity = lambda t: 2.0 * np.pi * (np.cos(angle(t)) * b - np.sin(angle(t)) * a)
    start = man.point(position(np.zeros(1))[0])
    return rg.Curve(man, position, velocity, start, start, False, 2.0 * np.pi * math.sqrt(2.0 / 3.0))


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


def test_transport_that_outruns_the_step_cap_raises(monkeypatch):
    """160 waves at the 64 Gauss nodes need more than PANELS_MAX panels: the
    last two sweeps still differ by more than ODE_TOL, so the route refuses
    instead of returning the unconverged frames.  It gets there in one call
    for the first two sweeps, PANELS_START and twice that many panels, then
    one call per doubling up to PANELS_MAX, each evaluating the connection
    form PANEL_POINTS times a panel: 6048 evaluations, where sweeps between
    the nodes took 11904."""
    man = rg.make_manifold("sphere2")
    loop, _ = wandering_loop(man, 1.5, 0.3, waves=160)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(64)
    rows_per_call = _counting_forms(monkeypatch)
    with pytest.raises(TransportNotConverged, match=rf"moving by \d\.\d+e-0\d at {PANELS_MAX} panels"):
        _batched(man, loop, frame.vectors, ts)
    panels = [3 * PANELS_START] + [4 * PANELS_START * 2**k for k in range(4)]
    assert panels[-1] == PANELS_MAX
    assert rows_per_call == [PANEL_POINTS * count for count in panels]
    assert sum(rows_per_call) == 6048
    with pytest.raises(TransportNotConverged):
        rg.generic_bam_report(rg.CoordinateField(man, 2), loop, frame)


def test_non_finite_frames_stop_the_route_at_once(monkeypatch):
    """A latitude loop whose velocity is NaN past t = 0.7 turns the frames
    NaN on the first sweep: the route raises NonFiniteValue after the one
    chart call that samples the first two sweeps, with no numpy warning,
    instead of doubling its panels to the cap."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 0.7)[..., None], np.nan, loop.velocity_fn(t))

    broken = dataclasses.replace(loop, velocity_fn=velocity)
    frame = man.orthonormal_frame(loop.start)
    rows_per_call = _counting_forms(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match=f"frames are not finite at {PANELS_START} panels"):
            rg.generic_bam_report(rg.CoordinateField(man, 2), broken, frame)
    assert rows_per_call == [3 * PANELS_START * PANEL_POINTS]


@pytest.mark.parametrize("call", ["generic_bam_report", "transport_along"])
def test_a_non_finite_velocity_between_the_nodes_stops_the_route(monkeypatch, call):
    """A latitude loop whose velocity is NaN on (0.395, 0.415) alone: no node
    of the joined 32 + 64 rule falls there, but two Gauss-Legendre points of
    the first sweep's fourth panel do.  The connection form is NaN there, so
    the frames past it are too, and the route raises NonFiniteValue naming
    the first sweep's panels, with no numpy warning."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)
    ts = np.concatenate([rg.Quadrature().nodes_weights(n)[0] for n in (32, 64)])
    inside = lambda t: (t > 0.395) & (t < 0.415)
    assert not inside(ts).any()
    assert inside(_panel_points((PANELS_START,), PANEL_POINTS)).sum() == 2

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.where(inside(t)[..., None], np.nan, loop.velocity_fn(t))

    broken = dataclasses.replace(loop, velocity_fn=velocity)
    frame = man.orthonormal_frame(loop.start)
    calls = {
        "generic_bam_report": lambda: rg.generic_bam_report(rg.CoordinateField(man, 2), broken, frame),
        "transport_along": lambda: transport_along(man, broken, frame.vectors, ts),
    }
    rows_per_call = _counting_forms(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match=f"frames are not finite at {PANELS_START} panels"):
            calls[call]()
    assert rows_per_call == [3 * PANELS_START * PANEL_POINTS]


def test_non_finite_positions_are_refused_before_the_chart():
    """A latitude loop whose positions are NaN past t = 0.7: the chart's
    samples are not finite, which raises NonFiniteValue before the sphere
    picks a chart from them."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 0.7)[..., None], np.nan, loop.position_fn(t))

    broken = dataclasses.replace(loop, position_fn=position)
    with pytest.raises(rg.NonFiniteValue, match="chart samples"):
        rg.generic_bam_report(rg.CoordinateField(man, 2), broken, man.orthonormal_frame(loop.start))


@pytest.mark.parametrize("name", ["halfplane_bow", "loop_1.1"])
def test_a_non_finite_node_position_stops_the_route_before_a_sweep(monkeypatch, name):
    """A curve whose position is NaN at one Gauss node alone: the node's
    position is one of the chart's samples, so the route raises
    NonFiniteValue naming them, before its first sweep and with no numpy
    warning, rather than return NaN vectors at that node."""
    man, curve, chart = ode_curve(name)
    ts, _ = rg.Quadrature().nodes_weights(64)

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.where((t == ts[10])[..., None], np.nan, curve.position_fn(t))

    def no_sweep(*args):
        raise AssertionError("the route swept a curve with a non-finite frame")

    broken = dataclasses.replace(curve, position_fn=position)
    frame = man.orthonormal_frame(curve.start)
    monkeypatch.setattr(type(chart), "connection_forms", no_sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match="chart samples"):
            transport_along(man, broken, frame.vectors, ts)


@pytest.mark.parametrize("name", ["halfplane_bow", "loop_1.1"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_velocities_raise_the_frame_error_alone(name, bad):
    """A curve whose velocity is infinite past t = 0.7 makes the connection
    form infinite and its products NaN; the frame check's NonFiniteValue is
    the one report, with no RuntimeWarning on the way."""
    man, curve, _ = ode_curve(name)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 0.7)[..., None], bad, curve.velocity_fn(t))

    broken = dataclasses.replace(curve, velocity_fn=velocity)
    field = rg.CoordinateField(man, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match="frames are not finite"):
            rg.generic_bam_report(field, broken, man.orthonormal_frame(curve.start))


@pytest.mark.parametrize("call", ["generic_bam_report", "bam_along_curve", "transport_along"])
def test_public_calls_raise_the_exported_transport_error(call):
    """The public calls that take the ODE route raise ``rg.TransportNotConverged``
    at its panel cap, the class the package exports next to QuadratureNotConverged."""
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
    with pytest.raises(rg.TransportNotConverged, match=f"at {PANELS_MAX} panels"):
        calls[call]()


def test_pull_of_several_rows_matches_one_row_at_a_time(manifold, rng):
    """Chart.pull takes (n, coord_dim) rows, as the ODE route passes them."""
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


def through_every_pole(man):
    """A closed sphere curve along great-circle arcs, at non-uniform speed,
    through a pole of each of the sphere's seven fixed charts, the one at
    t = k / 7 for k = 0, ..., 6."""
    W = np.array([[1, 0, 0], [1, 1, 1], [0, 1, 0], [-1, 1, 1], [0, 0, 1], [1, -1, 1], [-1, -1, 1], [1, 0, 0]])
    W = W / np.linalg.norm(W, axis=1)[:, None]

    def chord(t):  # the point on the chord from W[k] to W[k + 1], and its velocity
        u = 7.0 * np.asarray(t, dtype=float)
        k = np.minimum(u.astype(int), 6)
        s = (u - k)[..., None]
        c = (1.0 - s) * W[k] + s * W[k + 1]
        return c, np.linalg.norm(c, axis=-1, keepdims=True), 7.0 * (W[k + 1] - W[k])

    def position(t):
        c, norm, _ = chord(t)
        return c / norm

    def velocity(t):
        c, norm, dc = chord(t)
        p = c / norm
        return (dc - (p * dc).sum(axis=-1, keepdims=True) * p) / norm

    start = man.point(W[0])
    return rg.Curve(man, position, velocity, start, start, False, 7.0)


def test_curve_too_close_to_every_chart_pole_is_refused(monkeypatch):
    """A curve through a pole of every fixed chart has no chart: the sphere
    refuses the seven poles as samples, and the route, whose samples include
    its nodes, refuses a pass at the times the curve meets them, before any
    evaluation of the connection form."""
    man = rg.make_manifold("sphere2")
    poles = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1]])
    with pytest.raises(rg.InvalidCurve, match="within 0.1 rad"):
        man.chart_for_curve(poles / np.linalg.norm(poles, axis=1)[:, None])
    curve = through_every_pole(man)
    rows_per_call = _counting_forms(monkeypatch)
    frame = man.orthonormal_frame(curve.start)
    with pytest.raises(rg.InvalidCurve, match="within 0.1 rad"):
        transport_along(man, curve, frame.vectors, np.arange(7) / 7.0)
    with pytest.raises(rg.InvalidCurve, match="within 0.1 rad"):
        rg.generic_bam_report(rg.CoordinateField(man, 2), curve, frame)
    assert rows_per_call == []


@pytest.mark.parametrize("name", ["loop_1.1", "halfplane_bow"])
def test_the_first_pass_evaluates_the_curve_once(name):
    """A first ODE pass that stops at its second sweep makes one ``positions``
    and one ``velocities`` call, at its nodes and the panel points of the
    first two sweeps, and takes its chart from those positions: no separate
    samples."""
    man, curve, _ = ode_curve(name)
    calls = []

    def counted(evaluator, kind):
        return lambda t: calls.append(kind) or evaluator(t)

    counting = dataclasses.replace(
        curve, position_fn=counted(curve.position_fn, "position"),
        velocity_fn=counted(curve.velocity_fn, "velocity"),
    )
    rows = man.orthonormal_frame(curve.start).rows
    _, _, _, mode, steps = frame_at(man, counting, rows, rg.Quadrature().nodes_weights(64)[0])
    assert (mode, steps) == ("ode", 2 * PANELS_START)
    assert sorted(calls) == ["position", "velocity"]


@pytest.mark.parametrize("call", ["generic_bam_report", "bam_along_curve", "transport_along"])
def test_the_ode_route_fits_no_chart(monkeypatch, call):
    """The sphere's curve charts are fixed: the public calls that take the ODE
    route, along a latitude loop and a tilted wandering loop, run to finite
    results without reaching an SVD."""

    def refused(*args, **kwargs):
        raise AssertionError("the ODE route took an SVD")

    monkeypatch.setattr(np.linalg, "svd", refused)
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    for loop in (man.latitude_loop(1.1), _route_curve("wandering_0.9_0.2")[1]):
        frame = man.orthonormal_frame(loop.start)
        calls = {
            "generic_bam_report": lambda: rg.generic_bam_report(field, loop, frame).attributions,
            "bam_along_curve": lambda: rg.bam_along_curve(field, loop, frame.vectors[0]),
            "transport_along": lambda: [
                [w.components for w in row]
                for row in transport_along(man, loop, frame.vectors, [0.3, 1.0])[0]
            ],
        }
        assert np.isfinite(calls[call]()).all()


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


def test_a_transposed_evaluator_is_refused_at_as_many_parameters_as_coordinates():
    """With K == coord_dim parameters a (coord_dim, K) transpose has the
    expected shape, so the curve evaluates one more parameter there and
    drops it: the transpose is still refused, and a good evaluator's rows
    are the ones it gives alone."""
    man = rg.make_manifold("half_plane2")
    geodesic = man.geodesic_between(man.point([0.3, 1.2]), man.point([-0.5, 2.0]))
    transposed = dataclasses.replace(
        geodesic,
        position_fn=lambda t: geodesic.position_fn(t).T,
        velocity_fn=lambda t: geodesic.velocity_fn(t).T,
    )
    ts = np.array([0.2, 0.7])
    for evaluate in (transposed.positions, transposed.velocities):
        with pytest.raises(
            rg.InvalidCurve, match=r"returned shape \(2, 3\) for 3 parameters; expected \(3, 2\)"
        ):
            evaluate(ts)
    assert np.array_equal(geodesic.positions(ts), geodesic.position_fn(ts))
    assert np.array_equal(geodesic.velocities(ts), geodesic.velocity_fn(ts))


def test_transport_parameters_outside_the_unit_interval(rng):
    """A parameter beyond [0, 1] by more than 1e-9, NaN or infinite, is
    refused on a geodesic and on a loop; one within 1e-9 is clamped to the end."""
    man = rg.make_manifold("sphere2")
    p, o = man.random_point(rng), man.random_point(rng)
    curve = man.geodesic_between(p, o)
    u = man.random_tangent(p, rng)
    with pytest.raises(rg.InvalidCurve, match="outside"):
        transport_along(man, curve, [u], [1.5])
    loop = man.latitude_loop(1.1)
    for path, vector in ((curve, u), (loop, man.random_tangent(loop.start, rng))):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(rg.InvalidCurve, match=r"outside \[0, 1\]"):
                transport_along(man, path, [vector], [0.5, bad])
    clamped, _, _ = transport_along(man, curve, [u], [1.0 + 5e-10])
    at_end, _, _ = transport_along(man, curve, [u], [1.0])
    assert np.array_equal(clamped[0][0].base.coords, o.coords)
    assert np.array_equal(clamped[0][0].components, at_end[0][0].components)


@pytest.mark.parametrize("colatitude", [0.0, math.pi])
def test_latitude_loop_at_a_pole_is_refused(colatitude):
    with pytest.raises(rg.InvalidCurve):
        rg.make_manifold("sphere2").latitude_loop(colatitude)


def test_latitude_loop_keeps_the_bits_of_the_stacked_formula():
    """The loop's position and velocity, at arrays of parameters and at scalars,
    hold the bits of the formula that stacks the three coordinates, the sign
    of every zero included."""

    def stacked(theta, t):
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        phi = 2.0 * np.pi * np.asarray(t, dtype=float)
        position = np.stack(
            [sin_t * np.cos(phi), sin_t * np.sin(phi), np.full_like(phi, cos_t)], axis=-1
        )
        velocity = 2.0 * np.pi * sin_t * np.stack(
            [-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1
        )
        return position, velocity

    man = rg.make_manifold("sphere2")
    ts = np.concatenate([np.linspace(0.0, 1.0, 301), [-0.0, 0.5]])
    for colatitude in (0.05, 0.3, 0.8, 1.1, math.pi / 2.0, 2.0, 2.6, 3.1):
        loop = man.latitude_loop(colatitude)
        assert loop.length == 2.0 * np.pi * np.sin(colatitude)
        for t in (ts, 0.0, 0.5, 1.0):
            position, velocity = stacked(colatitude, t)
            for got, expected in ((loop.position_fn(t), position), (loop.velocity_fn(t), velocity)):
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def frame_at(man, curve, rows, ts):
    """(P, C, E, mode, steps): ``transport_frame``'s path constants and its
    pass at ``ts``."""
    transport, (P, _, E, steps) = transport_frame(man, curve, rows, np.asarray(ts, dtype=float))
    return P, transport.C, E, transport.mode, steps


def _batched(man, curve, vectors, ts):
    """``transport_frame``'s vectors at every node, (len(ts), n, coord_dim)."""
    rows = np.array([u.components for u in vectors])
    _, C, E, mode, used = frame_at(man, curve, rows, ts)
    moved = np.broadcast_to(rows, (len(ts), *rows.shape)) if E is None else C @ E
    return moved, mode, used


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


def test_flat_transport_builds_no_per_node_table():
    """Flat transport at 1024 nodes hands the frame back as C, with no E."""
    man = rg.make_manifold("euclidean", dim=64)
    p = man.point(np.zeros(64))
    curve = man.geodesic_between(p, man.point(np.ones(64)))
    rows = man.orthonormal_frame(p).rows
    _, C, E, mode, steps = frame_at(man, curve, rows, np.linspace(0.0, 1.0, 1024))
    assert (mode, steps) == ("identity", 0)
    assert C is rows and E is None


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
    rows = man.orthonormal_frame(curve.start).rows
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


def _counting_forms(monkeypatch):
    """Row counts of the sphere chart's ``connection_forms`` calls, in call order."""
    rows_per_call = []
    forms = SphericalChart.connection_forms

    def counting_forms(chart, P, V):
        rows_per_call.append(len(P))
        return forms(chart, P, V)

    monkeypatch.setattr(SphericalChart, "connection_forms", counting_forms)
    return rows_per_call


@pytest.mark.parametrize("colatitude, steps", [(0.8, 1024), (1.2, 512)])
def test_ode_route_step_count_on_pinned_loops(monkeypatch, colatitude, steps):
    """At the 64 Gauss nodes of a latitude loop the route stops at its second
    sweep, 2 * PANELS_START panels, after 288 evaluations of the connection
    form (768 when sweeps ran between the nodes), and matches the closed form
    to 1e-12.  The RK4 matrix kernel in the angle kernel's place, on the same
    chart, keeps its own schedule: ``steps`` steps, to 1e-9."""
    from rigrad.manifolds import transport

    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(64)
    expected = latitude_loop_frames(colatitude, frame, ts)
    rows_per_call = _counting_forms(monkeypatch)
    moved, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", 2 * PANELS_START)
    assert rows_per_call == [288]
    assert float(np.max(np.abs(moved - expected))) <= 1e-12
    monkeypatch.setattr(transport, "_angle_kernel", transport._matrix_kernel)
    moved, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", steps)
    assert float(np.max(np.abs(moved - expected))) <= 1e-9


def _recording_rk4_sweeps(monkeypatch):
    """The RK4 matrix kernel in the angle kernel's place, recording the grids
    of its ``_propagate`` calls and the row counts of the sphere chart's
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

    monkeypatch.setattr(transport, "_angle_kernel", transport._matrix_kernel)
    monkeypatch.setattr(SphericalChart, "transport_matrices", counting_matrices)
    monkeypatch.setattr(transport, "_propagate", recording_propagate)
    return grids, rows_per_call


@pytest.mark.parametrize(
    "loop_name, nodes, steps",
    [(2.4, 64, 1024), ("wandering", 64, 2048), ("wandering", 512, 2048), (2.4, 1024, 512)],
)
def test_every_later_sweep_halves_the_grid(monkeypatch, loop_name, nodes, steps):
    """The RK4 matrix kernel's first sweep of S steps is _pass_grid's and
    evaluates the chart at its S + 1 grid points and S midpoints.  Every later
    sweep of S' steps is the previous grid with its midpoints interleaved and
    evaluates the chart only at its S' new midpoints, however many nodes there
    are.  The wandering loop is the (0.9, 0.2) one turned by TILT, which
    takes four sweeps.  On the latitude loops the frames agree with the
    closed form."""
    if loop_name == "wandering":
        man, loop, _ = _route_curve("wandering_0.9_0.2")
    else:
        man = rg.make_manifold("sphere2")
        loop = man.latitude_loop(loop_name)
    grids, rows_per_call = _recording_rk4_sweeps(monkeypatch)
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
        expected = latitude_loop_frames(loop_name, frame, ts)
        assert float(np.max(np.abs(moved - expected))) <= 1e-9


def _recording_velocity_calls(curve):
    """``curve`` with the parameters of each velocity call recorded, in call order."""
    calls = []

    def velocity(t):
        calls.append(np.array(t, dtype=float))
        return curve.velocity_fn(t)

    return dataclasses.replace(curve, velocity_fn=velocity), calls


@pytest.mark.parametrize(
    "loop_name, nodes, panels", [(2.4, 64, 16), ("wandering", 64, 64), (0.8, 512, 16)]
)
def test_every_later_sweep_halves_every_panel(loop_name, nodes, panels):
    """The angle kernel's sweeps cut [0, 1] into uniform panels, whatever the
    nodes.  The pass's own curve call samples, after its nodes, the first
    two sweeps, PANELS_START and twice that many panels, and each later call
    the sweep with every panel of the last one halved.  A sweep evaluates the
    curve at the PANEL_POINTS Gauss-Legendre nodes of each of its panels and
    nowhere else.  The wandering loop is the (0.9, 0.2) one turned by TILT."""
    if loop_name == "wandering":
        man, loop, _ = _route_curve("wandering_0.9_0.2")
    else:
        man = rg.make_manifold("sphere2")
        loop = man.latitude_loop(loop_name)
    recorded, calls = _recording_velocity_calls(loop)
    frame = man.orthonormal_frame(loop.start)
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    _, mode, used = _batched(man, recorded, frame.vectors, ts)
    assert (mode, used) == ("ode", panels)
    assert len(calls) == int(math.log2(panels // PANELS_START))
    x, _ = rg.Quadrature().nodes_weights(PANEL_POINTS)

    def points(count):
        return ((np.arange(count)[:, None] + x) / count).ravel()

    assert np.array_equal(calls[0], np.concatenate([ts, points(PANELS_START), points(2 * PANELS_START)]))
    for k, at in enumerate(calls[1:], start=2):
        assert np.array_equal(at, points(PANELS_START * 2**k))


def test_few_starting_steps_still_refine_every_sweep(monkeypatch):
    """With one starting panel the route doubles the panels, one chart call
    per sweep after the first two, until two sweeps agree at the 65 targets,
    and the frame at t = 1 comes back turned by the enclosed area."""
    from rigrad.manifolds import transport

    man = rg.make_manifold("sphere2")
    loop, area = wandering_loop(man, 0.9, 0.2)
    monkeypatch.setattr(transport, "PANELS_START", 1)
    rows_per_call = _counting_forms(monkeypatch)
    frame = man.orthonormal_frame(loop.start)
    nodes, _ = rg.Quadrature().nodes_weights(64)
    moved, mode, used = _batched(man, loop, frame.vectors, np.append(nodes, 1.0))
    assert mode == "ode"
    later = [PANEL_POINTS * 2**k for k in range(2, len(rows_per_call) + 1)]
    assert rows_per_call == [3 * PANEL_POINTS] + later
    assert used == 2 ** len(rows_per_call) >= 16
    p = loop.start.coords
    for u, w in zip(frame.vectors, moved[-1]):
        u = u.components
        angle = math.atan2(float(np.dot(p, np.cross(u, w))), float(np.dot(u, w)))
        assert abs(math.remainder(angle - area, 2.0 * math.pi)) <= 1e-10


def test_many_nodes_refine_to_a_fine_reference_sweep():
    """The panels do not depend on the nodes: at 1024 nodes the (0.9, 0.2)
    wandering loop turned by TILT takes the sweeps it takes at 64, 1440
    evaluations of the connection form, and its frames agree with one
    2^15-step RK4 sweep to 1e-10."""
    man, loop, chart = _route_curve("wandering_0.9_0.2")
    frame = man.orthonormal_frame(loop.start)
    counts = {}
    for nodes in (64, 1024):
        ts, _ = rg.Quadrature().nodes_weights(nodes)
        with pytest.MonkeyPatch.context() as patch:
            rows_per_call = _counting_forms(patch)
            moved, mode, steps = _batched(man, loop, frame.vectors, ts)
        counts[nodes] = (mode, steps, rows_per_call)
    assert counts[64] == counts[1024] == ("ode", 8 * PANELS_START, [288, 384, 768])
    w0 = np.array([chart.pull(loop.start, u) for u in frame.rows])
    grid, ends = _pass_grid(ts, 2**15)
    reference = _propagate(w0, grid, ends, _grid_matrices(chart, loop, grid))
    reference = reference @ chart.coordinate_basis(loop.positions(ts))
    assert float(np.max(np.abs(moved - reference))) <= 1e-10


# wandering loops (theta0, eps, waves) that swing within 0.2 rad of both poles
# of the z-axis; an SVD-fitted chart refused the first
STEEP_LOOPS = {"steep_1.57_1.45_2": (math.pi / 2.0, 1.45, 2), "steep_1.5_1.45_2": (1.5, 1.45, 2),
               "steep_1.2_1.0_3": (1.2, 1.0, 3)}


def _route_curve(name):
    """(manifold, curve, chart) of ``ode_curve``, of a wandering loop
    ("wandering_theta0_eps") turned by TILT, so that no fixed chart is poled
    on its axis, of one of STEEP_LOOPS, or of the circle through the axes."""
    man = rg.make_manifold("sphere2")
    if name.startswith("wandering"):
        theta0, eps = (float(x) for x in name.split("_")[1:])
        curve = tilted(man, wandering_loop(man, theta0, eps)[0])
    elif name in STEEP_LOOPS:
        curve, _ = wandering_loop(man, *STEEP_LOOPS[name])
    elif name == "circle_xyz":
        curve = circle_through_the_axes(man)
    else:
        return ode_curve(name)
    return man, curve, curve_chart(man, curve)


@pytest.mark.parametrize("nodes", [64, 512, 1024])
@pytest.mark.parametrize(
    "name", ODE_CURVES + ["wandering_0.9_0.2", "wandering_2.0_0.4", *STEEP_LOOPS, "circle_xyz"]
)
def test_route_matches_a_fine_matrix_sweep(name, nodes):
    """The route's angle kernel against one 2^15-step sweep of the RK4 matrix
    kernel, to 1e-9 at every node.  The steep loops and the circle through
    e_x, e_y and e_z, which three axis charts alone would refuse, take a
    fixed chart whose poles they stay clear of."""
    man, curve, chart = _route_curve(name)
    frame = man.orthonormal_frame(curve.start)
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    moved, mode, _ = _batched(man, curve, frame.vectors, ts)
    assert mode == "ode"
    w0 = np.array([chart.pull(curve.start, u) for u in frame.rows])
    grid, ends = _pass_grid(ts, 2**15)
    reference = _propagate(w0, grid, ends, _grid_matrices(chart, curve, grid))
    reference = reference @ chart.coordinate_basis(curve.positions(ts))
    assert float(np.max(np.abs(moved - reference))) <= 1e-9


@pytest.mark.parametrize("name", ["halfplane_bow", "loop_1.1", "wandering_0.9_0.2", "wandering_2.0_0.4"])
def test_route_matches_ode_transport_at_2_14_steps(name):
    """The route at the joined 32 + 64 Gauss nodes against ``ode_transport``
    with 2^14 uniform RK4 steps from 0 to each of five of them, to 1e-10."""
    man, curve, chart = _route_curve(name)
    rows = man.orthonormal_frame(curve.start).rows
    nodes = np.concatenate([rg.Quadrature().nodes_weights(n)[0] for n in (32, 64)])
    _, C, E, mode, _ = frame_at(man, curve, rows, nodes)
    assert mode == "ode"
    w0 = chart.pull(curve.start, rows)
    picked = [0, 17, 40, 77, 95]
    for k in picked:
        w1 = ode_transport(man, curve, w0, 0.0, nodes[k], 2**14, chart)
        reference = w1 @ chart.coordinate_basis(curve.positions(nodes[k : k + 1]))[0]
        assert float(np.max(np.abs(C @ E[k] - reference))) <= 1e-10


@pytest.mark.parametrize(
    "name, evaluations",
    [("loop_0.3", 288), ("loop_1.1", 288), ("loop_2.6", 288), ("squared_sphere", 288),
     ("halfplane_bow", 288), ("wandering_0.9_0.2", 1440), ("wandering_2.0_0.4", 672)],
)
def test_connection_form_evaluations_at_64_nodes(monkeypatch, name, evaluations):
    """Evaluations of the connection form at 64 Gauss nodes, one path: no
    curve needs more than sweeps between the nodes did (768, and 1792 on the
    (0.9, 0.2) wandering loop before it was turned by TILT), and a later
    128-node pass on the same path reads the kept sweeps without evaluating
    it again."""
    man, curve, chart = _route_curve(name)
    rows_per_call = []
    forms = type(chart).connection_forms

    def counting_forms(chart, P, V):
        rows_per_call.append(len(P))
        return forms(chart, P, V)

    monkeypatch.setattr(type(chart), "connection_forms", counting_forms)
    rows = man.orthonormal_frame(curve.start).rows
    transport, (_, _, _, steps) = transport_frame(man, curve, rows, rg.Quadrature().nodes_weights(64)[0])
    assert sum(rows_per_call) == evaluations
    assert evaluations <= (1792 if name == "wandering_0.9_0.2" else 768)
    _, _, _, later = transport.at(rg.Quadrature().nodes_weights(128)[0])
    assert (sum(rows_per_call), later) == (evaluations, steps)


def test_a_later_pass_reads_the_kept_sweeps(monkeypatch):
    """A later pass at 128 nodes along a latitude loop the first, joined
    32 + 64 pass converged on evaluates the connection form nowhere, stops at
    the same panels and matches the closed form to 1e-12."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(2.4)
    frame = man.orthonormal_frame(loop.start)
    rows_per_call = _counting_forms(monkeypatch)
    joined = np.concatenate([rg.Quadrature().nodes_weights(n)[0] for n in (32, 64)])
    transport, _ = transport_frame(man, loop, frame.rows, joined)
    ts, _ = rg.Quadrature().nodes_weights(128)
    _, _, E, steps = transport.at(ts)
    assert rows_per_call == [288]
    assert steps == 2 * PANELS_START
    expected = latitude_loop_frames(2.4, frame, ts)
    assert float(np.max(np.abs(transport.C @ E - expected))) <= 1e-12


def test_a_later_pass_samples_where_the_kept_sweeps_disagree(monkeypatch):
    """A first pass at t = 1 alone stops at the second sweep on the (0.9, 0.2)
    wandering loop turned by TILT: the composite Gauss sum of a periodic
    integrand over its period is already exact.  A later pass at 64 nodes
    finds the two kept sweeps apart between the ends and samples finer ones,
    one chart call each, until two agree; it ends on the same sweeps, and
    the same bits, as a first pass at those nodes."""
    man, loop, _ = _route_curve("wandering_0.9_0.2")
    rows = man.orthonormal_frame(loop.start).rows
    rows_per_call = _counting_forms(monkeypatch)
    transport, (_, _, _, first) = transport_frame(man, loop, rows, np.array([1.0]))
    assert (rows_per_call, first) == ([288], 2 * PANELS_START)
    ts, _ = rg.Quadrature().nodes_weights(64)
    _, _, E, later = transport.at(ts)
    assert (rows_per_call, later) == ([288, 384, 768], 8 * PANELS_START)
    fresh, (_, _, E_fresh, steps) = transport_frame(man, loop, rows, ts)
    assert steps == later
    assert np.array_equal(transport.C @ E, fresh.C @ E_fresh)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_panel_rule_integrates_the_interpolant(n):
    """A panel's rule, per unit width: its first column is the Gauss weights,
    and the rest gives the monomials, in y across the panel, of half the
    integral from -1 of any polynomial of degree below n from its values at
    the nodes.  At y = 1 that is the Gauss sum, to rounding."""
    rule = _panel_rule(n)
    assert rule.shape == (n, n + 2) and not rule.flags.writeable
    x, w = rg.Quadrature().nodes_weights(n)
    assert np.array_equal(rule[:, 0], w)
    draw = np.random.default_rng(n)
    for _ in range(5):
        p = np.polynomial.Polynomial(draw.standard_normal(n))
        coefficients = p(2.0 * x - 1.0) @ rule[:, 1:]
        y = np.concatenate([[-1.0, 1.0], draw.uniform(-1.0, 1.0, 20)])
        exact = 0.5 * p.integ(lbnd=-1.0)(y)
        assert_close_rel(np.polynomial.polynomial.polyval(y, coefficients), exact, 1e-13)
    assert _panel_rule(n) is rule


def test_the_panel_tables_are_built_on_first_use():
    """Importing rigrad builds no panel rule and no panel points."""
    import subprocess
    import sys

    code = (
        "import rigrad.manifolds.transport as t; "
        "print(t._panel_rule.cache_info().currsize, t._panel_points.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


@pytest.mark.parametrize(
    "name", ["loop_0.3", "loop_1.1", "loop_2.6", "wandering_0.9_0.2", "wandering_2.0_0.4", *STEEP_LOOPS]
)
def test_holonomy_at_a_single_gap_is_the_enclosed_area(name):
    """Transport to ts = [1.0] alone, one gap from 0, turns every tangent
    vector by the area the loop encloses (Gauss-Bonnet on the unit sphere),
    modulo 2 pi, to 1e-10: the gap is cut into PANELS_START panels per unit
    parameter, not one panel.  The steep loops wind about the z-axis in a
    chart poled off it."""
    man, loop, _ = _route_curve(name)
    if name in STEEP_LOOPS:
        area = wandering_loop(man, *STEEP_LOOPS[name])[1]
    elif name.startswith("wandering"):
        area = wandering_loop(man, *(float(x) for x in name.split("_")[1:]))[1]
    else:
        area = 2.0 * math.pi * (1.0 - math.cos(float(name.split("_")[1])))
    frame = man.orthonormal_frame(loop.start)
    moved, mode, _ = _batched(man, loop, frame.vectors, np.array([1.0]))
    assert mode == "ode"
    p = loop.start.coords
    for u, w in zip(frame.vectors, moved[0]):
        u = u.components
        angle = math.atan2(float(np.dot(p, np.cross(u, w))), float(np.dot(u, w)))
        assert abs(math.remainder(angle - area, 2.0 * math.pi)) <= 1e-10


def test_joined_levels_of_a_latitude_loop_take_two_sweeps(monkeypatch):
    """At the joined 32 + 64 Gauss nodes the first two sweeps, of PANELS_START
    and twice as many panels, come from one chart call:
    3 * PANELS_START * PANEL_POINTS = 288 connection-form evaluations (1152
    when sweeps ran between the nodes), and the frames match the closed form
    to 1e-12."""
    man = rg.make_manifold("sphere2")
    colatitude = 1.1
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    ts = np.concatenate([rg.Quadrature().nodes_weights(n)[0] for n in (32, 64)])
    rows_per_call = _counting_forms(monkeypatch)
    moved, mode, used = _batched(man, loop, frame.vectors, ts)
    assert (mode, used) == ("ode", 2 * PANELS_START)
    assert rows_per_call == [3 * PANELS_START * PANEL_POINTS] == [288]
    assert float(np.max(np.abs(moved - latitude_loop_frames(colatitude, frame, ts)))) <= 1e-12


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("name", ["halfplane_bow", "loop_1.1"])
def test_matrix_kernel_matches_the_rotation_kernel_on_a_curved_chart(monkeypatch, name, nodes):
    """The route's RK4 matrix kernel in place of its rotation (angle) kernel,
    on the same 2-dimensional chart with nonzero Christoffel symbols: C is the
    pulled rows on the chart basis, and C @ E agrees with the angle kernel's
    to 1e-9."""
    from rigrad.manifolds import transport

    man, curve, chart = ode_curve(name)
    rows = man.orthonormal_frame(curve.start).rows
    ts, _ = rg.Quadrature().nodes_weights(nodes)
    _, C, E, mode, _ = frame_at(man, curve, rows, ts)
    monkeypatch.setattr(transport, "_angle_kernel", transport._matrix_kernel)
    _, C_matrix, E_matrix, mode_matrix, _ = frame_at(man, curve, rows, ts)
    assert mode == mode_matrix == "ode"
    assert np.array_equal(C_matrix, chart.pull(curve.start, rows))
    assert E_matrix.shape == E.shape
    assert float(np.max(np.abs(C_matrix @ E_matrix - C @ E))) <= 1e-9


@pytest.mark.parametrize("name", ["loop_1.1", "halfplane_bow"])
def test_the_angle_route_reads_no_chart_components(monkeypatch, name):
    """The angle kernel works in ambient components: with the chart's
    ``coordinate_basis``, ``orthonormal_rows`` and ``pull`` raising,
    generic_bam_report along a latitude loop and the half-plane bow still
    runs, with the same attributions."""
    man, curve, chart = ode_curve(name)
    field = rg.CoordinateField(man, 1)
    frame = man.orthonormal_frame(curve.start)
    expected = rg.generic_bam_report(field, curve, frame)

    def refused(*args):
        raise AssertionError("the angle route read chart components")

    for method in ("coordinate_basis", "orthonormal_rows", "pull"):
        monkeypatch.setattr(type(chart), method, refused)
    report = rg.generic_bam_report(field, curve, frame)
    assert report.diagnostics.transport_mode == "ode"
    assert np.array_equal(report.attributions, expected.attributions)


@pytest.mark.parametrize("name", ["loop_1.1", "halfplane_bow"])
def test_a_custom_chart_with_scalar_methods_only_transports_alike(monkeypatch, name):
    """A custom 2-dimensional chart that implements only the scalar methods
    takes the angle kernel through Chart's default ``frames`` and connection
    form: the same sweeps as the built-in chart, and the same moved vectors
    to 1e-12."""
    man, curve, chart = ode_curve(name)
    rows = man.orthonormal_frame(curve.start).rows
    ts, _ = rg.Quadrature().nodes_weights(64)
    _, C, E, mode, steps = frame_at(man, curve, rows, ts)
    monkeypatch.setattr(type(man), "chart_for_curve", lambda self, samples: ScalarMethodsChart(chart))
    _, C_custom, E_custom, mode_custom, steps_custom = frame_at(man, curve, rows, ts)
    assert (mode_custom, steps_custom) == (mode, steps) == ("ode", 2 * PANELS_START)
    assert_close_rel(C_custom @ E_custom, C @ E, 1e-12)


class FramelessHalfPlane(rg.HalfPlane2):
    """A half-plane whose geodesics come without a frame evaluator."""

    def make_geodesic(self, p, o):
        return dataclasses.replace(super().make_geodesic(p, o), frame_fn=None)


def test_a_curved_geodesic_without_a_frame_evaluator_is_refused():
    """Closed-form transport along a curved geodesic reads the curve's
    frame_fn; a geodesic without one raises WrongManifold naming it.  The ODE
    route does not read it, so generic BAM along a non-geodesic curve still
    runs, with the same bits."""
    man = FramelessHalfPlane()
    p, o = man.point(np.array([0.3, 1.2])), man.point(np.array([-0.5, 2.0]))
    field = rg.AffineField(man, [0.3, -0.7])
    with pytest.raises(rg.WrongManifold, match="frame_fn"):
        rg.rig(field, man, p, o, man.orthonormal_frame(p))
    with pytest.raises(rg.WrongManifold, match="frame_fn"):
        transport_along(man, man.geodesic_between(p, o), man.orthonormal_frame(p).vectors, [0.5])
    bow = halfplane_bow(man)
    report = rg.generic_bam_report(field, bow, man.orthonormal_frame(bow.start))
    stock = rg.make_manifold("half_plane2")
    stock_bow = halfplane_bow(stock)
    expected = rg.generic_bam_report(
        rg.AffineField(stock, [0.3, -0.7]), stock_bow, stock.orthonormal_frame(stock_bow.start)
    )
    assert report.diagnostics.transport_mode == "ode"
    assert np.array_equal(report.attributions, expected.attributions)


class UnflaggedEuclidean(Euclidean):
    """Flat space that does not say so, so transport takes the ODE route."""

    flat = False


def test_three_dimensional_chart_takes_the_matrix_kernel():
    """A 3-dimensional chart has no angle kernel; with zero Christoffel
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
    _, C, E, mode, _ = frame_at(man, curve, rows, ts)
    moved = C @ E
    assert mode == "ode"
    assert np.array_equal(moved, np.broadcast_to(rows, (len(ts), *rows.shape)))


# -- closed-form frames: the geodesic's frame_fn -------------------------------


def closed_form_geodesics():
    """(name, manifold, curve) of sphere geodesics of length 1e-8 to pi - 1e-3
    and half-plane geodesics of length 1e-8 to about 300: short arcs,
    semicircles whose ends sink towards the axis, and a vertical ray."""
    sphere = rg.make_manifold("sphere2")
    p, u = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    out = [
        (f"sphere2-{length:g}", sphere,
         sphere.geodesic_between(sphere.point(p), sphere.point(math.cos(length) * p + math.sin(length) * u)))
        for length in (1e-8, 1e-4, 0.1, 1.0, 2.0, 3.0, math.pi - 1e-3)
    ]
    plane = rg.make_manifold("half_plane2")
    ends = [((0.3, 1.0), (0.3 + 1e-8, 1.0)), ((0.0, 1.0), (0.5, 1.2)), ((0.0, 1.0), (3.0, 2.0)),
            ((-1.0, 1e-10), (1.0, 1e-10)), ((-1.0, 1e-65), (1.0, 1e-65)), ((0.2, 1.0), (0.2, 1e130))]
    for a, b in ends:
        curve = plane.geodesic_between(plane.point(a), plane.point(b))
        out.append((f"half_plane2-{curve.length:.3g}", plane, curve))
    return out


CLOSED_FORM_GEODESICS = closed_form_geodesics()
CLOSED_FORM_IDS = [name for name, _, _ in CLOSED_FORM_GEODESICS]


def _lowered_gram(man, P, A, B):
    """g(A[k, i], B[k, j]) at each P[k], shape (K, m, m)."""
    lowered = np.stack([man.lower(P, B[:, j]) for j in range(B.shape[1])], axis=1)
    return np.einsum("kic,kjc->kij", A, lowered)


@pytest.mark.parametrize("name, man, curve", CLOSED_FORM_GEODESICS, ids=CLOSED_FORM_IDS)
def test_closed_form_frame_is_the_unit_tangent_and_its_normal(name, man, curve):
    """frame_fn's pair is g-orthonormal at every node, to 1e-13 (the half-plane
    walk's y at t = 1 differs from the pinned end's by rounding), and keeps
    the orientation N = P x T on the sphere and (-T_y, T_x) on the
    half-plane; its T is velocity / length to 1e-14 in the g-norm."""
    nodes, _ = rg.Quadrature().nodes_weights(64)
    ts = np.concatenate([[0.0, 1.0], nodes])
    P, E = curve.frame_fn(ts)
    assert E.shape == (len(ts), 2, man.coord_dim)
    gram = _lowered_gram(man, P, E, E)
    assert float(np.max(np.abs(gram - np.eye(2)))) <= 1e-13
    T, N = E[:, 0], E[:, 1]
    if man.kind == "sphere2":
        normal = np.cross(P, T)
    else:
        normal = np.stack([-T[:, 1], T[:, 0]], axis=1)
    assert float(np.max(np.abs(_lowered_gram(man, P, (N - normal)[:, None], (N - normal)[:, None])))) <= 1e-28
    gap = curve.velocities(ts) / curve.length - T
    assert float(np.sqrt(np.max(_lowered_gram(man, P, gap[:, None], gap[:, None])))) <= 1e-14


@pytest.mark.parametrize("name, man, curve", CLOSED_FORM_GEODESICS, ids=CLOSED_FORM_IDS)
def test_closed_form_positions_are_the_curves_bits(name, man, curve):
    """frame_fn's positions are position_fn's, byte for byte, at the Gauss
    nodes and at t = 0 and 1, where both give the curve's ends."""
    nodes, _ = rg.Quadrature().nodes_weights(64)
    ts = np.concatenate([[0.0, 1.0], nodes, [0.5, 0.0]])
    P, _ = curve.frame_fn(ts)
    assert P.tobytes() == curve.positions(ts).tobytes()
    assert P[0].tobytes() == P[-1].tobytes() == curve.start.coords.tobytes()
    assert P[1].tobytes() == curve.end.coords.tobytes()


@pytest.mark.parametrize("name, man, curve", CLOSED_FORM_GEODESICS, ids=CLOSED_FORM_IDS)
def test_closed_form_transport_matches_the_rk4_oracle(name, man, curve):
    """The moved frame C @ E at t = 0.3 and 1 against ``ode_transport``'s RK4
    in a chart, to 1e-9 in the g-norm.  The sphere's chart has its pole
    0.8 rad off the great circle's normal, so its connection terms do not
    vanish along the curve."""
    rows = man.orthonormal_frame(curve.start).rows
    ts = np.array([0.3, 1.0])
    transport, (P, _, E, _) = transport_frame(man, curve, rows, ts)
    assert transport.mode == "closed-form"
    if man.kind == "sphere2":
        p, u = curve.start.coords, np.array([0.0, 0.6, 0.8])
        chart = SphericalChart(math.cos(0.8) * np.cross(p, u) + math.sin(0.8) * u)
        steps = 2**12
    else:
        chart = man.chart_for_curve([curve.start])
        steps = 2**17
    w0 = chart.pull(curve.start, rows)
    for k, t in enumerate(ts):
        w1 = ode_transport(man, curve, w0, 0.0, t, steps, chart)
        gap = (transport.C @ E[k] - w1 @ chart.coordinate_basis(P[k : k + 1])[0])[None]
        assert float(np.sqrt(np.max(_lowered_gram(man, P[k : k + 1], gap, gap)))) <= 1e-9


# -- every route: coefficients C on a moving frame E ---------------------------


def frame_curve(name):
    """(manifold, curve, route) for the moving-frame checks."""
    if name in ("sphere2", "half_plane2"):
        man = rg.make_manifold(name)
        ends = {"sphere2": ([0.6, 0.0, 0.8], [0.0, -0.28, 0.96]),
                "half_plane2": ([0.3, 1.2], [-0.5, 2.0])}[name]
        p, o = (man.point(np.array(x)) for x in ends)
        return man, man.geodesic_between(p, o), "closed-form"
    if name == "vertical_ray":
        man = rg.make_manifold("half_plane2")
        p, o = man.point(np.array([0.3, 0.5])), man.point(np.array([0.3, 2.0]))
        return man, man.geodesic_between(p, o), "closed-form"
    man, curve, _ = ode_curve(name)
    return man, curve, "ode"


FRAME_CURVES = ["sphere2", "half_plane2", "vertical_ray", "loop_1.1", "halfplane_bow"]


@pytest.mark.parametrize("name", FRAME_CURVES)
def test_moving_frame_is_orthonormal_at_every_node(name):
    """E[k] is g-orthonormal at curve(ts[k]) to 1e-9, on the closed-form
    route and on the ODE route's angle kernel."""
    man, curve, route = frame_curve(name)
    rows = man.orthonormal_frame(curve.start).rows
    nodes, _ = rg.Quadrature().nodes_weights(64)
    ts = np.concatenate([[0.0, 1.0], nodes])
    P, _, E, mode, _ = frame_at(man, curve, rows, ts)
    assert mode == route and E.shape == (len(ts), man.dim, man.coord_dim)
    lowered = np.stack([man.lower(P, E[:, j]) for j in range(man.dim)], axis=1)
    gram = np.einsum("kic,kjc->kij", E, lowered)
    assert float(np.max(np.abs(gram - np.eye(man.dim)))) <= 1e-9


@pytest.mark.parametrize("name", FRAME_CURVES)
def test_transport_along_is_the_frame_expanded(name, rng):
    """transport_along's vectors are C @ E, bit for bit."""
    man, curve, _ = frame_curve(name)
    vectors = [random_unit_tangent(man, curve.start, rng) for _ in range(3)]
    ts = np.array([0.9, 0.0, 0.25, 1.0, 0.5])
    rows = np.array([u.components for u in vectors])
    P, C, E, mode, steps = frame_at(man, curve, rows, ts)
    wrapped, wrapped_mode, wrapped_steps = transport_along(man, curve, vectors, ts)
    assert (mode, steps) == (wrapped_mode, wrapped_steps)
    assert np.array_equal([[w.components for w in row] for row in wrapped], C @ E)
    assert np.array_equal([row[0].base.coords for row in wrapped], P)
