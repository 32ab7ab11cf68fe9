"""The attribution engine: path integrals, completeness, eigenframes, bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import rigrad as rg
from rigrad import attribution
from rigrad.attribution import PathDiagnostics, _attribution_matrices
from rigrad.axioms import FIXED_QUADRATURE
from rigrad.manifolds.sphere import ANTIPODAL_SLACK
from rigrad.manifolds.sphere import SphericalChart
from rigrad.manifolds.transport import ODE_START_STEPS, PANEL_POINTS, PANELS_START

from conftest import (
    assert_close_rel,
    latitude_loop_frames,
    latitude_loop_transport,
    loop_transport,
    random_unit_tangent,
)


def make_synthetic_matrix(entries):
    """An attribution matrix with prescribed (n, n) entries on flat n-space."""
    n = len(entries)
    man = rg.make_manifold("euclidean", dim=n)
    p = man.point(np.zeros(n))
    o = man.point(np.eye(n)[0])
    diagnostics = PathDiagnostics(
        curve_length=1.0,
        nodes_used=2,
        refinement_gap=None,
        transport_mode="identity",
        transport_steps=0,
        geodesic_defect=None,
    )
    return rg.AttributionMatrix(
        base=p,
        base_point=o,
        frame=man.orthonormal_frame(p),
        entries=np.array(entries, dtype=float),
        diagnostics=diagnostics,
    )


# -- flat-space closed form ---------------------------------------------------


def test_ig_linear_field_closed_form():
    """For F(x) = <w, x> the straight-line attribution along e_i is
    (x - x')_i * w_i.  Frozen numeric example."""
    man = rg.make_manifold("euclidean", dim=3)
    field = rg.AffineField(man, np.array([2.0, -1.0, 0.5]), bias=1.0)
    x = man.point(np.array([1.0, 2.0, -1.0]))
    x_prime = man.point(np.array([0.0, 0.0, 0.0]))
    report = rg.ig(field, x, x_prime, man.orthonormal_frame(x))
    assert np.max(np.abs(report.attributions - np.array([2.0, -2.0, -0.5]))) <= 1e-12
    assert abs(np.sum(report.attributions) + 0.5) <= 1e-12
    assert report.completeness_residual <= 1e-12
    assert report.error_term == -field.value(x_prime)


def test_rig_reproduces_ig_on_straight_lines(rng):
    man = rg.make_manifold("euclidean", dim=5)
    field = rg.MLPField(man, rg.random_mlp(5, (9, 8), rng))
    for _ in range(5):
        x = man.random_point(rng)
        o = man.random_point(rng)
        frame = man.orthonormal_frame(x)
        a = rg.ig(field, x, o, frame)
        b = rg.rig(field, man, x, o, frame)
        assert np.max(np.abs(a.attributions - b.attributions)) <= 1e-10


def test_ig_rejects_curved_manifolds():
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(rg.WrongManifold):
        rg.ig(field, p, o, man.orthonormal_frame(p))


# -- frozen curved-space matrices ---------------------------------------------


def test_sphere_height_field_matrix_oracle():
    """Pole-to-equator quarter circle, F = third coordinate.

    Worked out by hand: transported first frame vector tracks the velocity,
    giving entry 1; the second stays orthogonal to the motion, giving 0.
    """
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([1.0, 0.0, 0.0]))
    mat = rg.attribution_matrix(field, man, p, o, man.orthonormal_frame(p))
    assert np.max(np.abs(mat.entries - np.diag([1.0, 0.0]))) <= 1e-10
    assert abs(mat.trace() - 1.0) <= 1e-10


def test_halfplane_log_height_matrix_oracle():
    """Vertical geodesic from y=2 down to y=1/2 with F = log y.

    The horizontal frame direction never sees the field change (entry 0);
    the vertical one accumulates the full drop log 4.
    """
    man = rg.make_manifold("half_plane2")
    field = rg.LogHeightField(man)
    p = man.point(np.array([0.0, 2.0]))
    o = man.point(np.array([0.0, 0.5]))
    mat = rg.attribution_matrix(field, man, p, o, man.orthonormal_frame(p))
    expected = np.diag([0.0, 2.0 * math.log(2.0)])
    assert np.max(np.abs(mat.entries - expected)) <= 1e-10


# -- structural properties ------------------------------------------------------


def test_completeness_of_the_diagonal(manifold, rng):
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (6, 5), rng))
    for _ in range(5):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        if manifold.kind == "sphere2" and manifold.dist(p, o) > 2.9:
            continue
        report = rg.rig(field, manifold, p, o, manifold.orthonormal_frame(p))
        delta = report.value_at_point - report.value_at_base
        assert abs(np.sum(report.attributions) - delta) <= 1e-6
        assert report.completeness_residual <= 1e-6
        assert report.error_term == -report.value_at_base


def test_sphere_completeness_at_a_tiny_separation(rng):
    """Points 1e-8 apart still get the geodesic between them, so the
    attributions account for F(p) - F(o) instead of leaving it as residual."""
    man = rg.make_manifold("sphere2")
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), rng))
    for _ in range(5):
        p = man.random_point(rng)
        o = man.exp_map(random_unit_tangent(man, p, rng) * 1e-8)
        report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
        gap = report.value_at_point - report.value_at_base
        assert abs(report.diagnostics.curve_length - man.dist(p, o)) <= 1e-12 * 1e-8
        assert report.completeness_residual <= 1e-6 * abs(gap)


def test_identical_points_give_zero_matrix():
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 0)
    p = man.point(np.array([0.0, 1.0, 0.0]))
    mat = rg.attribution_matrix(field, man, p, p, man.orthonormal_frame(p))
    assert np.array_equal(mat.entries, np.zeros((2, 2)))
    report = rg.rig(field, man, p, p, man.orthonormal_frame(p))
    assert np.array_equal(report.attributions, np.zeros(2))
    assert report.completeness_residual == 0.0


def test_bam_on_constant_curve_is_zero(rng):
    man = rg.make_manifold("half_plane2")
    field = rg.LogHeightField(man)
    p = man.random_point(rng)
    curve = man.geodesic_between(p, p)
    u = random_unit_tangent(man, p, rng)
    assert rg.bam_along_curve(field, curve, u) == 0.0


def test_bam_rejects_a_direction_away_from_the_curve_start(rng):
    man = rg.make_manifold("sphere2")
    p, o = man.random_point(rng), man.random_point(rng)
    curve = man.geodesic_between(p, o)
    with pytest.raises(rg.InvalidTangent):
        rg.bam_along_curve(rg.CoordinateField(man, 2), curve, man.random_tangent(o, rng))


def test_curve_attribution_is_reparametrization_invariant(manifold, rng):
    """The integral only sees the path's image, not its clock."""
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (6, 4), rng))
    p = manifold.random_point(rng)
    o = manifold.random_point(rng)
    if manifold.kind == "sphere2":
        while manifold.dist(p, o) > 2.8:
            o = manifold.random_point(rng)
    geo = manifold.geodesic_between(p, o)

    def squared_pos(t):
        return geo.positions(t * t)

    def squared_vel(t):
        return 2.0 * t[:, None] * geo.velocities(t * t)

    squared = rg.Curve(
        manifold=manifold,
        position_fn=squared_pos,
        velocity_fn=squared_vel,
        start=geo.start,
        end=geo.end,
        is_geodesic=False,
        length=geo.length,
    )
    u = random_unit_tangent(manifold, p, rng)
    a = rg.bam_along_curve(field, geo, u)
    b = rg.bam_along_curve(field, squared, u)
    assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_straight_line_bam_matches_ig(rng):
    man = rg.make_manifold("euclidean", dim=4)
    field = rg.MLPField(man, rg.random_mlp(4, (7,), rng))
    x = man.random_point(rng)
    o = man.random_point(rng)
    frame = man.orthonormal_frame(x)
    line = man.geodesic_between(x, o)
    ig_report = rg.ig(field, x, o, frame)
    for i, u in enumerate(frame.vectors):
        value = rg.bam_along_curve(field, line, u)
        assert abs(value - ig_report.attributions[i]) <= 1e-10


def test_frame_covariance(manifold, rng):
    """Re-expressing the frame through an orthogonal matrix conjugates the
    matrix of the bilinear form."""
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (5, 5), rng))
    p = manifold.random_point(rng)
    o = manifold.random_point(rng)
    if manifold.kind == "sphere2":
        while manifold.dist(p, o) > 2.8:
            o = manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    n = manifold.dim
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    rotated_vectors = tuple(
        rg.TangentVector(p, sum(q[i, j] * frame.vectors[i].components for i in range(n)))
        for j in range(n)
    )
    rotated = rg.OrthonormalFrame(p, rotated_vectors)
    manifold.validate_frame(rotated)

    base = rg.attribution_matrix(field, manifold, p, o, frame)
    moved = rg.attribution_matrix(field, manifold, p, o, rotated)
    conjugated = q.T @ base.entries @ q
    assert np.max(np.abs(moved.entries - conjugated)) <= 1e-9
    assert abs(moved.trace() - base.trace()) <= 1e-9


def test_antipodal_attribution_is_refused():
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(rg.CutLocusAmbiguity):
        rg.rig(field, man, p, o, man.orthonormal_frame(p))


def test_a_path_ending_antipodal_to_a_bump_centre_is_attributed():
    """The bump's value needs only the distance, which an antipodal pair has:
    the report reads it at the end.  Only the gradient needs the geodesic, and
    the quadrature nodes stay off the antipode."""
    man = rg.make_manifold("sphere2")
    center = man.point(np.array([0.0, 0.0, 1.0]))
    p, o = man.point(np.array([1.0, 0.0, 0.0])), man.point(np.array([0.0, 0.0, -1.0]))
    field = rg.GaussianBumpField(man, center, width=0.8)
    with pytest.raises(rg.CutLocusAmbiguity):
        field.coord_gradients(o.coords[None, :])
    report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
    assert report.value_at_base == math.exp(-0.5 * (math.pi / 0.8) ** 2)
    assert report.completeness_residual <= 1e-9


def test_frame_at_wrong_point_is_rejected(rng):
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([1.0, 0.0, 0.0]))
    stray = man.orthonormal_frame(o)
    with pytest.raises(rg.InvalidTangent):
        rg.rig(field, man, p, o, stray)


def test_quadrature_budget_exhaustion_raises(rng):
    man = rg.make_manifold("euclidean", dim=3)
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), rng, scale=3.0))
    p = man.point(np.array([1.5, -0.5, 2.0]))
    o = man.point(np.array([-2.0, 1.0, -1.5]))
    starving = rg.Quadrature(nodes=2, max_nodes=4, tol=1e-16)
    with pytest.raises(rg.QuadratureNotConverged):
        rg.rig(field, man, p, o, man.orthonormal_frame(p), starving)
    with pytest.raises(rg.QuadratureNotConverged):
        rg.ig(field, p, o, man.orthonormal_frame(p), starving)


def test_scaled_field_converges_with_the_unscaled_one():
    """Entries near 1e6 settle below the 1e-10 tolerance only to within their
    rounding noise; the floor on the gap lets the scaled network stop where
    the unscaled one does, instead of exhausting 1024 nodes."""
    man = rg.make_manifold("half_plane2")
    draw = np.random.default_rng(5)
    weights = rg.random_mlp(2, (32, 32), draw)
    p, o = (
        man.point(np.array([draw.standard_normal(), np.exp(0.5 * draw.standard_normal())]))
        for _ in range(2)
    )
    last = weights.layers[-1]
    output = rg.LayerSpec(1e6 * last.weights, 1e6 * last.bias, last.activation)
    scaled = dataclasses.replace(weights, layers=(*weights.layers[:-1], output))
    frame = man.orthonormal_frame(p)
    plain = rg.rig(rg.MLPField(man, weights), man, p, o, frame)
    large = rg.rig(rg.MLPField(man, scaled), man, p, o, frame)
    assert large.diagnostics.nodes_used == plain.diagnostics.nodes_used == 64
    assert large.diagnostics.refinement_gap > rg.DEFAULT_QUADRATURE.tol
    assert_close_rel(large.attributions, 1e6 * plain.attributions, 1e-9)


class CountingAffineField(rg.AffineField):
    """An affine field that records the size of every gradient batch."""

    def __init__(self, manifold, weights):
        super().__init__(manifold, weights)
        self.batches = []

    def coord_gradients(self, X):
        self.batches.append(len(X))
        return super().coord_gradients(X)


# the first transport pass joins the 32- and 64-node levels, and the field
# sees them as one batch
HEAD_PASS_ROWS = 32 + 64


def test_non_finite_field_stops_after_the_first_level():
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 1.2]))
    o = man.point(np.array([-0.5, 2.0]))
    frame = man.orthonormal_frame(p)
    for run in (
        lambda field: rg.rig(field, man, p, o, frame),
        lambda field: rg.eigen_rig(field, man, p, o, frame),
        lambda field: rg.generic_bam_report(field, man.geodesic_between(p, o), frame),
    ):
        field = CountingAffineField(man, [math.nan, 1.0])
        with pytest.raises(rg.NonFiniteValue, match="32 nodes"):
            run(field)
        assert field.batches == [HEAD_PASS_ROWS]
    flat = rg.make_manifold("euclidean", dim=2)
    field = CountingAffineField(flat, [1.0, math.inf])
    x, x_prime = flat.point(np.array([1.0, 2.0])), flat.point(np.array([0.0, 0.5]))
    with pytest.raises(rg.NonFiniteValue), warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 is reported by the error alone
        rg.ig(field, x, x_prime, flat.orthonormal_frame(x))
    assert field.batches == [HEAD_PASS_ROWS]


class NanNodeAffineField(CountingAffineField):
    """An affine field whose gradient is NaN at the fourth node of each batch."""

    def coord_gradients(self, X):
        grads = super().coord_gradients(X)
        grads[3] = math.nan
        return grads


def test_ig_stops_at_the_first_level_on_a_nan_node_or_an_overflowing_form():
    """The stop test reads A, but a level is refused wherever -A c^T would not
    be finite: a NaN gradient at one node, or finite A and c whose product
    overflows.  Both stop ``ig`` and ``rig`` after the first level, with no
    RuntimeWarning."""
    flat = rg.make_manifold("euclidean", dim=3)
    x, x_prime = flat.point(np.array([1.0, 2.0, -1.0])), flat.point(np.array([0.0, 0.5, 0.3]))
    far = flat.point(np.array([1e10, 0.0, 0.0]))
    cases = (
        (NanNodeAffineField(flat, [1.0, 0.5, -2.0]), x, x_prime),
        (CountingAffineField(flat, [1e300, 0.0, 0.0]), far, x_prime),
    )
    for field, point, base in cases:
        frame = flat.orthonormal_frame(point)
        for run in (
            lambda: rg.ig(field, point, base, frame),
            lambda: rg.rig(field, flat, point, base, frame),
        ):
            field.batches.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(rg.NonFiniteValue, match="32 nodes"):
                    run()
            assert field.batches == [HEAD_PASS_ROWS]


def test_ig_and_rig_share_one_stop_test_on_flat_networks():
    """200 seeded (32, 32) tanh networks with weights at scale 2 on
    euclidean:8 and euclidean:64, whose levels settle near the tolerance
    often enough that a stop test read on the n diagonal values alone stops
    a level early on some of them: ``ig`` and ``rig`` read one stop test, so
    they stop at the same node count and agree to rounding."""
    draw = np.random.default_rng(2025)
    stopped = set()
    for k in range(200):
        dim = (8, 64)[k % 2]
        man = rg.make_manifold("euclidean", dim=dim)
        field = rg.MLPField(man, rg.random_mlp(dim, (32, 32), draw, scale=2.0))
        x, x_prime = (man.point(draw.standard_normal(dim)) for _ in range(2))
        frame = man.orthonormal_frame(x)
        straight = rg.ig(field, x, x_prime, frame)
        geodesic = rg.rig(field, man, x, x_prime, frame)
        assert straight.diagnostics.nodes_used == geodesic.diagnostics.nodes_used, k
        assert_close_rel(straight.attributions, geodesic.attributions)
        stopped.add(geodesic.diagnostics.nodes_used)
    assert len(stopped) > 1


def test_the_form_is_built_once_per_geodesic_path(monkeypatch):
    """Along a geodesic the levels compare A; np.outer forms -A c^T once, after
    the last level, also when refinement runs to a third level."""
    man = rg.make_manifold("sphere2")
    p, o = man.point(np.array([1.0, 0.0, 0.0])), man.point(np.array([0.0, 0.6, 0.8]))
    field = rg.MLPField(man, rg.random_mlp(3, (32, 32), np.random.default_rng(4), scale=3.0))
    calls = []
    outer = np.outer

    def counting_outer(a, b):
        calls.append(len(a))
        return outer(a, b)

    monkeypatch.setattr(np, "outer", counting_outer)
    report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
    assert report.diagnostics.nodes_used > 64
    assert calls == [2]


class CountingMLPField(rg.MLPField):
    """A network field that records the size of every gradient batch."""

    def __init__(self, manifold, weights):
        super().__init__(manifold, weights)
        self.batches = []

    def coord_gradients(self, X):
        self.batches.append(len(X))
        return super().coord_gradients(X)


def test_a_nan_frame_is_refused_before_any_gradient(manifold, rng):
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    field = CountingMLPField(manifold, rg.random_mlp(manifold.coord_dim, (6, 5), rng))
    frame = manifold.orthonormal_frame(p)
    nan = rg.TangentVector(p, np.full(manifold.coord_dim, np.nan))
    bad = rg.OrthonormalFrame(p, frame.vectors[:-1] + (nan,))
    for run in (rg.rig, rg.eigen_rig, rg.attribution_matrix):
        with pytest.raises(rg.NonFiniteValue, match="Gram"):
            run(field, manifold, p, o, bad)
    assert field.batches == []


def test_a_frame_off_the_tangent_plane_is_refused_before_any_gradient():
    """At (0, 0, 1) the rows (1, 0, 5) and (0, 1, -3) have radial parts 5
    and -3; the metric projects them away, so their Gram matrix is the
    identity, but they are not tangent vectors."""
    sphere = rg.make_manifold("sphere2")
    p, o = sphere.point(np.array([0.0, 0.0, 1.0])), sphere.point(np.array([0.6, 0.0, 0.8]))
    field = CountingMLPField(sphere, rg.random_mlp(3, (6, 5), np.random.default_rng(7)))
    rows = ([1.0, 0.0, 5.0], [0.0, 1.0, -3.0])
    bad = rg.OrthonormalFrame(p, tuple(rg.TangentVector(p, np.array(r)) for r in rows))
    for run in (rg.rig, rg.eigen_rig, rg.attribution_matrix):
        with pytest.raises(rg.InvalidTangent, match="not tangent"):
            run(field, sphere, p, o, bad)
    assert field.batches == []


def test_a_frame_whose_metric_underflows_is_refused_without_warnings():
    """At y = 1e-170 the metric's y squared underflows to 0.  The frame passes
    its check, which reads the rows over y, but lowering the geodesic's
    velocity at its ends divides by zero: refused as non-finite, with no
    RuntimeWarning."""
    man = rg.make_manifold("half_plane2")
    p, o = man.point(np.array([0.0, 1e-170])), man.point(np.array([1e-150, 1e-170]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match="end speeds"):
            rg.rig(rg.LogHeightField(man), man, p, o, man.orthonormal_frame(p))


def test_an_overflowing_half_plane_path_is_refused_before_any_gradient():
    """The semicircle from (-1e308, 1) to (1e308, 1) peaks at y ~ 1e308,
    whose square the metric needs: refused, not attributed."""
    man = rg.make_manifold("half_plane2")
    p, o = man.point(np.array([-1e308, 1.0])), man.point(np.array([1e308, 1.0]))
    field = CountingMLPField(man, rg.random_mlp(2, (6, 5), np.random.default_rng(3)))
    frame = man.orthonormal_frame(p)
    for run in (rg.rig, rg.eigen_rig, rg.attribution_matrix):
        with pytest.raises(rg.NonFiniteValue, match="overflows"):
            run(field, man, p, o, frame)
    assert field.batches == []
    # the distance needs neither y squared nor the path
    assert math.isfinite(man.dist(p, o))


def test_non_finite_endpoint_value_raises():
    """The gradient is finite, so every level is; the value at the ends is not."""
    flat = rg.make_manifold("euclidean", dim=2)
    field = rg.AffineField(flat, [1.0, 2.0], bias=math.inf)
    x, x_prime = flat.point(np.array([1.0, 0.0])), flat.point(np.array([0.0, 1.0]))
    frame = flat.orthonormal_frame(x)
    for run in (
        lambda: rg.rig(field, flat, x, x_prime, frame),
        lambda: rg.eigen_rig(field, flat, x, x_prime, frame),
        lambda: rg.ig(field, x, x_prime, frame),
        lambda: rg.generic_bam_report(field, flat.geodesic_between(x, x_prime), frame),
    ):
        with pytest.raises(rg.NonFiniteValue, match="not finite at the path's ends"):
            run()


def test_generic_curve_report_flags_non_geodesic(rng):
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    loop = man.latitude_loop(math.pi / 3.0)
    p = loop.start
    frame = man.orthonormal_frame(p)
    report = rg.generic_bam_report(field, loop, frame)
    assert report.method == "GenericBAM"
    assert not report.path_is_geodesic
    # no completeness promise off the geodesic, but the residual is reported
    assert np.isfinite(report.completeness_residual)
    assert report.diagnostics.transport_mode == "ode"


def test_report_diagnostics_are_populated(rng):
    man = rg.make_manifold("half_plane2")
    field = rg.LogHeightField(man)
    p = man.point(np.array([-0.4, 1.1]))
    o = man.point(np.array([0.9, 0.3]))
    report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
    d = report.diagnostics
    assert d.nodes_used >= 32
    assert d.transport_mode == "closed-form"
    assert d.geodesic_defect is not None and d.geodesic_defect <= 1e-6
    assert d.curve_length == pytest.approx(man.dist(p, o), abs=1e-12)


# -- symmetrization and eigenframes --------------------------------------------


def test_symmetrize_keeps_diagonal():
    mat = make_synthetic_matrix([[1.0, 2.0], [0.0, -3.0]])
    sym = rg.symmetrize(mat)
    assert np.array_equal(np.diag(sym.entries), np.diag(mat.entries))
    assert np.array_equal(sym.entries, np.array([[1.0, 1.0], [1.0, -3.0]]))


def test_eigen_attributions_order_and_signs():
    mat = make_synthetic_matrix([[1.0, 0.0], [0.0, -3.0]])
    eigen = rg.eigen_attributions(mat)
    # ascending by magnitude
    assert np.array_equal(np.abs(eigen.eigenvalues), np.array([1.0, 3.0]))
    assert eigen.eigenvalues[1] == -3.0
    # first nonzero coefficient of each vector is positive
    for k in range(2):
        column = eigen.coefficients[:, k]
        lead = column[np.flatnonzero(np.abs(column) > 1e-12)[0]]
        assert lead > 0.0
    assert eigen.residual <= 1e-10


def loop_signs(vectors):
    """The sign rule column by column, as eigen_attributions applied it before
    it was vectorised: the reference the vectorised rule must equal."""
    out = np.array(vectors, dtype=float)
    for k in range(out.shape[1]):
        column = out[:, k]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12 * np.max(np.abs(column)))
        if nonzero.size and column[nonzero[0]] < 0.0:
            out[:, k] = -column
    return out


def test_sign_rule_matches_the_column_loop():
    """All-zero columns, leading entries on both sides of 1e-12 of the column
    maximum, and negative leading entries."""
    columns = [
        [0.0, 0.0, 0.0],
        [-0.99e-12, 1.0, 0.0],
        [0.99e-12, -1.0, 0.5],
        [-1.01e-12, 1.0, 0.0],
        [1.01e-12, -1.0, 0.0],
        [-0.5, 0.3, 0.2],
        [0.0, -0.0, -2.0],
        [-0.0, 0.0, 3.0],
        [0.99e-12, -0.99e-12, -1.0],
    ]
    vectors = np.array(columns).T
    fixed = vectors.copy()
    attribution._fix_signs(fixed)
    expected = loop_signs(vectors)
    assert np.array_equal(fixed, expected)
    assert np.array_equal(np.signbit(fixed), np.signbit(expected))
    assert np.array_equal(fixed[:, 2], [-0.99e-12, 1.0, -0.5])
    assert np.array_equal(fixed[:, 1], vectors[:, 1])


def array_signs(vectors):
    """The sign rule as masks over the whole array, one reduction per step:
    the form ``_fix_signs`` had before it read the leads as Python floats."""
    out = np.array(vectors)
    size = np.abs(out)
    above = size > 1e-12 * size.max(axis=0)
    lead = out[np.argmax(above, axis=0), np.arange(out.shape[1])]
    flip = above.any(axis=0) & (lead < 0.0)
    out[:, flip] = -out[:, flip]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_sign_rule_keeps_the_bits_of_the_array_form(n):
    """Eigenvectors of random symmetric matrices, then the same with an
    all-zero column, a lead entry at exactly 1e-12 of its column's largest,
    one just above it, a NaN and an infinite column: byte for byte the array
    form's."""
    draw = np.random.default_rng(n)
    for trial in range(20):
        a = draw.standard_normal((n, n))
        _, vectors = np.linalg.eigh(a + a.T)
        cases = [vectors]
        if n >= 3:
            edited = vectors.copy()
            edited[:, 0] = 0.0
            top = float(np.abs(edited[:, 1]).max())
            edited[0, 1] = -1e-12 * top  # at the threshold: not the lead
            edited[0, 2] = -np.nextafter(1e-12 * float(np.abs(edited[:, 2]).max()), 1.0)
            cases.append(edited)
            odd = vectors.copy()
            odd[trial % n, 1], odd[0, 2] = np.nan, -np.inf
            cases.append(odd)
        for case in cases:
            fixed = case.copy()
            attribution._fix_signs(fixed)
            assert fixed.tobytes() == array_signs(case).tobytes()


@pytest.mark.parametrize("entries", [
    np.zeros((2, 2)),
    np.zeros((4, 4)),
    np.diag([1.0, -3.0, 0.5]),
    3.0 * np.eye(3),
    np.diag([2.0, 2.0, -2.0, 1.0]),
    [[0.0, 1.0], [1.0, 0.0]],
    [[1e-13, -1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, 2.0, -1e-13]],
    -np.ones((3, 3)),
])
def test_eigenframe_signs_match_the_column_loop(entries):
    """Zero matrices, negative leading entries and repeated eigenvalues."""
    mat = make_synthetic_matrix(entries)
    values, vectors = np.linalg.eigh(rg.symmetrize(mat).entries)
    vectors = vectors[:, np.argsort(np.abs(values), kind="stable")]
    assert np.array_equal(rg.eigen_attributions(mat).coefficients, loop_signs(vectors))


def test_sign_rule_matches_the_loop_on_the_stock_suite(monkeypatch):
    """Every eigenframe the stock verify suite takes is the loop's."""
    checked = []
    fix_signs = attribution._fix_signs

    def compared(vectors):
        expected = loop_signs(vectors)
        fix_signs(vectors)
        assert np.array_equal(vectors, expected)
        checked.append(vectors.shape)

    monkeypatch.setattr(attribution, "_fix_signs", compared)
    for spec in rg.default_suite():
        assert rg.run_check(spec).passed
    assert checked


def test_one_call_validates_each_point_once(monkeypatch, manifold, rng):
    """p and o are validated once each, by the kernel; the geodesic is built
    from the validated points."""
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (8,), rng))
    p = manifold.random_point(rng)
    o = manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    calls = []
    cls = type(manifold)
    point_rows = cls.point_rows

    def counted(self, P):
        calls.append(len(P))
        return point_rows(self, P)

    monkeypatch.setattr(cls, "point_rows", counted)
    runs = {
        "rig": lambda: rg.rig(field, manifold, p, o, frame),
        "eigen_rig": lambda: rg.eigen_rig(field, manifold, p, o, frame),
    }
    if manifold.flat:
        runs["ig"] = lambda: rg.ig(field, p, o, frame)
    for method, run in runs.items():
        calls.clear()
        run()
        assert calls == [1, 1], method


def test_eigen_sum_matches_trace(manifold, rng):
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (6,), rng))
    p = manifold.random_point(rng)
    o = manifold.random_point(rng)
    if manifold.kind == "sphere2":
        while manifold.dist(p, o) > 2.8:
            o = manifold.random_point(rng)
    mat = rg.attribution_matrix(field, manifold, p, o, manifold.orthonormal_frame(p))
    eigen = rg.eigen_attributions(mat)
    assert abs(float(np.sum(eigen.eigenvalues)) - mat.trace()) <= 1e-10
    # eigenvectors stay g-orthonormal
    manifold.validate_frame(eigen.frame)


def test_eigen_rig_report_carries_eigenvalues(rng):
    man = rg.make_manifold("half_plane2")
    field = rg.MLPField(man, rg.random_mlp(2, (5, 4), rng))
    p = man.random_point(rng)
    o = man.random_point(rng)
    report = rg.eigen_rig(field, man, p, o, man.orthonormal_frame(p))
    assert report.method == "EigenRIG"
    assert report.eigenvalues is not None
    assert np.array_equal(report.attributions, report.eigenvalues)
    delta = report.value_at_point - report.value_at_base
    assert abs(float(np.sum(report.eigenvalues)) - delta) <= 1e-6


@pytest.mark.parametrize("kind, dim", [("euclidean", 8), ("euclidean", 64), ("sphere2", None), ("half_plane2", None)])
def test_eigenframe_rows_are_one_product_per_eigenvector(kind, dim, rng):
    man = rg.make_manifold(kind, dim)
    p = man.random_point(rng)
    o = man.exp_map(rg.TangentVector(p, 0.5 * man.random_tangent(p, rng).components))
    q, _ = np.linalg.qr(rng.standard_normal((man.dim, man.dim)))
    frame = rg.OrthonormalFrame(p, q.T @ man.orthonormal_frame(p).rows)
    field = rg.MLPField(man, rg.random_mlp(man.coord_dim, (6,), rng))
    eigen = rg.eigen_attributions(rg.attribution_matrix(field, man, p, o, frame))
    expected = [eigen.coefficients[:, k] @ frame.rows for k in range(man.dim)]
    assert np.array_equal(eigen.frame.rows, expected)


def test_a_fortran_ordered_frame_gives_the_bits_of_its_vectors(rng):
    man = rg.make_manifold("euclidean", 8)
    field = rg.MLPField(man, rg.random_mlp(8, (9, 7), rng))
    for _ in range(5):
        x, x_prime = man.random_point(rng), man.random_point(rng)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert q.T.flags.f_contiguous
        from_array = rg.OrthonormalFrame(x, q.T)
        from_vectors = rg.OrthonormalFrame(x, tuple(rg.TangentVector(x, row) for row in q.T))
        first = rg.rig(field, man, x, x_prime, from_array).attributions
        second = rg.rig(field, man, x, x_prime, from_vectors).attributions
        assert first.tobytes() == second.tobytes()


def test_reevaluating_in_the_eigenframe_reproduces_eigenvalues(rng):
    man = rg.make_manifold("sphere2")
    field = rg.MLPField(man, rg.random_mlp(3, (6, 5), rng))
    p = man.random_point(rng)
    o = man.random_point(rng)
    while man.dist(p, o) > 2.8:
        o = man.random_point(rng)
    mat = rg.attribution_matrix(field, man, p, o, man.orthonormal_frame(p))
    eigen = rg.eigen_attributions(mat)
    remat = rg.attribution_matrix(field, man, p, o, eigen.frame)
    resym = 0.5 * (remat.entries + remat.entries.T)
    assert np.max(np.abs(np.diag(resym) - eigen.eigenvalues)) <= 1e-8


def test_bound_check_on_prescribed_spectrum():
    """diag(1, -3): the quadratic form on unit directions never exceeds 3,
    and the top eigendirection attains it."""
    mat = make_synthetic_matrix([[1.0, 0.0], [0.0, -3.0]])
    check = rg.attribution_bound_check(mat, samples=4000, seed=9)
    assert check.largest_abs_eigenvalue == 3.0
    assert check.violations == 0
    assert check.max_ratio <= 1.0 + 1e-12
    top = np.array([0.0, 1.0])
    value = abs(top @ mat.entries @ top)
    assert value == check.largest_abs_eigenvalue


def test_bound_check_needs_a_sample():
    mat = make_synthetic_matrix([[1.0, 0.0], [0.0, -3.0]])
    with pytest.raises(ValueError, match="samples must be positive"):
        rg.attribution_bound_check(mat, samples=0, seed=9)


def test_bound_check_is_seed_deterministic():
    mat = make_synthetic_matrix([[0.3, 0.1], [-0.2, 1.7]])
    a = rg.attribution_bound_check(mat, samples=500, seed=42)
    b = rg.attribution_bound_check(mat, samples=500, seed=42)
    assert a.max_ratio == b.max_ratio
    assert a.max_abs_value == b.max_abs_value


def loop_bound_check(matrix, samples, seed):
    """(violations, max_ratio, max_abs_value) scoring one direction at a time."""
    sym = 0.5 * (matrix.entries + matrix.entries.T)
    bound = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    rng = np.random.default_rng(seed)
    worst, violations = 0.0, 0
    for _ in range(samples):
        direction = rng.standard_normal(sym.shape[0])
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        direction /= norm
        value = abs(float(direction @ sym @ direction))
        worst = max(worst, value)
        violations += value > bound + 1e-10
    return violations, worst / bound, worst


def test_bound_check_matches_the_per_direction_loop(rng):
    man = rg.make_manifold("euclidean", dim=6)
    field = rg.MLPField(man, rg.random_mlp(6, (8,), rng))
    p = man.random_point(rng)
    matrices = [
        make_synthetic_matrix([[0.3, 0.1], [-0.2, 1.7]]),
        make_synthetic_matrix([[1.0, 0.0], [0.0, -3.0]]),
        rg.attribution_matrix(field, man, p, man.random_point(rng), man.orthonormal_frame(p)),
    ]
    for matrix in matrices:
        for samples, seed in ((1, 3), (500, 42), (20_000, 7)):
            check = rg.attribution_bound_check(matrix, samples, seed)
            violations, ratio, worst = loop_bound_check(matrix, samples, seed)
            assert check.violations == violations
            assert abs(check.max_ratio - ratio) <= 1e-12 * ratio
            assert abs(check.max_abs_value - worst) <= 1e-12 * worst


# -- the array kernel against per-node assembly -----------------------------

FIXED = rg.Quadrature(nodes=24, refine=False)


def node_loop_entries(field, man, curve, moved, ts, weights):
    """The form assembled one node and one frame vector at a time."""
    n = moved.shape[1]
    a = np.zeros((n, ts.size))
    b = np.zeros((n, ts.size))
    for k, t in enumerate(ts):
        position = curve.position(float(t))
        grad = field.coord_gradient(position)
        g_vel = man.metric_at(position) @ curve.velocity(t).components
        for i in range(n):
            a[i, k] = grad @ moved[k, i]
            b[i, k] = moved[k, i] @ g_vel
    return -np.einsum("k,ik,jk->ij", weights, a, b)


def test_kernel_entries_match_node_loop(manifold, rng):
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (8, 8), rng))
    ts, weights = FIXED.nodes_weights()
    for _ in range(3):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        if manifold.kind == "sphere2":
            while manifold.dist(p, o) > 2.8:
                o = manifold.random_point(rng)
        frame = manifold.orthonormal_frame(p)
        matrix = rg.attribution_matrix(field, manifold, p, o, frame, FIXED)
        curve = manifold.geodesic_between(p, o)
        moved = loop_transport(manifold, curve, frame.vectors, ts)
        assert_close_rel(matrix.entries, node_loop_entries(field, manifold, curve, moved, ts, weights))


def test_kernel_entries_match_node_loop_on_the_ode_route(rng):
    man = rg.make_manifold("sphere2")
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), rng))
    loop = man.latitude_loop(0.9)
    frame = man.orthonormal_frame(loop.start)
    ts, weights = FIXED.nodes_weights()
    report = rg.generic_bam_report(field, loop, frame, FIXED)
    moved, mode, _ = rg.transport_along(man, loop, frame.vectors, ts)
    assert mode == report.diagnostics.transport_mode == "ode"
    moved = np.array([[w.components for w in row] for row in moved])
    expected = node_loop_entries(field, man, loop, moved, ts, weights)
    assert_close_rel(report.attributions, np.diag(expected))


def test_kernel_entries_match_node_loop_on_a_flat_bent_curve(rng):
    """A curve that is not a geodesic in flat space keeps the frame as it is
    (identity transport, no per-node frame), and the kernel pairs it with the
    curve's own velocity at every node."""
    man = rg.make_manifold("euclidean", dim=4)
    field = rg.MLPField(man, rg.random_mlp(4, (8, 8), rng))
    a, b, bend = (rng.standard_normal(4) for _ in range(3))

    def position(t):
        t = np.asarray(t, dtype=float)[..., None]
        return a + t * (b - a) + t * (1.0 - t) * bend

    def velocity(t):
        t = np.asarray(t, dtype=float)[..., None]
        return (b - a) + (1.0 - 2.0 * t) * bend

    curve = rg.Curve(man, position, velocity, man.point(a), man.point(b), False, 2.0)
    rotated, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    frame = rg.OrthonormalFrame(
        curve.start, tuple(rg.TangentVector(curve.start, row) for row in rotated)
    )
    ts, weights = FIXED.nodes_weights()
    report = rg.generic_bam_report(field, curve, frame, FIXED)
    assert report.diagnostics.transport_mode == "identity"
    moved = np.broadcast_to(rotated, (ts.size, 4, 4))
    expected = node_loop_entries(field, man, curve, moved, ts, weights)
    assert_close_rel(report.attributions, np.diag(expected))


def test_ig_matches_straight_line_node_loop(rng):
    man = rg.make_manifold("euclidean", dim=6)
    field = rg.MLPField(man, rg.random_mlp(6, (9, 7), rng, "softplus"))
    ts, weights = FIXED.nodes_weights()
    for _ in range(3):
        x = man.random_point(rng)
        x_prime = man.random_point(rng)
        frame = man.orthonormal_frame(x)
        delta = x.coords - x_prime.coords
        expected = np.zeros(len(frame))
        for i, u in enumerate(frame.vectors):
            integral = sum(
                w * (field.coord_gradient(rg.Point(x_prime.coords + t * delta)) @ u.components)
                for t, w in zip(ts, weights)
            )
            expected[i] = (u.components @ delta) * integral
        report = rg.ig(field, x, x_prime, frame, FIXED)
        assert report.diagnostics.nodes_used == FIXED.nodes
        assert_close_rel(report.attributions, expected)


# -- the first two levels share one pass over the path ------------------------


def _loop_report(monkeypatch, colatitude, field, kernel=None):
    """generic_bam_report around a latitude loop, with the connection form's
    and the RK4 propagators' calls counted, and the ODE route's 2-dimensional
    kernel replaced by ``kernel``'s when given.  Returns the report, the
    counts and the closed-form attributions at the report's node count."""
    from rigrad.manifolds import transport

    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    calls = {"forms": [], "sweeps": []}
    forms, propagate = SphericalChart.connection_forms, transport._propagate

    def counting_forms(chart, P, V):
        calls["forms"].append(len(P))
        return forms(chart, P, V)

    def counting_propagate(w0, grid, ends, B):
        calls["sweeps"].append(len(grid) - 1)
        return propagate(w0, grid, ends, B)

    monkeypatch.setattr(SphericalChart, "connection_forms", counting_forms)
    monkeypatch.setattr(transport, "_propagate", counting_propagate)
    if kernel is not None:
        monkeypatch.setattr(transport, "_angle_kernel", getattr(transport, kernel))
    report = rg.generic_bam_report(field(man), loop, frame)
    ts, weights = rg.DEFAULT_QUADRATURE.nodes_weights(report.diagnostics.nodes_used)
    moved = latitude_loop_frames(colatitude, frame, ts)
    expected = np.diag(node_loop_entries(field(man), man, loop, moved, ts, weights))
    return report, calls, expected


@pytest.mark.parametrize("colatitude, sweeps", [(math.pi / 3.0, 2), (2.4, 3)])
def test_loop_refinement_runs_one_step_doubling(monkeypatch, colatitude, sweeps):
    """Levels 32 and 64 share one transport pass.  With the RK4 matrix kernel
    in the route it is one step doubling: ``sweeps`` sweeps (256, 512, ...
    steps) where one per level took twice as many, and the reported step
    count is that of the last sweep.  The angle kernel takes 2 sweeps on
    both loops, sampled in one chart call of 288 rows.  Each agrees with
    closed-form transport."""
    field = lambda man: rg.AffineField(man, [0.3, -0.7, 0.5])
    report, calls, expected = _loop_report(monkeypatch, colatitude, field, "_matrix_kernel")
    assert report.diagnostics.nodes_used == 64
    assert len(calls["sweeps"]) == sweeps
    assert report.diagnostics.transport_steps == ODE_START_STEPS * 2 ** (sweeps - 1)
    assert_close_rel(report.attributions, expected, 1e-9)
    monkeypatch.undo()
    report, calls, expected = _loop_report(monkeypatch, colatitude, field)
    assert report.diagnostics.nodes_used == 64
    assert (calls["forms"], calls["sweeps"]) == ([3 * PANELS_START * PANEL_POINTS], [])
    assert report.diagnostics.transport_steps == 2 * PANELS_START
    assert_close_rel(report.attributions, expected, 1e-12)


def test_later_level_runs_a_transport_pass_of_its_own(monkeypatch):
    """A field that refines to 128 nodes on this loop: the level-128 pass
    reads its frames off the two sweeps the shared pass sampled and kept, and
    evaluates the connection form nowhere (1536 times when each pass swept
    afresh between its nodes).  The attributions match closed-form
    transport."""
    field = lambda man: rg.MLPField(man, rg.random_mlp(3, (8, 8), np.random.default_rng(2)))
    report, calls, expected = _loop_report(monkeypatch, 2.4, field)
    assert report.diagnostics.nodes_used == 128
    assert report.diagnostics.transport_steps == 2 * PANELS_START
    assert calls["forms"] == [3 * PANELS_START * PANEL_POINTS]
    assert_close_rel(report.attributions, expected, 1e-12)


def test_gradient_batches_follow_the_levels():
    """One path pass serves both levels, and the field sees the pass's joined
    nodes as one batch."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 1.2]))
    o = man.point(np.array([-0.5, 2.0]))
    field = CountingAffineField(man, [1.0, 0.5])
    report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
    assert report.diagnostics.nodes_used == 64
    assert field.batches == [32 + 64]


@pytest.mark.parametrize(
    "scale, seed, nodes, batches",
    [(1.0, 0, 64, [96]), (2.0, 2, 128, [96, 128]), (4.0, 1, 256, [96, 128, 256])],
)
def test_one_gradient_batch_per_transport_pass(scale, seed, nodes, batches):
    """A call that stops at 64, 128 or 256 nodes makes 1, 2 or 3 gradient
    calls, on 96, 224 or 480 rows in all: the head pass's joined nodes, then
    one batch per deeper level.  The entries equal those of a lone fixed rule
    at the stopping level."""
    man = rg.make_manifold("sphere2")
    draw = np.random.default_rng(seed)
    field = CountingMLPField(man, rg.random_mlp(3, (16, 16), draw, scale=scale))
    p, o = man.random_point(draw), man.random_point(draw)
    frame = man.orthonormal_frame(p)
    matrix = rg.attribution_matrix(field, man, p, o, frame)
    assert matrix.diagnostics.nodes_used == nodes
    assert field.batches == batches
    alone = rg.attribution_matrix(field, man, p, o, frame, rg.Quadrature(nodes=nodes, refine=False))
    assert_close_rel(matrix.entries, alone.entries, 1e-14)


class LateNanAffineField(CountingAffineField):
    """An affine field whose gradient is NaN at row 40 of each batch: in the
    head pass, a row of the 64-node level."""

    def coord_gradients(self, X):
        grads = super().coord_gradients(X)
        grads[40] = math.nan
        return grads


def test_a_nan_in_the_second_level_stops_after_one_batch():
    """The 32-node level is finite and the 64-node level is not: the call
    names 64 nodes, after the one batch of the head pass."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 1.2]))
    o = man.point(np.array([-0.5, 2.0]))
    field = LateNanAffineField(man, [1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match="at 64 nodes"):
            rg.rig(field, man, p, o, man.orthonormal_frame(p))
    assert field.batches == [HEAD_PASS_ROWS]


@pytest.mark.parametrize("nodes", [2, 24, 64])
def test_a_fixed_rule_sees_one_batch_of_its_nodes(manifold, rng, nodes):
    """With ``refine=False`` the one level is the one pass and the one batch."""
    field = CountingAffineField(manifold, rng.standard_normal(manifold.coord_dim))
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    quadrature = rg.Quadrature(nodes=nodes, refine=False)
    matrix = rg.attribution_matrix(field, manifold, p, o, manifold.orthonormal_frame(p), quadrature)
    assert matrix.diagnostics.nodes_used == nodes
    assert field.batches == [nodes]


class MisshapenField(rg.AffineField):
    """An affine field whose gradient batch has twice the rows, or one
    column more, than the positions it is given."""

    def __init__(self, manifold, weights, axis):
        super().__init__(manifold, weights)
        self.axis = axis

    def coord_gradients(self, X):
        grads = super().coord_gradients(X)
        extra = grads if self.axis == 0 else grads[:, :1]
        return np.concatenate([grads, extra], axis=self.axis)


@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "columns"])
def test_a_misshapen_gradient_batch_is_refused(axis):
    """A gradient batch that is not (K, coord_dim) raises DimensionMismatch
    naming the field and both shapes, on flat space and on curved routes,
    where numpy would otherwise slice it silently or fail in a matmul."""
    flat = rg.make_manifold("euclidean", dim=3)
    x, x_prime = flat.point(np.array([1.0, 2.0, -1.0])), flat.point(np.array([0.0, 0.5, 0.3]))
    sphere = rg.make_manifold("sphere2")
    loop = sphere.latitude_loop(1.1)
    half = rg.make_manifold("half_plane2")
    p, o = half.point(np.array([0.3, 1.2])), half.point(np.array([-0.5, 2.0]))
    runs = (
        (flat, lambda field: rg.ig(field, x, x_prime, flat.orthonormal_frame(x))),
        (flat, lambda field: rg.rig(field, flat, x, x_prime, flat.orthonormal_frame(x))),
        (sphere, lambda field: rg.generic_bam_report(field, loop, sphere.orthonormal_frame(loop.start))),
        (half, lambda field: rg.rig(field, half, p, o, half.orthonormal_frame(p))),
    )
    for man, run in runs:
        d = man.coord_dim
        field = MisshapenField(man, np.ones(d), axis)
        returned = (192, d) if axis == 0 else (96, d + 1)
        with pytest.raises(rg.DimensionMismatch) as error:
            run(field)
        assert str(error.value) == (
            f"MisshapenField.coord_gradients returned shape {returned} "
            f"for positions of shape (96, {d})"
        )


def test_shared_tables_match_a_single_level(manifold, rng):
    """Entries accepted at 64 nodes equal a lone 64-node evaluation."""
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (8, 8), rng))
    single = rg.Quadrature(nodes=64, refine=False)
    checked = 0
    for _ in range(20):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        if manifold.kind == "sphere2" and manifold.dist(p, o) > 2.8:
            continue
        frame = manifold.orthonormal_frame(p)
        refined = rg.attribution_matrix(field, manifold, p, o, frame)
        if refined.diagnostics.nodes_used != 64:
            continue
        alone = rg.attribution_matrix(field, manifold, p, o, frame, single)
        assert refined.diagnostics.transport_mode == alone.diagnostics.transport_mode
        assert_close_rel(refined.entries, alone.entries, 1e-14)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("colatitude", [0.9, math.pi / 3.0, 2.4])
def test_loop_attributions_match_closed_form_transport(rng, colatitude):
    """The affine field stops at 64 nodes, on the shared pass; the network
    at 128, on a pass of its own."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    fields = {
        64: rg.AffineField(man, [0.3, -0.7, 0.5]),
        128: rg.MLPField(man, rg.random_mlp(3, (8, 8), rng)),
    }
    for nodes, field in fields.items():
        report = rg.generic_bam_report(field, loop, frame)
        assert report.diagnostics.nodes_used == nodes
        ts, weights = rg.DEFAULT_QUADRATURE.nodes_weights(nodes)
        moved = np.stack(
            [latitude_loop_transport(colatitude, u.components, ts) for u in frame.vectors],
            axis=1,
        )
        expected = node_loop_entries(field, man, loop, moved, ts, weights)
        assert_close_rel(report.attributions, np.diag(expected), 1e-8)


@pytest.mark.parametrize(
    "quadrature", [FIXED_QUADRATURE, rg.DEFAULT_QUADRATURE], ids=["fixed", "refining"]
)
def test_fields_along_one_path_match_separate_calls(monkeypatch, manifold, rng, quadrature):
    """Each field's matrix from the shared path equals its own call bit for
    bit, diagnostics included.  The gentle and steep networks stop refining
    at different node counts, and every level is still built only once."""
    gentle = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (32, 32), rng))
    steep = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (32, 32), rng, scale=4.0))
    fields = [gentle, steep, rg.CombinedField([0.7, -1.3], [gentle, steep])]
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    passes = _counting_passes(monkeypatch)
    shared = _attribution_matrices(fields, manifold, p, o, frame, quadrature)
    monkeypatch.undo()
    for field, matrix in zip(fields, shared):
        alone = rg.attribution_matrix(field, manifold, p, o, frame, quadrature)
        assert matrix.entries.tobytes() == alone.entries.tobytes()
        assert matrix.diagnostics == alone.diagnostics
        assert np.array_equal(matrix.base_point.coords, alone.base_point.coords)
    nodes = [matrix.diagnostics.nodes_used for matrix in shared]
    if quadrature.refine:
        assert nodes[0] < nodes[1]
        # the joined 32 + 64 nodes, then one pass per deeper level
        expected = [96] + [count for count in (128, 256, 512, 1024) if count <= max(nodes)]
        assert passes == expected
    else:
        assert nodes == [32, 32, 32] and passes == [32]


def test_fields_along_one_path_take_one_batch_per_pass(manifold, rng):
    """Three fields along one shared path: each sees one gradient batch per
    transport pass it reaches, and its matrix still equals its own call bit
    for bit."""
    fields = [
        CountingMLPField(manifold, rg.random_mlp(manifold.coord_dim, (32, 32), rng, scale=scale))
        for scale in (1.0, 4.0, 8.0)
    ]
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    shared = _attribution_matrices(fields, manifold, p, o, frame)
    for field, matrix in zip(fields, shared):
        nodes = matrix.diagnostics.nodes_used
        assert field.batches == [96] + [count for count in (128, 256, 512, 1024) if count <= nodes]
        field.batches.clear()
        alone = rg.attribution_matrix(field, manifold, p, o, frame)
        assert matrix.entries.tobytes() == alone.entries.tobytes()
        assert matrix.diagnostics == alone.diagnostics
    assert len({matrix.diagnostics.nodes_used for matrix in shared}) > 1


def _counting_passes(monkeypatch):
    """The node count of every transport pass the attribution kernel makes,
    in call order, with ``transport_frame`` wrapped to record them."""
    passes = []
    transport_frame = attribution.transport_frame

    def counting_frame(manifold, curve, rows, ts):
        passes.append(len(ts))
        transport, first = transport_frame(manifold, curve, rows, ts)

        def at(ts):
            passes.append(len(ts))
            return transport.at(ts)

        return transport._replace(at=at), first

    monkeypatch.setattr(attribution, "transport_frame", counting_frame)
    return passes


def test_one_velocity_call_per_geodesic_path(monkeypatch, manifold, rng):
    """Transport along a geodesic evaluates the curve's velocities in one call
    per path, at its two ends, for the end speeds and the pairing, and in no
    pass.  So does transport_along."""
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (8,), rng))
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    calls = []
    velocities = rg.Curve.velocities

    def counting_velocities(curve, ts):
        calls.append(len(ts))
        return velocities(curve, ts)

    monkeypatch.setattr(rg.Curve, "velocities", counting_velocities)
    passes = _counting_passes(monkeypatch)
    rg.rig(field, manifold, p, o, manifold.orthonormal_frame(p), rg.Quadrature(nodes=8))
    assert len(passes) > 1 and calls == [2]
    calls.clear()
    curve = manifold.geodesic_between(p, o)
    rg.transport_along(manifold, curve, list(manifold.orthonormal_frame(p).vectors), [0.25, 0.5])
    assert calls == [2]


# -- the rank-one form along geodesics -------------------------------------------------


def singular_ratio(entries):
    """Second singular value over the first."""
    s = np.linalg.svd(entries, compute_uv=False)
    return s[1] / s[0]


@pytest.mark.parametrize("kind, ends", [
    ("euclidean", None),
    ("sphere2", None),
    ("half_plane2", None),
    ("half_plane2", ([0.3, 0.5], [0.3, 2.0])),  # the vertical ray, x_p == x_q
], ids=["euclidean", "sphere2", "half_plane2", "half_plane2-ray"])
def test_geodesic_form_is_rank_one(kind, ends, rng):
    """Along a geodesic the velocity is parallel, so g(U_j, velocity) is the
    constant c_j and the form is -A c^T: its second singular value is
    rounding noise, and its trace is still F(p) - F(o)."""
    man = rg.make_manifold(kind, dim=5 if kind == "euclidean" else None)
    field = rg.MLPField(man, rg.random_mlp(man.coord_dim, (8, 8), rng))
    for _ in range(5):
        if ends is None:
            p, o = man.random_point(rng), man.random_point(rng)
        else:
            p, o = man.point(ends[0]), man.point(ends[1])
        matrix = rg.attribution_matrix(field, man, p, o, man.orthonormal_frame(p))
        assert singular_ratio(matrix.entries) <= 1e-14
        assert abs(matrix.trace() - (field.value(p) - field.value(o))) <= 1e-9


def test_loop_form_is_not_rank_one(rng):
    """The control: around a latitude loop, which is no geodesic, the pairing
    with the velocity changes along the path, and the form whose diagonal
    ``generic_bam_report`` reports has full rank."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(1.1)
    frame = man.orthonormal_frame(loop.start)
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), rng))
    rows = frame.rows
    entries, diagnostics = attribution._path_integral(
        field, man, loop, rows, rg.DEFAULT_QUADRATURE
    )
    assert diagnostics.transport_mode == "ode"
    assert singular_ratio(entries) > 1e-2
    report = rg.generic_bam_report(field, loop, frame)
    assert np.array_equal(report.attributions, np.diag(entries))


# (manifold, method, seed, weight scale, nodes the refinement stops at)
REFINED_CASES = [
    ("euclidean", "ig", 0, 1.0, 64), ("euclidean", "ig", 1, 2.5, 128),
    ("euclidean", "ig", 7, 2.5, 256), ("euclidean", "rig", 0, 1.0, 64),
    ("euclidean", "rig", 1, 2.5, 128), ("euclidean", "rig", 7, 2.5, 256),
    ("sphere2", "rig", 0, 1.0, 64), ("sphere2", "rig", 1, 2.5, 128),
    ("sphere2", "rig", 11, 4.0, 256), ("half_plane2", "rig", 0, 1.0, 64),
    ("half_plane2", "rig", 4, 2.5, 128), ("half_plane2", "rig", 7, 2.5, 256),
]


@pytest.mark.parametrize("kind, method, seed, scale, nodes", REFINED_CASES)
def test_refined_attributions_are_within_tol_of_1024_nodes(kind, method, seed, scale, nodes):
    """The integrated vector A gives answers as accurate as the full table
    did: where refinement stops, the attributions are within ``tol`` of a
    fixed 1024-node rule."""
    man = rg.make_manifold(kind, dim=5 if kind == "euclidean" else None)
    rng = np.random.default_rng(seed)
    field = rg.MLPField(man, rg.random_mlp(man.coord_dim, (16, 16), rng, scale=scale))
    p, o = man.random_point(rng), man.random_point(rng)
    frame = man.orthonormal_frame(p)
    fine = rg.Quadrature(nodes=1024, refine=False)
    if method == "ig":
        report, reference = rg.ig(field, p, o, frame), rg.ig(field, p, o, frame, fine)
    else:
        report = rg.rig(field, man, p, o, frame)
        reference = rg.rig(field, man, p, o, frame, fine)
    assert report.diagnostics.nodes_used == nodes
    gap = np.max(np.abs(report.attributions - reference.attributions))
    assert gap <= rg.DEFAULT_QUADRATURE.tol


@pytest.mark.parametrize("factor", [1.01, 1.1, 2.0, 0.99, 0.9, 0.5])
def test_sphere_pairs_on_either_side_of_the_antipodal_slack(factor):
    """With 1 + p.o just above ANTIPODAL_SLACK the form is finite, rank one
    and has trace F(p) - F(o); just below it rig, eigen_rig and log_map
    raise CutLocusAmbiguity and return no direction."""
    man = rg.make_manifold("sphere2")
    rng = np.random.default_rng(5)
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), rng))
    angle = math.acos(1.0 - factor * ANTIPODAL_SLACK)
    for _ in range(5):
        p = man.random_point(rng)
        u = random_unit_tangent(man, p, rng).components
        o = man.point(-math.cos(angle) * p.coords + math.sin(angle) * u)
        frame = man.orthonormal_frame(p)
        above = 1.0 + float(p.coords @ o.coords) > ANTIPODAL_SLACK
        assert above == (factor > 1.0)
        if above:
            matrix = rg.attribution_matrix(field, man, p, o, frame)
            assert np.isfinite(matrix.entries).all()
            assert singular_ratio(matrix.entries) <= 1e-14
            assert abs(matrix.trace() - (field.value(p) - field.value(o))) <= 1e-9
            continue
        for call in (
            lambda: rg.rig(field, man, p, o, frame),
            lambda: rg.eigen_rig(field, man, p, o, frame),
            lambda: man.log_map(p, o),
        ):
            with pytest.raises(rg.CutLocusAmbiguity):
                call()
