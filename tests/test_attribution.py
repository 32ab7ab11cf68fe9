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
from rigrad.manifolds.transport import ODE_START_STEPS

from conftest import (
    assert_close_rel,
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
        assert field.batches == [rg.DEFAULT_QUADRATURE.nodes]
    flat = rg.make_manifold("euclidean", dim=2)
    field = CountingAffineField(flat, [1.0, math.inf])
    x, x_prime = flat.point(np.array([1.0, 2.0])), flat.point(np.array([0.0, 0.5]))
    with pytest.raises(rg.NonFiniteValue), warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 is reported by the error alone
        rg.ig(field, x, x_prime, flat.orthonormal_frame(x))
    assert field.batches == [rg.DEFAULT_QUADRATURE.nodes]


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


def test_a_frame_whose_metric_underflows_is_refused_without_warnings():
    """At y = 1e-170 the metric's y squared underflows to 0, so lowering the
    frame divides by zero: refused as non-finite, with no RuntimeWarning."""
    man = rg.make_manifold("half_plane2")
    p, o = man.point(np.array([0.0, 1e-170])), man.point(np.array([1e-150, 1e-170]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rg.NonFiniteValue, match="Gram"):
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


@pytest.mark.parametrize("colatitude, sweeps", [(math.pi / 3.0, 2), (2.4, 3)])
def test_loop_refinement_runs_one_step_doubling(monkeypatch, colatitude, sweeps):
    """Levels 32 and 64 share one RK4 step doubling: 2 sweeps (256 and 512
    steps) where one per level took 4, 3 where one per level took 6.  The
    reported step count is that of the last sweep."""
    from rigrad.manifolds import transport

    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    field = rg.CoordinateField(man, 2)
    frame = man.orthonormal_frame(loop.start)
    sweeps_seen = []
    rotate = transport._rotate

    def counting_rotate(z0, grid, ends, lam):
        sweeps_seen.append(len(grid) - 1)
        return rotate(z0, grid, ends, lam)

    monkeypatch.setattr(transport, "_rotate", counting_rotate)
    report = rg.generic_bam_report(field, loop, frame)
    assert report.diagnostics.nodes_used == 64
    assert len(sweeps_seen) == sweeps
    assert report.diagnostics.transport_steps == ODE_START_STEPS * 2 ** (sweeps - 1)


def test_later_level_starts_step_doubling_at_half_the_converged_count(monkeypatch):
    """The shared pass on this loop converges at 1024 steps, so the level-128
    pass starts at 512 and takes 2 sweeps (512, 1024), not 3 from 256."""
    from rigrad.manifolds import transport

    man = rg.make_manifold("sphere2")
    colatitude = 2.4
    loop = man.latitude_loop(colatitude)
    frame = man.orthonormal_frame(loop.start)
    field = rg.MLPField(man, rg.random_mlp(3, (8, 8), np.random.default_rng(2)))
    targets_per_sweep = []
    rotate = transport._rotate

    def counting_rotate(z0, grid, ends, lam):
        targets_per_sweep.append(len(ends))
        return rotate(z0, grid, ends, lam)

    monkeypatch.setattr(transport, "_rotate", counting_rotate)
    report = rg.generic_bam_report(field, loop, frame)
    assert report.diagnostics.nodes_used == 128
    assert report.diagnostics.transport_steps == 1024
    assert targets_per_sweep.count(32 + 64) == 3
    assert targets_per_sweep.count(128) == 2
    ts, weights = rg.DEFAULT_QUADRATURE.nodes_weights(128)
    moved = np.stack(
        [latitude_loop_transport(colatitude, u.components, ts) for u in frame.vectors], axis=1
    )
    expected = node_loop_entries(field, man, loop, moved, ts, weights)
    assert_close_rel(report.attributions, np.diag(expected), 1e-8)


def test_gradient_batches_follow_the_levels():
    """One path pass serves both levels, but the field sees each level alone."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 1.2]))
    o = man.point(np.array([-0.5, 2.0]))
    field = CountingAffineField(man, [1.0, 0.5])
    report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
    assert report.diagnostics.nodes_used == 64
    assert field.batches == [32, 64]


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
    passes = []
    transport_rows = attribution.transport_rows

    def counting_transport(manifold, curve, rows, ts, *args):
        passes.append(len(ts))
        return transport_rows(manifold, curve, rows, ts, *args)

    monkeypatch.setattr(attribution, "transport_rows", counting_transport)
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
