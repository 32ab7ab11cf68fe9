"""Geometry kernel tests: points, tangents, charts, geodesics, isometries."""

import dataclasses
import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import rigrad as rg
from rigrad.manifolds import Chart, diagnostics
from rigrad.manifolds.halfplane import VERTICAL_CUTOFF
from rigrad.manifolds.sphere import ANTIPODAL_SLACK, SphericalChart, _cross3

from conftest import assert_close_rel, loop_geodesic_residual, random_unit_tangent
from geodesic_oracles import ShootingResult, constant_speed_defect, shoot_geodesic


def halfplane_dist_oracle(p, q):
    """Independent distance formula for the upper half-plane.

    d = arccosh(1 + ((dx)^2 + (dy)^2) / (2 y1 y2)).  Ill-conditioned for
    close points, so only used as an oracle at moderate separations.
    """
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * p[1] * q[1]))


def fd_christoffel(chart, x, h=1e-5):
    """Finite-difference Christoffel symbols from the chart metric.

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    n = x.size
    dg = np.zeros((n, n, n))
    for a in range(n):
        step = np.zeros(n)
        step[a] = h
        dg[a] = (chart.metric(x + step) - chart.metric(x - step)) / (2.0 * h)
    ginv = np.linalg.inv(chart.metric(x))
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


# -- points and tangents -----------------------------------------------------


def test_manifold_contract_is_what_the_package_calls():
    """A custom manifold implements exactly these: no per-point chart, and
    tangent and project_tangent have defaults; every attribution builds a
    geodesic and checks it against the geodesic equation.  It builds
    geodesics from validated points; geodesic_between validates them first."""
    assert rg.Manifold.__abstractmethods__ == {
        "lower",
        "raise_gradients",
        "chart_for_curve",
        "exp_map",
        "log_rows",
        "make_geodesic",
        "geodesic_acceleration",
        "orthonormal_frame",
        "random_point",
    }
    assert not hasattr(rg.Manifold, "chart_at")
    for cls in (rg.Euclidean, rg.HalfPlane2):
        assert "tangent" not in cls.__dict__ and "project_tangent" not in cls.__dict__


def test_curves_and_fields_have_one_evaluation_contract():
    """Curve evaluators take arrays of parameters and fields write row
    gradients; neither keeps a scalar-only mode."""
    assert rg.ScalarField.__abstractmethods__ == {"value", "coord_gradients"}
    assert "vectorized" not in {f.name for f in dataclasses.fields(rg.Curve)}
    assert not hasattr(rg.fields, "_RowField")


def test_euclidean_metric_and_christoffel_are_trivial():
    man = rg.make_manifold("euclidean", dim=3)
    p = man.point(np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(man.metric_at(p), np.eye(3))
    chart = man.chart_for_curve([p])
    assert np.array_equal(chart.christoffel(chart.to_chart(p)), np.zeros((3, 3, 3)))


def test_sphere_point_validation():
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([1.0, 0.0, 1e-10]))
    assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12
    with pytest.raises(rg.InvalidPoint):
        man.point(np.array([0.5, 0.0, 0.0]))
    with pytest.raises(rg.InvalidPoint):
        man.point(np.array([1.0, 0.0]))


def test_sphere_point_construction_is_bitwise_stable():
    man = rg.make_manifold("sphere2")
    raw = np.array([0.3, -0.4, 0.5])
    p = man.point(raw / np.linalg.norm(raw))
    again = man.point(p.coords)
    assert np.array_equal(p.coords, again.coords)


def test_sphere_cross_product_is_bitwise_np_cross(rng):
    a, b = rng.standard_normal((2, 1000, 3))
    assert np.array_equal(_cross3(a, b), np.cross(a, b))
    for x, y in zip(a[:50], b[:50]):
        assert np.array_equal(_cross3(x, y), np.cross(x, y))


def test_sphere_tangent_rejects_radial_component():
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(rg.InvalidTangent):
        man.tangent(p, np.array([0.0, 0.1, 0.5]))
    u = man.project_tangent(p, np.array([0.0, 0.1, 0.5]))
    assert abs(u.components @ p.coords) <= 1e-12


def test_vectors_of_the_wrong_shape_are_refused(manifold, rng):
    """tangent, project_tangent and raise_gradient share one shape check."""
    p = manifold.random_point(rng)
    n = manifold.coord_dim
    for bad in (np.zeros(n + 1), np.zeros((1, n)), np.zeros(n - 1)):
        for method in (manifold.tangent, manifold.project_tangent, manifold.raise_gradient):
            with pytest.raises(rg.DimensionMismatch, match=f"expected {n} components"):
                method(p, bad)


def test_halfplane_requires_positive_height():
    man = rg.make_manifold("half_plane2")
    with pytest.raises(rg.InvalidPoint):
        man.point(np.array([0.0, 0.0]))
    with pytest.raises(rg.InvalidPoint):
        man.point(np.array([1.0, -0.3]))


def test_halfplane_metric_frozen_value():
    # at (0, 2) the conformal factor is 1/y^2 = 1/4
    man = rg.make_manifold("half_plane2")
    g = man.metric_at(man.point(np.array([0.0, 2.0])))
    assert np.array_equal(g, np.diag([0.25, 0.25]))


def test_tangent_gram_matrix_is_identity(manifold, rng):
    for _ in range(5):
        p = manifold.random_point(rng)
        frame = manifold.orthonormal_frame(p)
        comps = frame.component_matrix()
        gram = comps @ manifold.metric_at(p) @ comps.T
        assert np.max(np.abs(gram - np.eye(manifold.dim))) <= 1e-10
        manifold.validate_frame(frame)


def test_validate_frame_rejects_scaled_vector(manifold, rng):
    p = manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    bad = rg.OrthonormalFrame(p, (frame.vectors[0] * 1.5,) + frame.vectors[1:])
    with pytest.raises(rg.InvalidTangent):
        manifold.validate_frame(bad)


# -- exp, log, dist ----------------------------------------------------------


def test_exp_log_roundtrip(manifold, rng):
    worst = 0.0
    for _ in range(25):
        p = manifold.random_point(rng)
        u = manifold.random_tangent(p, rng)
        # keep within a safely-invertible radius on the closed manifold
        norm = manifold.norm(u)
        if manifold.kind == "sphere2" and norm > 2.8:
            u = rg.TangentVector(p, u.components * (2.8 / norm))
        q = manifold.exp_map(u)
        v = manifold.log_map(p, q)
        worst = max(worst, float(np.max(np.abs(v.components - u.components))))
        again = manifold.exp_map(v)
        worst = max(worst, float(np.max(np.abs(again.coords - q.coords))))
    assert worst <= 1e-8


def test_log_map_norm_equals_distance(manifold, rng):
    for _ in range(10):
        p = manifold.random_point(rng)
        q = manifold.random_point(rng)
        v = manifold.log_map(p, q)
        assert abs(manifold.norm(v) - manifold.dist(p, q)) <= 1e-10


def test_sphere_dist_matches_arccos_oracle(rng):
    man = rg.make_manifold("sphere2")
    for _ in range(20):
        p = man.random_point(rng)
        q = man.random_point(rng)
        oracle = math.acos(float(np.clip(p.coords @ q.coords, -1.0, 1.0)))
        assert abs(man.dist(p, q) - oracle) <= 1e-10


def test_halfplane_dist_matches_arccosh_oracle(rng):
    man = rg.make_manifold("half_plane2")
    for _ in range(20):
        p = man.random_point(rng)
        q = man.random_point(rng)
        if man.dist(p, q) < 0.1:
            continue
        oracle = halfplane_dist_oracle(p.coords, q.coords)
        assert abs(man.dist(p, q) - oracle) <= 1e-9 * (1.0 + oracle)


def test_dist_is_symmetric(manifold, rng):
    for _ in range(10):
        p = manifold.random_point(rng)
        q = manifold.random_point(rng)
        assert abs(manifold.dist(p, q) - manifold.dist(q, p)) <= 1e-12


def test_sphere_antipodal_pair_is_refused():
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([0.0, 0.0, -1.0]))
    for _ in range(3):
        with pytest.raises(rg.CutLocusAmbiguity):
            man.log_map(p, o)
    with pytest.raises(rg.CutLocusAmbiguity):
        man.geodesic_between(p, o)


def decimal_angle(p, q):
    """Angle between two 3-vectors from an exact cross and dot product."""
    with localcontext() as ctx:
        ctx.prec = 80
        a = [Decimal(float(x)) for x in p]
        b = [Decimal(float(x)) for x in q]
        cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        sin = sum(c * c for c in cross).sqrt()
        cos = sum(x * y for x, y in zip(a, b))
        return math.atan2(float(sin), float(cos))


SEPARATIONS = np.concatenate(
    [np.geomspace(1e-12, 1.0, 13), np.linspace(1.2, math.pi - 1e-4, 5),
     [math.pi - 1e-5, math.pi - 1e-6]]
)


@pytest.mark.parametrize("separation", SEPARATIONS, ids=lambda s: f"{s:.9g}")
def test_sphere_log_map_is_accurate_at_every_separation(separation, rng):
    """|log_map| equals dist and the exact angle to 1e-12 relative, and
    exp(log) returns the point, from 1e-12 apart to near-antipodal pairs;
    pairs inside the antipodal slack are refused."""
    man = rg.make_manifold("sphere2")
    for _ in range(6):
        p = man.random_point(rng)
        u = random_unit_tangent(man, p, rng)
        q = man.exp_map(u * float(separation))
        if p.coords @ q.coords <= -1.0 + ANTIPODAL_SLACK:
            with pytest.raises(rg.CutLocusAmbiguity):
                man.log_map(p, q)
            continue
        v = man.log_map(p, q)
        dist = man.dist(p, q)
        assert abs(np.linalg.norm(v.components) - dist) <= 1e-12 * dist
        assert abs(dist - decimal_angle(p.coords, q.coords)) <= 1e-12 * dist
        assert np.max(np.abs(man.exp_map(v).coords - q.coords)) <= 2e-15


def test_halfplane_log_map_and_dist_read_the_geodesic(rng):
    """log_map is the geodesic's initial velocity and dist its length, bit
    for bit, on random, vertical (also within the cutoff) and coincident
    pairs."""
    man = rg.make_manifold("half_plane2")
    pairs = []
    for _ in range(20):
        p, q = man.random_point(rng), man.random_point(rng)
        vertical = man.point(np.array([p.coords[0] * (1.0 + 1e-15), q.coords[1]]))
        pairs += [(p, q), (p, man.point(np.array([p.coords[0], q.coords[1]]))), (p, vertical), (p, p)]
    for p, q in pairs:
        curve = man.geodesic_between(p, q)
        assert np.array_equal(man.log_map(p, q).components, curve.velocity_fn(0.0))
        assert man.dist(p, q) == curve.length


def log_rows_cases(man, rng):
    """Rows of points and the point q they all lead to: random rows, q itself,
    and per manifold the rows where the construction branches.  On the
    half-plane: vertical rows, rows within and just above the cutoff.  On the
    sphere: rows 1e-12 from q."""
    q = man.random_point(rng).coords
    rows = [man.random_point(rng).coords for _ in range(2000)] + [q, q]
    if man.kind == "half_plane2":
        cutoff = VERTICAL_CUTOFF * max(abs(q[0]), q[1])
        offsets = (0.0, 1e-15 * q[0], 0.5 * cutoff, 1.1 * cutoff, 10.0 * cutoff)
        for y in np.exp(rng.standard_normal(40)):
            rows += [np.array([q[0] + sign * dx, y]) for dx in offsets for sign in (1, -1)]
    if man.kind == "sphere2":
        rows = [r for r in rows if r @ q > -0.99]
        for _ in range(40):
            near = q + 1e-12 * man.random_tangent(man.point(q), rng).components
            rows.append(near / np.linalg.norm(near))
    return man.point_rows(np.array(rows)), q


def one_pair_dist(man, p, q):
    """The distance in one pair's np.dot arithmetic: the length of q - p on
    flat space, the angle from |p x (q - p)| and p . q on the sphere."""
    if man.kind == "sphere2":
        return np.arctan2(np.linalg.norm(_cross3(p, q - p)), np.dot(p, q))
    return np.linalg.norm(q - p)


def test_log_rows_are_the_one_row_log_map_and_dist(manifold, rng):
    """One call over many rows gives each row's log_map and dist bit for bit,
    whatever rows it shares the call with, and the lengths are those of the
    one-pair formulas."""
    P, q = log_rows_cases(manifold, rng)
    V, lengths = manifold.log_rows(P, q)
    assert V.shape == P.shape and lengths.shape == (len(P),)
    target = rg.Point(q)
    for row, v, length in zip(P, V, lengths):
        p = rg.Point(row)
        assert manifold.log_map(p, target).components.tobytes() == v.tobytes()
        assert manifold.dist(p, target) == length
        if manifold.kind != "half_plane2":
            assert length == one_pair_dist(manifold, row, q)


def test_halfplane_log_rows_read_each_geodesic(rng):
    """Each row's velocity is its geodesic's velocity_fn(0.0), a scalar
    evaluation whose sech ** 2 is the C library's pow, over enough rows to
    meet those that an array square rounds differently."""
    man = rg.make_manifold("half_plane2")
    P, q = log_rows_cases(man, rng)
    V, lengths = man.log_rows(P, q)
    o = rg.Point(q)
    for row, v, length in zip(P, V, lengths):
        curve = man.geodesic_between(rg.Point(row), o)
        assert v.tobytes() == curve.velocity_fn(0.0).tobytes()
        assert length == curve.length


def test_one_antipodal_row_among_many_is_refused(rng):
    """log_rows marks the antipodal row with a NaN velocity and keeps its
    length; unique_log_rows refuses it, wherever it sits among the rows."""
    sphere = rg.make_manifold("sphere2")
    q = sphere.random_point(rng).coords
    P = np.array([sphere.random_point(rng).coords for _ in range(50)])
    P = P[P @ q > -0.99]
    assert len(sphere.unique_log_rows(P, q)[0]) == len(P)
    for k in (0, len(P) // 2, len(P)):
        rows = np.insert(P, k, -q, axis=0)
        V, lengths = sphere.log_rows(rows, q)
        assert np.isnan(V).any(axis=1).tolist() == [i == k for i in range(len(rows))]
        assert lengths[k] == one_pair_dist(sphere, -q, q)
        with pytest.raises(rg.CutLocusAmbiguity):
            sphere.unique_log_rows(rows, q)


def test_an_overflowing_half_plane_row_is_not_a_cut_locus_row():
    """At y = 1e-310 the semicircle's ends overflow to an infinite length and a
    NaN velocity; only a NaN velocity at a finite length marks a row whose
    geodesic is not unique, so log_map returns the NaN rather than refusing."""
    man = rg.make_manifold("half_plane2")
    p, q = man.point(np.array([0.0, 1e-310])), man.point(np.array([1.0, 1e-310]))
    assert np.isnan(man.log_map(p, q).components).all()
    assert man.dist(p, q) == math.inf


def test_sphere_dist_of_an_antipodal_pair_is_pi():
    """The distance needs no unique geodesic: an antipodal pair, and one inside
    the slack, read the one-pair angle."""
    man = rg.make_manifold("sphere2")
    p = np.array([0.0, 0.6, 0.8])
    near = -p + np.array([1e-10, 0.0, 0.0])
    for q in (-p, near / np.linalg.norm(near)):
        assert man.dist(man.point(p), man.point(q)) == one_pair_dist(man, p, q)
    assert man.dist(man.point(p), man.point(-p)) == math.pi


def test_halfplane_exp_map_keeps_x_near_vertical():
    """exp_map takes x from the tanh difference, as the geodesic does, so
    half the log map lands on the geodesic's midpoint even when the pair is
    nearly vertical and the semicircle's centre is far away."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 0.5]))
    for offset in (4e-12, 4e-10, 1e-3, 1.0):
        o = man.point(np.array([0.3 + offset, 4.0]))
        mid = man.exp_map(man.log_map(p, o) * 0.5).coords
        assert abs(mid[0] - man.geodesic_between(p, o).position(0.5).coords[0]) <= 4e-16


def test_halfplane_exp_map_of_a_tangent_past_sinh_overflow():
    """A speed past 710 overflows sinh: x takes its limit from c - r tanh(s1)."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((800.0, 0.0), (-800.0, 0.0), (800.0, 30.0)):
            x, y = man.exp_map(man.tangent(p, [a, b])).coords
            c, r = b / a, np.hypot(a, b) / abs(a)
            assert x == c - r * np.tanh(np.arcsinh(b / a) - np.sign(a) * np.hypot(a, b))
            assert y == np.finfo(float).tiny


def test_halfplane_vertical_geodesic():
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.7, 0.5]))
    o = man.point(np.array([0.7, 3.0]))
    curve = man.geodesic_between(p, o)
    for t in np.linspace(0.0, 1.0, 9):
        assert curve.position(t).coords[0] == 0.7
    assert abs(man.dist(p, o) - math.log(6.0)) <= 1e-12


# -- geodesics ---------------------------------------------------------------


def test_geodesic_endpoints_and_residual(manifold, rng):
    for _ in range(5):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        curve = manifold.geodesic_between(p, o)
        assert np.array_equal(curve.position(0.0).coords, p.coords)
        assert np.max(np.abs(curve.position(1.0).coords - o.coords)) <= 1e-9
        assert curve.is_geodesic
        assert abs(curve.length - manifold.dist(p, o)) <= 1e-10
        # second-order coordinate acceleration check; finite differences
        # bottom out around 1e-7 at step 1e-4
        assert rg.geodesic_residual(manifold, curve) <= 1e-6


def test_geodesic_speed_is_its_length(rng):
    """The contract closed-form transport divides by: a stock geodesic's
    g-speed at the 32 + 64 Gauss-Legendre nodes is its length, also for
    nearly coincident and nearly antipodal sphere pairs, on the half-plane's
    vertical ray and just either side of its vertical cutoff."""
    sphere = rg.make_manifold("sphere2")
    plane = rg.make_manifold("half_plane2")
    pairs = []
    for man in (rg.make_manifold("euclidean", dim=4), sphere, plane):
        pairs += [(man, man.random_point(rng), man.random_point(rng)) for _ in range(4)]
    for _ in range(3):
        p = sphere.random_point(rng)
        u = random_unit_tangent(sphere, p, rng)
        near = sphere.exp_map(u * 1e-8)
        # sqrt(2e-8) rad short of the antipode, 1 + cos(p, o) = 1e-8
        far = sphere.exp_map(u * (math.pi - math.sqrt(2e-8)))
        assert abs(1.0 + float(p.coords @ far.coords) - 1e-8) <= 1e-11
        pairs += [(sphere, p, near), (sphere, p, far)]
    p = plane.point(np.array([0.3, 0.5]))
    # the cutoff is relative to the largest coordinate, here 4
    for scale in (0.0, 0.9, 1.1):
        o = plane.point(np.array([0.3 + scale * VERTICAL_CUTOFF * 4.0, 4.0]))
        vertical = plane.geodesic_between(p, o).position(0.5).coords[0] == 0.3
        assert vertical == (scale < 1.0)
        pairs.append((plane, p, o))
    ts = np.concatenate([rg.DEFAULT_QUADRATURE.nodes_weights(n)[0] for n in (32, 64)])
    for man, p, o in pairs:
        curve = man.geodesic_between(p, o)
        P, V = curve.positions(ts), curve.velocities(ts)
        speed = np.sqrt(np.sum(man.lower(P, V) * V, axis=1))
        assert_close_rel(speed, np.full(len(ts), curve.length), 1e-12)


def halfplane_x_oracle(p, q, ts):
    """x along the half-plane geodesic from p to q at the parameters ts, in
    60-digit decimals: the semicircle's centre c and radius r, s running
    linearly from asinh((c - xp) / yp) to asinh((c - xq) / yq), and
    x = c - r tanh(s), whose cancellation costs nothing at this precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        (xp, yp), (xq, yq) = ([Decimal(float(v)) for v in point] for point in (p, q))
        c = (xp + xq) / 2 + (yq - yp) * (yq + yp) / (2 * (xq - xp))
        r = ((xp - c) ** 2 + yp**2).sqrt()

        def asinh(z):
            return (z.copy_abs() + (z * z + 1).sqrt()).ln().copy_sign(z)

        sp, sq = asinh((c - xp) / yp), asinh((c - xq) / yq)
        xs = []
        for t in ts:
            e = (2 * (sp + Decimal(float(t)) * (sq - sp))).exp()
            xs.append(float(c - r * (e - 1) / (e + 1)))
    return np.array(xs)


def test_near_vertical_halfplane_geodesic_stays_on_its_path(rng):
    """Just above the vertical cutoff the semicircle's centre and radius grow
    like 1 / offset; x must still follow the path, not their cancellation.
    Random pairs, far from the cutoff, follow it to rounding."""
    plane = rg.make_manifold("half_plane2")
    p = plane.point(np.array([0.3, 0.5]))
    ts = rg.DEFAULT_QUADRATURE.nodes_weights(32)[0]
    pairs = [(p, plane.random_point(rng), 1e-14) for _ in range(5)]
    for scale in (1.1, 10.0, 1e3, 1e5):
        o = plane.point(np.array([0.3 + scale * VERTICAL_CUTOFF * 4.0, 4.0]))
        pairs.append((p, o, 1e-12))
        if scale == 1.1:
            x = plane.geodesic_between(p, o).positions(ts)[:, 0]
            assert np.max(np.abs(x - 0.3)) <= 1e-12
    for p, o, tol in pairs:
        x = plane.geodesic_between(p, o).positions(ts)[:, 0]
        assert np.max(np.abs(x - halfplane_x_oracle(p.coords, o.coords, ts))) <= tol


def builtin_curves(rng):
    """Every kind of curve the package builds: latitude loops, geodesics (the
    half-plane's vertical and semicircular ones), and constant curves."""
    sphere = rg.make_manifold("sphere2")
    plane = rg.make_manifold("half_plane2")
    flat = rg.make_manifold("euclidean", dim=4)
    curves = [sphere.latitude_loop(0.7), sphere.latitude_loop(2.9)]
    for man in (flat, sphere, plane):
        p = man.random_point(rng)
        curves += [man.geodesic_between(p, man.random_point(rng)), man.geodesic_between(p, p)]
    p = sphere.random_point(rng)
    curves.append(sphere.geodesic_between(p, sphere.exp_map(random_unit_tangent(sphere, p, rng) * 1e-8)))
    p = plane.point(np.array([0.3, 0.5]))
    curves.append(plane.geodesic_between(p, plane.point(np.array([0.3, 4.0]))))
    return curves


def test_builtin_curves_evaluate_arrays_like_the_scalar_loop(rng):
    ts = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 20)])
    for curve in builtin_curves(rng):
        positions = curve.positions(ts)
        velocities = curve.velocities(ts)
        assert positions.shape == velocities.shape == (ts.size, curve.manifold.coord_dim)
        assert_close_rel(positions, [curve.position(t).coords for t in ts])
        assert_close_rel(velocities, [curve.velocity(t).components for t in ts])
        for k in (0, 2):  # t = 0, given alone and inside the grid
            assert np.array_equal(positions[k], curve.start.coords)
            assert np.array_equal(curve.position(0.0).coords, curve.start.coords)
        if curve.is_geodesic:
            for k in (1, 10):
                assert np.array_equal(positions[k], curve.end.coords)
            assert np.array_equal(curve.position(1.0).coords, curve.end.coords)


def test_flat_geodesic_residual_keeps_its_value(rng):
    """On euclidean:64 the residual skips the zero Christoffel contraction;
    the value must be the full formula's, evaluated here sample by sample."""
    man = rg.make_manifold("euclidean", dim=64)
    curve = man.geodesic_between(man.random_point(rng), man.random_point(rng))
    h = 1e-4
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 17):
        if t - h < 0.0 or t + h > 1.0:
            continue
        x0, xm, xp = (curve.position(s).coords for s in (t, t - h, t + h))
        vel = (xp - xm) / (2.0 * h)
        acc = (xp - 2.0 * x0 + xm) / h**2
        gamma = np.zeros((64, 64, 64))
        defect = acc + np.einsum("kij,i,j->k", gamma, vel, vel)
        worst = max(worst, float(np.linalg.norm(defect)))
    assert rg.geodesic_residual(man, curve) == worst


def test_geodesic_residual_matches_the_sample_loop(rng):
    """Batched residual against one sample at a time, on geodesics of every
    geometry, both latitude loops (a nonzero defect) and zero-length
    geodesics."""
    for curve in builtin_curves(rng):
        expected = loop_geodesic_residual(curve.manifold, curve)
        assert_close_rel(rg.geodesic_residual(curve.manifold, curve), expected)
        if not curve.is_geodesic:  # the latitude loops
            assert expected > 1.0


def rotated(curve, matrix):
    """The curve moved by the sphere rotation with the given matrix."""
    return dataclasses.replace(
        curve,
        position_fn=lambda t: curve.position_fn(t) @ matrix.T,
        velocity_fn=lambda t: curve.velocity_fn(t) @ matrix.T,
        start=rg.Point(matrix @ curve.start.coords),
        end=rg.Point(matrix @ curve.end.coords),
    )


@pytest.mark.parametrize("colatitude", [0.3, 0.7, 1.2, 2.6, 2.9])
def test_latitude_loop_defect_is_its_curvature_times_speed_squared(colatitude, rng):
    """The loop at colatitude theta has speed 2 pi sin(theta) and geodesic
    curvature |cot(theta)|, so its defect is 4 pi^2 sin(theta) |cos(theta)|;
    a rotation of the sphere leaves the defect unchanged."""
    sphere = rg.make_manifold("sphere2")
    loop = sphere.latitude_loop(colatitude)
    expected = 4.0 * math.pi**2 * math.sin(colatitude) * abs(math.cos(colatitude))
    assert_close_rel(rg.geodesic_residual(sphere, loop), expected, rel=1e-6)
    turned = rotated(loop, rg.random_isometry(sphere, rng).matrix)
    assert_close_rel(rg.geodesic_residual(sphere, turned), expected, rel=1e-6)


def test_geodesic_acceleration_matches_the_built_in_geodesics(rng):
    """On every geometry, a central difference of a built-in geodesic's
    analytic velocity is the acceleration the geodesic equation gives.  The
    step is 1e-5 in arc length, which keeps both the truncation and the
    rounding error near 1e-11 relative, also on the 1e-8 long geodesic."""
    ts = np.linspace(0.1, 0.9, 9)
    for curve in builtin_curves(rng):
        if not curve.is_geodesic:
            continue
        actual = curve.manifold.geodesic_acceleration(curve.positions(ts), curve.velocities(ts))
        assert actual.shape == (ts.size, curve.manifold.coord_dim)
        if curve.length == 0.0:
            assert np.array_equal(actual, np.zeros_like(actual))
            continue
        h = 1e-5 / curve.length
        expected = (curve.velocities(ts + h) - curve.velocities(ts - h)) / (2.0 * h)
        assert_close_rel(actual, expected, rel=1e-6)


def test_geodesic_residual_without_interior_samples_is_zero(rng):
    for curve in builtin_curves(rng):
        assert rg.geodesic_residual(curve.manifold, curve, samples=2) == 0.0


def test_geodesic_residual_stencil_keeps_its_bits(rng):
    """The cached stencil gives the residual of building the sample times on
    every call (linspace, mask, concatenate, split), bit for bit; the cached
    times are read-only."""

    def per_call(manifold, curve, samples, h):
        ts = np.linspace(0.0, 1.0, samples)
        ts = ts[(ts - h >= 0.0) & (ts + h <= 1.0)]
        if not ts.size:
            return 0.0
        x0, xm, xp = np.split(curve.positions(np.concatenate([ts, ts - h, ts + h])), 3)
        defect = (xp - 2.0 * x0 + xm) / h**2
        defect = defect - manifold.geodesic_acceleration(x0, (xp - xm) / (2.0 * h))
        squares = defect[:, None, :] @ defect[:, :, None]
        return float(np.sqrt(np.max(squares)))

    for curve in builtin_curves(rng):
        for samples, h in ((17, 1e-4), (5, 0.3), (2, 1e-4), (33, 0.5)):
            expected = per_call(curve.manifold, curve, samples, h)
            assert rg.geodesic_residual(curve.manifold, curve, samples, h) == expected
    times = diagnostics._stencil_times(17, 1e-4)
    assert not times.flags.writeable
    assert times is diagnostics._stencil_times(17, 1e-4)


def test_lower_matches_the_metric_matrix(manifold, rng):
    P = np.array([manifold.random_point(rng).coords for _ in range(9)])
    V = np.array([manifold.random_tangent(rg.Point(x), rng).components for x in P])
    expected = np.array([manifold.metric_at(rg.Point(x)) @ v for x, v in zip(P, V)])
    assert_close_rel(manifold.lower(P, V), expected)


def _closed_form_metric(manifold, p):
    """Each manifold's metric matrix written out on its own."""
    if manifold.kind == "euclidean":
        return np.eye(manifold.dim)
    if manifold.kind == "sphere2":
        return np.eye(3) - np.outer(p.coords, p.coords)
    return np.eye(2) / float(p.coords[1]) ** 2


def test_metric_at_is_lower_of_the_coordinate_vectors_bit_for_bit(manifold, rng):
    """The one metric formula, ``lower``, gives the closed forms' bits, and
    the identity charts read the same matrix."""
    points = [manifold.random_point(rng) for _ in range(50)]
    if manifold.kind == "half_plane2":
        points.append(manifold.point(np.array([0.3, 1e-7])))
    for p in points:
        g = manifold.metric_at(p)
        assert np.array_equal(g, _closed_form_metric(manifold, p))
        if manifold.kind != "sphere2":
            assert np.array_equal(manifold.chart_for_curve([p]).metric(p.coords), g)
    for cls in (rg.Euclidean, rg.Sphere2, rg.HalfPlane2):
        assert "metric_at" not in cls.__dict__, cls.__name__


def test_geodesic_speed_is_constant(manifold, rng):
    p = manifold.random_point(rng)
    o = manifold.random_point(rng)
    curve = manifold.geodesic_between(p, o)
    assert constant_speed_defect(manifold, curve) <= 1e-9 * (1.0 + curve.length)


def test_shooting_solver_cross_checks_log_map(manifold, rng):
    """Two independent routes to the initial velocity must agree.

    The boundary-value solver iterates on the exponential map only; the
    closed-form logarithm never enters it.
    """
    for _ in range(8):
        p = manifold.random_point(rng)
        o = manifold.random_point(rng)
        result = shoot_geodesic(manifold, p, o)
        assert isinstance(result, ShootingResult)
        assert result.converged
        direct = manifold.log_map(p, o)
        gap = np.max(np.abs(result.velocity.components - direct.components))
        assert gap <= 1e-7 * (1.0 + np.max(np.abs(direct.components)))


# -- charts ------------------------------------------------------------------


def test_sphere_chart_roundtrip_and_fd_christoffel():
    man = rg.make_manifold("sphere2")
    p = man.point(np.array([0.6, 0.64, np.sqrt(1 - 0.6**2 - 0.64**2)]))
    chart = man.chart_for_curve([p])
    x = chart.to_chart(p)
    back = chart.from_chart(x)
    assert np.max(np.abs(back.coords - p.coords)) <= 1e-12
    assert np.max(np.abs(fd_christoffel(chart, x) - chart.christoffel(x))) <= 1e-6


def test_halfplane_fd_christoffel():
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.4, 1.3]))
    chart = man.chart_for_curve([p])
    x = chart.to_chart(p)
    assert np.max(np.abs(fd_christoffel(chart, x) - chart.christoffel(x))) <= 1e-6


def test_sphere_chart_push_pull_inverse(rng):
    man = rg.make_manifold("sphere2")
    for _ in range(5):
        p = man.random_point(rng)
        chart = man.chart_for_curve([p])
        u = man.random_tangent(p, rng)
        w = chart.pull(p, u.components)
        back = chart.push(chart.to_chart(p), w)
        assert np.max(np.abs(back - u.components)) <= 1e-9 * (1.0 + np.max(np.abs(u.components)))


def tilted_curve_chart(rng):
    """The curve chart of a random great circle, whose pole lies off every
    coordinate axis, and points on the sphere from 0.1 rad to pi - 0.1 rad
    away from that pole."""
    man = rg.make_manifold("sphere2")
    circle = man.geodesic_between(man.random_point(rng), man.random_point(rng))
    chart = man.chart_for_curve([circle.position(t) for t in np.linspace(0.0, 1.0, 65)])
    assert np.min(np.abs(chart.pole)) > 1e-3
    colatitudes = np.concatenate([[0.1, math.pi - 0.1], rng.uniform(0.1, math.pi - 0.1, 14)])
    phis = rng.uniform(-math.pi, math.pi, len(colatitudes))
    return chart, [chart.from_chart(np.array(x)) for x in zip(colatitudes, phis)]


def test_batched_chart_formulas_match_the_scalar_loop(rng):
    """The charts' array formulas against Chart's defaults, which loop over
    to_chart, pull, christoffel, metric and push one point at a time.  The
    scaled input moves the tilted points off the unit sphere by a factor
    1 + 1e-7, which the charts read as the points' directions.  The frames of
    ``orthonormal_rows`` are g-orthonormal."""
    for kind in ("sphere2", "half_plane2", "sphere2", "tilted", "scaled"):
        if kind in ("tilted", "scaled"):
            man = rg.make_manifold("sphere2")
            chart, points = tilted_curve_chart(rng)
        else:
            man = rg.make_manifold(kind)
            chart = man.chart_for_curve([man.random_point(rng)])
            points = [man.random_point(rng) for _ in range(16)]
        if kind == "sphere2":  # stay clear of the chart's poles
            points = [p for p in points if 0.1 <= chart.to_chart(p)[0] <= math.pi - 0.1]
        P = np.array([p.coords for p in points])
        V = np.array([man.random_tangent(p, rng).components for p in points])
        if kind == "scaled":
            P = P * (1.0 + 1e-7)
        assert_close_rel(chart.transport_matrices(P, V), Chart.transport_matrices(chart, P, V))
        assert_close_rel(chart.coordinate_basis(P), Chart.coordinate_basis(chart, P))
        F = chart.orthonormal_rows(P)
        assert_close_rel(F, Chart.orthonormal_rows(chart, P))
        assert_close_rel(chart.connection_forms(P, V), Chart.connection_forms(chart, P, V))
        G = np.array([chart.metric(chart.to_chart(p)) for p in points])
        assert np.max(np.abs(F @ G @ F.transpose(0, 2, 1) - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("colatitude", [0.3, 0.8, 1.2, 2.6])
def test_sphere_connection_form_on_latitude_loops(colatitude):
    """In the chart poled on the loop's axis theta is constant and phi' = 2 pi,
    so omega = cos(theta) phi' = 2 pi cos(theta) all the way round."""
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(colatitude)
    chart = SphericalChart(np.array([0.0, 0.0, 1.0]))
    ts = np.linspace(0.0, 1.0, 33)
    omega = chart.connection_forms(loop.positions(ts), loop.velocities(ts))
    assert np.max(np.abs(omega - 2.0 * math.pi * math.cos(colatitude))) <= 1e-12


def test_sphere_curve_chart_keeps_margin_from_pole(rng):
    man = rg.make_manifold("sphere2")
    for _ in range(5):
        p = man.random_point(rng)
        q = man.random_point(rng)
        if man.dist(p, q) > 2.9:
            continue
        curve = man.geodesic_between(p, q)
        samples = [curve.position(t) for t in np.linspace(0.0, 1.0, 65)]
        chart = man.chart_for_curve(samples)
        for s in samples:
            colat = chart.to_chart(s)[0]
            assert 0.1 <= colat <= math.pi - 0.1


# -- isometries --------------------------------------------------------------


def test_euclidean_motion_preserves_distance(rng):
    man = rg.make_manifold("euclidean", dim=4)
    iso = rg.random_isometry(man, rng)
    for _ in range(10):
        p = man.random_point(rng)
        q = man.random_point(rng)
        assert abs(man.dist(iso.apply(p), iso.apply(q)) - man.dist(p, q)) <= 1e-10


def test_sphere_rotation_preserves_distance(rng):
    man = rg.make_manifold("sphere2")
    iso = rg.random_isometry(man, rng)
    for _ in range(10):
        p = man.random_point(rng)
        q = man.random_point(rng)
        assert abs(man.dist(iso.apply(p), iso.apply(q)) - man.dist(p, q)) <= 1e-9


def test_moebius_preserves_distance(rng):
    man = rg.make_manifold("half_plane2")
    iso = rg.random_isometry(man, rng)
    for _ in range(10):
        p = man.random_point(rng)
        q = man.random_point(rng)
        d0 = man.dist(p, q)
        d1 = man.dist(iso.apply(p), iso.apply(q))
        assert abs(d1 - d0) <= 1e-9 * (1.0 + d0)


def test_isometry_differential_matches_finite_difference(manifold, rng):
    iso = rg.random_isometry(manifold, rng)
    for _ in range(5):
        p = manifold.random_point(rng)
        u = random_unit_tangent(manifold, p, rng)
        h = 1e-6
        plus = iso.apply(manifold.exp_map(rg.TangentVector(p, h * u.components)))
        minus = iso.apply(manifold.exp_map(rg.TangentVector(p, -h * u.components)))
        fd = (plus.coords - minus.coords) / (2.0 * h)
        push = iso.differential(u)
        assert np.max(np.abs(fd - push.components)) <= 1e-5


def test_isometry_differential_preserves_norm(manifold, rng):
    iso = rg.random_isometry(manifold, rng)
    for _ in range(5):
        p = manifold.random_point(rng)
        u = manifold.random_tangent(p, rng)
        assert abs(manifold.norm(iso.differential(u)) - manifold.norm(u)) <= 1e-9


def test_push_frame_stays_orthonormal(manifold, rng):
    iso = rg.random_isometry(manifold, rng)
    p = manifold.random_point(rng)
    moved = iso.push_frame(manifold.orthonormal_frame(p))
    manifold.validate_frame(moved)


def test_coordinate_swap():
    man = rg.make_manifold("euclidean", dim=3)
    swap = rg.coordinate_swap(man, 0, 1)
    p = man.point(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(swap.apply(p).coords, np.array([2.0, 1.0, 3.0]))
    assert np.array_equal(swap.inverse().apply(swap.apply(p)).coords, p.coords)


def test_invalid_isometries_rejected():
    plane = rg.make_manifold("euclidean", dim=2)
    with pytest.raises(rg.InvalidIsometry):
        rg.EuclideanMotion(plane, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(rg.InvalidIsometry):
        rg.SphereRotation(rg.make_manifold("sphere2"), np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(rg.InvalidIsometry):
        rg.MoebiusMap(rg.make_manifold("half_plane2"), 2.0, 0.0, 0.0, 1.0)


def test_moebius_inverse_composes_to_identity(rng):
    man = rg.make_manifold("half_plane2")
    iso = rg.random_isometry(man, rng)
    inv = iso.inverse()
    p = man.random_point(rng)
    back = inv.apply(iso.apply(p))
    assert np.max(np.abs(back.coords - p.coords)) <= 1e-10


def _reference_image(iso, x):
    """The map on one point, by each family's per-point formula."""
    if isinstance(iso, rg.MoebiusMap):
        z = complex(x[0], x[1])
        w = (iso.a * z + iso.b) / (iso.c * z + iso.d)
        return np.array([w.real, w.imag])
    if isinstance(iso, rg.SphereRotation):
        return iso.matrix @ x
    return iso.matrix @ x + iso.offset


def _reference_push(iso, x, v):
    """The map's derivative on one tangent vector at x, per point."""
    if isinstance(iso, rg.MoebiusMap):
        z = complex(x[0], x[1])
        w = complex(v[0], v[1]) / (iso.c * z + iso.d) ** 2
        return np.array([w.real, w.imag])
    w = iso.matrix @ v
    if isinstance(iso, rg.SphereRotation):
        y = iso.matrix @ x
        return w - np.dot(y, w) * y
    return w


def test_isometry_row_methods_match_the_point_formulas(manifold, rng):
    P = np.array([manifold.random_point(rng).coords for _ in range(64)])
    V = np.array([manifold.random_tangent(rg.Point(x), rng).components for x in P])
    for _ in range(5):
        iso = rg.random_isometry(manifold, rng)
        for m in (iso, iso.inverse()):
            images = m.apply_rows(P)
            pushed = m.differential_rows(P, V)
            assert_close_rel(images, [_reference_image(m, x) for x in P])
            assert_close_rel(pushed, [_reference_push(m, x, v) for x, v in zip(P, V)])
            for x, v, y, w in zip(P, V, images, pushed):
                moved = m.differential(rg.TangentVector(rg.Point(x), v))
                assert_close_rel(m.apply(rg.Point(x)).coords, y)
                assert_close_rel(moved.base.coords, y)
                assert_close_rel(moved.components, w)


def test_apply_rows_rejects_rows_as_point_does(manifold, rng):
    iso = rg.random_isometry(manifold, rng)
    good = manifold.random_point(rng).coords
    bad = [np.full_like(good, np.nan), np.concatenate([[np.inf], good[1:]])]
    if manifold.kind == "sphere2":
        bad.append(1.1 * good)
    if manifold.kind == "half_plane2":
        bad.append(np.array([good[0], -good[1]]))  # maps to the lower half-plane
    for row in bad:
        with pytest.raises(rg.InvalidPoint):
            manifold.point(_reference_image(iso, row))
        with pytest.raises(rg.InvalidPoint):
            iso.apply_rows(np.array([good, row]))
    if manifold.kind == "sphere2":  # off by less than 1e-9: renormalised, as point does
        near = (1.0 + 1e-11) * good
        image = iso.apply_rows(near[None, :])[0]
        assert_close_rel(image, manifold.point(_reference_image(iso, near)).coords)
        assert abs(np.linalg.norm(image) - 1.0) <= 1e-15


def test_raise_gradients_match_the_point_raise(manifold, rng):
    P = np.array([manifold.random_point(rng).coords for _ in range(32)])
    G = rng.standard_normal(P.shape)
    U = np.array([manifold.random_tangent(rg.Point(x), rng).components for x in P])
    raised = manifold.raise_gradients(P, G)
    loop = [manifold.raise_gradient(rg.Point(x), g).components for x, g in zip(P, G)]
    assert_close_rel(raised, loop)
    # the defining property: g(raised, u) equals G . u for every tangent u
    pairing = [r @ manifold.metric_at(rg.Point(x)) @ u for x, r, u in zip(P, raised, U)]
    assert_close_rel(pairing, np.sum(G * U, axis=1))


# -- configuration -----------------------------------------------------------


def test_make_manifold_validation():
    with pytest.raises(rg.ParseError):
        rg.make_manifold("euclidean")  # needs a dimension
    with pytest.raises(rg.ParseError):
        rg.make_manifold("sphere2", dim=4)
    with pytest.raises(rg.ParseError):
        rg.make_manifold("torus")


def test_manifold_dict_roundtrip():
    for kind, dim in (("euclidean", 5), ("sphere2", 2), ("half_plane2", 2)):
        blob = rg.manifold_to_dict(rg.make_manifold(kind, dim))
        assert blob == {"kind": kind, "dim": dim}
        again = rg.manifold_from_dict(blob)
        assert (again.kind, again.dim) == (kind, dim)


@pytest.mark.parametrize("bvp_tol", [math.nan, math.inf, -1e-9, 1e-10])
def test_manifold_config_rejects_a_non_finite_bvp_tol(tmp_path, bvp_tol):
    """Manifold files hold kind and dim only: a bvp_tol key is refused."""
    with pytest.raises(rg.ParseError, match=r"unknown manifold config keys: \['bvp_tol'\]"):
        rg.manifold_from_dict({"kind": "sphere2", "bvp_tol": bvp_tol})
    path = tmp_path / "man.json"
    path.write_text(f'{{"kind": "sphere2", "bvp_tol": {json.dumps(bvp_tol)}}}')
    with pytest.raises(rg.ParseError, match="bvp_tol"):
        rg.manifold_from_file(path)
    with pytest.raises(TypeError):
        rg.Sphere2(bvp_tol=bvp_tol)


@pytest.mark.parametrize("steps", [0, -5, True, 2.5, 256])
def test_manifold_config_rejects_a_bad_transport_steps(steps):
    """The RK4 starting step count is not a manifold setting: the key is refused."""
    with pytest.raises(
        rg.ParseError, match=r"unknown manifold config keys: \['transport_steps'\]"
    ):
        rg.manifold_from_dict({"kind": "sphere2", "transport_steps": steps})


def test_manifold_constructor_rejects_a_step_count_below_one():
    for make in (rg.Sphere2, rg.HalfPlane2, lambda **kw: rg.Euclidean(3, **kw)):
        with pytest.raises(TypeError):
            make(transport_steps=0)
    with pytest.raises(TypeError):
        rg.make_manifold("sphere2", None, 256)


@pytest.mark.parametrize("dim", [2.5, 3.7, True, "3", None])
def test_euclidean_dimension_must_be_an_integer(dim):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        rg.Euclidean(dim)
    if dim is not None:
        with pytest.raises(ValueError, match="dimension must be an integer"):
            rg.make_manifold("euclidean", dim)
    assert rg.Euclidean(np.int64(3)).dim == 3


def test_manifold_from_dict_rejects_garbage():
    with pytest.raises(rg.ParseError):
        rg.manifold_from_dict({"kind": "sphere2", "wobble": 3})
    with pytest.raises(rg.ParseError):
        rg.manifold_from_dict({"dim": 2})
    with pytest.raises(rg.ParseError):
        rg.manifold_from_dict({"kind": "euclidean", "dim": "four"})
