"""Geometry kernel tests: points, tangents, charts, geodesics, isometries."""

import dataclasses
import json
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import rigrad as rg
from rigrad.manifolds import Chart, diagnostics
from rigrad.manifolds.sphere import ANTIPODAL_SLACK, SphericalChart, _cross3

from conftest import (
    ScalarMethodsChart,
    assert_close_rel,
    loop_geodesic_residual,
    random_unit_tangent,
    sphere_chart_point,
)
from geodesic_oracles import (
    ShootingResult,
    constant_speed_defect,
    halfplane_decimal_dist,
    halfplane_geodesic_oracle,
    shoot_geodesic,
)


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
    """A custom manifold implements these abstract methods: no per-point
    chart, and tangent and project_tangent have defaults; every attribution
    builds a geodesic and checks it against the geodesic equation.  It builds
    geodesics from validated points; geodesic_between validates them first.
    A curved 2-manifold's make_geodesic also supplies the curve's frame_fn,
    which closed-form transport reads: there is no geodesic_normal."""
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
    assert not hasattr(rg.Manifold, "geodesic_normal")
    for kind in ("sphere2", "half_plane2"):
        man = rg.make_manifold(kind)
        p, o = man.random_point(np.random.default_rng(3)), man.random_point(np.random.default_rng(4))
        assert man.make_geodesic(p, o).frame_fn is not None
    flat = rg.make_manifold("euclidean", dim=2)
    assert flat.make_geodesic(flat.point([0.0, 0.0]), flat.point([1.0, 2.0])).frame_fn is None
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
        comps = frame.rows
        gram = comps @ manifold.metric_at(p) @ comps.T
        assert np.max(np.abs(gram - np.eye(manifold.dim))) <= 1e-10
        manifold.validate_frame(frame)


def test_validate_frame_rejects_scaled_vector(manifold, rng):
    p = manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    bad = rg.OrthonormalFrame(p, (frame.vectors[0] * 1.5,) + frame.vectors[1:])
    with pytest.raises(rg.InvalidTangent):
        manifold.validate_frame(bad)


@pytest.mark.parametrize("shape", [(2, 4), (3,), (1, 2, 3)])
def test_frame_rows_of_the_wrong_shape_are_refused(shape):
    p = rg.make_manifold("sphere2").point(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(rg.InvalidTangent, match=re.escape(f"shape {shape}")):
        rg.OrthonormalFrame(p, np.zeros(shape))


def test_frame_vector_at_another_point_is_refused():
    man = rg.make_manifold("sphere2")
    p, q = man.point(np.array([0.0, 0.0, 1.0])), man.point(np.array([0.0, 1.0, 0.0]))
    vectors = man.orthonormal_frame(p).vectors[:1] + man.orthonormal_frame(q).vectors[1:]
    with pytest.raises(rg.InvalidTangent, match="not based at the frame's point"):
        rg.OrthonormalFrame(p, vectors)


def test_an_empty_frame_has_no_rows(manifold, rng):
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    frame = rg.OrthonormalFrame(p, ())
    assert len(frame) == 0 and frame.rows.shape == (0, manifold.coord_dim)
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (4,), rng))
    with pytest.raises(rg.InvalidTangent, match="frame has 0 vectors"):
        rg.rig(field, manifold, p, o, frame)


def test_frame_rows_are_a_read_only_c_ordered_copy():
    man = rg.make_manifold("euclidean", dim=3)
    p = man.point(np.zeros(3))
    given = np.asfortranarray(np.eye(3)[[2, 0, 1]])
    frame = rg.OrthonormalFrame(p, given)
    given[0, 0] = 7.0
    assert np.array_equal(frame.rows, np.eye(3)[[2, 0, 1]])
    assert frame.rows.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        frame.rows[0, 0] = 7.0


def stacked_frame_vectors(manifold, p):
    """Per-vector reference formulas for the three stock frames."""
    if manifold.kind == "euclidean":
        return tuple(rg.TangentVector(p, e) for e in np.eye(manifold.dim))
    if manifold.kind == "half_plane2":
        y = float(p.coords[1])
        return (rg.TangentVector(p, np.array([y, 0.0])), rg.TangentVector(p, np.array([0.0, y])))
    drop = int(np.argmax(np.abs(p.coords)))
    vectors = []
    for i in range(3):
        if i == drop:
            continue
        e = np.zeros(3)
        e[i] = 1.0
        v = e - np.dot(e, p.coords) * p.coords
        for u in vectors:
            v = v - np.dot(v, u) * u
        v /= np.linalg.norm(v)
        vectors.append(v)
    return tuple(rg.TangentVector(p, v) for v in vectors)


def test_stock_frame_vectors_keep_their_bits(manifold, rng):
    points = [manifold.random_point(rng) for _ in range(20)]
    if manifold.kind == "sphere2":
        points += [manifold.point(np.roll([0.0, 0.0, s], k)) for k in range(3) for s in (1.0, -1.0)]
    for p in points:
        vectors = manifold.orthonormal_frame(p).vectors
        expected = stacked_frame_vectors(manifold, p)
        assert len(vectors) == len(expected)
        for mine, theirs in zip(vectors, expected):
            assert mine.base is p
            assert mine.components.tobytes() == theirs.components.tobytes()


def test_sphere_frame_keeps_the_loop_bits_near_every_axis():
    """Sphere2.orthonormal_frame's rows, byte for byte, against the per-vector
    Gram-Schmidt loop on 1000 random points and on points next to each axis,
    where the largest component, and so the axis left out, can change."""
    man = rg.make_manifold("sphere2")
    rng = np.random.default_rng(31)
    points = [man.random_point(rng) for _ in range(1000)]
    for axis in np.eye(3):
        for sign in (1.0, -1.0):
            for size in (0.0, 1e-300, 1e-12, 1e-8, 1e-3):
                v = sign * axis + size * rng.standard_normal(3)
                points.append(man.point(v / np.linalg.norm(v)))
    # ties between the two largest components
    points += [man.point(np.array(v) / np.linalg.norm(v)) for v in ([1, 1, 0], [0, -1, 1], [1, 1, 1])]
    for p in points:
        expected = np.array([v.components for v in stacked_frame_vectors(man, p)])
        assert man.orthonormal_frame(p).rows.tobytes() == expected.tobytes()


def test_a_nested_list_of_numbers_is_read_as_frame_rows():
    """A sequence of rows that are not TangentVectors is read as an array;
    anything that is not an array of numbers raises InvalidTangent."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 1.0]))
    frame = rg.OrthonormalFrame(p, [[1.0, 0.0], [0.0, 1.0]])
    assert frame.rows.tobytes() == np.eye(2).tobytes()
    assert np.array_equal(man.validate_frame(frame), np.eye(2))
    assert rg.OrthonormalFrame(p, ((0.0, 1.0),)).rows.shape == (1, 2)
    bad = [
        [[1.0, 0.0], [0.0]],  # ragged
        [["a", "b"], ["c", "d"]],
        [man.orthonormal_frame(p).vectors[0], [0.0, 1.0]],  # mixed
        "ab",
        [[1.0, 0.0, 0.0]],  # too wide
    ]
    for rows in bad:
        with pytest.raises(rg.InvalidTangent):
            rg.OrthonormalFrame(p, rows)


def _old_frame_gap(man, p, rows):
    """The frame check's gap as it was computed: the Gram matrix, through
    lower() everywhere but the half-plane's rows over y, minus np.eye."""
    with np.errstate(all="ignore"):
        if man.kind == "half_plane2":
            gram = man._frame_gram(p, rows)
        else:
            gram = rows @ man.lower(np.broadcast_to(p, rows.shape), rows).T
    return np.abs(gram - np.eye(man.dim)).max()


@pytest.mark.parametrize(
    "kind, dim", [("euclidean", 3), ("euclidean", 64), ("sphere2", None), ("half_plane2", None)]
)
def test_frame_gap_keeps_the_bits_of_the_identity_subtraction(monkeypatch, kind, dim):
    """validate_frame's gap, pinned through FRAME_TOL: a frame passes at a
    tolerance equal to the old formula's gap and fails one float below it,
    for random, slightly and grossly perturbed frames; a frame holding NaN
    or infinity raises NonFiniteValue, as the old gap was not finite."""
    from rigrad.manifolds import base

    man = rg.make_manifold(kind, dim=dim)
    draw = np.random.default_rng(7)
    for trial in range(12):
        p = man.random_point(draw)
        rows = man.orthonormal_frame(p).rows
        if man.kind == "euclidean":
            rows = rows @ np.linalg.qr(draw.standard_normal((man.dim, man.dim)))[0]
        noise = np.array([man.random_tangent(p, draw).components for _ in rows])
        rows = rows + [0.0, 1e-13, 1e-9, 0.3][trial % 4] * noise
        if trial % 3 == 2:
            bad = rows.copy()
            bad[trial % len(rows), 0] = [np.nan, np.inf, -np.inf][(trial // 3) % 3]
            assert not math.isfinite(_old_frame_gap(man, p.coords, bad))
            with pytest.raises(rg.NonFiniteValue):
                man.validate_frame(rg.OrthonormalFrame(p, bad))
        gap = float(_old_frame_gap(man, p.coords, rows))
        frame = rg.OrthonormalFrame(p, rows)
        monkeypatch.setattr(base, "FRAME_TOL", gap)
        assert man.validate_frame(frame) is frame.rows
        monkeypatch.setattr(base, "FRAME_TOL", np.nextafter(gap, -1.0))
        with pytest.raises(rg.InvalidTangent, match="not g-orthonormal"):
            man.validate_frame(frame)


@pytest.mark.parametrize("height", [1e-155, 1e-160, 1e-200, 1e-300])
def test_half_plane_frame_check_holds_where_y_squared_is_subnormal(height):
    """The half-plane's own frame passes validate_frame at every height, with
    no warning: the Gram matrix reads the rows over y, not lower()'s
    V / y**2, which is subnormal below y of about 1.5e-154 and 0 at 1e-200.
    A frame twice as long is still refused."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, height]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = man.orthonormal_frame(p)
        assert man.validate_frame(frame) is frame.rows
        with pytest.raises(rg.InvalidTangent, match="not g-orthonormal"):
            man.validate_frame(rg.OrthonormalFrame(p, 2.0 * frame.rows))


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
    for bit, on random, vertical, nearly vertical and coincident pairs."""
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
    and per manifold the rows where the construction is delicate.  On the
    half-plane: vertical rows and rows 1e-15 to 1e-12 of the coordinate scale
    off vertical.  On the sphere: rows 1e-12 from q."""
    q = man.random_point(rng).coords
    rows = [man.random_point(rng).coords for _ in range(2000)] + [q, q]
    if man.kind == "half_plane2":
        scale = max(abs(q[0]), q[1])
        offsets = (0.0, 1e-15 * q[0], 5e-14 * scale, 1.1e-13 * scale, 1e-12 * scale)
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
    """Each row's velocity is its geodesic's velocity_fn(0.0) and each length
    the geodesic's, bit for bit: the one-row construction and the walk at
    s = 0 round like the many-row call, over enough rows to meet rare
    roundings."""
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
    """At y = 1e-310 the length overflows to infinity and the velocity is NaN;
    only a NaN velocity at a finite length marks a row whose geodesic is not
    unique, so log_map returns the NaN rather than refusing.  At y = 1.5e308
    the length is finite and the velocity overflows to +inf and -inf: not
    refused either."""
    man = rg.make_manifold("half_plane2")
    p, q = man.point(np.array([0.0, 1e-310])), man.point(np.array([1.0, 1e-310]))
    assert np.isnan(man.log_map(p, q).components).all()
    assert man.dist(p, q) == math.inf
    p, q = man.point(np.array([0.0, 1.5e308])), man.point(np.array([1e308, 1.0]))
    assert man.log_map(p, q).components.tolist() == [math.inf, -math.inf]


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
    """exp_map walks the geodesic's formula, so half the log map lands on the
    geodesic's midpoint even when the pair is nearly vertical and the
    semicircle's centre is far away."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.3, 0.5]))
    for offset in (4e-12, 4e-10, 1e-3, 1.0):
        o = man.point(np.array([0.3 + offset, 4.0]))
        mid = man.exp_map(man.log_map(p, o) * 0.5).coords
        assert abs(mid[0] - man.geodesic_between(p, o).position(0.5).coords[0]) <= 4e-16


def halfplane_x_limit(p, a, b):
    """The x where the half-plane geodesic from p with tangent (a, b), a != 0,
    meets the axis, xp + yp (1 + sin) / cos = xp + yp a / (|(a, b)| - b), in
    60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        (xp, yp), a, b = (Decimal(float(v)) for v in p), Decimal(a), Decimal(b)
        return float(xp + yp * a / ((a * a + b * b).sqrt() - b))


def test_halfplane_exp_map_of_a_tangent_past_sinh_overflow():
    """A speed of 800 walks past where sinh and exp overflow: x is the limit
    where the geodesic meets the axis, to rounding."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((800.0, 0.0), (-800.0, 0.0), (800.0, 30.0), (-800.0, -30.0), (1e-300, -800.0)):
            x, y = man.exp_map(man.tangent(p, [a, b])).coords
            limit = halfplane_x_limit(p.coords, a, b)
            assert abs(x - limit) <= 4e-16 * abs(limit)
            assert y == np.finfo(float).tiny


def halfplane_exp_oracle(p, a, b):
    """(x, y) of the walk from p along the tangent (a, b), in 60-digit
    decimals: x_p + y_p cos sinh s / D and y_p / D, D = cosh s - sin sinh s."""
    with localcontext() as ctx:
        ctx.prec = 60
        (xp, yp), a, b = (Decimal(float(v)) for v in p), Decimal(a), Decimal(b)
        norm = (a * a + b * b).sqrt()
        s, cos, sin = norm / yp, a / norm, b / norm
        grow = s.exp()
        cosh, sinh = (grow + 1 / grow) / 2, (grow - 1 / grow) / 2
        denominator = cosh - sin * sinh
        return float(xp + yp * cos * sinh / denominator), float(yp / denominator)


@pytest.mark.parametrize(
    "p, a, b",
    [
        ((0.0, 1e300), 8e302, 3e301),
        ((0.0, 1e300), 7.1e302, 0.0),
        ((0.0, 1e300), 1e303, 9e302),
        ((2.0, 1e200), -9e202, -4e202),
        ((-1.0, 1e250), 3e252, -1.2e253),
        ((0.5, 1e10), 7.075e12, 2e11),
        ((0.5, 1e10), 7.0845e12, 2e11),
    ],
)
def test_halfplane_exp_map_past_the_underflow_of_exp_minus_s(p, a, b):
    """Past a speed of about 708 exp(-s) is no longer a normal float, yet y_p
    exp(-s) can be: from (0, 1e300) along (8e302, 3e301) y is 4.3e-48, not the
    smallest float.  x and y match the 60-digit walk to 1e-12 relative, the
    last two on both sides of the switch to y's logarithm, with no warning."""
    man = rg.make_manifold("half_plane2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = man.exp_map(man.tangent(man.point(np.array(p)), [a, b])).coords
    x_true, y_true = halfplane_exp_oracle(p, a, b)
    assert abs(x - x_true) <= 1e-15 * abs(x_true)
    assert abs(y - y_true) <= 1e-12 * y_true
    if p == (0.0, 1e300) and b == 3e301:
        assert 4.3e-48 < y < 4.4e-48


def test_halfplane_exp_map_stays_on_the_manifold():
    """Straight down, and down or sideways far enough that y underflows, exp_map
    clamps y to the smallest positive float; straight up past where y
    overflows it raises NonFiniteValue.  No warning either way."""
    man = rg.make_manifold("half_plane2")
    p = man.point(np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((0.0, -800.0), (1e-300, -800.0), (800.0, 30.0)):
            assert man.exp_map(man.tangent(p, [a, b])).coords[1] == np.finfo(float).tiny
        assert man.exp_map(man.tangent(p, [0.0, -800.0])).coords[0] == 0.0
        with pytest.raises(rg.NonFiniteValue, match="overflows"):
            man.exp_map(man.tangent(p, [0.0, 800.0]))


def test_halfplane_dist_of_a_nearly_coincident_pair():
    """Points 1e-14 apart are a distance 1.9984e-14 apart, not 0: dist, the
    log map's length and the geodesic's length, to 1e-12 of the 40-digit
    value."""
    man = rg.make_manifold("half_plane2")
    p, q = man.point(np.array([0.3, 0.5])), man.point(np.array([0.3 + 1e-14, 0.5]))
    exact = halfplane_decimal_dist(p.coords, q.coords)
    assert abs(exact - 1.9984e-14) <= 1e-18
    for length in (man.dist(p, q), man.norm(man.log_map(p, q)), man.geodesic_between(p, q).length):
        assert abs(length - exact) <= 1e-12 * exact


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
    vertical ray and just off it."""
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
    for offset in (0.0, 3.6e-13, 4.4e-13):
        o = plane.point(np.array([0.3 + offset, 4.0]))
        vertical = plane.geodesic_between(p, o).position(0.5).coords[0] == 0.3
        assert vertical == (offset == 0.0)
        pairs.append((plane, p, o))
    ts = np.concatenate([rg.DEFAULT_QUADRATURE.nodes_weights(n)[0] for n in (32, 64)])
    for man, p, o in pairs:
        curve = man.geodesic_between(p, o)
        P, V = curve.positions(ts), curve.velocities(ts)
        speed = np.sqrt(np.sum(man.lower(P, V) * V, axis=1))
        assert_close_rel(speed, np.full(len(ts), curve.length), 1e-12)


def test_near_vertical_halfplane_geodesic_stays_on_its_path(rng):
    """Nearly vertical pairs have a semicircle whose centre and radius grow
    like 1 / offset; x must still follow the path, not their cancellation.
    Random pairs follow it to rounding."""
    plane = rg.make_manifold("half_plane2")
    p = plane.point(np.array([0.3, 0.5]))
    ts = rg.DEFAULT_QUADRATURE.nodes_weights(32)[0]
    pairs = [(p, plane.random_point(rng), 1e-14) for _ in range(5)]
    for offset in (4.4e-13, 4e-12, 4e-10, 4e-8):
        o = plane.point(np.array([0.3 + offset, 4.0]))
        pairs.append((p, o, 1e-12))
        if offset == 4.4e-13:
            x = plane.geodesic_between(p, o).positions(ts)[:, 0]
            assert np.max(np.abs(x - 0.3)) <= 1e-12
    for p, o, tol in pairs:
        x = plane.geodesic_between(p, o).positions(ts)[:, 0]
        expected = halfplane_geodesic_oracle(p.coords, o.coords, ts)[0][:, 0]
        assert np.max(np.abs(x - expected)) <= tol


def nearly_vertical_pairs(plane, rng):
    """Pairs whose initial direction has sin within 1e-8 of +1 or -1, up to a
    distance of 30 apart."""
    pairs = []
    for sign in (1.0, -1.0):
        for _ in range(12):
            p = plane.random_point(rng)
            sin = sign * (1.0 - 10.0 ** rng.uniform(-16.0, -8.0))
            cos = rng.choice([-1.0, 1.0]) * math.sqrt((1.0 - abs(sin)) * (1.0 + abs(sin)))
            speed = p.coords[1] * rng.uniform(0.1, 30.0)
            q = plane.exp_map(plane.tangent(p, [speed * cos, speed * sin]))
            if q.coords[0] != p.coords[0]:
                pairs.append((p, q))
    return pairs


def test_halfplane_geodesic_matches_the_centre_and_radius_oracle(rng):
    """Nearly vertical geodesics, up to 30 long, follow the semicircle of the
    decimal oracle: positions and velocities to 1e-14 of each node's size.
    The vertical ray keeps x exactly."""
    plane = rg.make_manifold("half_plane2")
    ts = np.concatenate([rg.DEFAULT_QUADRATURE.nodes_weights(n)[0] for n in (32, 64)])
    for p, q in nearly_vertical_pairs(plane, rng):
        curve = plane.geodesic_between(p, q)
        for actual, expected in zip(
            (curve.positions(ts), curve.velocities(ts)), halfplane_geodesic_oracle(p.coords, q.coords, ts)
        ):
            gap = np.abs(actual - expected).max(axis=1)
            assert (gap <= 1e-14 * np.linalg.norm(expected, axis=1)).all()
    for _ in range(5):
        p, q = plane.random_point(rng), plane.random_point(rng)
        for y in (q.coords[1], 1e-3 * p.coords[1], 1e3 * p.coords[1]):
            curve = plane.geodesic_between(p, plane.point(np.array([p.coords[0], y])))
            assert (curve.positions(ts)[:, 0] == p.coords[0]).all()


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


def test_flat_points_1e200_apart_have_a_finite_length_and_defect():
    """The squares of a 1e200 coordinate gap overflow, so the segment's
    length and its geodesic defect take a scaled norm, with no numpy warning:
    the length is 3e200 exactly, and rig attributes the pair as in flat space."""
    man = rg.make_manifold("euclidean", dim=3)
    p, o = man.point(np.zeros(3)), man.point(np.array([1e200, -2e200, 2e200]))
    weights = np.array([0.3, -0.7, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = man.geodesic_between(p, o)
        report = rg.rig(rg.AffineField(man, weights), man, p, o, man.orthonormal_frame(p))
    assert curve.length == report.diagnostics.curve_length == 3e200
    assert math.isfinite(report.diagnostics.geodesic_defect)
    assert_close_rel(report.attributions, weights * (p.coords - o.coords))


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


def test_geodesic_residual_stencil_keeps_its_bits(rng):
    """The module's stencil gives the residual of building the sample times on
    every call (linspace, mask, concatenate, split) at 17 samples and
    h = 1e-4, bit for bit; the stencil times are read-only."""

    def per_call(manifold, curve, samples, h):
        ts = np.linspace(0.0, 1.0, samples)
        ts = ts[(ts - h >= 0.0) & (ts + h <= 1.0)]
        x0, xm, xp = np.split(curve.positions(np.concatenate([ts, ts - h, ts + h])), 3)
        defect = (xp - 2.0 * x0 + xm) / h**2
        defect = defect - manifold.geodesic_acceleration(x0, (xp - xm) / (2.0 * h))
        squares = defect[:, None, :] @ defect[:, :, None]
        return float(np.sqrt(np.max(squares)))

    assert (diagnostics.RESIDUAL_SAMPLES, diagnostics.RESIDUAL_STEP) == (17, 1e-4)
    for curve in builtin_curves(rng):
        expected = per_call(curve.manifold, curve, 17, 1e-4)
        assert rg.geodesic_residual(curve.manifold, curve) == expected
    assert not diagnostics._STENCIL_TIMES.flags.writeable


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
    back = sphere_chart_point(chart, x)
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
    """A spherical chart poled on the normal of a random great circle, off
    every coordinate axis, and points on the sphere from 0.1 rad to
    pi - 0.1 rad away from that pole."""
    man = rg.make_manifold("sphere2")
    chart = SphericalChart(np.cross(man.random_point(rng).coords, man.random_point(rng).coords))
    assert np.min(np.abs(chart.pole)) > 1e-3
    colatitudes = np.concatenate([[0.1, math.pi - 0.1], rng.uniform(0.1, math.pi - 0.1, 14)])
    phis = rng.uniform(-math.pi, math.pi, len(colatitudes))
    return chart, [sphere_chart_point(chart, x) for x in zip(colatitudes, phis)]


def test_unit_rotated_keeps_the_bits_of_the_summed_norm(rng):
    """``SphericalChart._unit_rotated`` adds the three squares by hand, with
    the bits of numpy's sum over the length-3 axis, at every scale."""
    chart = SphericalChart(rng.standard_normal(3))
    for scale in (1.0, 1e-3, 1e150, 1e-150):
        P = scale * rng.standard_normal((100_000, 3))
        q = P @ chart.rotation.T
        expected = q / np.sqrt(np.sum(q * q, axis=1))[:, None]
        assert chart._unit_rotated(P).tobytes() == expected.tobytes()


def assert_ambient_frames(man, chart, P, V, F):
    """F (K, 2, coord_dim) is g-orthonormal at P to 1e-14 and positively
    oriented in ``chart``, and each row v of V comes back from its
    coefficients C = v g F^T as C @ F, to 1e-14 relative."""
    lowered = man.lower(np.repeat(P, 2, axis=0), F.reshape(-1, P.shape[1])).reshape(F.shape)
    assert np.max(np.abs(F @ lowered.transpose(0, 2, 1) - np.eye(2))) <= 1e-14
    for p, frame in zip(P, F):
        assert np.linalg.det(chart.pull(rg.Point(p), frame)) > 0.0
    C = (V[:, None, :] @ lowered.transpose(0, 2, 1))[:, 0]
    assert_close_rel((C[:, None, :] @ F)[:, 0], V, 1e-14)


def test_batched_chart_formulas_match_the_scalar_loop(rng):
    """The charts' array formulas against Chart's defaults, which loop over
    to_chart, pull, christoffel, metric and push one point at a time.  The
    scaled input moves the tilted points off the unit sphere by a factor
    1 + 1e-7, which the charts read as the points' directions.  The frames of
    ``orthonormal_rows`` are g-orthonormal, and so are the ambient ``frames``,
    which agree with the default ``orthonormal_rows @ coordinate_basis`` to
    1e-14 relative."""
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
        frames = chart.frames(P)
        assert_close_rel(frames, Chart.frames(chart, P), 1e-14)
        for ambient in (frames, Chart.frames(chart, P)):
            assert_ambient_frames(man, chart, P, V, ambient)


FIXED_POLES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)]


@pytest.mark.parametrize("count", [1, 2, 3, 65])
def test_curve_chart_pole_is_the_farthest_fixed_pole(rng, count):
    """The sphere's curve chart is one of seven, poled on the coordinate axes
    and the cube diagonals (+-1, +-1, 1) / sqrt(3): the one whose pole is
    farthest from the samples, the least over the poles of the largest
    |s . pole|, the first of them on a tie; at 1 and 2 random samples and
    at 3 or 65 samples on great circles."""
    man = rg.make_manifold("sphere2")
    poles = [np.array(pole) / np.linalg.norm(pole) for pole in FIXED_POLES]
    for _ in range(10):
        if count < 3:
            samples = np.array([man.random_point(rng).coords for _ in range(count)])
        else:
            circle = man.geodesic_between(man.random_point(rng), man.random_point(rng))
            samples = circle.positions(np.linspace(0.0, 1.0, count))
        nearest = [max(abs(float(np.dot(s, pole))) for s in samples) for pole in poles]
        chart = man.chart_for_curve(samples)
        assert_close_rel(chart.pole, poles[nearest.index(min(nearest))], 1e-15)
        assert max(abs(float(np.dot(s, chart.pole))) for s in samples) <= math.cos(0.1)


def test_curve_charts_are_fixed_read_only_objects(rng):
    """Curves, and lists of Points, that pick the same pole get the same chart
    object, whose pole and rotation are read-only."""
    man = rg.make_manifold("sphere2")
    loops = [man.latitude_loop(colatitude).positions(np.linspace(0.0, 1.0, 33)) for colatitude in (1.1, 2.0)]
    chart = man.chart_for_curve(loops[0])
    assert man.chart_for_curve(loops[1]) is chart
    assert man.chart_for_curve([rg.Point(p) for p in loops[0]]) is chart
    assert np.array_equal(chart.pole, [0.0, 0.0, 1.0])
    for array in (chart.pole, chart.rotation):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_a_chart_with_scalar_methods_only_gets_the_same_frames(rng):
    """The default ``frames`` of a chart that implements only the scalar
    methods, on a tilted spherical chart and on the half-plane's, against the
    built-in charts' product formulas to 1e-14 relative: g-orthonormal,
    positively oriented, and reproducing tangent vectors from their
    coefficients."""
    sphere_chart, sphere_points = tilted_curve_chart(rng)
    plane = rg.make_manifold("half_plane2")
    plane_points = [plane.random_point(rng) for _ in range(16)]
    sphere = rg.make_manifold("sphere2")
    for man, chart, points in (
        (sphere, sphere_chart, sphere_points),
        (plane, plane.chart_for_curve(plane_points), plane_points),
    ):
        P = np.array([p.coords for p in points])
        V = np.array([man.random_tangent(p, rng).components for p in points])
        default = ScalarMethodsChart(chart)
        frames = default.frames(P)
        assert_close_rel(frames, chart.frames(P), 1e-14)
        assert_ambient_frames(man, default, P, V, frames)


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
