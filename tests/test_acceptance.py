"""Certification gate.

One test per advertised guarantee, each measured at its stated tolerance.
Every test records a summary line through ``record_criterion`` before
asserting, so the terminal report always carries one PASS/FAIL line per
criterion with the measured numbers.
"""

import math

import numpy as np
import pytest

import rigrad as rg
from rigrad.manifolds import ode_transport, transport_along

from conftest import record_criterion


def haar_frame(manifold, p, generator):
    """Random g-orthonormal frame at p (QR of a Gaussian coefficient matrix)."""
    reference = manifold.orthonormal_frame(p)
    q, r = np.linalg.qr(generator.standard_normal((manifold.dim, manifold.dim)))
    q = q * np.sign(np.diag(r))
    comps = q.T @ reference.rows
    vectors = tuple(rg.TangentVector(p, row) for row in comps)
    return rg.OrthonormalFrame(p, vectors)


def draw_pair(manifold, generator, attempts=20):
    """A point pair admitting a unique minimising geodesic."""
    for _ in range(attempts):
        p = manifold.random_point(generator)
        o = manifold.random_point(generator)
        try:
            manifold.log_map(p, o)
        except rg.CutLocusAmbiguity:
            continue
        return p, o
    raise AssertionError("could not draw a regular point pair")


# -- 1: flat space, both methods agree ---------------------------------------


def test_flat_space_methods_agree():
    """100 random networks and point pairs in dimensions 2 through 8: the
    geodesic method and the straight-line method give the same per-direction
    values in a shared random orthonormal basis."""
    generator = np.random.default_rng(rg.DEFAULT_SEED)
    worst = 0.0
    for _ in range(100):
        dim = int(generator.integers(2, 9))
        man = rg.make_manifold("euclidean", dim=dim)
        hidden = tuple(int(generator.integers(1, 17)) for _ in range(2))
        field = rg.MLPField(man, rg.random_mlp(dim, hidden, generator))
        x = man.point(generator.standard_normal(dim))
        x_prime = man.point(generator.standard_normal(dim))
        basis = haar_frame(man, x, generator)
        geodesic = rg.rig(field, man, x, x_prime, basis)
        straight = rg.ig(field, x, x_prime, basis)
        gap = float(np.max(np.abs(geodesic.attributions - straight.attributions)))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    record_criterion(
        "1 flat-space agreement",
        ok,
        f"max per-direction gap {worst:.3e} over 100 instances (tol 1e-08)",
    )
    assert ok, f"flat-space methods disagree by {worst:.3e}"


# -- 2: attributions telescope, and the residual shrinks with nodes ----------


def completeness_matrix():
    """The 3 x 2 manifold/field grid used for the telescoping check."""
    euclidean = rg.make_manifold("euclidean", dim=4)
    sphere = rg.make_manifold("sphere2")
    half_plane = rg.make_manifold("half_plane2")
    seed_rng = np.random.default_rng(rg.DEFAULT_SEED + 2)
    bump_center = euclidean.point(np.array([0.5, -0.25, 0.0, 1.0]))
    return [
        (euclidean, rg.MLPField(euclidean, rg.random_mlp(4, (8, 6), seed_rng))),
        (euclidean, rg.GaussianBumpField(euclidean, bump_center, width=2.0)),
        (sphere, rg.MLPField(sphere, rg.random_mlp(3, (8, 6), seed_rng))),
        (sphere, rg.CoordinateField(sphere, 2)),
        (half_plane, rg.MLPField(half_plane, rg.random_mlp(2, (8, 6), seed_rng))),
        (half_plane, rg.LogHeightField(half_plane)),
    ]


def test_attribution_sums_telescope_to_value_gap():
    """Per-direction values sum to F(p) - F(o) at default quadrature, over
    20 point pairs for each of the six manifold/field combinations; and on a
    deliberately rough instance the residual collapses by more than 10x when
    the node count is raised from 8 to 32."""
    generator = np.random.default_rng(rg.DEFAULT_SEED + 2)
    worst = 0.0
    for man, field in completeness_matrix():
        for _ in range(20):
            p, o = draw_pair(man, generator)
            report = rg.rig(field, man, p, o, man.orthonormal_frame(p))
            worst = max(worst, report.completeness_residual)
    telescoping_ok = worst <= 1e-6

    # rough pre-asymptotic instance: a wide random network on the half-plane
    man = rg.make_manifold("half_plane2")
    weights = rg.random_mlp(2, (8, 6), np.random.default_rng(11), scale=2.0)
    field = rg.MLPField(man, weights)
    p = man.point(np.array([-2.0, 0.2]))
    o = man.point(np.array([2.5, 3.0]))
    frame = man.orthonormal_frame(p)
    coarse = rg.rig(field, man, p, o, frame, rg.Quadrature(nodes=8, refine=False))
    fine = rg.rig(field, man, p, o, frame, rg.Quadrature(nodes=32, refine=False))
    ratio = coarse.completeness_residual / fine.completeness_residual
    shrink_ok = ratio >= 10.0

    ok = telescoping_ok and shrink_ok
    record_criterion(
        "2 completeness",
        ok,
        f"max residual {worst:.3e} over 120 pairs (tol 1e-06); "
        f"8->32 node shrink factor {ratio:.1f} (needs >= 10)",
    )
    assert telescoping_ok, f"telescoping residual {worst:.3e} exceeds 1e-6"
    assert shrink_ok, f"shrink factor {ratio:.2f} below 10"


# -- 3: isometries preserve the full matrices --------------------------------


def test_isometries_preserve_attribution_matrices():
    """Rigid motions, rotations and Moebius maps leave every matrix entry in
    place, at per-geometry tolerances, 20 trials each."""
    specs = [
        rg.AxiomCheckSpec("IsometryInvariance", 1e-10, 20, rg.DEFAULT_SEED, "euclidean"),
        rg.AxiomCheckSpec("IsometryInvariance", 1e-7, 20, rg.DEFAULT_SEED, "sphere2"),
        rg.AxiomCheckSpec("IsometryInvariance", 1e-7, 20, rg.DEFAULT_SEED, "half_plane2"),
    ]
    reports = [rg.run_check(spec) for spec in specs]
    ok = all(r.passed for r in reports)
    detail = "; ".join(
        f"{r.spec.manifold_kind} max {r.max_residual:.3e} (tol {r.spec.tolerance:.0e})"
        for r in reports
    )
    record_criterion("3 isometry invariance", ok, detail)
    for r in reports:
        assert r.passed, f"{r.spec.manifold_kind}: {r.max_residual:.3e} > {r.spec.tolerance}"


# -- 4: eigenframe consistency and the sharp bound ---------------------------


def eigen_instances():
    generator = np.random.default_rng(rg.DEFAULT_SEED + 4)
    out = []
    for kind in ("euclidean", "sphere2", "half_plane2"):
        man = rg.make_manifold(kind, dim=4 if kind == "euclidean" else None)
        field = rg.MLPField(man, rg.random_mlp(man.coord_dim, (8, 6), generator))
        p, o = draw_pair(man, generator)
        out.append((man, field, p, o))
    return out


def test_eigenframe_reproduces_eigenvalues_and_bound():
    """Re-running the method in the eigenframe returns the eigenvalues on the
    diagonal; the eigenvalues sum to F(p) - F(o); and over 10^4 random unit
    directions no quadratic-form value exceeds the top absolute eigenvalue."""
    relabel_worst = 0.0
    trace_worst = 0.0
    violations = 0
    for index, (man, field, p, o) in enumerate(eigen_instances()):
        matrix = rg.attribution_matrix(field, man, p, o, man.orthonormal_frame(p))
        eigen = rg.eigen_attributions(matrix)
        again = rg.attribution_matrix(field, man, p, o, eigen.frame)
        relabel_worst = max(
            relabel_worst,
            float(np.max(np.abs(np.diag(again.entries) - eigen.eigenvalues))),
        )
        gap = field.value(p) - field.value(o)
        trace_worst = max(trace_worst, abs(float(np.sum(eigen.eigenvalues)) - gap))
        bound = rg.attribution_bound_check(matrix, samples=10_000, seed=1000 + index)
        violations += bound.violations
    ok = relabel_worst <= 1e-8 and trace_worst <= 1e-6 and violations == 0
    record_criterion(
        "4 eigenframe + bound",
        ok,
        f"eigenvalue reproduction {relabel_worst:.3e} (tol 1e-08); "
        f"eigenvalue-sum residual {trace_worst:.3e} (tol 1e-06); "
        f"{violations} bound violations over 3x10^4 directions",
    )
    assert relabel_worst <= 1e-8
    assert trace_worst <= 1e-6
    assert violations == 0


# -- 5: geometry kernel ------------------------------------------------------


def exp_log_roundtrip_error():
    generator = np.random.default_rng(rg.DEFAULT_SEED + 5)
    worst = 0.0
    for kind in ("euclidean", "sphere2", "half_plane2"):
        man = rg.make_manifold(kind, dim=4 if kind == "euclidean" else None)
        for _ in range(50):
            p = man.random_point(generator)
            v = man.random_tangent(p, generator)
            norm = man.norm(v)
            if norm < 1e-9:
                continue
            # keep sphere shots inside the injectivity radius
            cap = 2.8 if kind == "sphere2" else 2.0
            v = rg.TangentVector(p, v.components * (cap * generator.uniform(0.05, 1.0) / norm))
            q = man.exp_map(v)
            back = man.log_map(p, q)
            worst = max(worst, float(np.max(np.abs(back.components - v.components))))
    return worst


def closed_form_isometry_error():
    generator = np.random.default_rng(rg.DEFAULT_SEED + 55)
    worst = 0.0
    for kind in ("sphere2", "half_plane2"):
        man = rg.make_manifold(kind)
        for _ in range(10):
            p, o = draw_pair(man, generator)
            curve = man.geodesic_between(p, o)
            frame = man.orthonormal_frame(p)
            results, mode, _ = transport_along(
                man, curve, frame.vectors, [0.25, 0.5, 1.0]
            )
            assert mode == "closed-form"
            for t, moved in zip([0.25, 0.5, 1.0], results):
                g = man.metric_at(curve.position(t))
                comps = np.array([w.components for w in moved])
                gram = comps @ g @ comps.T
                worst = max(worst, float(np.max(np.abs(gram - np.eye(man.dim)))))
    return worst


def ode_isometry_error():
    man = rg.make_manifold("sphere2")
    loop = man.latitude_loop(math.pi / 3.0)
    p = loop.position(0.0)
    frame = man.orthonormal_frame(p)
    samples = [loop.position(t) for t in np.linspace(0.0, 1.0, 65)]
    chart = man.chart_for_curve(samples)
    w0 = np.array([chart.pull(p, u.components) for u in frame.vectors])
    w1 = ode_transport(man, loop, w0, 0.0, 1.0, steps=256, chart=chart)
    end_chart = chart.to_chart(loop.position(1.0))
    comps = np.array([chart.push(end_chart, row) for row in w1])
    g = man.metric_at(loop.position(1.0))
    gram = comps @ g @ comps.T
    return float(np.max(np.abs(gram - np.eye(man.dim))))


def transport_order_and_holonomy():
    man = rg.make_manifold("sphere2")
    colat = math.pi / 3.0
    loop = man.latitude_loop(colat)
    p = loop.position(0.0)
    u = man.project_tangent(p, np.array([0.0, 0.0, -1.0]))
    u = rg.TangentVector(p, u.components / np.linalg.norm(u.components))
    samples = [loop.position(t) for t in np.linspace(0.0, 1.0, 65)]
    chart = man.chart_for_curve(samples)

    # a full loop at this colatitude rotates tangent vectors by half a turn
    exact = -u.components
    errors = []
    for steps in (8, 16, 32, 64):
        w0 = chart.pull(p, u.components)[None, :]
        w1 = ode_transport(man, loop, w0, 0.0, 1.0, steps=steps, chart=chart)
        ambient = chart.push(chart.to_chart(loop.position(1.0)), w1[0])
        errors.append(float(np.linalg.norm(ambient - exact)))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]

    results, _, _ = transport_along(man, loop, [u], [1.0])
    moved = results[0][0]
    cosang = float(
        np.dot(moved.components, u.components)
        / (np.linalg.norm(moved.components) * np.linalg.norm(u.components))
    )
    angle = math.acos(max(-1.0, min(1.0, cosang)))
    holonomy_gap = abs(angle - 2.0 * math.pi * (1.0 - math.cos(colat)))
    return min(orders), holonomy_gap


def test_geometry_kernel_tolerances():
    """Map round trips, transport isometry on both routes, integrator order,
    and the latitude-loop rotation angle."""
    roundtrip = exp_log_roundtrip_error()
    closed = closed_form_isometry_error()
    ode = ode_isometry_error()
    order, holonomy_gap = transport_order_and_holonomy()
    ok = (
        roundtrip <= 1e-8
        and closed <= 1e-8
        and ode <= 1e-5
        and order >= 1.9
        and holonomy_gap <= 1e-4
    )
    record_criterion(
        "5 geometry kernel",
        ok,
        f"exp/log round trip {roundtrip:.3e} (tol 1e-08); "
        f"closed-form transport gram error {closed:.3e} (tol 1e-08); "
        f"ODE-256 gram error {ode:.3e} (tol 1e-05); "
        f"step-doubling order {order:.2f} (needs >= 1.9); "
        f"loop angle gap {holonomy_gap:.3e} (tol 1e-04)",
    )
    assert roundtrip <= 1e-8
    assert closed <= 1e-8
    assert ode <= 1e-5
    assert order >= 1.9
    assert holonomy_gap <= 1e-4


# -- 6: behavioural axioms and the cut-locus refusal --------------------------


def test_axiom_drivers_pass_at_default_seed():
    """Implementation, linearity, sensitivity and symmetry drivers from the
    stock suite all pass at their shipped tolerances; attribution between an
    antipodal pair is refused on every attempt."""
    wanted = {"Implementation", "Linearity", "Sensitivity", "SymmetryInvariance"}
    specs = [s for s in rg.default_suite() if s.axiom in wanted]
    assert len(specs) == 10
    reports = [rg.run_check(spec) for spec in specs]
    drivers_ok = all(r.passed for r in reports)
    worst = max(r.max_residual for r in reports)

    man = rg.make_manifold("sphere2")
    p = man.point(np.array([0.0, 0.0, 1.0]))
    o = man.point(np.array([0.0, 0.0, -1.0]))
    refusals = 0
    for _ in range(3):
        with pytest.raises(rg.CutLocusAmbiguity):
            rg.rig(rg.CoordinateField(man, 2), man, p, o, man.orthonormal_frame(p))
        refusals += 1

    ok = drivers_ok and refusals == 3
    record_criterion(
        "6 axiom drivers",
        ok,
        f"{sum(r.passed for r in reports)}/10 drivers pass, "
        f"worst residual {worst:.3e}; antipodal refusal {refusals}/3",
    )
    for r in reports:
        assert r.passed, (
            f"{r.spec.axiom} on {r.spec.manifold_kind}: "
            f"{r.max_residual:.3e} > {r.spec.tolerance}"
        )
    assert refusals == 3


# -- 7: network gradients ------------------------------------------------------


def test_network_gradients_match_finite_differences():
    """Backpropagated directional derivatives agree with central differences
    along every frame direction, at 100 random points per geometry."""
    generator = np.random.default_rng(rg.DEFAULT_SEED + 7)
    h = 1e-5
    worst = 0.0
    for kind in ("euclidean", "sphere2", "half_plane2"):
        man = rg.make_manifold(kind, dim=4 if kind == "euclidean" else None)
        field = rg.MLPField(man, rg.random_mlp(man.coord_dim, (8, 6), generator))
        for _ in range(100):
            p = man.random_point(generator)
            frame = man.orthonormal_frame(p)
            analytic = np.array([field.differential(u) for u in frame.vectors])
            fd = np.empty(man.dim)
            for k, u in enumerate(frame.vectors):
                plus = field.value(man.exp_map(rg.TangentVector(p, h * u.components)))
                minus = field.value(man.exp_map(rg.TangentVector(p, -h * u.components)))
                fd[k] = (plus - minus) / (2.0 * h)
            rel = float(np.max(np.abs(fd - analytic)) / (1.0 + np.max(np.abs(analytic))))
            worst = max(worst, rel)
    ok = worst <= 1e-5
    record_criterion(
        "7 gradient gate",
        ok,
        f"max relative gradient error {worst:.3e} over 300 points (tol 1e-05)",
    )
    assert ok, f"gradient mismatch {worst:.3e}"
