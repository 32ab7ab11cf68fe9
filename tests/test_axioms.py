"""Certification harness: check specs, individual checks, suites."""

import math

import numpy as np
import pytest

import rigrad as rg
from rigrad import attribution, axioms


def test_default_seed_constant():
    # the three bytes spell the method initials
    assert rg.DEFAULT_SEED == 0x524947


def test_spec_validation():
    with pytest.raises(rg.ParseError):
        rg.AxiomCheckSpec(axiom="Monotonicity", tolerance=1e-8, trials=5)
    with pytest.raises(rg.ParseError):
        rg.AxiomCheckSpec(axiom="Linearity", tolerance=0.0, trials=5)
    with pytest.raises(rg.ParseError):
        rg.AxiomCheckSpec(axiom="Linearity", tolerance=1e-8, trials=0)


def test_spec_needs_a_sample():
    with pytest.raises(rg.ParseError, match="samples"):
        rg.AxiomCheckSpec(axiom="EigenBound", tolerance=1e-8, trials=5, samples=0)


@pytest.mark.parametrize("fields, message", [
    ({"manifold_kind": "torus"}, "unknown manifold kind 'torus'"),
    ({"dim": 0}, "dimension must be at least 1, got 0"),
    ({"axiom": "SymmetryInvariance", "manifold_kind": "sphere2"}, "flat space only"),
    ({"axiom": "EuclideanRestriction", "manifold_kind": "half_plane2"}, "flat-space methods"),
])
def test_spec_refuses_what_no_check_can_run(fields, message):
    """Each refusal comes at construction, before any check of a suite runs."""
    with pytest.raises(rg.ParseError, match=message):
        rg.AxiomCheckSpec(**{"axiom": "Linearity", "tolerance": 1e-9, "trials": 2, **fields})
    # dim is read on flat space only
    rg.AxiomCheckSpec("Linearity", 1e-9, 2, manifold_kind="sphere2", dim=0)


@pytest.mark.parametrize("fields, message", [
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": True}, "trials must be an integer"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"samples": 10.0}, "samples must be an integer"),
    ({"dim": 4.0}, "dim must be an integer"),
    ({"dim": "4", "manifold_kind": "sphere2"}, "dim must be an integer"),
    ({"tolerance": "1e-6"}, "tolerance must be a real number, got '1e-6'"),
    ({"tolerance": True}, "tolerance must be a real number"),
])
def test_spec_refuses_values_of_the_wrong_type(fields, message):
    """Built directly, a spec refuses what suite_from_dict refuses in a
    config, naming the field, rather than truncating it or failing inside a
    check."""
    with pytest.raises(rg.ParseError, match=message):
        rg.AxiomCheckSpec(**{"axiom": "Sensitivity", "tolerance": 1e-12, "trials": 2, **fields})
    spec = rg.AxiomCheckSpec("Sensitivity", np.float64(1e-12), np.int64(2), seed=np.int64(5))
    assert spec.trials == 2 and spec.seed == 5


def test_axiom_names_are_stable():
    assert rg.AXIOMS == (
        "Implementation",
        "Linearity",
        "Sensitivity",
        "SymmetryInvariance",
        "Completeness",
        "IsometryInvariance",
        "EuclideanRestriction",
        "EigenBound",
    )


@pytest.mark.parametrize("kind", ["euclidean", "sphere2", "half_plane2"])
@pytest.mark.parametrize(
    "axiom,tolerance",
    [
        ("Implementation", 1e-10),
        ("Linearity", 1e-9),
        ("Sensitivity", 1e-12),
        ("Completeness", 1e-6),
        ("EigenBound", 1e-10),
    ],
)
def test_checks_pass_everywhere(axiom, tolerance, kind):
    spec = rg.AxiomCheckSpec(
        axiom=axiom, tolerance=tolerance, trials=3, manifold_kind=kind, samples=2000
    )
    report = rg.run_check(spec)
    assert report.passed, (report.max_residual, report.notes[:2])
    assert len(report.residuals) >= 3


@pytest.mark.parametrize("kind,tolerance", [
    ("euclidean", 1e-10),
    ("sphere2", 1e-7),
    ("half_plane2", 1e-7),
])
def test_isometry_invariance_check(kind, tolerance):
    spec = rg.AxiomCheckSpec(
        axiom="IsometryInvariance", tolerance=tolerance, trials=4, manifold_kind=kind
    )
    report = rg.run_check(spec)
    assert report.passed, report.max_residual


def test_symmetry_invariance_is_flat_space_only():
    with pytest.raises(rg.ParseError, match="flat space only"):
        rg.AxiomCheckSpec(
            axiom="SymmetryInvariance", tolerance=1e-8, trials=3, manifold_kind="sphere2"
        )
    flat = rg.AxiomCheckSpec(axiom="SymmetryInvariance", tolerance=1e-8, trials=4)
    assert rg.run_check(flat).passed


def test_euclidean_restriction_check():
    spec = rg.AxiomCheckSpec(axiom="EuclideanRestriction", tolerance=1e-8, trials=10)
    report = rg.run_check(spec)
    assert report.passed
    assert len(report.residuals) == 10


def test_check_is_bitwise_reproducible():
    spec = rg.AxiomCheckSpec(
        axiom="Completeness", tolerance=1e-6, trials=4, manifold_kind="half_plane2"
    )
    a = rg.run_check(spec)
    b = rg.run_check(spec)
    assert a.residuals == b.residuals
    assert a.max_residual == b.max_residual


def test_different_seeds_draw_different_instances():
    base = rg.AxiomCheckSpec(axiom="Linearity", tolerance=1e-9, trials=3)
    other = rg.AxiomCheckSpec(axiom="Linearity", tolerance=1e-9, trials=3, seed=99)
    assert rg.run_check(base).residuals != rg.run_check(other).residuals


def test_impossible_tolerance_fails_honestly():
    spec = rg.AxiomCheckSpec(
        axiom="Completeness",
        tolerance=1e-300,
        trials=6,
        manifold_kind="sphere2",
    )
    report = rg.run_check(spec)
    assert not report.passed
    assert report.max_residual > 1e-300


def test_default_suite_shape():
    specs = rg.default_suite()
    assert len(specs) == 20
    axioms = {s.axiom for s in specs}
    assert axioms == set(rg.AXIOMS)
    # flat-only checks stay on flat space
    for s in specs:
        if s.axiom in ("SymmetryInvariance", "EuclideanRestriction"):
            assert s.manifold_kind == "euclidean"


def test_run_suite_keeps_spec_order():
    specs = [
        rg.AxiomCheckSpec(axiom="Sensitivity", tolerance=1e-12, trials=2),
        rg.AxiomCheckSpec(axiom="Linearity", tolerance=1e-9, trials=2),
    ]
    reports = rg.run_suite(specs)
    assert [r.spec.axiom for r in reports] == ["Sensitivity", "Linearity"]


def test_suite_from_dict():
    config = {
        "checks": [
            {"axiom": "Linearity", "tolerance": 1e-9, "trials": 5},
            {
                "axiom": "Completeness",
                "tolerance": 1e-6,
                "trials": 4,
                "manifold": "sphere2",
                "seed": 7,
            },
        ]
    }
    specs = rg.suite_from_dict(config)
    assert len(specs) == 2
    assert specs[1].manifold_kind == "sphere2"
    assert specs[1].seed == 7


def test_suite_from_dict_rejects_bad_documents():
    with pytest.raises(rg.ParseError, match="no checks configured"):
        rg.suite_from_dict({"checks": []})
    with pytest.raises(rg.ParseError):
        rg.suite_from_dict({"checks": [{"axiom": "Linearity"}]})
    with pytest.raises(rg.ParseError):
        rg.suite_from_dict(
            {"checks": [{"axiom": "Linearity", "tolerance": 1e-9, "trials": 2, "nope": 1}]}
        )
    with pytest.raises(rg.ParseError):
        rg.suite_from_dict({})


@pytest.mark.parametrize("key, value", [
    ("tolerance", float("inf")),
    ("tolerance", float("nan")),
    ("trials", float("inf")),
    ("samples", float("nan")),
])
def test_suite_from_dict_rejects_non_finite_numbers(key, value):
    check = {"axiom": "EigenBound", "tolerance": 1e-9, "trials": 2}
    check[key] = value
    with pytest.raises(rg.ParseError):
        rg.suite_from_dict({"checks": [check]})


@pytest.mark.parametrize("key, value", [
    ("trials", 2.9),
    ("trials", True),
    ("trials", "5"),
    ("seed", 1.5),
    ("samples", 10.7),
    ("dim", 4.9),
    ("tolerance", "1e-6"),
    ("tolerance", True),
])
def test_suite_from_dict_refuses_values_of_the_wrong_type(key, value):
    """A config value that is not of its key's type is refused, naming the
    key, rather than truncated or converted."""
    check = {"axiom": "EigenBound", "tolerance": 1e-9, "trials": 2}
    check[key] = value
    with pytest.raises(rg.ParseError, match=f"check 0 {key} must be"):
        rg.suite_from_dict({"checks": [check]})


def test_a_negative_seed_is_refused():
    with pytest.raises(rg.ParseError, match="seed must be non-negative, got -1"):
        rg.AxiomCheckSpec("Linearity", 1e-9, 2, seed=-1)
    with pytest.raises(rg.ParseError, match="seed must be non-negative"):
        rg.suite_from_dict({"checks": [{"axiom": "Linearity", "tolerance": 1e-9, "trials": 2, "seed": -1}]})
    with pytest.raises(rg.ParseError, match="seed must be non-negative"):
        rg.default_suite(-1)
    assert rg.AxiomCheckSpec("Linearity", 1e-9, 2, seed=0).seed == 0


def test_report_records_trial_notes():
    spec = rg.AxiomCheckSpec(
        axiom="Implementation", tolerance=1e-10, trials=2, manifold_kind="euclidean"
    )
    report = rg.run_check(spec)
    assert len(report.notes) == len(report.residuals)
    assert all(isinstance(n, str) and n for n in report.notes)


@pytest.mark.parametrize("axiom", ["Linearity", "Implementation"])
def test_one_trial_builds_its_path_once(monkeypatch, manifold, axiom):
    """The fields of one trial share the geodesic, its transport and its
    defect check."""
    calls = {"geodesic": 0, "transport": 0, "defect": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    cls = type(manifold)
    monkeypatch.setattr(cls, "make_geodesic", counting("geodesic", cls.make_geodesic))
    monkeypatch.setattr(
        attribution, "transport_frame", counting("transport", attribution.transport_frame)
    )
    monkeypatch.setattr(
        attribution, "geodesic_residual", counting("defect", attribution.geodesic_residual)
    )
    spec = rg.AxiomCheckSpec(axiom, 1e-9, 1, manifold_kind=manifold.kind)
    report = rg.run_check(spec)
    assert report.passed and report.aborted == 0
    assert calls == {"geodesic": 1, "transport": 1, "defect": 1}


EDGE_VECTORS = [
    [-0.0], [-0.0, 0.0], [1.0, -1.0], [-1.0, 0.5, 1.0], [1.2e-4], [1.2e-4, 0.1],
    [1.2e-4, 1.0], [9.9999e-5, 1.0], [0.5, 500.0], [0.5, 500.1], [1e8], [99999999.0, 1.0],
    [1e8, -1.0], [math.nan, 1.0], [math.inf, -1.0], [-math.inf], [0.0, math.nan],
    [9.99995, -0.99995, 0.12345], [123.45675, -0.001], [1e-300, 1.0], [5e-324],
    list(np.linspace(-7.0, 7.0, 12)), list(np.linspace(-0.3, 0.3, 20)), [],
]


@pytest.mark.parametrize("coords", EDGE_VECTORS)
def test_trial_note_coordinates_are_array2string_text(coords):
    v = np.array(coords, dtype=float)
    with np.errstate(all="ignore"):
        assert axioms._coords_text(v) == np.array2string(v, precision=4)
    with np.printoptions(sign="+", floatmode="fixed", linewidth=30), np.errstate(all="ignore"):
        assert axioms._coords_text(v) == np.array2string(v, precision=4)


@pytest.mark.parametrize("seed", [rg.DEFAULT_SEED, 7])
def test_stock_suite_notes_are_array2string_text(monkeypatch, seed):
    """Every coordinate vector the stock suite writes into a note reads as
    numpy's own array2string text."""
    seen = []
    direct = axioms._coords_text

    def checked(v):
        text = direct(v)
        seen.append(text == np.array2string(v, precision=4))
        return text

    monkeypatch.setattr(axioms, "_coords_text", checked)
    rg.run_suite(rg.default_suite(seed))
    assert len(seen) >= 700 and all(seen)
