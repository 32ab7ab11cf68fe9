"""Report serialization: exact float round-trips, CSV layout, atomic writes."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import rigrad as rg
from rigrad import report as report_io


@pytest.fixture
def sphere_report(rng):
    man = rg.make_manifold("sphere2")
    field = rg.MLPField(man, rg.random_mlp(3, (5, 4), rng))
    p = man.random_point(rng)
    o = man.random_point(rng)
    while man.dist(p, o) > 2.8:
        o = man.random_point(rng)
    return rg.eigen_rig(field, man, p, o, man.orthonormal_frame(p))


def test_json_roundtrip_is_exact(sphere_report, tmp_path):
    path = tmp_path / "report.json"
    report_io.write_attribution_json(sphere_report, path)
    back = report_io.read_attribution_json(path)
    assert back.method == sphere_report.method
    assert back.manifold_kind == sphere_report.manifold_kind
    assert np.array_equal(back.point.coords, sphere_report.point.coords)
    assert np.array_equal(back.attributions, sphere_report.attributions)
    assert np.array_equal(back.eigenvalues, sphere_report.eigenvalues)
    assert back.value_at_point == sphere_report.value_at_point
    assert back.completeness_residual == sphere_report.completeness_residual
    assert back.diagnostics.nodes_used == sphere_report.diagnostics.nodes_used
    assert back.diagnostics.geodesic_defect == sphere_report.diagnostics.geodesic_defect
    for mine, theirs in zip(back.frame.vectors, sphere_report.frame.vectors):
        assert np.array_equal(mine.components, theirs.components)


def test_csv_roundtrip_is_exact(sphere_report):
    text = report_io.attribution_report_csv(sphere_report)
    header = text.splitlines()[0].split(",")
    assert header[:3] == ["index", "attribution", "eigenvalue"]
    assert header[3:] == ["frame_0", "frame_1", "frame_2"]
    rows = report_io.parse_attribution_csv(text)
    assert len(rows) == 2
    for i, row in enumerate(rows):
        assert row["index"] == i
        assert row["attribution"] == float(sphere_report.attributions[i])
        assert row["eigenvalue"] == float(sphere_report.eigenvalues[i])
        assert row["frame"] == list(sphere_report.frame.vectors[i].components)


def test_csv_eigenvalue_column_empty_without_eigenframe(rng):
    man = rg.make_manifold("euclidean", dim=2)
    field = rg.AffineField(man, np.array([1.0, -2.0]))
    x = man.point(np.array([1.0, 1.0]))
    o = man.point(np.array([0.0, 0.0]))
    report = rg.ig(field, x, o, man.orthonormal_frame(x))
    rows = report_io.parse_attribution_csv(report_io.attribution_report_csv(report))
    assert all(row["eigenvalue"] is None for row in rows)


def test_malformed_documents_raise_parse_error(tmp_path):
    with pytest.raises(rg.ParseError):
        report_io.attribution_report_from_dict({"method": "RIG"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(rg.ParseError):
        report_io.read_attribution_json(bad)
    with pytest.raises(rg.ParseError):
        report_io.read_attribution_json(tmp_path / "missing.json")
    with pytest.raises(rg.ParseError):
        report_io.parse_attribution_csv("")


@pytest.mark.parametrize("frame", [[[0, 1, 0], [0, 0]], [[0, 1], [0, 0]], [0, 1, 0]])
def test_a_malformed_report_frame_raises_parse_error(sphere_report, frame):
    document = report_io.attribution_report_to_dict(sphere_report)
    document["frame"] = frame
    with pytest.raises(rg.ParseError, match="malformed attribution report"):
        report_io.attribution_report_from_dict(document)


def test_atomic_write_leaves_no_temp_files(sphere_report, tmp_path):
    path = tmp_path / "report.json"
    report_io.write_attribution_json(sphere_report, path)
    report_io.write_attribution_json(sphere_report, path)  # overwrite in place
    assert sorted(os.listdir(tmp_path)) == ["report.json"]
    json.loads(path.read_text())


def test_json_writers_reject_non_finite_numbers(sphere_report, tmp_path):
    """NaN and infinity are not JSON; nothing is written for them."""
    bad = dataclasses.replace(sphere_report, completeness_residual=math.nan)
    with pytest.raises(ValueError):
        report_io.write_attribution_json(bad, tmp_path / "report.json")
    with pytest.raises(ValueError):
        report_io.json_text({"value": math.inf})
    assert os.listdir(tmp_path) == []


def test_suite_json_carries_null_when_no_trial_completed(tmp_path):
    spec = rg.AxiomCheckSpec(axiom="Completeness", tolerance=1e-6, trials=2)
    aborted = rg.AxiomReport(spec, (), (), 20, math.inf, False)
    path = tmp_path / "suite.json"
    report_io.write_suite_json([aborted], path)
    data = json.loads(path.read_text())
    assert data["checks"][0]["max_residual"] is None
    assert data["passed"] is False


def test_suite_serialization(tmp_path):
    specs = [
        rg.AxiomCheckSpec(axiom="Sensitivity", tolerance=1e-12, trials=2),
        rg.AxiomCheckSpec(
            axiom="Completeness", tolerance=1e-6, trials=2, manifold_kind="half_plane2"
        ),
    ]
    reports = rg.run_suite(specs)
    path = tmp_path / "suite.json"
    report_io.write_suite_json(reports, path)
    data = json.loads(path.read_text())
    assert data["passed"] is True
    assert len(data["checks"]) == 2
    assert data["checks"][0]["axiom"] == "Sensitivity"
    assert data["checks"][1]["manifold"] == "half_plane2"
    assert len(data["checks"][1]["residuals"]) == 2

    csv_text = report_io.residuals_csv(reports[1])
    lines = csv_text.splitlines()
    assert lines[0] == "trial,residual,note"
    assert len(lines) == 3
    # residuals round-trip through their decimal form
    assert float(lines[1].split(",")[1]) == reports[1].residuals[0]


# -- the JSON writer against the stdlib's indented encoder ---------------------

_TEXTS = ["", "plain", "café", "∂f/∂x", "\U0001f600", 'say "hi"', "back\\slash",
          "tab\there\nnewline", "\x00\x01\x1f\x7f", "/"]
_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 0.1, 1e16]


def _random_document(rng, depth):
    """A random JSON-able value of the kinds reports hold, ``depth`` levels deep."""
    kind = int(rng.integers(12 if depth else 6))
    if kind == 0:
        return _TEXTS[rng.integers(len(_TEXTS))]
    if kind == 1:
        return [None, True, False][rng.integers(3)]
    if kind == 2:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.choice([1, 2**40]))
    if kind == 3:
        return _FLOATS[rng.integers(len(_FLOATS))]
    if kind == 4:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
    if kind == 5:
        return np.float64(rng.standard_normal())
    if kind == 6:  # plain floats only
        return [float(x) for x in rng.standard_normal(rng.integers(0, 6))]
    if kind == 7:  # numpy floats among plain ones
        return [np.float64(x) if rng.random() < 0.3 else float(x)
                for x in rng.standard_normal(rng.integers(1, 6))]
    size = int(rng.integers(0, 4))
    items = [_random_document(rng, depth - 1) for _ in range(size)]
    if kind == 8:
        return tuple(items)
    if kind == 9:
        return items
    return {_TEXTS[rng.integers(len(_TEXTS))] + str(i): item for i, item in enumerate(items)}


def _stdlib(value):
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def test_json_text_is_the_stdlib_indented_text():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        document = _random_document(rng, 4)
        assert report_io.json_text(document) == _stdlib(document)
    for edge in ([], {}, (), [[]], {"": {}}, [[1.0, 2.0], [3.0]], [1.0, 2, True, None]):
        assert report_io.json_text(edge) == _stdlib(edge)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_floats_like_the_stdlib(bad):
    for document in (bad, np.float64(bad), [1.0, bad, 2.0], [bad], {"a": [[0.5, bad]]},
                     [np.float64(1.0), bad], {"x": np.float64(bad)}):
        with pytest.raises(ValueError) as ours:
            report_io.json_text(document)
        with pytest.raises(ValueError) as theirs:
            _stdlib(document)
        assert str(ours.value) == str(theirs.value)


def test_json_text_refuses_what_json_cannot_hold():
    for document in (object(), np.int64(3), [1.0, np.bool_(True)], {"a": {1, 2}}, b"bytes"):
        with pytest.raises(TypeError):
            report_io.json_text(document)
        with pytest.raises(TypeError):
            _stdlib(document)
    with pytest.raises(TypeError):
        report_io.json_text({1: "keys must be str"})
