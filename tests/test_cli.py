"""Command-line behaviour: exit codes, output files, report content."""

import argparse
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import rigrad as rg
from rigrad import cli
from rigrad import report as report_io
from rigrad.errors import (
    CutLocusAmbiguity,
    QuadratureNotConverged,
    RigradError,
    TransportNotConverged,
)


def run_cli(*argv):
    buffer = io.StringIO()
    code = cli.main(list(argv), out=buffer)
    return code, buffer.getvalue()


def test_attribute_eigen_on_sphere_height_field():
    """Pole to equator, eigenframe: the eigenvalue sum telescopes the field."""
    code, output = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0", "--frame", "eigen",
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["method"] == "EigenRIG"
    assert abs(sum(payload["attributions"]) - 1.0) <= 1e-6
    assert abs(payload["value_at_point"] - 1.0) <= 1e-12
    assert abs(payload["value_at_base"]) <= 1e-12


def test_attribute_validates_each_point_twice(monkeypatch):
    """Once when the command parses it, once in the attribution kernel; the
    geodesic is built from the kernel's validated points."""
    calls = []
    point_rows = rg.Sphere2.point_rows

    def counted(self, P):
        calls.append(len(P))
        return point_rows(self, P)

    monkeypatch.setattr(rg.Sphere2, "point_rows", counted)
    code, _ = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0",
    )
    assert code == 0
    assert calls == [1, 1, 1, 1]


def test_attribute_equal_points_gives_zeros():
    code, output = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "0,0,1",
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["attributions"] == [0.0, 0.0]
    assert payload["completeness_residual"] == 0.0


def test_attribute_antipodal_exits_2(capsys):
    code, _ = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "0,0,-1",
    )
    assert code == 2
    assert "CutLocusAmbiguity" in capsys.readouterr().err


def test_attribute_writes_json_and_csv(tmp_path):
    out = tmp_path / "job"
    code, output = run_cli(
        "attribute", "--manifold", "half_plane2", "--field", "log_height",
        "--p", "0,2", "--o", "0,0.5", "--out", str(out),
    )
    assert code == 0
    report = report_io.read_attribution_json(out.with_suffix(".json"))
    rows = report_io.parse_attribution_csv(out.with_suffix(".csv").read_text())
    assert report.method == "RIG"
    assert rows[1]["attribution"] == float(report.attributions[1])
    assert abs(sum(r["attribution"] for r in rows) - np.log(4.0)) <= 1e-9


def test_attribute_csv_format_to_stdout():
    code, output = run_cli(
        "attribute", "--manifold", "euclidean", "--field", "affine:1,-2:0.5",
        "--p", "1,1", "--o", "0,0", "--format", "csv",
    )
    assert code == 0
    rows = report_io.parse_attribution_csv(output)
    assert [r["attribution"] for r in rows] == pytest.approx([1.0, -2.0], abs=1e-12)


def test_attribute_out_with_a_suffix_writes_both_files(tmp_path):
    code, output = run_cli(
        "attribute", "--manifold", "euclidean", "--field", "affine:1,-2:0.5",
        "--p", "1,1", "--o", "0,0", "--out", str(tmp_path / "name.json"),
    )
    assert code == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["name.csv", "name.json"]
    report = report_io.read_attribution_json(tmp_path / "name.json")
    rows = report_io.parse_attribution_csv((tmp_path / "name.csv").read_text())
    assert [r["attribution"] for r in rows] == [float(a) for a in report.attributions]
    assert output.startswith(f"wrote {tmp_path / 'name.json'} and {tmp_path / 'name.csv'}\n")


def test_quadrature_nodes_flag_sets_the_starting_rule():
    """From 8 nodes the rule doubles to 16 or 32; from the default 32 it
    cannot stop before 64."""
    flags = ("attribute", "--manifold", "half_plane2", "--field", "log_height",
             "--p", "0,2", "--o", "0,0.5")
    code, output = run_cli(*flags, "--quadrature-nodes", "8")
    assert code == 0
    payload = json.loads(output)
    assert payload["diagnostics"]["nodes_used"] in (16, 32)
    _, default = run_cli(*flags)
    assert payload["attributions"] == pytest.approx(
        json.loads(default)["attributions"], abs=1e-10
    )


def test_bump_field_takes_its_width():
    man = rg.make_manifold("sphere2")
    code, output = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "bump:0,0,1:0.5",
        "--p", "0.6,0,0.8", "--o", "0,0.6,-0.8",
    )
    assert code == 0
    payload = json.loads(output)
    bump = rg.GaussianBumpField(man, man.point(np.array([0.0, 0.0, 1.0])), 0.5)
    assert payload["value_at_point"] == bump.value(man.point(np.array([0.6, 0.0, 0.8])))
    assert payload["value_at_base"] == bump.value(man.point(np.array([0.0, 0.6, -0.8])))
    gap = payload["value_at_point"] - payload["value_at_base"]
    assert abs(sum(payload["attributions"]) - gap) <= 1e-9


def test_attribute_explicit_frame():
    s = 1.0 / np.sqrt(2.0)
    code, output = run_cli(
        "attribute", "--manifold", "euclidean", "--field", "affine:3,1",
        "--p", "2,0", "--o", "0,0",
        "--frame", f"{s},{s};{s},{-s}",
    )
    assert code == 0
    payload = json.loads(output)
    # diagonal entries of the form in the rotated basis sum to the same trace
    assert abs(sum(payload["attributions"]) - 6.0) <= 1e-9


def test_attribute_rejects_non_orthonormal_frame(capsys):
    code, _ = run_cli(
        "attribute", "--manifold", "euclidean", "--field", "affine:3,1",
        "--p", "2,0", "--o", "0,0", "--frame", "1,0;1,0",
    )
    assert code == 1
    assert "orthonormal" in capsys.readouterr().err


def test_sphere_point_normalization_tolerance(capsys):
    # within 1e-6 of unit: accepted and normalized
    code, output = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1.0000005", "--o", "1,0,0",
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["point"] == [0.0, 0.0, 1.0]
    # far from unit: rejected
    code, _ = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,0.5", "--o", "1,0,0",
    )
    assert code == 1
    assert "unit length" in capsys.readouterr().err


def test_mlp_field_via_weights_file(tmp_path, rng):
    weights = rg.random_mlp(3, (5,), rng)
    path = tmp_path / "net.json"
    rg.mlp_to_file(weights, path)
    code, output = run_cli(
        "attribute", "--manifold", "euclidean:3", "--field", "mlp",
        "--weights", str(path), "--p", "1,0,-1", "--o", "0,0,0",
    )
    assert code == 0
    payload = json.loads(output)
    man = rg.make_manifold("euclidean", dim=3)
    field = rg.MLPField(man, weights)
    assert payload["value_at_point"] == field.value(man.point(np.array([1.0, 0.0, -1.0])))


def test_mlp_field_requires_weights(capsys):
    code, _ = run_cli(
        "attribute", "--manifold", "euclidean:2", "--field", "mlp",
        "--p", "1,0", "--o", "0,0",
    )
    assert code == 1
    assert "--weights" in capsys.readouterr().err


def test_unresolvable_integrand_exits_3(tmp_path, capsys):
    """A tanh layer steep enough to act like a step keeps successive
    refinements apart, so the node budget runs out."""
    generator = np.random.default_rng(7)
    layers = (
        rg.LayerSpec(
            generator.standard_normal((24, 2)) * 4000,
            generator.standard_normal(24) * 30,
            "tanh",
        ),
        rg.LayerSpec(generator.standard_normal((1, 24)) * 5, np.zeros(1), "identity"),
    )
    path = tmp_path / "steep.json"
    rg.mlp_to_file(rg.MLPWeights(2, layers), path)
    code, _ = run_cli(
        "attribute", "--manifold", "euclidean:2", "--field", "mlp",
        "--weights", str(path), "--p", "2,1.5", "--o=-2,-1",
    )
    assert code == 3
    assert "QuadratureNotConverged" in capsys.readouterr().err


def test_transport_that_runs_out_of_steps_exits_3(monkeypatch, capsys):
    """The commands attribute along geodesics, whose transport is closed
    form, so the ODE route's error is raised here by a stand-in."""

    def out_of_steps(*args):
        raise TransportNotConverged("RK4 transport still moving")

    monkeypatch.setattr(cli, "rig", out_of_steps)
    code, _ = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0",
    )
    assert code == 3
    assert "TransportNotConverged: RK4 transport still moving" in capsys.readouterr().err


EXIT_CODES = {CutLocusAmbiguity: 2, QuadratureNotConverged: 3, TransportNotConverged: 3}


@pytest.mark.parametrize("error", RigradError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_rigrad_error_exits_with_its_code(monkeypatch, capsys, error):
    """A cut-locus ambiguity exits 2, an exhausted budget 3 and every other
    rigrad error 1, each named on stderr."""

    def failing(*args):
        raise error("raised by a stand-in")

    monkeypatch.setattr(cli, "rig", failing)
    code, _ = run_cli(
        "attribute", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0",
    )
    assert code == EXIT_CODES.get(error, 1)
    assert f"{error.__name__}: raised by a stand-in" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["separate", "joined"])
def test_points_may_start_with_a_minus_sign(spelling):
    points = {"--p": "-0.8,0.5", "--o": "-1,-2"}
    if spelling == "separate":
        flags = [token for flag, value in points.items() for token in (flag, value)]
    else:
        flags = [f"{flag}={value}" for flag, value in points.items()]
    code, output = run_cli(
        "attribute", "--manifold", "euclidean:2", "--field", "affine:1,2", *flags,
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["point"] == [-0.8, 0.5]
    assert payload["base_point"] == [-1.0, -2.0]
    assert np.allclose(payload["attributions"], [0.2, 5.0], atol=1e-12)


def test_unknown_field_and_bad_flags_exit_1(capsys):
    code, _ = run_cli(
        "attribute", "--manifold", "euclidean", "--field", "mystery",
        "--p", "1,0", "--o", "0,0",
    )
    assert code == 1
    code, _ = run_cli("attribute", "--manifold", "euclidean")
    assert code == 1
    code, _ = run_cli("frobnicate")
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--manifold", "euclidean:0", "--field", "height"],
        ["--manifold", "euclidean:x", "--field", "height"],
        ["--manifold", "euclidean:2", "--field", "bump:0,0:-1"],
        ["--manifold", "euclidean:2", "--field", "bump:0,0:x"],
        ["--manifold", "euclidean:2", "--field", "affine:1,2:x"],
    ],
)
def test_out_of_range_and_malformed_values_are_parse_errors(flags, capsys):
    """Values that the manifold or field constructors reject exit 1 with one
    ParseError line, not a traceback."""
    code, output = run_cli("attribute", *flags, "--p", "1,0", "--o", "0,1")
    assert code == 1
    assert output == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ParseError: ")


def test_manifold_config_file(tmp_path):
    config = tmp_path / "manifold.json"
    config.write_text(json.dumps({"kind": "euclidean", "dim": 3}))
    code, output = run_cli(
        "attribute", "--manifold", str(config), "--field", "coordinate:1",
        "--p", "0,2,0", "--o", "0,0,0",
    )
    assert code == 0
    assert abs(sum(json.loads(output)["attributions"]) - 2.0) <= 1e-9


def test_manifold_file_refuses_transport_steps_and_bvp_tol(tmp_path, capsys):
    """A manifold file holds kind and dim only."""
    config = tmp_path / "manifold.json"
    for extra in ({"bvp_tol": 1e-10}, {"transport_steps": 256, "bvp_tol": 1e-10}):
        config.write_text(json.dumps({"kind": "sphere2", **extra}))
        code, output = run_cli(
            "attribute", "--manifold", str(config), "--field", "height",
            "--p", "0,0,1", "--o", "1,0,0",
        )
        assert code == 1
        assert output == ""
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"ParseError: unknown manifold config keys: {sorted(extra)}"]


def test_manifold_file_with_a_step_count_below_one_is_a_parse_error(tmp_path, capsys):
    config = tmp_path / "manifold.json"
    config.write_text(json.dumps({"kind": "sphere2", "transport_steps": 0}))
    code, output = run_cli(
        "attribute", "--manifold", str(config), "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0",
    )
    assert code == 1
    assert output == ""
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["ParseError: unknown manifold config keys: ['transport_steps']"]


def test_compare_euclidean_prints_gap():
    code, output = run_cli(
        "compare", "--manifold", "euclidean:3", "--field", "affine:1,2,-1",
        "--p", "1,0,2", "--o", "0,1,0",
    )
    assert code == 0
    assert "max per-direction gap" in output
    gap = float(output.strip().splitlines()[-1].split(":")[1])
    assert gap <= 1e-8


def test_compare_curved_shows_both_frames():
    code, output = run_cli(
        "compare", "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0",
    )
    assert code == 0
    assert "default-frame" in output
    assert "eigenframe" in output
    lines = output.strip().splitlines()
    trace_gap = float(lines[-1].split(":")[1])
    assert trace_gap <= 1e-9


def test_compare_curved_writes_what_separate_calls_would(tmp_path):
    """One matrix serves both reports; the file is byte for byte the one two
    separate rig and eigen_rig calls would give."""
    man = rg.make_manifold("sphere2")
    weights = rg.random_mlp(3, (8, 8), np.random.default_rng(11))
    path = tmp_path / "net.json"
    rg.mlp_to_file(weights, path)
    out = tmp_path / "cmp.json"
    code, _ = run_cli(
        "compare", "--manifold", "sphere2", "--field", "mlp", "--weights", str(path),
        "--p", "0.6,0,0.8", "--o", "0,0.6,-0.8", "--out", str(out),
    )
    assert code == 0
    field = rg.MLPField(man, rg.mlp_from_file(path))
    p, o = man.point(np.array([0.6, 0.0, 0.8])), man.point(np.array([0.0, 0.6, -0.8]))
    frame = man.orthonormal_frame(p)
    separate = {
        "first": report_io.attribution_report_to_dict(rg.rig(field, man, p, o, frame)),
        "second": report_io.attribution_report_to_dict(rg.eigen_rig(field, man, p, o, frame)),
    }
    assert out.read_text() == report_io.json_text(separate)


def test_compare_refuses_the_format_flag(capsys):
    """compare prints a table whatever --format says, so it refuses the flag."""
    code, output = run_cli(
        "compare", "--manifold", "euclidean:3", "--field", "affine:1,2,-1",
        "--p", "1,0,2", "--o", "0,1,0", "--format", "csv",
    )
    assert code == 1
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith("ParseError: unrecognized arguments: --format csv")


@pytest.mark.parametrize(
    "command, flag",
    [("attribute", ["--transport-steps", "64"]), ("compare", ["--method", "ig"])],
    ids=["attribute-transport-steps", "compare-method"],
)
def test_flags_that_changed_no_output_are_refused(command, flag, capsys):
    """attribute and compare integrate along minimising geodesics, whose
    transport is closed form, so no RK4 step count reaches their output, and
    compare's methods follow from the manifold."""
    code, output = run_cli(
        command, "--manifold", "sphere2", "--field", "height",
        "--p", "0,0,1", "--o", "1,0,0", *flag,
    )
    assert code == 1
    assert output == ""
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"ParseError: unrecognized arguments: {' '.join(flag)}"]


def _subcommand_flags(name):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[name]._actions
    return {flag for a in actions for flag in a.option_strings if flag not in ("-h", "--help")}


def test_readme_flag_table_names_the_parser_flags():
    """README's table of the flags shared by attribute and compare names each
    flag both subcommands take; a row marked "attribute only" names one that
    attribute alone takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Flags shared by attribute and compare", 1)[1]
    rows = re.findall(r"^\| (`--.*?) \| (.*?) \|$", section.split("\n### ", 1)[0], re.M)
    shared, attribute_only = set(), set()
    for flags, meaning in rows:
        names = set(re.findall(r"`(--[a-z-]+)`", flags))
        (attribute_only if meaning.startswith("attribute only") else shared).update(names)
    attribute, compare = _subcommand_flags("attribute"), _subcommand_flags("compare")
    assert shared == attribute & compare
    assert attribute_only == attribute - compare
    assert compare <= attribute


def test_readme_config_documents_parse():
    """Each JSON example under README's "Config documents" parses with its
    library parser, so the docs drop a key when the parsers do."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config documents", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    parsers = (rg.manifold_from_dict, rg.mlp_from_dict, rg.suite_from_dict)
    assert len(blocks) == len(parsers)
    for parse, block in zip(parsers, blocks):
        parse(json.loads(block))


def test_verify_with_config_and_output_dir(tmp_path):
    config = tmp_path / "checks.json"
    config.write_text(json.dumps({
        "checks": [
            {"axiom": "Sensitivity", "tolerance": 1e-12, "trials": 3},
            {"axiom": "Completeness", "tolerance": 1e-6, "trials": 3,
             "manifold": "half_plane2"},
        ]
    }))
    outdir = tmp_path / "reports"
    code, output = run_cli(
        "verify", "--config", str(config), "--out", str(outdir)
    )
    assert code == 0
    assert output.count("[PASS]") == 2
    suite = json.loads((outdir / "suite.json").read_text())
    assert suite["passed"] is True
    csvs = sorted(p.name for p in outdir.glob("*.csv"))
    assert csvs == [
        "check_00_Sensitivity_euclidean.csv",
        "check_01_Completeness_half_plane2.csv",
    ]


def test_verify_empty_checks_exits_1(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"checks": []}))
    code, _ = run_cli("verify", "--config", str(config))
    assert code == 1
    assert "no checks configured" in capsys.readouterr().err


def test_verify_impossible_tolerance_reports_failures(tmp_path):
    config = tmp_path / "strict.json"
    config.write_text(json.dumps({
        "checks": [
            {"axiom": "Completeness", "tolerance": 1e-15, "trials": 20,
             "manifold": "sphere2"},
            {"axiom": "IsometryInvariance", "tolerance": 1e-15, "trials": 20,
             "manifold": "euclidean"},
        ]
    }))
    code, output = run_cli("verify", "--config", str(config))
    assert code == 1
    assert "[FAIL]" in output
    assert "failing checks" in output


@pytest.mark.parametrize("tolerance", ["Infinity", "NaN"])
def test_verify_rejects_a_non_finite_tolerance(tmp_path, capsys, tolerance):
    """An infinite tolerance would pass every check and NaN fail every one."""
    config = tmp_path / "loose.json"
    config.write_text(
        f'{{"checks": [{{"axiom": "Linearity", "tolerance": {tolerance}, "trials": 2}}]}}'
    )
    code, output = run_cli("verify", "--config", str(config))
    assert code == 1
    assert output == ""
    assert "ParseError: tolerance must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ({"axiom": "Linearity", "dim": 0}, "dimension must be at least 1, got 0"),
    ({"axiom": "Linearity", "manifold": "torus"}, "unknown manifold kind 'torus'"),
    ({"axiom": "Monotonicity"}, "unknown axiom 'Monotonicity'"),
    ({"axiom": "SymmetryInvariance", "manifold": "sphere2"}, "flat space only"),
])
def test_verify_refuses_a_bad_check_before_running_any(tmp_path, capsys, bad, message):
    """A passing check ahead of the bad one neither runs nor prints, and no
    report directory is made."""
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({"checks": [
        {"axiom": "Sensitivity", "tolerance": 1e-12, "trials": 2},
        {"tolerance": 1e-9, "trials": 2, **bad},
    ]}))
    outdir = tmp_path / "reports"
    code, output = run_cli("verify", "--config", str(config), "--out", str(outdir))
    assert code == 1
    assert output == ""
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("reader, label", [
    (rg.mlp_from_file, "network file {}"),
    (rg.manifold_from_file, "manifold config {}"),
    (report_io.read_attribution_json, "report {}"),
    (None, "{}"),
])
def test_json_readers_name_the_file_they_cannot_use(tmp_path, capsys, reader, label):
    """A missing file and a file that is not JSON are ParseErrors naming the
    file, from each reader and from verify --config (exit 1)."""
    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text("{not json")
    for path, text in ((missing, f"cannot read {label.format(missing)}: "),
                       (broken, f"{label.format(broken)} is not valid JSON: ")):
        if reader is None:
            assert run_cli("verify", "--config", str(path)) == (1, "")
            assert capsys.readouterr().err.startswith(f"ParseError: {text}")
        else:
            with pytest.raises(rg.ParseError) as caught:
                reader(path)
            assert str(caught.value).startswith(text)


def test_attribute_non_finite_field_exits_1(capsys):
    code, output = run_cli(
        "attribute", "--manifold", "half_plane2", "--field", "affine:nan,1",
        "--p", "0.3,1.2", "--o", "-0.5,2.0",
    )
    assert code == 1
    assert output == ""
    assert "NonFiniteValue: attribution entries are not finite at 32 nodes" in (
        capsys.readouterr().err
    )


def test_attribute_non_finite_endpoint_value_exits_1(capsys):
    code, output = run_cli(
        "attribute", "--manifold", "euclidean:2", "--field", "affine:1,2:inf",
        "--p", "1,0", "--o", "0,1",
    )
    assert code == 1
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith("NonFiniteValue: the field is not finite at the path's ends")
    assert err.count("\n") == 1


def test_verify_rejects_seed_with_config(tmp_path, capsys):
    """The config fixes each check's seed, so --seed would be ignored."""
    config = tmp_path / "one.json"
    config.write_text(json.dumps({
        "checks": [{"axiom": "Linearity", "tolerance": 1e-9, "trials": 2}]
    }))
    code, output = run_cli("verify", "--config", str(config), "--seed", "2")
    assert code == 1
    assert output == ""
    err = capsys.readouterr().err
    assert err.startswith("ParseError: --seed draws the stock suite only")
    assert err.count("\n") == 1
    assert cli.build_parser().parse_args(["verify"]).seed is None


def test_verify_refuses_a_negative_seed(tmp_path, capsys):
    """A negative seed ends in one ParseError line, from --seed or a config."""
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"checks": [
        {"axiom": "Sensitivity", "tolerance": 1e-12, "trials": 2, "seed": -1},
    ]}))
    for argv in (("verify", "--seed", "-1"), ("verify", "--config", str(config))):
        code, output = run_cli(*argv)
        assert code == 1
        assert output == ""
        assert capsys.readouterr().err == "ParseError: seed must be non-negative, got -1\n"
    assert rg.default_suite() == rg.default_suite(rg.DEFAULT_SEED)


def test_verify_reports_are_deterministic(tmp_path):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({
        "checks": [{"axiom": "Linearity", "tolerance": 1e-9, "trials": 4}]
    }))
    _, first = run_cli("verify", "--config", str(config))
    _, second = run_cli("verify", "--config", str(config))
    assert first == second


# sha256 of what ``rigrad verify --out DIR`` writes for the stock suite at
# DEFAULT_SEED.  Every Implementation, Linearity, Completeness and
# IsometryInvariance file, the euclidean SymmetryInvariance and
# EuclideanRestriction files, the sphere2 Sensitivity file and suite.json
# took these values when geodesic levels began integrating the vector A of
# the rank-one form -A c^T: residuals moved by at most 1.8e-15, notes not.
# The half_plane2 Implementation, Linearity, Completeness and
# IsometryInvariance files and suite.json took them when every half-plane
# geodesic became one walk from p: residuals moved by at most 6.7e-16.
# The sphere2 and half_plane2 Implementation, Linearity, Completeness and
# IsometryInvariance files, the sphere2 Sensitivity file and suite.json took
# them when closed-form transport began reading the geodesic's frame_fn
# (the sphere's tangent cos u - sin p and constant normal p x u, the
# half-plane walk's y (cos w, sin - cos c)) in place of velocity / length
# and a per-node normal: residuals moved by at most 6.7e-16, notes not; the
# PASS lines' hash moved with six max_residual figures.
STOCK_SUITE_SHA256 = {
    "check_00_Implementation_euclidean.csv": "5bf2fe828ea496b1749f4bcff72da0d61ba6268719864d098a653742e989950c",
    "check_01_Implementation_sphere2.csv": "05678568e4c657275c58a64176d038ede89148d074e0a232299a487cb61f1b74",
    "check_02_Implementation_half_plane2.csv": "a61ea5b2a350661413fae615ef52ad37f1cef23b95bf68f0cd1144d5bd8080d2",
    "check_03_Linearity_euclidean.csv": "d0ea08ff5bfcb100e8c40fd5397b10d9ca77d4b082322f11077d3688174fef1a",
    "check_04_Linearity_sphere2.csv": "686d3c331f5fbd31e70e60aa14d5b945be380fc75b7b2d38aaee095398fba5fa",
    "check_05_Linearity_half_plane2.csv": "1c908d39f32dbcb1b5eaf0492a2d3f8251f86238d790e55dfbee2168e2049450",
    "check_06_Sensitivity_euclidean.csv": "7744c49ba3fcaaac60361dc01f834131827979b2af4b194d762158023a9cffc3",
    "check_07_Sensitivity_sphere2.csv": "e679e3a45609c4ac8db318dfb2827de950aa5cacbcc72fce05ca25f20df77504",
    "check_08_Sensitivity_half_plane2.csv": "938fd0ef621d819061b70b3de112775c186f872e11f38928c1c20de89f2150c6",
    "check_09_SymmetryInvariance_euclidean.csv": "631dd0be632f5d3d14023afb094c1d268215ec368edd03d1bf328ace86899d83",
    "check_10_Completeness_euclidean.csv": "53e67a915fcc3970023157bfb370e2cf45bb7109e3de038d66dd6f665fc4e287",
    "check_11_Completeness_sphere2.csv": "99f451c313ae5e7ceb16b584fc5c9238af1f754eb15859a6a8f114141dedde10",
    "check_12_Completeness_half_plane2.csv": "bd193437b08abfd7d6e24bbef7df2fdd959480b2c3dd8b96ca955a78a645bb5d",
    "check_13_IsometryInvariance_euclidean.csv": "6b4c77935fd1166e90b23b9dd9950337664af5fa12bc1e78da1db4f397e046b1",
    "check_14_IsometryInvariance_sphere2.csv": "4bd121e949d32ac65f5bf249bfe07133abf9d5b58d8d02b8648bc8aeffdca0b6",
    "check_15_IsometryInvariance_half_plane2.csv": "7ff01c64d858965abfd8fc061c8c45bbdce86434c9d5a429bab07ec57df0a143",
    "check_16_EuclideanRestriction_euclidean.csv": "3e4c8dad2e9e8e8914e99d262bc27020f4e7cf261ea2511350ed05243614e539",
    "check_17_EigenBound_euclidean.csv": "b6dbd4372ee3200194782c5e5ecacaf3965950e73f681389bee7e9aae89432d1",
    "check_18_EigenBound_sphere2.csv": "05c6b4a057bc755dde89121aaa5f790a52fec2da4f1eb3f4279a321645e49167",
    "check_19_EigenBound_half_plane2.csv": "102beabef6a8c5dc87c3cb3d1aa705fd88c471715542dae4b2f16c23b764731e",
    "suite.json": "a062fb1df465988baab185a78caa4d1792b2d24a328b27bf87a5136b07c090d4",
}


def test_stock_verify_output_is_pinned(tmp_path):
    """The stock suite's report files and PASS lines, byte for byte."""
    code, output = run_cli("verify", "--out", str(tmp_path))
    assert code == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == STOCK_SUITE_SHA256
    lines = "".join(line + "\n" for line in output.splitlines() if line.startswith("["))
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "a63e98b419ae19f176ced17c10c4fbf52f19da8dcb62d448bfe63f89e38cec55"
    )


def test_an_overflowing_half_plane_pair_exits_1(capsys):
    code, output = run_cli(
        "attribute", "--manifold", "half_plane2", "--field", "log_height",
        "--p", "-1e308,1", "--o", "1e308,1",
    )
    assert code == 1
    assert output == ""
    assert capsys.readouterr().err.startswith("NonFiniteValue: the half-plane geodesic overflows")


def test_json_outputs_are_the_stdlib_indented_text(tmp_path):
    """Every JSON file and JSON stdout is, byte for byte, what the stdlib's
    indent=2 encoder writes for the parsed document: attribute --out and
    --format json, compare --out on flat and curved space, verify's suite."""
    rng = np.random.default_rng(13)
    texts = {}
    for name, kind, dim in (("flat64", "euclidean:64", 64), ("sphere", "sphere2", 3)):
        weights = tmp_path / f"{name}.json"
        rg.mlp_to_file(rg.random_mlp(dim, (8, 8), rng), weights)
        man = rg.make_manifold(kind.split(":")[0], dim if name == "flat64" else None)
        p, o = man.random_point(rng), man.random_point(rng)
        while name == "sphere" and man.dist(p, o) > 2.8:
            o = man.random_point(rng)
        flags = ["--manifold", kind, "--field", "mlp", "--weights", str(weights),
                 "--p=" + ",".join(map(repr, p.coords.tolist())),
                 "--o=" + ",".join(map(repr, o.coords.tolist()))]
        code, _ = run_cli("compare", *flags, "--out", str(tmp_path / f"cmp_{name}.json"))
        assert code == 0
        texts[f"compare {name}"] = (tmp_path / f"cmp_{name}.json").read_text()
        if name == "sphere":
            code, _ = run_cli("attribute", *flags, "--frame", "eigen", "--out", str(tmp_path / "attr"))
            assert code == 0
            texts["attribute --out"] = (tmp_path / "attr.json").read_text()
            code, texts["attribute stdout"] = run_cli("attribute", *flags, "--format", "json")
            assert code == 0
    config = tmp_path / "checks.json"
    config.write_text(json.dumps({"checks": [
        {"axiom": "Completeness", "tolerance": 1e-6, "trials": 2, "manifold": "sphere2"},
        {"axiom": "Sensitivity", "tolerance": 1e-12, "trials": 2},
    ]}))
    code, _ = run_cli("verify", "--config", str(config), "--out", str(tmp_path / "suite"))
    assert code == 0
    texts["suite.json"] = (tmp_path / "suite" / "suite.json").read_text()
    assert len(json.loads(texts["compare flat64"])["first"]["frame"]) == 64
    differ = [
        label for label, text in texts.items()
        if text != json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
    ]
    assert differ == []
