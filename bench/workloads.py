"""The four benchmark workloads: seeded inputs, one round of operations, checks.

A workload is made in two steps.  ``draw(seed)`` draws its inputs and the
expected values with numpy and ``reference`` alone, never with the program;
the result pickles, so set-up processes can load it instead of drawing it
again.  The class built from those inputs holds rigrad's objects and exposes
``ops``, the fixed list of operations that make up one round.  The runner
repeats whole rounds, so the share of operations that fail is the same in
every run whatever its length.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HIDDEN = (32, 32)

# rig_stock: weight scale used to draw candidates for each refinement level;
# candidates are kept only when the reference predicts that level exactly.
LEVEL_SCALES = {
    "euclidean": {64: 1.0, 128: 2.5, 256: 3.5},
    "sphere2": {64: 1.0, 128: 2.5, 256: 4.0},
    "half_plane2": {64: 1.0, 128: 2.5, 256: 4.0},
}
STOCK_DIMS = {"euclidean": 8, "sphere2": 3, "half_plane2": 2}
PAIRS_PER_LEVEL = 2
MAX_CANDIDATES = 400

# The known-fault case: a half-plane network, drawn from this fixed seed
# whatever the run's seed, whose output is scaled by OUTPUT_SCALE.  Its
# entries sit near 1e6, where the absolute stopping tolerance 1e-10 is below
# floating-point resolution, so refinement never stops (QuadratureNotConverged).
FAULT_SEED = 5
OUTPUT_SCALE = 1e6

FLAT_DIM = 64
FLAT_PAIRS = 4

LOOP_COLATITUDES = (0.4, 0.8, 1.2, 1.6, 2.0, 2.4)
LOOP_SCALE = 0.5

REFERENCE_NODES = 256


class CheckFailed(Exception):
    """An output disagrees with the reference or with a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, atol, rtol=0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


@dataclass
class Op:
    """One timed operation of a round, with the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # the exception type of the named fault this op hits every time, if any
    expected_failure: type | None = None
    # "call" ops feed the latency percentiles; "suite" ops feed suite_s
    kind: str = "call"


# -- seeded inputs --------------------------------------------------------------


def random_point(kind: str, dim: int, rng) -> np.ndarray:
    if kind == "euclidean":
        return rng.standard_normal(dim)
    if kind == "sphere2":
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)
    return np.array([rng.standard_normal(), float(np.exp(0.5 * rng.standard_normal()))])


def start_frame(kind: str, p: np.ndarray) -> np.ndarray:
    """g-orthonormal frame at p, one vector per row."""
    if kind == "euclidean":
        return np.eye(p.size)
    if kind == "half_plane2":
        return p[1] * np.eye(2)
    # sphere: Gram-Schmidt on the two axes least aligned with p
    rows = []
    for i in np.argsort(np.abs(p))[:2]:
        v = np.eye(3)[i] - p[i] * p
        for u in rows:
            v = v - (v @ u) * u
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def geodesic_path(kind: str):
    return {
        "euclidean": ref.straight_path,
        "sphere2": ref.great_circle_path,
        "half_plane2": ref.half_plane_path,
    }[kind]


def usable_pair(kind: str, p: np.ndarray, o: np.ndarray) -> bool:
    """Keep sphere pairs away from coincidence and from the cut locus."""
    if kind != "sphere2":
        return True
    return -0.95 < float(p @ o) < 0.995


@dataclass
class Case:
    """A field and a pair of points with everything the checks need."""

    kind: str
    dim: int
    layers: list
    p: np.ndarray
    o: np.ndarray
    frame: np.ndarray
    nodes: int | None

    @property
    def value_gap(self) -> float:
        values = ref.mlp_value(self.layers, np.array([self.p, self.o]))
        return float(values[0] - values[1])


def draw_case(kind: str, dim: int, rng, scale: float, level: int) -> Case:
    """Draw candidates until the reference predicts refinement stops at ``level``."""
    for _ in range(MAX_CANDIDATES):
        layers = ref.random_layers(rng, dim, HIDDEN, scale)
        p, o = random_point(kind, dim, rng), random_point(kind, dim, rng)
        if not usable_pair(kind, p, o):
            continue
        frame = start_frame(kind, p)
        path = functools.partial(geodesic_path(kind), p, o, frame)
        nodes = ref.predicted_nodes(lambda n: ref.form_entries(layers, path, n), level)
        if nodes == level:
            return Case(kind, dim, layers, p, o, frame, nodes)
    raise RuntimeError(f"no {kind} case stopping at {level} nodes in {MAX_CANDIDATES} draws")


def fault_case() -> Case:
    rng = np.random.default_rng(FAULT_SEED)
    layers = ref.random_layers(rng, 2, HIDDEN, 1.0)
    p, o = random_point("half_plane2", 2, rng), random_point("half_plane2", 2, rng)
    return Case("half_plane2", 2, layers, p, o, start_frame("half_plane2", p), None)


# -- conversion to rigrad objects ----------------------------------------------------


class Program:
    """The rigrad modules the workloads call, imported from the checkout's src."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import rigrad
        import rigrad.attribution

        self.rg = rigrad
        self.attribution = rigrad.attribution
        self._manifolds = {}

    def manifold(self, kind: str, dim: int):
        key = (kind, dim)
        if key not in self._manifolds:
            self._manifolds[key] = self.rg.make_manifold(kind, dim if kind == "euclidean" else None)
        return self._manifolds[key]

    def field(self, manifold, layers):
        specs = tuple(self.rg.LayerSpec(w, b, act) for w, b, act in layers)
        return self.rg.MLPField(manifold, self.rg.MLPWeights(manifold.coord_dim, specs))

    def frame(self, manifold, p, rows):
        point = manifold.point(p)
        vectors = tuple(self.rg.TangentVector(point, row) for row in rows)
        return self.rg.OrthonormalFrame(point, vectors)


def completeness_ok(total: float, case: Case, scale: float = 1.0) -> bool:
    expected = scale * case.value_gap
    return abs(total - expected) <= 1e-7 * scale + 1e-9 * abs(expected)


# -- rig_stock ---------------------------------------------------------------------


class RigStock:
    """rig and eigen_rig on three geometries, refinement stopping at 64/128/256."""

    name = "rig_stock"

    @staticmethod
    def draw(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        cases = [
            draw_case(kind, STOCK_DIMS[kind], rng, scale, level)
            for kind, levels in LEVEL_SCALES.items()
            for level, scale in levels.items()
            for _ in range(PAIRS_PER_LEVEL)
        ]
        return {"cases": cases, "fault": fault_case()}

    def __init__(self, inputs: dict, program: Program, workdir: Path):
        self.cases = inputs["cases"]
        self.fault = inputs["fault"]
        self.traces = {}
        self.ops = []
        for i, case in enumerate(self.cases):
            self.ops += self._pair_ops(program, f"case{i}", case, case.layers)
        self.ops += self._pair_ops(program, "fault", self.fault, self.fault.layers)
        scaled = ref.scale_output(self.fault.layers, OUTPUT_SCALE)
        self.ops += self._pair_ops(program, "fault_x1e6", self.fault, scaled, OUTPUT_SCALE)

    def _pair_ops(self, program, key, case, layers, scale=1.0):
        manifold = program.manifold(case.kind, case.dim)
        field_ = program.field(manifold, layers)
        p, o = manifold.point(case.p), manifold.point(case.o)
        frame = program.frame(manifold, case.p, case.frame)
        att = program.attribution
        failure = program.rg.QuadratureNotConverged if scale != 1.0 else None

        def check_rig(report):
            total = float(np.sum(report.attributions))
            require(completeness_ok(total, case, scale), f"{key} rig: trace {total!r} != F(p)-F(o)")
            if scale != 1.0:
                unscaled = self.traces.get(("fault", "rig"))
                require(
                    unscaled is not None
                    and close(report.attributions, scale * unscaled, 1e-7 * scale, 1e-7),
                    f"{key}: scaled attributions are not {scale:g} x the unscaled ones",
                )
            self.traces[(key, "rig")] = np.array(report.attributions)

        def check_eigen(report):
            total = float(np.sum(report.attributions))
            require(completeness_ok(total, case, scale), f"{key} eigen_rig: sum {total!r} != F(p)-F(o)")
            rig_values = self.traces.get((key, "rig"))
            require(rig_values is not None, f"{key}: eigen_rig succeeded where rig did not")
            rig_total = float(np.sum(rig_values))
            require(
                abs(total - rig_total) <= 1e-9 * scale * (1.0 + abs(rig_total / scale)),
                f"{key}: eigenvalue sum {total!r} != rig trace {rig_total!r}",
            )

        label = f"{key} {case.kind}"
        return [
            Op(f"rig {label}", lambda: att.rig(field_, manifold, p, o, frame), check_rig,
               expected_failure=failure),
            Op(f"eigen_rig {label}", lambda: att.eigen_rig(field_, manifold, p, o, frame),
               check_eigen, expected_failure=failure),
        ]

    def describe(self) -> dict:
        return {
            "cases": [
                {"manifold": c.kind, "dim": c.dim, "predicted_nodes": c.nodes,
                 "p": c.p.tolist(), "o": c.o.tolist()}
                for c in self.cases
            ],
            "fault_case": {"seed": FAULT_SEED, "output_scale": OUTPUT_SCALE,
                           "p": self.fault.p.tolist(), "o": self.fault.o.tolist()},
        }


# -- flat_wide -----------------------------------------------------------------------


class FlatWide:
    """The compare flow: ig then rig on one seeded pair in euclidean:64."""

    name = "flat_wide"

    @staticmethod
    def draw(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        cases = [FlatWide._draw(rng) for _ in range(FLAT_PAIRS)]
        expected = [ref.ig(c.layers, c.p, c.o, c.frame, REFERENCE_NODES) for c in cases]
        return {"cases": cases, "expected": expected}

    def __init__(self, inputs: dict, program: Program, workdir: Path):
        manifold = program.manifold("euclidean", FLAT_DIM)
        att = program.attribution
        self.cases = inputs["cases"]
        self.ops = []
        for i, (case, expected) in enumerate(zip(self.cases, inputs["expected"])):
            field_ = program.field(manifold, case.layers)
            p, o = manifold.point(case.p), manifold.point(case.o)
            frame = program.frame(manifold, case.p, case.frame)

            def run(field_=field_, p=p, o=o, frame=frame):
                return att.ig(field_, p, o, frame), att.rig(field_, manifold, p, o, frame)

            def check(result, i=i, expected=expected):
                straight, geodesic = result
                scale = 1.0 + float(np.max(np.abs(expected)))
                require(close(straight.attributions, geodesic.attributions, 1e-8 * scale),
                        f"pair {i}: ig and rig disagree")
                require(close(straight.attributions, expected, 1e-8 * scale),
                        f"pair {i}: ig disagrees with the reference IG")

            self.ops.append(Op(f"compare pair{i}", run, check))

    @staticmethod
    def _draw(rng) -> Case:
        for _ in range(MAX_CANDIDATES):
            case = draw_case("euclidean", FLAT_DIM, rng, 1.0, 64)
            nodes = ref.predicted_nodes(lambda n: ref.ig(case.layers, case.p, case.o, case.frame, n), 64)
            if nodes == 64:
                return case
        raise RuntimeError("no flat pair where ig and rig both stop at 64 nodes")

    def describe(self) -> dict:
        return {"dim": FLAT_DIM, "pairs": [{"p": c.p.tolist(), "o": c.o.tolist()} for c in self.cases]}


# -- loop_bam ------------------------------------------------------------------------


class LoopBam:
    """generic_bam_report around latitude loops: transport by the chart ODE."""

    name = "loop_bam"

    @staticmethod
    def draw(seed: int) -> list:
        """(colatitude, start frame, network, expected attributions) per loop."""
        rng = np.random.default_rng(seed)
        loops = []
        for theta in LOOP_COLATITUDES:
            frame_rows = start_frame("sphere2", np.array([np.sin(theta), 0.0, np.cos(theta)]))
            path = functools.partial(ref.latitude_loop_path, theta, frame_rows)
            for _ in range(MAX_CANDIDATES):
                layers = ref.random_layers(rng, 3, HIDDEN, LOOP_SCALE)
                if ref.predicted_nodes(lambda n: ref.form_entries(layers, path, n), 64) == 64:
                    break
            else:
                raise RuntimeError(f"no loop field at colatitude {theta} stopping at 64 nodes")
            expected = np.diag(ref.form_entries(layers, path, REFERENCE_NODES))
            loops.append((theta, frame_rows, layers, expected))
        return loops

    def __init__(self, inputs: list, program: Program, workdir: Path):
        sphere = program.manifold("sphere2", 3)
        att = program.attribution
        self.ops = []
        for theta, frame_rows, layers, expected in inputs:
            curve = sphere.latitude_loop(theta)
            field_ = program.field(sphere, layers)
            frame = program.frame(sphere, curve.start.coords, frame_rows)

            def run(field_=field_, curve=curve, frame=frame):
                return att.generic_bam_report(field_, curve, frame)

            def check(report, theta=theta, expected=expected):
                scale = 1.0 + float(np.max(np.abs(expected)))
                require(close(report.attributions, expected, 1e-8 * scale),
                        f"loop {theta}: attributions disagree with closed-form transport")
                total = float(np.sum(report.attributions))
                require(abs(total) <= 1e-8 * scale, f"loop {theta}: trace {total!r} != 0")

            self.ops.append(Op(f"loop {theta}", run, check))

    def describe(self) -> dict:
        return {"colatitudes": list(LOOP_COLATITUDES), "weight_scale": LOOP_SCALE}


# -- cli -----------------------------------------------------------------------------


def _csv_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_weights(path: Path, layers, input_dim: int) -> None:
    doc = {
        "input_dim": input_dim,
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist(), "activation": act}
            for w, b, act in layers
        ],
    }
    path.write_text(json.dumps(doc) + "\n")


class Cli:
    """The stock ``rigrad verify`` suite plus a fixed set of attribute/compare commands.

    Commands go through ``rigrad.cli.main`` in this process, so that the
    reference-speed probe sees the speed they ran at.  ``verify`` runs once per
    stock check (``--config`` holding that one check, ``--out`` a directory of
    its own); one round covers the whole stock suite.
    """

    name = "cli"

    @staticmethod
    def draw(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "sphere2": draw_case("sphere2", 3, rng, 1.0, 64),
            "half_plane2": draw_case("half_plane2", 2, rng, 1.0, 64),
            "euclidean8": draw_case("euclidean", 8, rng, 1.0, 64),
            "euclidean64": FlatWide._draw(rng),
        }

    def __init__(self, inputs: dict, program: Program, workdir: Path):
        import rigrad.cli  # the CLI's import cost is part of this workload's set-up
        import rigrad.report

        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli = rigrad.cli
        self.report = rigrad.report
        self.cases = inputs
        sphere, half = inputs["sphere2"], inputs["half_plane2"]
        flat8, flat64 = inputs["euclidean8"], inputs["euclidean64"]
        for name, case in self.cases.items():
            write_weights(workdir / f"{name}.json", case.layers, case.p.size)

        def args(case_name, manifold):
            case = self.cases[case_name]
            return ["--manifold", manifold, "--field", "mlp",
                    "--weights", str(workdir / f"{case_name}.json"),
                    # "=" keeps argparse from reading a leading minus as an option
                    f"--p={_csv_floats(case.p)}", f"--o={_csv_floats(case.o)}"]

        out = str(workdir)
        calls = [
            self._op("attribute sphere2",
                     ["attribute", *args("sphere2", "sphere2"), "--out", f"{out}/attr_sphere"],
                     functools.partial(self._check_files, "attr_sphere", sphere, False)),
            self._op("attribute half_plane2 eigen",
                     ["attribute", *args("half_plane2", "half_plane2"), "--frame", "eigen",
                      "--out", f"{out}/attr_half"],
                     functools.partial(self._check_files, "attr_half", half, True)),
            self._op("attribute euclidean:8 csv",
                     ["attribute", *args("euclidean8", "euclidean:8"), "--format", "csv"],
                     functools.partial(self._check_stdout_csv, flat8)),
            self._op("compare euclidean:64",
                     ["compare", *args("euclidean64", "euclidean:64"), "--out", f"{out}/cmp_flat.json"],
                     functools.partial(self._check_compare, "cmp_flat.json", flat64, True)),
            self._op("compare sphere2",
                     ["compare", *args("sphere2", "sphere2"), "--out", f"{out}/cmp_sphere.json"],
                     functools.partial(self._check_compare, "cmp_sphere.json", sphere, False)),
        ]
        # One attribute/compare command after each verify command, cycling
        # through the five (4 times each for the 20 stock checks).  The five
        # cost about 17, 17, 25, 42 and 85 ms: with a dozen samples a run the
        # percentiles fell between two of them and moved with the round
        # count, and run back to back they met the host in only one or two
        # of its speed states per run.
        self.ops = []
        self.suite = program.rg.default_suite()
        for i, spec in enumerate(self.suite):
            config = workdir / f"check_{i:02d}.json"
            config.write_text(json.dumps({"checks": [{
                "axiom": spec.axiom, "tolerance": spec.tolerance, "trials": spec.trials,
                "seed": spec.seed, "manifold": spec.manifold_kind, "dim": spec.dim,
                "samples": spec.samples}]}))
            self.ops.append(self._op(
                f"verify {spec.axiom} {spec.manifold_kind}",
                ["verify", "--config", str(config), "--out", f"{out}/verify_{i:02d}"],
                functools.partial(self._check_verify, i, spec), "suite"))
            self.ops.append(calls[i % len(calls)])

    def _op(self, label, argv, check, kind="call"):
        return Op(label, functools.partial(self._main, argv), check, kind=kind)

    def _main(self, argv):
        out = io.StringIO()
        code = self.cli.main(argv, out=out)
        return code, out.getvalue()

    # checks

    @staticmethod
    def _require_ok(result):
        code, stdout = result
        require(code == 0, f"exit code {code}")
        return stdout

    def _check_verify(self, index, spec, result):
        stdout = self._require_ok(result)
        passes = [line for line in stdout.splitlines() if line.startswith("[PASS]")]
        require(len(passes) == 1 and spec.axiom in passes[0],
                f"verify {spec.axiom} {spec.manifold_kind} did not print one PASS line")
        suite = json.loads((self.workdir / f"verify_{index:02d}" / "suite.json").read_text())
        checks = suite["checks"]
        require(suite.get("passed") is True and len(checks) == 1
                and (checks[0]["axiom"], checks[0]["manifold"]) == (spec.axiom, spec.manifold_kind),
                f"verify {spec.axiom} {spec.manifold_kind}: suite.json is not one passing check")

    def _check_files(self, stem, case, eigen, result):
        self._require_ok(result)
        report_io = self.report
        json_path, csv_path = self.workdir / f"{stem}.json", self.workdir / f"{stem}.csv"
        document = json.loads(json_path.read_text())
        report = report_io.read_attribution_json(json_path)
        require(report_io.attribution_report_to_dict(report) == document, f"{stem}.json does not round-trip")
        rows = report_io.parse_attribution_csv(csv_path.read_text())
        require([r["attribution"] for r in rows] == document["attributions"], f"{stem}.csv attributions differ from JSON")
        require([r["frame"] for r in rows] == document["frame"], f"{stem}.csv frame differs from JSON")
        require((document["eigenvalues"] is not None) == eigen, f"{stem}: eigenvalues presence wrong")
        total = float(np.sum(document["attributions"]))
        require(completeness_ok(total, case), f"{stem}: trace {total!r} != F(p)-F(o)")

    def _check_stdout_csv(self, case, result):
        stdout = self._require_ok(result)
        rows = self.report.parse_attribution_csv(stdout)
        require(len(rows) == case.p.size, "csv has the wrong number of rows")
        total = sum(r["attribution"] for r in rows)
        require(completeness_ok(total, case), f"csv trace {total!r} != F(p)-F(o)")

    def _check_compare(self, name, case, flat, result):
        self._require_ok(result)
        document = json.loads((self.workdir / name).read_text())
        first = np.array(document["first"]["attributions"])
        second = np.array(document["second"]["attributions"])
        if flat:
            expected = ref.ig(case.layers, case.p, case.o, np.eye(case.p.size), REFERENCE_NODES)
            scale = 1.0 + float(np.max(np.abs(expected)))
            require(close(first, second, 1e-8 * scale), f"{name}: ig and rig disagree")
            require(close(first, expected, 1e-8 * scale), f"{name}: ig disagrees with the reference IG")
        for values in (first, second):
            require(completeness_ok(float(np.sum(values)), case), f"{name}: trace != F(p)-F(o)")

    def describe(self) -> dict:
        return {
            "commands": [op.label for op in self.ops],
            "points": {k: {"p": c.p.tolist(), "o": c.o.tolist()} for k, c in self.cases.items()},
        }


WORKLOADS = {w.name: w for w in (RigStock, FlatWide, LoopBam, Cli)}
