"""Command-line front end.

Three subcommands:

``attribute``
    Compute per-direction attributions for a field between two points and
    write the report as JSON and CSV.

``verify``
    Run the certification suite (or a configured subset) and report one
    pass/fail line per check.

``compare``
    Side-by-side table: straight-line versus geodesic attributions on flat
    space, or default-frame versus eigenframe attributions elsewhere.

Exit codes: 0 success, 1 configuration or validation errors, failed
verification, or a field or path that yields non-finite values, 2 geodesic
ambiguity between cut points, 3 quadrature refinement or ODE transport
exhausted its budget.  Argument errors also exit 1 so code 2 stays
unambiguous.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import report as report_io
from .attribution import (
    DEFAULT_QUADRATURE,
    _eigen_report,
    _rig_report,
    attribution_matrix,
    eigen_rig,
    ig,
    rig,
)
from .axioms import DEFAULT_SEED, default_suite, run_check, suite_from_dict
from .errors import (
    CutLocusAmbiguity,
    InvalidPoint,
    ParseError,
    QuadratureNotConverged,
    RigradError,
    TransportNotConverged,
    _read_json,
)
from .fields import (
    AffineField,
    CoordinateField,
    GaussianBumpField,
    LogHeightField,
    MLPField,
    ScalarField,
    mlp_from_file,
)
from .manifolds import KINDS, Manifold, OrthonormalFrame, make_manifold, manifold_from_file
from .quadrature import Quadrature

SPHERE_ENTRY_TOL = 1e-6

class _Parser(argparse.ArgumentParser):
    """Argument errors raise ParseError so they exit 1, not argparse's 2."""

    def error(self, message):
        raise ParseError(message)


NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_points(argv: list[str]) -> list[str]:
    """Rewrite ``--p -0.8,0.5`` as ``--p=-0.8,0.5``: argparse would read a
    separate value starting with '-' as an option unless it is one number."""
    out = []
    for token in argv:
        if out and out[-1] in ("--p", "--o") and NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _parse_vector(text: str, label: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"{label} must be comma-separated decimals, got {text!r}") from None
    return np.array(values, dtype=float)


def _build_manifold(args, point_hint: np.ndarray | None) -> Manifold:
    """Resolve --manifold: a kind name, kind:dim, or a config file path."""
    spec = args.manifold
    kind, _, suffix = spec.partition(":")
    if kind not in KINDS:
        path = Path(spec)
        if not path.exists():
            raise ParseError(f"--manifold {spec!r} is neither a known kind nor a file")
        return manifold_from_file(path)
    if suffix:
        try:
            dim = int(suffix)
        except ValueError:
            raise ParseError(f"bad dimension suffix in --manifold {spec!r}") from None
    elif kind == "euclidean":
        if point_hint is None:
            raise ParseError("euclidean manifold needs a dimension (use euclidean:n)")
        dim = point_hint.size
    else:
        dim = None
    try:  # a dimension below 1
        return make_manifold(kind, dim=dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_float(text: str, label: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{label} must be a decimal, got {text!r}") from None


def _parse_point(manifold: Manifold, text: str, label: str):
    coords = _parse_vector(text, label)
    if manifold.kind == "sphere2":
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > SPHERE_ENTRY_TOL:
            raise InvalidPoint(
                f"{label} has norm {norm:.9f}; sphere points must be within "
                f"{SPHERE_ENTRY_TOL:g} of unit length"
            )
        if abs(norm - 1.0) > 1e-12:
            coords = coords / norm
    return manifold.point(coords)


def _parse_field(manifold: Manifold, args) -> ScalarField:
    spec = args.field
    name, _, rest = spec.partition(":")
    if name == "mlp":
        if not args.weights:
            raise ParseError("--weights is required with --field mlp")
        return MLPField(manifold, mlp_from_file(args.weights))
    if name == "height":
        return CoordinateField(manifold, manifold.coord_dim - 1)
    if name == "coordinate":
        try:
            index = int(rest)
        except ValueError:
            raise ParseError(f"--field coordinate needs an index, got {spec!r}") from None
        return CoordinateField(manifold, index)
    if name == "log_height":
        return LogHeightField(manifold)
    if name == "affine":
        parts = rest.split(":")
        if not parts or not parts[0]:
            raise ParseError("--field affine needs weights, e.g. affine:1,0,-2 or affine:1,0:0.5")
        weights = _parse_vector(parts[0], "affine weights")
        bias = _parse_float(parts[1], "affine bias") if len(parts) > 1 else 0.0
        return AffineField(manifold, weights, bias)
    if name == "bump":
        parts = rest.split(":")
        if not parts or not parts[0]:
            raise ParseError("--field bump needs a center, e.g. bump:0,0,1 or bump:0,0,1:0.5")
        center = _parse_point(manifold, parts[0], "bump center")
        width = _parse_float(parts[1], "bump width") if len(parts) > 1 else 1.0
        if not width > 0.0:
            raise ParseError(f"bump width must be positive, got {parts[1]!r}")
        return GaussianBumpField(manifold, center, width)
    raise ParseError(
        f"unknown field {spec!r}; expected one of height, coordinate:k, log_height, "
        "affine:w[:b], bump:center[:width], mlp"
    )


def _parse_frame(manifold: Manifold, p, spec: str) -> OrthonormalFrame | None:
    """Returns the frame to use, or None when the eigenframe was requested."""
    if spec == "eigen":
        return None
    if spec == "default":
        return manifold.orthonormal_frame(p)
    rows = [
        _parse_vector(chunk, "frame vector") for chunk in spec.split(";") if chunk.strip()
    ]
    if not rows:
        raise ParseError("--frame expects 'default', 'eigen', or semicolon-separated vectors")
    # rig validates the frame against the metric at p
    return OrthonormalFrame(p, tuple(manifold.tangent(p, row) for row in rows))


def _quadrature(args) -> Quadrature:
    if args.quadrature_nodes:
        return Quadrature(nodes=args.quadrature_nodes)
    return DEFAULT_QUADRATURE


def _summary_lines(report) -> list[str]:
    lines = [
        f"method:               {report.method}",
        f"manifold:             {report.manifold_kind}",
        f"value at point:       {report.value_at_point!r}",
        f"value at base point:  {report.value_at_base!r}",
        f"error term:           {report.error_term!r}",
    ]
    for i, value in enumerate(report.attributions):
        lines.append(f"attribution[{i}]:       {float(value)!r}")
    lines.append(f"trace:                {float(np.sum(report.attributions))!r}")
    lines.append(f"completeness residual: {report.completeness_residual:.3e}")
    d = report.diagnostics
    lines.append(
        "diagnostics:          "
        f"nodes={d.nodes_used} transport={d.transport_mode}({d.transport_steps}) "
        f"geodesic_defect={'n/a' if d.geodesic_defect is None else format(d.geodesic_defect, '.3e')}"
    )
    return lines


def _emit_report(report, args, out) -> None:
    if args.out:
        base = Path(args.out)
        if base.suffix in (".json", ".csv"):
            base = base.with_suffix("")
        json_path = base.with_suffix(".json")
        csv_path = base.with_suffix(".csv")
        report_io.write_attribution_json(report, json_path)
        report_io.write_attribution_csv(report, csv_path)
        print(f"wrote {json_path} and {csv_path}", file=out)
        for line in _summary_lines(report):
            print(line, file=out)
    elif args.format == "csv":
        out.write(report_io.attribution_report_csv(report))
    else:
        out.write(report_io.json_text(report_io.attribution_report_to_dict(report)))


def cmd_attribute(args, out) -> int:
    p_raw = _parse_vector(args.p, "--p")
    manifold = _build_manifold(args, p_raw)
    p = _parse_point(manifold, args.p, "--p")
    o = _parse_point(manifold, args.o, "--o")
    field = _parse_field(manifold, args)
    quad = _quadrature(args)
    frame = _parse_frame(manifold, p, args.frame)
    if frame is None:
        report = eigen_rig(field, manifold, p, o, manifold.orthonormal_frame(p), quad)
    else:
        report = rig(field, manifold, p, o, frame, quad)
    _emit_report(report, args, out)
    return 0


def cmd_compare(args, out) -> int:
    p_raw = _parse_vector(args.p, "--p")
    manifold = _build_manifold(args, p_raw)
    p = _parse_point(manifold, args.p, "--p")
    o = _parse_point(manifold, args.o, "--o")
    field = _parse_field(manifold, args)
    quad = _quadrature(args)
    frame = manifold.orthonormal_frame(p)

    if manifold.flat:
        left = ig(field, p, o, frame, quad)
        right = rig(field, manifold, p, o, frame, quad)
        print("direction  straight-line        geodesic             gap", file=out)
        gaps = np.abs(left.attributions - right.attributions)
        for i in range(len(frame)):
            print(
                f"{i:>9}  {left.attributions[i]: .12e}  "
                f"{right.attributions[i]: .12e}  {gaps[i]:.3e}",
                file=out,
            )
        print(f"max per-direction gap: {float(np.max(gaps)) if gaps.size else 0.0:.3e}", file=out)
    else:
        matrix = attribution_matrix(field, manifold, p, o, frame, quad)
        left = _rig_report(field, manifold, matrix)
        right = _eigen_report(field, manifold, matrix)
        print("direction  default-frame        eigenframe", file=out)
        for i in range(len(frame)):
            print(
                f"{i:>9}  {left.attributions[i]: .12e}  {right.attributions[i]: .12e}",
                file=out,
            )
        trace_left = float(np.sum(left.attributions))
        trace_right = float(np.sum(right.attributions))
        print(f"trace (default frame): {trace_left: .12e}", file=out)
        print(f"trace (eigenframe):    {trace_right: .12e}", file=out)
        print(f"trace gap: {abs(trace_left - trace_right):.3e}", file=out)

    if args.out:
        report_io.write_compare_json(left, right, args.out)
        print(f"wrote {args.out}", file=out)
    return 0


def cmd_verify(args, out) -> int:
    if args.config:
        if args.seed is not None:
            raise ParseError(
                "--seed draws the stock suite only; with --config, set 'seed' per check"
            )
        specs = suite_from_dict(_read_json(args.config, args.config))
    else:
        specs = default_suite(args.seed)

    reports = []
    all_passed = True
    for spec in specs:
        result = run_check(spec)
        reports.append(result)
        all_passed = all_passed and result.passed
        status = "PASS" if result.passed else "FAIL"
        print(
            f"[{status}] {spec.axiom:<20} {spec.manifold_kind:<12} "
            f"max_residual={result.max_residual:.3e} tolerance={spec.tolerance:g} "
            f"trials={len(result.residuals)} aborted={result.aborted}",
            file=out,
        )

    if args.out:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        report_io.write_suite_json(reports, directory / "suite.json")
        for i, result in enumerate(reports):
            name = f"check_{i:02d}_{result.spec.axiom}_{result.spec.manifold_kind}.csv"
            report_io.write_residuals_csv(result, directory / name)
        print(f"wrote {directory}/suite.json and per-check residual tables", file=out)

    if not all_passed:
        failing = [r.spec.axiom for r in reports if not r.passed]
        print(f"failing checks: {', '.join(failing)}", file=out)
        return 1
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rigrad", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifold", required=True, help="kind, kind:dim, or config file")
        p.add_argument("--field", required=True, help="builtin field id (see docs) or mlp")
        p.add_argument("--weights", help="MLP weights file (JSON), for --field mlp")
        p.add_argument("--p", required=True, help="explained point, comma-separated, e.g. --p -1,0")
        p.add_argument("--o", required=True, help="base point, comma-separated, e.g. --o -1,0")
        p.add_argument("--quadrature-nodes", type=int, default=0)
        p.add_argument("--out", help="output path (attribute writes .json and .csv)")

    attribute = sub.add_parser("attribute", help="compute attributions between two points")
    common(attribute)
    attribute.add_argument(
        "--frame", default="default", help="default | eigen | 'v1;v2;...' components"
    )
    attribute.add_argument("--format", choices=("json", "csv"), default="json")

    compare = sub.add_parser("compare", help="compare attribution methods or frames")
    common(compare)

    verify = sub.add_parser("verify", help="run the certification suite")
    verify.add_argument("--config", help="JSON file with a 'checks' list")
    verify.add_argument(
        "--seed", type=int, help=f"seed of the stock suite (default {DEFAULT_SEED})"
    )
    verify.add_argument("--out", help="directory for the consolidated report")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(_attach_negative_points(argv))
        if args.command == "attribute":
            return cmd_attribute(args, out)
        if args.command == "compare":
            return cmd_compare(args, out)
        return cmd_verify(args, out)
    except CutLocusAmbiguity as exc:
        print(f"CutLocusAmbiguity: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNotConverged, TransportNotConverged) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RigradError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
