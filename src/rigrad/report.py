"""Serialization of attribution and certification reports.

JSON carries the full structure; CSV gives one flat row per direction for
spreadsheet use.  All numbers are written as shortest round-trip decimals, so
re-parsing a report reproduces every float bit for bit.  The JSON text equals
``json.dumps(data, indent=2, allow_nan=False)`` plus a newline, byte for byte.
Files are written atomically (temp file plus rename) so readers never observe
partial output.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .attribution import AttributionReport, PathDiagnostics
from .axioms import AxiomReport
from .errors import InvalidTangent, ParseError, _read_json
from .manifolds import OrthonormalFrame, Point


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_text(data) -> str:
    """Indented JSON with a final newline.  NaN and infinity raise ValueError
    instead of printing as tokens that standard JSON parsers reject.

    The text is that of ``json.dumps(data, indent=2, allow_nan=False)``, whose
    indented form runs the stdlib's pure-Python encoder; this writer joins a
    list of plain floats in one C-level call instead.  Dict keys must be str;
    other keys raise TypeError.
    """
    return _json(data, "") + "\n"


def _json(value, pad: str) -> str:
    """``value`` as indented JSON whose closing bracket sits at ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == {float} and all(map(math.isfinite, value)):
            body = separator.join(map(float.__repr__, value))
        else:
            body = separator.join([_json(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = separator.join(
            [encode_basestring_ascii(key) + ": " + _json(item, inner) for key, item in value.items()]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def attribution_report_to_dict(report: AttributionReport) -> dict:
    d = report.diagnostics
    return {
        "method": report.method,
        "manifold": report.manifold_kind,
        "point": report.point.coords.tolist(),
        "base_point": report.base_point.coords.tolist(),
        "frame": report.frame.rows.tolist(),
        "attributions": report.attributions.tolist(),
        "eigenvalues": None if report.eigenvalues is None else report.eigenvalues.tolist(),
        "value_at_point": report.value_at_point,
        "value_at_base": report.value_at_base,
        "completeness_residual": report.completeness_residual,
        "error_term": report.error_term,
        "path_is_geodesic": report.path_is_geodesic,
        "diagnostics": {
            "curve_length": d.curve_length,
            "nodes_used": d.nodes_used,
            "refinement_gap": d.refinement_gap,
            "transport_mode": d.transport_mode,
            "transport_steps": d.transport_steps,
            "geodesic_defect": d.geodesic_defect,
        },
    }


def attribution_report_from_dict(data: dict) -> AttributionReport:
    try:
        point = Point(np.array(data["point"], dtype=float))
        base_point = Point(np.array(data["base_point"], dtype=float))
        frame = OrthonormalFrame(point, np.array(data["frame"], dtype=float))
        diag = data["diagnostics"]
        eigenvalues = data["eigenvalues"]
        return AttributionReport(
            method=data["method"],
            manifold_kind=data["manifold"],
            point=point,
            base_point=base_point,
            frame=frame,
            attributions=np.array(data["attributions"], dtype=float),
            value_at_point=float(data["value_at_point"]),
            value_at_base=float(data["value_at_base"]),
            completeness_residual=float(data["completeness_residual"]),
            error_term=float(data["error_term"]),
            path_is_geodesic=bool(data["path_is_geodesic"]),
            eigenvalues=None if eigenvalues is None else np.array(eigenvalues, dtype=float),
            diagnostics=PathDiagnostics(
                curve_length=float(diag["curve_length"]),
                nodes_used=int(diag["nodes_used"]),
                refinement_gap=(
                    None if diag["refinement_gap"] is None else float(diag["refinement_gap"])
                ),
                transport_mode=diag["transport_mode"],
                transport_steps=int(diag["transport_steps"]),
                geodesic_defect=(
                    None if diag["geodesic_defect"] is None else float(diag["geodesic_defect"])
                ),
            ),
        )
    except (KeyError, TypeError, ValueError, InvalidTangent) as exc:
        raise ParseError(f"malformed attribution report: {exc!r}") from exc


def write_attribution_json(report: AttributionReport, path: str | Path) -> None:
    _atomic_write(path, json_text(attribution_report_to_dict(report)))


def write_compare_json(
    first: AttributionReport, second: AttributionReport, path: str | Path
) -> None:
    """The two reports of ``compare``, under ``first`` and ``second``."""
    payload = {
        "first": attribution_report_to_dict(first),
        "second": attribution_report_to_dict(second),
    }
    _atomic_write(path, json_text(payload))


def read_attribution_json(path: str | Path) -> AttributionReport:
    return attribution_report_from_dict(_read_json(path, f"report {path}"))


def attribution_report_csv(report: AttributionReport) -> str:
    """Flat table: index, attribution, eigenvalue (may be empty), components."""
    coord_dim = report.point.coords.size
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["index", "attribution", "eigenvalue"]
    header += [f"frame_{k}" for k in range(coord_dim)]
    writer.writerow(header)
    for i, vector in enumerate(report.frame.rows):
        eigen = "" if report.eigenvalues is None else repr(float(report.eigenvalues[i]))
        row = [str(i), repr(float(report.attributions[i])), eigen]
        row += [repr(float(c)) for c in vector]
        writer.writerow(row)
    return buffer.getvalue()


def write_attribution_csv(report: AttributionReport, path: str | Path) -> None:
    _atomic_write(path, attribution_report_csv(report))


def parse_attribution_csv(text: str) -> list[dict]:
    """Rows of the flat CSV with floats restored exactly."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty attribution CSV") from None
    frame_cols = [name for name in header if name.startswith("frame_")]
    rows = []
    for record in reader:
        if len(record) != len(header):
            raise ParseError(f"CSV row has {len(record)} cells, expected {len(header)}")
        entry = dict(zip(header, record))
        rows.append(
            {
                "index": int(entry["index"]),
                "attribution": float(entry["attribution"]),
                "eigenvalue": float(entry["eigenvalue"]) if entry["eigenvalue"] else None,
                "frame": [float(entry[c]) for c in frame_cols],
            }
        )
    return rows


# -- certification suite reports -------------------------------------------


def axiom_report_to_dict(report: AxiomReport) -> dict:
    spec = report.spec
    return {
        "axiom": spec.axiom,
        "manifold": spec.manifold_kind,
        "dim": spec.dim,
        "tolerance": spec.tolerance,
        "trials": spec.trials,
        "seed": spec.seed,
        "samples": spec.samples,
        "residuals": list(report.residuals),
        "notes": list(report.notes),
        "aborted": report.aborted,
        # infinite when every trial aborted, which JSON cannot carry
        "max_residual": report.max_residual if report.residuals else None,
        "passed": report.passed,
    }


def suite_report_to_dict(reports) -> dict:
    return {
        "passed": all(r.passed for r in reports),
        "checks": [axiom_report_to_dict(r) for r in reports],
    }


def write_suite_json(reports, path: str | Path) -> None:
    _atomic_write(path, json_text(suite_report_to_dict(reports)))


def residuals_csv(report: AxiomReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial", "residual", "note"])
    for i, (residual, note) in enumerate(zip(report.residuals, report.notes)):
        writer.writerow([str(i), repr(float(residual)), note])
    return buffer.getvalue()


def write_residuals_csv(report: AxiomReport, path: str | Path) -> None:
    _atomic_write(path, residuals_csv(report))
