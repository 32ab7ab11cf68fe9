"""Spans and counts recorded from outside rigrad by wrapping its public functions.

``Tracer.install`` replaces each traced function, wherever a rigrad module
holds a reference to it, with a wrapper that records a span (name, start,
end, parent) and updates counts at the same boundary; ``uninstall`` puts the
originals back.  Spans stay in memory until the run ends.  Each span gets
the factor that takes its benchmark operation's wall time to the reference
speed (``scale_new_spans``), and its duration is reported times that factor.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

AXIOM_PREFIX = "axioms."
ATTRIBUTION = "attribution"
REPORT_WRITE = "report.write"


class Tracer:
    def __init__(self, rg):
        import rigrad.axioms
        import rigrad.cli
        import rigrad.fields
        import rigrad.manifolds.transport
        import rigrad.report

        self.rg = rg
        self.modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "rigrad" or name.startswith("rigrad.")
        ]
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.factors: list[float] = []  # per span, its op's reference-speed factor
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._last_level = 0
        self._restore: list = []
        self._axioms = rigrad.axioms
        self._transport = rigrad.manifolds.transport
        self._report = rigrad.report
        self._cli = rigrad.cli
        self._fields = rigrad.fields

    # -- recording ---------------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            parent_name = spans[parent][0] if parent >= 0 else None
            index = len(spans)
            spans.append((name, 0, 0, parent))
            stack.append(index)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if on_exit is not None:
                    on_exit(parent_name, args, result if ok else None, ok)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, fn):
        """Run one benchmark operation as a top-level span."""
        return self.span("op", fn)()

    def scale_new_spans(self, factor: float) -> None:
        """Give every span recorded since the last call this speed factor."""
        self.factors.extend([factor] * (len(self.spans) - len(self.factors)))

    # -- counts taken at the span boundaries ----------------------------------------

    def _on_attribution(self, parent_name, args, result, ok):
        if parent_name == ATTRIBUTION:
            return
        self.counts["attribution.calls"] += 1
        if ok:
            # refinement returns at the last level it evaluated
            self.counts["quadrature.accepted_nodes"] += self._last_level
        self._last_level = 0

    def _on_nodes_weights(self, parent_name, args, result, ok):
        if ok:
            self._last_level = len(result[0])
            self.counts["quadrature.node_evals"] += self._last_level

    def _on_transport(self, parent_name, args, result, ok):
        self.counts["transport.vectors_moved"] += len(args[2]) * len(args[3])

    def _on_gradient(self, parent_name, args, result, ok):
        if parent_name != "fields.coord_gradient":
            self.counts["fields.gradient_evals"] += 1

    def _on_write(self, parent_name, args, result, ok):
        if parent_name != REPORT_WRITE and ok:
            path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
            self.counts["report.bytes_written"] += os.path.getsize(path)

    def _on_cli(self, parent_name, args, result, ok):
        self.counts["cli.calls"] += 1

    # -- installing the wrappers --------------------------------------------------

    def _patch_function(self, fn, name, on_exit=None):
        wrapper = self.span(name, fn, on_exit)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def _patch_method(self, cls, attr, name, on_exit=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self.span(name, fn, on_exit))
        self._restore.append((cls, attr, fn))

    def _count_steps(self, fn):
        counts = self.counts

        def wrapper(manifold, curve, components, t0, t1, steps, chart=None):
            counts["transport.rk4_steps"] += steps
            return fn(manifold, curve, components, t0, t1, steps, chart)

        return wrapper

    def install(self):
        rg = self.rg
        attribution = self._on_attribution
        for fn in (rg.rig, rg.eigen_rig, rg.ig, rg.generic_bam_report,
                   rg.attribution_matrix, rg.bam_along_curve):
            self._patch_function(fn, ATTRIBUTION, attribution)
        self._patch_function(rg.eigen_attributions, "attribution.eigen_attributions")
        self._patch_function(rg.transport_along, "transport.transport_along", self._on_transport)
        self._patch_function(rg.geodesic_residual, "diagnostics.geodesic_residual")
        self._patch_function(rg.attribution_bound_check, "axioms.bound_check")
        self._patch_method(rg.Quadrature, "nodes_weights", "quadrature.nodes_weights",
                           self._on_nodes_weights)
        for cls in (rg.Euclidean, rg.Sphere2, rg.HalfPlane2):
            self._patch_method(cls, "geodesic_between", "manifolds.geodesic_between")
        for _, cls in inspect.getmembers(self._fields, inspect.isclass):
            if issubclass(cls, rg.ScalarField) and "coord_gradient" in cls.__dict__:
                self._patch_method(cls, "coord_gradient", "fields.coord_gradient", self._on_gradient)

        ode = self._transport.ode_transport
        self._transport.ode_transport = self._count_steps(ode)
        self._restore.append((self._transport, "ode_transport", ode))

        checks = self._axioms.CHECKS
        for axiom, fn in list(checks.items()):
            checks[axiom] = self.span(AXIOM_PREFIX + axiom, fn)
            self._restore.append((checks, axiom, fn))

        report = self._report
        for attr in ("write_attribution_json", "write_attribution_csv", "write_suite_json",
                     "write_residuals_csv", "_atomic_write"):
            self._patch_function(getattr(report, attr), REPORT_WRITE, self._on_write)
        self._patch_function(self._cli.main, "cli.main", self._on_cli)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def _durations_ns(self) -> list[float]:
        """Each span's duration at the reference speed."""
        self.scale_new_spans(1.0)
        return [(end - start) * f for (_, start, end, _), f in zip(self.spans, self.factors)]

    def self_times_ns(self) -> dict[str, float]:
        """Self time per span name, summed over all spans."""
        durations = self._durations_ns()
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += duration
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            totals[name] += durations[i] - child[i]
        return dict(totals)

    def total_times_ns(self) -> dict[str, float]:
        """Inclusive time per span name, counting only the outermost of nested spans."""
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, parent), duration in zip(self.spans, self._durations_ns()):
            if parent < 0 or self.spans[parent][0] != name:
                totals[name] += duration
        return dict(totals)

    def write_spans(self, path) -> None:
        self.scale_new_spans(1.0)
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns", "scale"])
            for i, ((name, start, end, parent), f) in enumerate(zip(self.spans, self.factors)):
                writer.writerow([i, parent, name, start, end, f])
