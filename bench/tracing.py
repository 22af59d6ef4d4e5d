"""In-memory span tracer that instruments eigenmark from outside.

`instrument(tracer)` swaps wrappers into the package's module namespaces:
every module that bound a traced function by name gets the wrapper, so
calls between modules are seen as well as calls from the benchmark.
Operators returned by the traced builders are rewrapped so that each
application becomes a span.  Nothing under `src/` is edited, and an
untraced run never calls `instrument`.

A span is (name, parent span id, start, end) in `perf_counter` seconds.
Spans are recorded only while `tracer.active` is true and stay in memory
until `Tracer.write` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

from eigenmark import cli, fpqs, marker, pea, spectral, statevec, voting
from eigenmark.statevec import LinearOperator

# Unit of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "pea.window_response_mass.s": "s",
    "pea.window_response_mass.calls": "count",
    "pea.window_response_mass.terms": "count",
    "pea.best_window.s": "s",
    "pea.best_window.calls": "count",
    "pea.calibrate_workspace.s": "s",
    "pea.calibrate_workspace.calls": "count",
    "pea.measure_eta.s": "s",
    "pea.apply.self_s": "s",
    "pea.apply.calls": "count",
    "pea.apply.columns": "count",
    "pea.apply.amplitudes": "count",
    "fpqs.selective_phase.self_s": "s",
    "fpqs.selective_phase.calls": "count",
    "fpqs.level.self_s": "s",
    "voting.h_tensor.self_s": "s",
    "voting.h_tensor.calls": "count",
    "marker.evaluate_marker.s": "s",
    "marker.evaluate_marker.self_s": "s",
    "marker.build_assembly.s": "s",
    "statevec.apply.self_s": "s",
    "spectral.main_ops.self_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.sweep.cells": "count",
    "statevec.tally.U": "count",
    "statevec.tally.P": "count",
    "trace.overhead_s": "s",
}

PEA_TAG = ("P", 1)
COUNTED = ("pea.window_response_mass.terms", "pea.apply.columns", "pea.apply.amplitudes")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds (outermost span of that name
        only, so nested levels are not counted twice), self seconds (minus
        the time covered by child spans) and calls."""
        child = [0.0] * len(self.spans)
        outermost = [True] * len(self.spans)
        for sid, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                p = parent
                while p >= 0 and outermost[sid]:
                    if self.spans[p][0] == name:
                        outermost[sid] = False
                    p = self.spans[p][1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0,
                                                                "calls": 0})
        for sid, (name, _parent, start, end) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[sid]
            if outermost[sid]:
                rec["s"] += end - start
        return dict(out)

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["span_fields"] = ["name", "parent", "start", "end"]
        doc["spans"] = self.spans
        doc["counts"] = dict(self.counts)
        doc["layers"] = self.layers()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _traced(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _traced_operator(tracer: Tracer, name: str, op: LinearOperator) -> LinearOperator:
    """Same operator, with every forward or adjoint application a span."""
    return LinearOperator(op.dim, _traced(tracer, name, op._apply),
                          _traced(tracer, name, op._adjoint), op.cost, op.eigensystem)


def _replace(original, replacement) -> None:
    """Rebind `original` to `replacement` wherever the package bound it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "eigenmark":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers for the rest of the process."""
    counts = tracer.counts

    def count_terms(args, kwargs, _result):
        lam = np.atleast_1d(args[0] if args else kwargs["lam"])
        window = args[2] if len(args) > 2 else kwargs["window"]
        counts["pea.window_response_mass.terms"] += lam.size * (2 * window + 1 if window else 1)

    def count_directions(_args, _kwargs, report):
        counts["pea.measure_eta.directions"] += len(report.entries)

    for fn, name, after in (
        (pea.window_response_mass, "pea.window_response_mass", count_terms),
        (pea.best_window, "pea.best_window", None),
        (pea.calibrate_workspace, "pea.calibrate_workspace", None),
        (pea.measure_eta, "pea.measure_eta", count_directions),
        (marker.evaluate_marker, "marker.evaluate_marker", None),
        (marker.build_assembly, "marker.build_assembly", None),
        (statevec.apply, "statevec.apply", None),
        (cli.main, "cli.main", None),
    ):
        _replace(fn, _traced(tracer, name, fn, after))

    for builder, name in (
        (fpqs.selective_phase, "fpqs.selective_phase"),
        (fpqs.pi3_balance, "fpqs.level"),
        (voting.build_h_tensor, "voting.h_tensor"),
        (spectral.build_shifted, "spectral.main_ops"),
        (spectral.ideal_marker, "spectral.main_ops"),
    ):
        def build(*args, _builder=builder, _name=name, **kwargs):
            return _traced_operator(tracer, _name, _builder(*args, **kwargs))
        _replace(builder, build)

    # The estimation operator is recognised by its cost tag, so forward
    # and adjoint applications are both seen whichever builder made it.
    for method in ("apply_to", "adjoint_apply_to"):
        def apply(self, vec, tally=None, _plain=getattr(LinearOperator, method)):
            if not tracer.active or PEA_TAG not in self.cost:
                return _plain(self, vec, tally)
            columns = 1 if np.ndim(vec) == 1 else np.shape(vec)[1]
            counts["pea.apply.columns"] += columns
            counts["pea.apply.amplitudes"] += columns * self.dim
            sid = tracer.begin("pea.apply")
            try:
                return _plain(self, vec, tally)
            finally:
                tracer.end(sid)
        setattr(LinearOperator, method, apply)


def per_layer(tracer: Tracer, tally_u: int, tally_p: int, cells: int,
              overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, in order, from the spans and counters."""
    layers = tracer.layers()
    given = {"statevec.tally.U": tally_u, "statevec.tally.P": tally_p,
             "cli.sweep.cells": cells, "trace.overhead_s": overhead_s}
    values = {}
    for name in PER_LAYER:
        if name in given:
            values[name] = given[name]
        elif name in COUNTED:
            values[name] = tracer.counts.get(name, 0)
        else:
            layer, _, key = name.rpartition(".")
            values[name] = layers.get(layer, {}).get(key, 0)
    return values
