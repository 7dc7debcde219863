"""In-memory call tracing for the benchmark's traced run.

:class:`Tracer` wraps every public function of the ``routercell`` layers
(``model``, ``network``, ``synth``, ``calibration``, ``estimation``,
``io``, ``cli``) at every ``routercell`` module namespace that binds it,
plus the ``LineModel.at`` method.  Because the wrappers replace the module
attributes, calls made inside the library through those attributes (for
example the ``compose_exact`` call inside ``compose_neumann``) are
recorded too.

Each call becomes one span ``(name, layer, start, end, parent, op, failed,
info)`` kept in a list in memory; ``info`` carries the work count measured
at that boundary (frequency points for ``model``, bytes for ``io`` reads
and writes, evaluations for the four-channel fit).  :func:`layer_metrics`
turns the spans into the per-layer metrics.

This module imports only the standard library at the top, so the traced
``cli`` child can time ``import routercell.cli`` before anything else.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

LAYERS = ("model", "network", "synth", "calibration", "estimation", "io", "cli")

#: Methods traced in addition to the module-level functions.
METHODS = (("network", "LineModel", "at"),)

#: io functions that write and read files; bytes = size of the file after the call.
IO_WRITES = ("write_spectrum", "write_touchstone", "write_line_model", "save_run_record")
IO_READS = ("ingest_spectrum", "read_touchstone", "read_line_model", "load_config",
            "load_run_record", "file_digest")

#: Subcommands of the cli pipeline workload, in order.
CLI_STEPS = ("synth", "calibrate", "fit", "report")


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _points_info(param: str, index: int):
    """Frequency points evaluated by a model call (size of its grid argument)."""
    def info(args, kwargs, result):
        value = _arg(args, kwargs, index, param)
        size = getattr(value, "size", None)
        return int(size) if size is not None else 1
    return info


def _io_info(name: str, fn):
    """Bytes written or read by an io call: the size of its file afterwards."""
    if name == "save_run_record":
        return lambda args, kwargs, result: _file_size(result)
    if name not in IO_WRITES + IO_READS:
        return None
    params = list(inspect.signature(fn).parameters)
    index = params.index("path") if "path" in params else 0
    return lambda args, kwargs, result: _file_size(_arg(args, kwargs, index, "path"))


def _fit_info(args, kwargs, result):
    calibrated = _arg(args, kwargs, 0, "calibrated")
    rows = 2 * 4 * len(calibrated.freqs)  # real and imaginary part of 4 channels
    return (int(result.n_iter), bool(result.converged), rows)


def public_functions() -> dict:
    """``{function: (span name, layer, info hook)}`` for every traced callable."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"routercell.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            info = None
            if layer == "model":
                params = list(inspect.signature(obj).parameters)
                for grid in ("omega", "delta"):
                    if grid in params:
                        info = _points_info(grid, params.index(grid))
            elif layer == "io":
                info = _io_info(attr, obj)
            elif layer == "estimation" and attr == "fit_four_channel":
                info = _fit_info
            found[obj] = (f"{layer}.{attr}", layer, info)
    return found


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.warnings: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        if self._patches:
            return
        targets = public_functions()
        wrappers = {fn: self._wrap(fn, *meta) for fn, meta in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "routercell" or mod_name.startswith("routercell.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"routercell.{layer}"), cls_name)
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{meth}", layer, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, layer: str, info):
        spans = self.spans
        stack = self._stack
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append((sid, layer))
            failed = True
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = perf()
                stack.pop()
                extra = None if info is None or failed else info(args, kwargs, result)
                spans[sid] = (name, layer, t0, t1, parent, tracer.op, failed, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def count_warning(self, *args, **kwargs) -> None:
        """``warnings.showwarning`` replacement: count per innermost open layer."""
        layer = self._stack[-1][1] if self._stack else "untraced"
        self.warnings[layer] += 1

    def absorb(self, spans: list, op: int) -> None:
        """Append spans recorded in another process, re-indexed for this op."""
        base = len(self.spans)
        for name, layer, t0, t1, parent, _op, failed, extra in spans:
            if isinstance(extra, list):
                extra = tuple(extra)
            self.spans.append((name, layer, t0, t1, base + parent if parent >= 0 else -1,
                               op, failed, extra))


def quiet_counting_warnings(tracer: Tracer) -> None:
    """Count every warning (not only the first per location) without printing it."""
    warnings.simplefilter("always")
    warnings.showwarning = tracer.count_warning


# ---------------------------------------------------------------------------
# per-layer metrics


def _foreign_time(sid: int, spans: list, children: list) -> float:
    """Time covered by descendants in another layer, seen through same-layer spans."""
    layer = spans[sid][1]
    total = 0.0
    todo = list(children[sid])
    while todo:
        c = todo.pop()
        if spans[c][1] == layer:
            todo.extend(children[c])
        else:
            total += spans[c][3] - spans[c][2]
    return total


def layer_metrics(spans: list, ops: int, points_per_op: int, warns: Counter,
                  cli_import_s: list, cli_walls: dict) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Counts, busy times and bytes are per op.  ``busy`` is the summed
    duration of a layer's entry spans (spans whose parent is in another
    layer or is the op itself).  Self time is a span's duration minus the
    time covered by its descendants in other layers; nested calls within the
    same layer stay part of the caller's own work.
    """
    ops = max(ops, 1)
    points = ops * points_per_op
    children = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(sid)

    def dur(s):
        return s[3] - s[2]

    def is_entry(s):
        return s[4] < 0 or spans[s[4]][1] != s[1]

    busy = Counter()
    errors = Counter()
    calls = Counter()
    by_name: dict = {}
    for s in spans:
        calls[s[0]] += 1
        by_name.setdefault(s[0], []).append(s)
        if is_entry(s):
            busy[s[1]] += dur(s)
        if s[6]:
            errors[s[1]] += 1

    def named(name):
        return by_name.get(name, [])

    def total_ms(name):
        return 1e3 * sum(dur(s) for s in named(name))

    def self_ms(name):
        return 1e3 * sum(dur(spans[i]) - _foreign_time(i, spans, children)
                         for i, s in enumerate(spans) if s[0] == name)

    model_entries = [s for s in spans if s[1] == "model" and is_entry(s)]
    model_points = sum(s[7] or 0 for s in model_entries)

    fits = [s for s in named("estimation.fit_four_channel") if not s[6]]
    nfev = sum(s[7][0] for s in fits)
    fit_ms = 1e3 * sum(dur(s) for s in fits)

    def io_side(names):
        side = [s for s in spans if s[1] == "io" and s[0].rsplit(".", 1)[1] in names]
        seconds = sum(dur(s) for s in side)
        nbytes = sum(s[7] or 0 for s in side if not s[6])
        return seconds, nbytes

    w_s, w_b = io_side(IO_WRITES)
    r_s, r_b = io_side(IO_READS)
    exact_calls = calls["network.compose_exact"]

    m = {
        "model.calls": sum(1 for _ in model_entries) / ops,
        "model.points": model_points / ops,
        "model.busy_ms": 1e3 * busy["model"] / ops,
        "model.us_per_point": 1e6 * busy["model"] / points,
        "network.compose_exact.calls": exact_calls / ops,
        "network.compose_neumann.calls": calls["network.compose_neumann"] / ops,
        "network.busy_ms": 1e3 * busy["network"] / ops,
        "network.us_per_point": 1e6 * busy["network"] / points,
        "network.exact_per_point": exact_calls / points,
        "synth.gen_spectrum.self_ms": self_ms("synth.gen_spectrum") / ops,
        "calibration.calibrate_responses.busy_ms": total_ms("calibration.calibrate_responses") / ops,
        "calibration.circle_fit.busy_ms": total_ms("calibration.circle_fit") / ops,
        "calibration.errors": errors["calibration"],
        "calibration.warnings": warns.get("calibration", 0),
        "estimation.fit_four_channel.busy_ms": fit_ms / ops,
        "estimation.fit_four_channel.nfev": nfev / ops,
        "estimation.fit_four_channel.ms_per_nfev": fit_ms / nfev if nfev else 0.0,
        "estimation.fit_four_channel.not_converged": sum(1 for s in fits if not s[7][1]),
        "estimation.fit_four_channel.jac_bytes": max((s[7][2] * 5 * 8 for s in fits), default=0),
        "estimation.initial_guess.busy_ms": total_ms("estimation.initial_guess_from_spectrum") / ops,
        "io.write.busy_ms": 1e3 * w_s / ops,
        "io.write.bytes": w_b / ops,
        "io.write.mb_per_s": w_b / 1e6 / w_s if w_s else 0.0,
        "io.read.busy_ms": 1e3 * r_s / ops,
        "io.read.bytes": r_b / ops,
        "io.read.mb_per_s": r_b / 1e6 / r_s if r_s else 0.0,
        "io.errors": errors["io"],
        "cli.import_s": statistics.median(cli_import_s) if cli_import_s else 0.0,
    }
    for step in CLI_STEPS:
        walls = cli_walls.get(step, [])
        m[f"cli.{step}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["cli.run_command.self_ms"] = self_ms("cli.run_command") / ops
    return m


UNITS = {
    "calls": "count/op", "points": "count/op", "busy_ms": "ms/op", "self_ms": "ms/op",
    "us_per_point": "us", "exact_per_point": "ratio", "errors": "count",
    "warnings": "count", "nfev": "count/op", "ms_per_nfev": "ms", "not_converged": "count",
    "jac_bytes": "bytes_computed", "bytes": "B/op", "mb_per_s": "MB/s", "import_s": "s",
    "wall_s": "s", "overhead_pct": "%",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def write_spans(path: Path, tracer: Tracer) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "op", "failed", "info"],
                   "spans": tracer.spans, "warnings": dict(tracer.warnings)}, fh)
