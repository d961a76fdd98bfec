"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of each rnncast module from outside the
package. Every call records a span (name, start, end, parent) in memory;
the spans are written out once the run has ended. `from X import f` copies
the binding of f into the importing module (cli.train, training.
backward_batch, evalkit.make_windows, ...), so every module attribute that
is the original function gets the wrapper, not only the defining one.
`uninstall` puts the originals back; an untraced run never installs one.
The tracer's own cost is estimated as the span count times the cost of one
wrapper call, timed on a no-op after the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict


def _forecast_note(args, result):
    # Keyed on the window count and the windows' last values: hashing every
    # window (about 0.5 MB a call) would land in the parent's self time.
    model, inputs = args[0], args[1]
    digest = hashlib.sha1(inputs[:, -1].tobytes()).hexdigest()
    return {"windows": int(inputs.shape[0]),
            "key": f"{model.kind}/{model.horizon}/{inputs.shape[0]}/{digest}"}


def _backward_note(args, result):
    # Multiply-adds of the three recurrent GEMMs per step (forward h@U,
    # backward dh@U and dU) plus the dense head, counted as 2 FLOP each.
    state, inputs = args[0], args[1]
    batch, steps = inputs.shape
    gates = 4 if state.kind == "lstm" else 3
    units = state.units
    flop = 6 * batch * units * (steps * gates * units + state.horizon)
    return {"flop": flop}


def _checkpoint_note(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _load_note(args, result):
    return {"key": os.path.realpath(args[0])}


def _csv_note(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _svg_note(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _targets():
    """(owner, attribute, span name, note) for every traced boundary."""
    from rnncast import cells, cli, dataprep, evalkit, numkit, svgchart, training
    return [
        (cli, "stage_generate", "cli.generate", None),
        (cli, "stage_train", "cli.train", None),
        (cli, "stage_evaluate", "cli.evaluate", None),
        (cli, "stage_plot", "cli.plot", None),
        (cli, "generate_series", "cli.generate_series", None),
        (training, "train", "training.train", None),
        (training, "adam_step", "training.adam_step", None),
        (training, "save_checkpoint", "training.save_checkpoint", _checkpoint_note),
        (training, "load_checkpoint", "training.load_checkpoint", _load_note),
        (cells, "backward_batch", "cells.backward_batch", _backward_note),
        (cells.ModelState, "forecast", "cells.forecast", _forecast_note),
        (numkit.Rng, "permutation", "numkit.permutation", None),
        (evalkit, "evaluate", "evalkit.evaluate", None),
        (evalkit, "aggregate", "evalkit.report", None),
        (evalkit, "report_to_csv", "evalkit.report", None),
        (evalkit, "report_to_text", "evalkit.report", None),
        (svgchart, "line_chart", "svgchart.line_chart", _svg_note),
        (dataprep, "load_csv", "dataprep.load_csv", _csv_note),
        (dataprep, "save_csv", "dataprep.save_csv", None),
        (dataprep, "make_windows", "dataprep.make_windows", None),
    ]


class Tracer:
    """Records spans as [name, start, end, parent index, note] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "rnncast" or n.startswith("rnncast.")]
        for owner, attr, name, note in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for holder in owners:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans, "wrapper_s": wrapper_cost()}, fh)


def wrapper_cost(calls: int = 10000, batches: int = 5) -> float:
    """Median seconds one wrapper call adds to a call, timed on a no-op
    with a fresh tracer per batch."""
    def noop():
        return None
    costs = []
    for _ in range(batches):
        wrapped = Tracer()._wrap("noop", noop, None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(values: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it; the
    median when there are too few samples for any."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return percentile(values, p), f"p{p:g}"
    return percentile(values, 50.0), "p50"


def layer_metrics(spans: list[list], wrapper_s: float) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit, note).

    Every `_s` metric is self time: the span's duration minus the part its
    direct child spans cover, summed over the spans of that name.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    notes = defaultdict(list)
    for i, (name, start, end, _, note) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
        durations[name].append(end - start)
        if note is not None:
            notes[name].append(note)

    def total(name, field):
        return sum(n[field] for n in notes[name])

    def useful(name):
        return len({n["key"] for n in notes[name]}) / calls[name] if calls[name] else 0.0

    bb = durations["cells.backward_batch"] or [0.0]
    tail, tail_label = tail_percentile(bb)
    gflop = total("cells.backward_batch", "flop") / 1e9
    bb_s = self_s["cells.backward_batch"]
    return {
        "cli.generate_s": (self_s["cli.generate"], "s", ""),
        "cli.train_s": (self_s["cli.train"], "s", ""),
        "cli.evaluate_s": (self_s["cli.evaluate"], "s", ""),
        "cli.plot_s": (self_s["cli.plot"], "s", ""),
        "cli.generate_series_calls": (calls["cli.generate_series"], "count", ""),
        "cells.backward_batch_s": (bb_s, "s", ""),
        "cells.backward_batch_calls": (calls["cells.backward_batch"], "count", ""),
        "cells.backward_batch_ms_p50": (percentile(bb, 50.0) * 1e3, "ms", ""),
        "cells.backward_batch_ms_tail": (tail * 1e3, "ms", f"{tail_label} of {len(bb)}"),
        "cells.train_gflop": (gflop, "GFLOP", "computed from shapes"),
        "cells.backward_batch_gflops": (gflop / bb_s if bb_s else 0.0, "GFLOP/s",
                                        "computed GFLOP / backward_batch_s"),
        "training.train_self_s": (self_s["training.train"], "s", ""),
        "training.adam_step_s": (self_s["training.adam_step"], "s", ""),
        "training.adam_step_calls": (calls["training.adam_step"], "count", ""),
        "numkit.permutation_s": (self_s["numkit.permutation"], "s", ""),
        "numkit.permutation_calls": (calls["numkit.permutation"], "count", ""),
        "cells.forecast_s": (self_s["cells.forecast"], "s", ""),
        "cells.forecast_calls": (calls["cells.forecast"], "count", ""),
        "cells.forecast_windows": (total("cells.forecast", "windows"), "count", ""),
        "cells.forecast_useful_ratio": (useful("cells.forecast"), "ratio",
                                        "distinct (model, inputs) / calls"),
        "evalkit.evaluate_self_s": (self_s["evalkit.evaluate"], "s", ""),
        "evalkit.report_s": (self_s["evalkit.report"], "s", ""),
        "svgchart.line_chart_s": (self_s["svgchart.line_chart"], "s", ""),
        "svgchart.line_chart_calls": (calls["svgchart.line_chart"], "count", ""),
        "svgchart.svg_bytes": (total("svgchart.line_chart", "bytes"), "bytes", ""),
        "training.load_checkpoint_s": (self_s["training.load_checkpoint"], "s", ""),
        "training.load_checkpoint_calls": (calls["training.load_checkpoint"], "count", ""),
        "training.load_useful_ratio": (useful("training.load_checkpoint"), "ratio",
                                       "distinct checkpoints / loads"),
        "training.save_checkpoint_s": (self_s["training.save_checkpoint"], "s", ""),
        "training.checkpoint_bytes": (total("training.save_checkpoint", "bytes"), "bytes", ""),
        "dataprep.load_csv_s": (self_s["dataprep.load_csv"], "s", ""),
        "dataprep.load_csv_calls": (calls["dataprep.load_csv"], "count", ""),
        "dataprep.load_csv_bytes": (total("dataprep.load_csv", "bytes"), "bytes", ""),
        "dataprep.save_csv_s": (self_s["dataprep.save_csv"], "s", ""),
        "dataprep.make_windows_s": (self_s["dataprep.make_windows"], "s", ""),
        "dataprep.make_windows_calls": (calls["dataprep.make_windows"], "count", ""),
        "trace.overhead_s": (len(spans) * wrapper_s, "s",
                             "spans x cost of one wrapper call on a no-op"),
    }
