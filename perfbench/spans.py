"""Per-layer tracing from outside the program.

`Tracer.install` replaces each public function named in LAYERS with a
wrapper that records one span per call: layer id, parent span, start and
end.  The program's own files are not touched; the wrapper is bound in every
``cellbal`` module that holds the original, so ``from .x import f`` call
sites are traced too.  Spans stay in memory until `Tracer.dump` writes them
as one ``.npz`` file, and `aggregate` turns such files into call counts and
self times (a span's duration minus the time its child spans cover).

Some layers also carry an observer that counts what the call produced, at
the same boundary; the counts go into the child's report, not the spans, and
counts from several interpreters add up.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

# cellbal.harness.INACTIVE_BITS, restated: run.py imports this module
# without cellbal on its path.
INACTIVE_BITS = "----"


def _scores(counts: Counter, args: tuple, decision: Any) -> None:
    stds = decision.predicted_std
    counts["scored"] += len(stds)
    counts["distinct_scores"] += len(set(stds))


def _step(counts: Counter, args: tuple, record: Any) -> None:
    if record is not None:
        counts["steps"] += 1
        counts["active_steps"] += record.candidate_bits != INACTIVE_BITS


def _trace_rows(counts: Counter, args: tuple, result: Any) -> None:
    counts["trace_rows"] += len(result[0])


def _table_rows(counts: Counter, args: tuple, table: Any) -> None:
    counts["table_rows"] += len(table)


def _trace_bytes(counts: Counter, args: tuple, result: Any) -> None:
    counts["write_trace_bytes"] += os.path.getsize(args[0])


Observer = Optional[Callable[[Counter, tuple, Any], None]]

# (span name, module, attribute, observer).  A dotted attribute is a method
# of a class in that module.
LAYERS: tuple[tuple[str, str, str, Observer], ...] = (
    ("controller.select_plan", "cellbal.controller", "select_plan", _scores),
    ("flyback.cycle_charge_deltas", "cellbal.flyback", "cycle_charge_deltas", None),
    ("flyback.simulate_cycle", "cellbal.flyback", "simulate_cycle", None),
    ("rls.predict", "cellbal.rls", "predict", None),
    ("rls.update", "cellbal.rls", "update", None),
    ("ecm.step_exact", "cellbal.ecm", "step_exact", None),
    ("ecm.CellParams", "cellbal.ecm", "CellParams.__init__", None),
    ("harness.step", "cellbal.harness", "Simulation.step", _step),
    ("harness.summarize", "cellbal.harness", "summarize", None),
    ("harness.run_scenario", "cellbal.harness", "run_scenario", _trace_rows),
    ("cli.build_scenario", "cellbal.cli", "build_scenario", None),
    ("cli.write_trace", "cellbal.cli", "write_trace", _trace_bytes),
    ("cli.read_trace", "cellbal.cli", "read_trace", _table_rows),
    ("cli.replay_identification", "cellbal.cli", "replay_identification", None),
    ("cli.cmd_identify", "cellbal.cli", "cmd_identify", None),
    ("cli.cmd_export_plots", "cellbal.cli", "cmd_export_plots", None),
)

LAYER_NAMES = tuple(name for name, _, _, _ in LAYERS)


class Tracer:
    """In-memory span recorder for one interpreter."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._open = [-1]

    def _wrap(self, layer_id: int, fn: Callable, observe: Observer) -> Callable:
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(open_spans[-1])
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer; call after ``cellbal.cli`` is imported."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "cellbal" or name.startswith("cellbal.")
        ]
        for layer_id, (_, module, attr, observe) in enumerate(LAYERS):
            owner: Any = sys.modules[module]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, fn_name)
            traced = self._wrap(layer_id, original, observe)
            if cls_name:
                setattr(owner, fn_name, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            layer=np.frombuffer(self.layer, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def aggregate(paths) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self seconds per layer, summed over the given span files."""
    import numpy as np

    n = len(LAYERS)
    calls = np.zeros(n, dtype=np.int64)
    self_s = np.zeros(n)
    for path in paths:
        with np.load(path) as z:
            layer, parent = z["layer"], z["parent"]
            duration = z["end"] - z["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        calls += np.bincount(layer, minlength=n)
        self_s += np.bincount(layer, weights=duration - covered, minlength=n)
    return (
        {name: int(c) for name, c in zip(LAYER_NAMES, calls)},
        {name: float(s) for name, s in zip(LAYER_NAMES, self_s)},
    )
