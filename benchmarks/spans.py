"""Outside-in tracing of the downwash modules.

``Tracer.install`` replaces every public function and method of the traced
modules with a wrapper that records one span per call: its name, the span
that called it, the CLI stage it ran under, and its duration.  Spans are
aggregated in memory per (stage, caller, name) into call count, total time and
self time (duration minus the time of the spans it called), plus a few
counters read from arguments and results.  ``uninstall`` puts the originals
back, so traced and untraced rounds can alternate in one process.

The package source is not touched: references to a function are replaced in
every module namespace that imported it, and methods are replaced on their
classes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = (
    "core",
    "rng",
    "field",
    "formations",
    "dataset",
    "mlp",
    "models",
    "training",
    "evaluate",
    "config",
    "cli",
)


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _observe_save_dataset(tracer, args, kwargs, result):
    data, path = args[0], args[1] if len(args) > 1 else kwargs["csv_path"]
    tracer.count("dataset.saved_records", len(data))
    tracer.count("dataset.saved_bytes", os.path.getsize(path))


def _observe_load_dataset(tracer, args, kwargs, result):
    tracer.count("dataset.loaded_records", len(result))


def _observe_generate_sweep(tracer, args, kwargs, result):
    tracer.count("formations.generated_records", len(result))


def _observe_dataset_arrays(tracer, args, kwargs, result):
    mask = result[1]
    tracer.count("training.mask_ones", float(mask.sum()))
    tracer.count("training.mask_cells", int(mask.size))


def _observe_forward(tracer, args, kwargs, result):
    tracer.count("mlp.forward_rows", _rows(args[1] if len(args) > 1 else kwargs["x"]))


def _observe_backward(tracer, args, kwargs, result):
    tracer.count("mlp.backward_rows", _rows(args[2] if len(args) > 2 else kwargs["dy"]))


OBSERVERS = {
    "dataset.save_dataset": _observe_save_dataset,
    "dataset.load_dataset": _observe_load_dataset,
    "formations.generate_sweep": _observe_generate_sweep,
    "training.dataset_arrays": _observe_dataset_arrays,
    "mlp.Mlp.forward_cached": _observe_forward,
    "mlp.Mlp.backward": _observe_backward,
}


class Tracer:
    """Aggregated spans and counters of the traced package, per CLI stage."""

    def __init__(self, package: str = "downwash"):
        self.package = package
        self.stage = "-"
        self.spans = {}     # (stage, parent, name) -> [calls, total_s, self_s]
        self.counters = {}  # (stage, name) -> value
        self._stack = []    # open spans: [name, child_s]
        self._patches = []  # (owner, attribute, original)

    def count(self, name: str, value) -> None:
        key = (self.stage, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (self.stage, parent, name)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, raw attribute) for every traced callable."""
        for short in MODULES:
            module = importlib.import_module(f"{self.package}.{short}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{short}.{attr}", obj
                elif inspect.isclass(obj):
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_") and meth not in ("__init__", "__call__"):
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)):
                            yield obj, meth, f"{short}.{attr}.{meth}", raw

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(self.package)] + [
            importlib.import_module(f"{self.package}.{short}") for short in MODULES
        ]
        for owner, attr, name, raw in list(self._targets()):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if inspect.isfunction(raw):
                # Re-point every "from .module import name" binding too.
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patches.append((module, alias, raw))
                            setattr(module, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- queries ---------------------------------------------------------

    def calls(self, name: str, stages=None) -> int:
        return sum(v[0] for (st, _, n), v in self.spans.items() if n == name and _in(st, stages))

    def total(self, name: str, stages=None) -> float:
        return sum(v[1] for (st, _, n), v in self.spans.items() if n == name and _in(st, stages))

    def counter(self, name: str, stages=None):
        return sum(v for (st, n), v in self.counters.items() if n == name and _in(st, stages))

    def table(self) -> list:
        """Per-span rows (name, calls, total_s, self_s, mean_us), by self time."""
        rows = {}
        for (_, _, name), (calls, total, own) in self.spans.items():
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        out = [(name, c, t, s, 1e6 * t / c) for name, (c, t, s) in rows.items()]
        return sorted(out, key=lambda row: -row[3])

    def dump(self) -> dict:
        return {
            "spans": [
                {"stage": st, "parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (st, parent, name), (c, t, s) in sorted(self.spans.items())
            ],
            "counters": [
                {"stage": st, "name": name, "value": v} for (st, name), v in sorted(self.counters.items())
            ],
        }


def _in(stage: str, stages) -> bool:
    return stages is None or stage in stages
