"""Outside-in span tracing of one besovflow CLI op.

Run as a script, it is a drop-in launcher for the CLI:

    python perfbench/tracer.py SPANS.npz -- --config run.json --out DIR --quiet

It wraps every public function of the seven besovflow modules, plus the
methods listed in ``METHODS``, rebinds each wrapper at every module that
holds a reference to the original (so ``from .dyadic import dyadic_norm``
sites are traced too), runs ``besovflow.cli.main`` and, at exit, writes the
spans it kept in memory to SPANS.npz.  The package itself is not modified.

Imported, the module offers :func:`aggregate`, which turns span files into
per-function call counts, inclusive time and self time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

MODULES = ("pseudonorm", "dyadic", "littlewood_paley", "envelope", "engine", "flows", "cli")

# (module, class, method) -> span name.  The adapter's __call__ also counts
# cache misses: a call after which the memo table grew ran the full flow.
METHODS = {
    ("flows", "TrigInterpolant", "__call__"): "flows.TrigInterpolant.__call__",
    ("flows", "TrigInterpolant", "value_and_derivative"): "flows.TrigInterpolant.value_and_derivative",
    ("flows", "TrigInterpolant", "derivative"): "flows.TrigInterpolant.derivative",
    ("engine", "FlowMapAdapter", "__call__"): "engine.adapter",
}
ADAPTER_MISSES = "engine.adapter.misses"


class Tracer:
    """Span recorder: name id, start, end, parent span and outermost flag per call."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per span in each list; flat lists of numbers keep the
        # collector from scanning a container per span
        self.nid: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.outermost: list[bool] = []
        self.stack = [-1]
        self.active: list[int] = []
        self.counters: Counter = Counter()
        self.wrapped: dict = {}

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.active.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, active, clock = self.stack, self.active, time.perf_counter
        ends = self.end
        add_nid, add_start, add_end = self.nid.append, self.start.append, ends.append
        add_parent, add_outermost = self.parent.append, self.outermost.append

        def traced(*args, **kwargs):
            index = len(ends)
            depth = active[nid] = active[nid] + 1
            add_nid(nid)
            add_parent(stack[-1])
            add_outermost(depth == 1)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                active[nid] -= 1

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the package's public functions and rebind every import site."""
        modules = {short: importlib.import_module(f"besovflow.{short}") for short in MODULES}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    self.wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "besovflow" and not modname.startswith("besovflow."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in self.wrapped:
                    setattr(module, attr, self.wrapped[obj])
        for (short, cls_name, method), span_name in METHODS.items():
            cls = getattr(modules[short], cls_name)
            traced = self.wrap(span_name, cls.__dict__[method])
            if span_name == "engine.adapter":
                traced = self._count_misses(traced)
            setattr(cls, method, traced)

    def _count_misses(self, traced):
        counters = self.counters

        def adapter_call(adapter, f):
            before = len(adapter._cache)
            result = traced(adapter, f)
            if not adapter.memoize or len(adapter._cache) > before:
                counters[ADAPTER_MISSES] += 1
            return result

        return adapter_call

    def unpatched_sites(self) -> list[str]:
        """Module attributes that still refer to an unwrapped original."""
        return [
            f"{modname}.{attr}"
            for modname, module in list(sys.modules.items())
            if modname == "besovflow" or modname.startswith("besovflow.")
            for attr, obj in vars(module).items()
            if isinstance(obj, types.FunctionType) and obj in self.wrapped
        ]

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            nid=np.array(self.nid, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int64),
            outermost=np.array(self.outermost, dtype=bool),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


@dataclass
class SpanTotals:
    """Per-function totals over one or more span files (one traced pass)."""

    calls: Counter = field(default_factory=Counter)
    inclusive_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)


def aggregate(paths) -> SpanTotals:
    """Sum calls, inclusive and self time per span name over span files.

    Inclusive time counts only the outermost span of a name, so recursion is
    not counted twice.  Self time is a span's duration minus the durations
    of its direct children, which nest inside it on the single op thread.
    """
    totals = SpanTotals()
    for path in paths:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            nid, parent = data["nid"], data["parent"]
            duration = data["end"] - data["start"]
            outermost = data["outermost"]
            for name, value in zip(data["counter_names"], data["counter_values"]):
                totals.counters[str(name)] += int(value)
        covered = np.zeros(duration.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        size = len(names)
        calls = np.bincount(nid, minlength=size)
        inclusive = np.bincount(nid, weights=np.where(outermost, duration, 0.0), minlength=size)
        self_time = np.bincount(nid, weights=own, minlength=size)
        for i, name in enumerate(names):
            totals.calls[name] += int(calls[i])
            totals.inclusive_s[name] += float(inclusive[i])
            totals.self_s[name] += float(self_time[i])
    return totals


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <besovflow CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    missed = tracer.unpatched_sites()
    if missed:
        print(f"unpatched import sites: {', '.join(missed)}", file=sys.stderr)
        return 4
    cli = importlib.import_module("besovflow.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
