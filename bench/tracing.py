"""In-memory span tracing of spdelab, installed from outside the package.

Every public function of the seven package modules (the layers) is wrapped
while a ``Tracer`` is installed. A function imported by name into another
module, such as ``spdelab.cli.simulate_rpde`` or
``spdelab.blowup.brownian_increments``, is replaced there too, as is any
module-level dict entry that refers to it (the CLI's command table).
Uninstalling restores every original object.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for the root). Spans stay in memory and are written out
by the caller when the run ends. Counters are updated by per-function hooks
at the same boundaries. Spans must come from the thread that installed the
tracer; the Monte Carlo kernel is therefore traced at one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("config", "domain", "stochastic", "blowup", "certificates", "integrator", "cli")
ROOT = "bench.op"


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _trajectory_counts(prefix):
    def hook(counts, fn, args, kwargs, result):
        blew_up = result.outcome.value == "numerical_blowup"
        # accepted grid steps, plus the rejected step that crossed the cutoff;
        # the dt-halving cascade inside the crossing step is not counted
        counts[prefix + ".steps"] += len(result.times) - 1 + int(blew_up)
        counts["integrator.numerical_blowups"] += int(blew_up)

    return hook


def _csv_counts(counts, fn, args, kwargs, result):
    counts["cli.write_csv.rows"] += len(_argument(fn, args, kwargs, "rows"))
    counts["cli.write_csv.bytes"] += os.path.getsize(result)


HOOKS = {
    "stochastic.brownian_increments": lambda c, fn, a, k, r: c.update(
        {"stochastic.normals_drawn": len(r)}
    ),
    "domain.solve_eigenpairs": lambda c, fn, a, k, r: c.update(
        {"domain.solve_eigenpairs.modes": r.m}
    ),
    "blowup.mc_blowup_probability": lambda c, fn, a, k, r: c.update({"blowup.mc.paths": r.n_paths}),
    "integrator.simulate_rpde": _trajectory_counts("integrator.simulate_rpde"),
    "integrator.simulate_spde_em": _trajectory_counts("integrator.simulate_spde_em"),
    "cli.write_csv": _csv_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{name} called from a thread the tracer does not own")
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.counts[name + ".failed"] += 1
                    raise
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spdelab.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "spdelab" and not modname.startswith("spdelab."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patched.append((obj, key, value))
                            obj[key] = wrappers[value]
        try:
            yield self
        finally:
            for owner, key, original in reversed(self._patched):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)
            self._patched.clear()


def analyse(spans: list[list]) -> dict:
    """Inclusive time, self time and calls per span name, self time per layer.

    Self time is a span's duration minus the durations of its direct
    children. No traced function calls itself, directly or through another,
    so summing durations per name counts no interval twice.
    """
    n = len(spans)
    child = [0.0] * n
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - child[i]
        self_time[name] += own
        layer_self[name.split(".", 1)[0]] += own
        calls[name] += 1
        inclusive[name] += end - start
    roots = [s for s in spans if s[3] < 0]
    return {
        "inclusive": inclusive,
        "self": self_time,
        "calls": calls,
        "layer_self": layer_self,
        "root_s": sum(end - start for _, start, end, _ in roots),
        "self_sum_s": sum(self_time.values()),
    }
