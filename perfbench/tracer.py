"""Spans around the public functions of peertrade's modules.

The tracer patches a timing wrapper onto every public module-level
function of each peertrade module (and onto ``Scenario.validate``) while
it is active, and restores the originals afterwards.  Calls made inside
the program reach the wrappers because the modules call each other
through module attributes.  Functions captured by reference before
patching (``cli._COMMANDS``) are timed as part of their caller.

Each call becomes a span ``(id, name, start, end, parent)``.  Spans are
kept in memory, up to a cap, and written out when the benchmark ends;
per-function call counts, inclusive time and self time (duration minus
child spans) are accumulated for every call, capped or not.  Observers
read counts off selected calls' arguments and results, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np

from peertrade import cli, equilibrium, market, privacy, qp, scenario, structure

MODULES = (scenario, qp, market, equilibrium, structure, privacy, cli)
SPAN_CAP = 200_000


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _targets():
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for mod in MODULES:
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((mod, attr, f"{_short(mod)}.{attr}"))
    out.append((scenario.Scenario, "validate", "scenario.validate"))
    return out


def _kept_canonical(scn, samples) -> int:
    """Kept samples that stay distinct once -0.0 and 0.0 are one key."""
    pairs = list(scn.directed_pairs())
    keys = set()
    for s in samples:
        sol = s.solution
        x = ([sol.D[n] for n in scn.node_ids] + [sol.G[n] for n in scn.node_ids]
             + [sol.q[m][n] for (m, n) in pairs])
        keys.add((np.round(np.array(x), 4) + 0.0).tobytes())
    return len(keys)


class Tracer:
    """Collects spans and counters while :meth:`active` is entered."""

    def __init__(self):
        self._targets = _targets()
        self._original = {name: getattr(owner, attr)
                          for owner, attr, name in self._targets}
        self._observers = {
            "qp.solve_batch": self._observe_batch,
            "equilibrium.sweep_gne": self._observe_sweep,
            "structure.detect_preference_cycles": self._observe_cycles,
            "structure.detect_game_cycles": self._observe_cycles,
            "privacy.monte_carlo_bias": self._observe_mc,
        }
        self._wrappers = {name: self._wrap(name, fn)
                          for name, fn in self._original.items()}
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for _, _, name in self._targets}
        self.counters = {}
        self.spans = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack = []      # frames [span id, child seconds]

    # -- counters --------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def _observe_batch(self, args, kwargs, result) -> None:
        problem = args[0] if args else kwargs["problem"]
        rows = len(result.status_code)
        self.add("qp.rows", rows)
        self.add("qp.iters", int(result.iterations.sum()))
        self.peak("qp.ipm_iters_max", int(result.iterations.max()))
        self.add("qp.rows_nonoptimal", int(np.count_nonzero(result.status_code)))
        self.peak("qp.residual_max", float(result.residual.max()))
        self.add("qp.kkt_dim_rows", rows * (problem.n_var + problem.n_eq))
        self.add("qp.ineq_rows_rows", rows * problem.n_ineq)

    def _observe_sweep(self, args, kwargs, result) -> None:
        bound = inspect.signature(self._original["equilibrium.sweep_gne"]) \
            .bind(*args, **kwargs)
        scn, strategy = bound.arguments["scenario"], bound.arguments["strategy"]
        support = self._original["equilibrium.default_support"](scn, strategy.support)
        self.add("equilibrium.points", strategy.count(len(support)))
        self.add("equilibrium.kept", len(result))
        self.add("equilibrium.kept_canonical", _kept_canonical(scn, result))

    def _observe_cycles(self, args, kwargs, result) -> None:
        self.add("structure.cycles_found", len(result))

    def _observe_mc(self, args, kwargs, result) -> None:
        bound = inspect.signature(self._original["privacy.monte_carlo_bias"]) \
            .bind(*args, **kwargs)
        self.add("privacy.mc_samples", int(bound.arguments["samples"]))

    # -- spans -----------------------------------------------------------

    def _open(self):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, t0, t1) -> float:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, t0, t1, parent))
        else:
            self.spans_dropped += 1
        return dur

    def _wrap(self, name, fn):
        tracer = self
        observer = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, parent, t0, clock())
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one traced unit."""
        frame, parent = self._open()
        t0 = time.perf_counter()
        box = [0.0]
        try:
            yield box
        finally:
            box[0] = self._close(name, frame, parent, t0, time.perf_counter())

    @contextmanager
    def active(self):
        """Patch the wrappers in for the duration of the block."""
        for owner, attr, name in self._targets:
            setattr(owner, attr, self._wrappers[name])
        try:
            yield self
        finally:
            for owner, attr, name in self._targets:
                setattr(owner, attr, self._original[name])

    # -- reporting -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def module_self_s(self) -> dict:
        out = {_short(mod): 0.0 for mod in MODULES}
        for name, (_, _, self_s) in self.stats.items():
            mod = name.split(".", 1)[0]
            if mod in out:
                out[mod] += self_s
        return out
