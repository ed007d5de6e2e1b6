"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: each public function
listed in ``TARGETS`` is replaced, in every ``jprox`` module namespace that
holds it, by a wrapper that times the call. Span stacks are kept per
thread because sweep cells run on a thread pool; a span's self time is its
duration minus the durations of its child spans on the same thread.

Functions called once per iteration or per block (``hot``) are only
aggregated per (name, parent); the others are also stored as individual
spans (name, start, end, parent id, thread). Everything stays in memory
until :meth:`Tracer.export` is called at the end of the run.

Importing this module does not import ``jprox``; only :meth:`Tracer.install`
does, so ``run.py`` can read the metric names without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager


def _add_iterations(counters, args, result):
    # Trace.ks holds the iterate indices; the last one is the number of steps.
    counters["solvers.iterations"] += result.ks[-1]


def _add_trace_rows(counters, args, result):
    counters["cli.trace_rows"] += len(args[0].ks)


def _add_cells_error(counters, args, result):
    counters["experiments.cells_error"] += sum(cell.error is not None for cell in result.values())


#: (metric name, module, attribute, hot, counter hook). An attribute of the
#: form ``Class.method`` is patched on the class.
TARGETS = (
    ("solvers.run", "jprox.solvers", "run", False, _add_iterations),
    ("solvers.solve_block_quadratic", "jprox.solvers", "solve_block_quadratic", True, None),
    ("linalg.SpdFactor.solve", "jprox.linalg", "SpdFactor.solve", True, None),
    ("linalg.SpdFactor.init", "jprox.linalg", "SpdFactor.__init__", True, None),
    ("linalg.min_eigenvalue_sym", "jprox.linalg", "min_eigenvalue_sym", True, None),
    ("linalg.generalized_max_eigenvalue", "jprox.linalg", "generalized_max_eigenvalue", True, None),
    ("linalg.spectral_norm", "jprox.linalg", "spectral_norm", True, None),
    ("linalg.smallest_singular_value_stacked", "jprox.linalg",
     "smallest_singular_value_stacked", True, None),
    ("problem.constraint_residual", "jprox.problem", "constraint_residual", True, None),
    ("problem.check_point", "jprox.problem", "check_point", True, None),
    ("certify.smallest_certified_tau", "jprox.certify", "smallest_certified_tau", False, None),
    ("certify.certify", "jprox.certify", "certify", False, None),
    ("certify.estimate_constants", "jprox.certify", "estimate_constants", False, None),
    ("certify.PhiWeights.evaluate", "jprox.certify", "PhiWeights.evaluate", True, None),
    ("certify.fit_linear_rate", "jprox.certify", "fit_linear_rate", False, None),
    ("experiments.run_sweep", "jprox.experiments", "run_sweep", False, _add_cells_error),
    ("experiments.reference_solution", "jprox.experiments", "reference_solution", False, None),
    ("experiments.load_instance", "jprox.experiments", "load_instance", False, None),
    ("experiments.generate_lcqp", "jprox.experiments", "generate_lcqp", False, None),
    ("experiments.generate_resource_alloc", "jprox.experiments", "generate_resource_alloc",
     False, None),
    ("experiments.save_instance", "jprox.experiments", "save_instance", False, None),
    ("cli.write_trace_csv", "jprox.cli", "write_trace_csv", False, _add_trace_rows),
    ("cli.read_trace_csv", "jprox.cli", "read_trace_csv", False, None),
    ("cli.build_policy", "jprox.cli", "build_policy", False, None),
    ("svgplot.line_plot_svg", "jprox.svgplot", "line_plot_svg", False, None),
)

COUNTERS = ("solvers.iterations", "cli.trace_rows", "experiments.cells_error")


class _ThreadState:
    def __init__(self):
        self.stack = []       # frames: [name, child seconds, span id]
        self.agg = {}         # (name, parent name) -> [calls, seconds, self seconds]
        self.spans = []       # (name, start, end, span id, parent id, thread id)
        self.counters = dict.fromkeys(COUNTERS, 0)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    @contextmanager
    def span(self, name: str, keep: bool = True):
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0, next(self._ids)]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield state
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            key = (name, parent[0] if parent is not None else "")
            entry = state.agg.get(key)
            if entry is None:
                entry = state.agg[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if keep:
                state.spans.append((name, start, end, frame[2],
                                    parent[2] if parent is not None else 0,
                                    threading.get_ident()))

    def _wrap(self, name, fn, hot, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, keep=not hot) as state:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(state.counters, args, result)
                return result
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a ``jprox`` module looks it up."""
        importlib.import_module("jprox.cli")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "jprox" or key.startswith("jprox.")]
        for name, modname, attr, hot, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), hot, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hot, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def export(self) -> dict:
        """Merged aggregates, counters and stored spans of every thread."""
        agg = {}
        counters = dict.fromkeys(COUNTERS, 0)
        spans = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, secs, self_secs) in state.agg.items():
                entry = agg.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += secs
                entry[2] += self_secs
            for key, value in state.counters.items():
                counters[key] += value
            spans.extend(state.spans)
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "s": s, "self_s": ss}
                for (n, p), (c, s, ss) in sorted(agg.items())
            ],
            "counters": counters,
            "spans": [
                {"name": n, "start": a, "end": b, "id": i, "parent": p, "thread": t}
                for n, a, b, i, p, t in sorted(spans, key=lambda sp: sp[1])
            ],
        }
