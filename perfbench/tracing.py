"""Spans around dirbvp's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced name in the module where its
caller looks it up (``dirbvp.solver.solve_tridiagonal`` is what
``newton_solve`` calls), so dirbvp itself is unchanged.  Spans stay in
memory until ``write``; ``totals`` gives calls, time, self time and work
counts per layer and phase.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(args, kwargs, result):
    return int(np.size(result))


def _iterations(args, kwargs, result):
    return result.iterations


def _samples(args, kwargs, result):
    return result.samples_t * result.samples_x


# (module where the caller looks the name up, attribute, layer, work counter)
SITES = [
    ("dirbvp.solver", "newton_solve", "solver.newton_solve", _iterations),
    ("dirbvp.cli", "newton_solve", "solver.newton_solve", _iterations),
    ("dirbvp.solver", "solve_tridiagonal", "discrete_op.solve_tridiagonal", _size),
    ("dirbvp.solver", "residual", "discrete_op.residual", None),
    ("dirbvp.solver", "jacobian", "discrete_op.jacobian", None),
    ("dirbvp.solver", "GridFunction", "grid.GridFunction", None),
    ("dirbvp.cli", "run", "cli.run", None),
    ("dirbvp.cli", "load_config", "cli.load_config", None),
    ("dirbvp.cli", "build_problem", "cli.build_problem", None),
    ("dirbvp.cli", "check_growth", "problem.check_growth", _samples),
    ("dirbvp.cli", "check_fx_lower", "problem.check_fx_lower", _samples),
    ("dirbvp.cli", "make_spec", "problem.make_spec", None),
    ("dirbvp.convergence", "make_spec", "problem.make_spec", None),
    ("dirbvp.corpus", "make_spec", "problem.make_spec", None),
    ("dirbvp.cli", "manufacture", "convergence.manufacture", None),
    ("dirbvp.corpus", "manufacture", "convergence.manufacture", None),
    ("dirbvp.corpus", "build", "corpus.build", None),
    ("dirbvp.cli", "parse", "expr.parse", None),
    ("dirbvp.problem", "parse", "expr.parse", None),
    ("dirbvp.convergence", "parse", "expr.parse", None),
    ("dirbvp.problem", "diff", "expr.diff", None),
    ("dirbvp.convergence", "diff", "expr.diff", None),
] + [
    (module, "evaluate", "expr.evaluate", _size)
    for module in ("dirbvp.expr", "dirbvp.discrete_op", "dirbvp.solver", "dirbvp.problem",
                   "dirbvp.convergence", "dirbvp.cli")
]


class _ClassProxy:
    """Stands in for a class: construction and class methods become spans."""

    def __init__(self, cls, wrap):
        self._cls = cls
        self._wrap = wrap
        self._call = wrap(cls)
        self._methods = {}

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        if name not in self._methods:
            attr = getattr(self._cls, name)
            self._methods[name] = self._wrap(attr) if callable(attr) else attr
        return self._methods[name]


class Tracer:
    """Spans and per-layer totals, kept in memory; ``phase`` and ``op`` tag new spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, phase, name, start, end)
        self.phase = "op"
        self.op = None
        self.totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []

    def span(self, name, fn, work=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[span_id] = (span_id, parent, self.op, self.phase, name, start, end)
                total = self.totals[(self.phase, name)]
                total["calls"] += 1
                total["s"] += duration
                total["self_s"] += duration - frame[1]
            if work is not None:
                total["work"] += work(args, kwargs, result)
            return result

        return traced

    def count(self, name, amount):
        self.totals[(self.phase, name)]["work"] += amount

    def install(self):
        missing = []
        for module_name, attr, layer, work in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, type):
                replacement = _ClassProxy(original, lambda fn, layer=layer: self.span(layer, fn))
            else:
                replacement = self.span(layer, original, work)
            setattr(module, attr, replacement)
            self._patched.append((module, attr, original))
        if missing:
            sys.stderr.write(f"trace: not found, not traced: {', '.join(missing)}\n")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans as JSON lines, after a first line naming the fields.

        Start and end are nanoseconds from the start of the first span.
        """
        origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["id", "parent", "op", "phase", "name", "start_ns", "end_ns"]) + "\n")
            for span_id, parent, op, phase, name, start, end in self.spans:
                row = [span_id, parent, op, phase, name,
                       round((start - origin) * 1e9), round((end - origin) * 1e9)]
                out.write(json.dumps(row) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


# (metric, phase, layer, field, unit); per operation in phase "op", per
# set-up in phase "setup".  Fields: calls, ms, self_ms, work.
LAYER_METRICS = [
    ("discrete_op.solve_tridiagonal.calls", "op", "discrete_op.solve_tridiagonal", "calls", "count/op"),
    ("discrete_op.solve_tridiagonal.ms", "op", "discrete_op.solve_tridiagonal", "ms", "ms/op"),
    ("discrete_op.solve_tridiagonal.unknowns", "op", "discrete_op.solve_tridiagonal", "work", "count/op"),
    ("discrete_op.residual.calls", "op", "discrete_op.residual", "calls", "count/op"),
    ("discrete_op.residual.ms", "op", "discrete_op.residual", "ms", "ms/op"),
    ("discrete_op.jacobian.calls", "op", "discrete_op.jacobian", "calls", "count/op"),
    ("discrete_op.jacobian.ms", "op", "discrete_op.jacobian", "ms", "ms/op"),
    ("expr.evaluate.calls", "op", "expr.evaluate", "calls", "count/op"),
    ("expr.evaluate.ms", "op", "expr.evaluate", "ms", "ms/op"),
    ("expr.evaluate.elements", "op", "expr.evaluate", "work", "count/op"),
    ("expr.parse.calls", "op", "expr.parse", "calls", "count/op"),
    ("expr.parse.ms", "op", "expr.parse", "ms", "ms/op"),
    ("expr.diff.ms", "op", "expr.diff", "ms", "ms/op"),
    ("grid.GridFunction.calls", "op", "grid.GridFunction", "calls", "count/op"),
    ("grid.GridFunction.ms", "op", "grid.GridFunction", "ms", "ms/op"),
    ("solver.newton_solve.calls", "op", "solver.newton_solve", "calls", "count/op"),
    ("solver.newton_solve.ms", "op", "solver.newton_solve", "ms", "ms/op"),
    ("solver.newton_solve.self_ms", "op", "solver.newton_solve", "self_ms", "ms/op"),
    ("solver.iterations", "op", "solver.newton_solve", "work", "count/op"),
    ("cli.run.self_ms", "op", "cli.run", "self_ms", "ms/op"),
    ("cli.output_bytes", "op", "cli.output_bytes", "work", "bytes/op"),
    ("cli.build_problem.calls", "op", "cli.build_problem", "calls", "count/op"),
    ("cli.load_config.ms", "op", "cli.load_config", "ms", "ms/op"),
    ("problem.make_spec.ms", "op", "problem.make_spec", "ms", "ms/op"),
    ("problem.check_growth.ms", "op", "problem.check_growth", "ms", "ms/op"),
    ("problem.check_fx_lower.ms", "op", "problem.check_fx_lower", "ms", "ms/op"),
    ("convergence.manufacture.ms", "op", "convergence.manufacture", "ms", "ms/op"),
    ("corpus.build.ms", "op", "corpus.build", "ms", "ms/op"),
    ("setup.cli.build_problem.calls", "setup", "cli.build_problem", "calls", "count"),
    ("setup.cli.load_config.ms", "setup", "cli.load_config", "ms", "ms"),
    ("setup.problem.make_spec.ms", "setup", "problem.make_spec", "ms", "ms"),
    ("setup.expr.parse.ms", "setup", "expr.parse", "ms", "ms"),
    ("setup.expr.diff.ms", "setup", "expr.diff", "ms", "ms"),
    ("setup.expr.evaluate.ms", "setup", "expr.evaluate", "ms", "ms"),
    ("setup.convergence.manufacture.ms", "setup", "convergence.manufacture", "ms", "ms"),
    ("setup.corpus.build.ms", "setup", "corpus.build", "ms", "ms"),
]


def layer_metrics(tracer, ops: int, setups: int) -> dict:
    def value(phase, layer, field):
        total = tracer.totals.get((phase, layer))
        if total is None:
            return 0.0
        raw = {"calls": total["calls"], "ms": total["s"] * 1e3,
               "self_ms": total["self_s"] * 1e3, "work": total["work"]}[field]
        return raw / (ops if phase == "op" else setups)

    metrics = {name: metric(value(phase, layer, field), unit)
               for name, phase, layer, field, unit in LAYER_METRICS}
    samples = value("op", "problem.check_growth", "work") + value("op", "problem.check_fx_lower", "work")
    metrics["problem.samples"] = metric(samples, "count/op")
    # Every solve evaluates one residual before iterating; each later
    # residual is a line-search trial.
    trials = value("op", "discrete_op.residual", "calls") - value("op", "solver.newton_solve", "calls")
    iterations = metrics["solver.iterations"]["value"]
    metrics["solver.line_search_trials"] = metric(trials, "count/op")
    metrics["solver.armijo_accept_ratio"] = metric(iterations / trials if trials else 0.0, "ratio")
    return metrics
