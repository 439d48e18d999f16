"""The benchmark's tracer patches dirbvp names from outside the package; a
name that no longer resolves only prints a note, and its per-layer
metrics silently read zero.  This keeps every traced name resolvable.
"""

import importlib
import importlib.util
import math
from pathlib import Path

from dirbvp import corpus
from dirbvp.solver import CONVERGED, newton_solve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_resolves():
    tracing = _load_tracing()
    assert tracing.SITES
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer, _work in tracing.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_tracer_sees_every_evaluation_of_a_newton_solve():
    # v once, f at the start and at each line-search trial, f_x once per step
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = newton_solve(corpus.build("f1"), 64)
    finally:
        tracer.uninstall()
    assert report.status == CONVERGED and report.iterations > 0
    trials = sum(1 + round(-math.log2(lam)) for _, _, lam in report.step_trace)
    expected = 1 + (1 + trials) + report.iterations
    assert tracer.totals[("op", "expr.evaluate")]["calls"] == expected
