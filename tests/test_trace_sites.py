"""The benchmark's tracer patches dirbvp names from outside the package; a
name that no longer resolves only prints a note, and its per-layer
metrics silently read zero.  This keeps every traced name resolvable.
"""

import importlib
import importlib.util
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
    # The tracer wraps evaluate, and a solve evaluates only v through it.  It
    # runs f and f_x from the spec's joint program, through no traced site.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = newton_solve(corpus.build("f1"), 64)
    finally:
        tracer.uninstall()
    assert report.status == CONVERGED and report.iterations > 0
    assert tracer.totals[("op", "expr.evaluate")]["calls"] == 1
