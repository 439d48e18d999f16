"""The benchmark's tracer patches dirbvp names from outside the package; a
name that no longer resolves only prints a note, and its per-layer
metrics silently read zero.  This keeps every traced name resolvable, and
every Newton layer that ``tools/trajectory.py`` wraps called.
"""

import importlib
import importlib.util
from pathlib import Path

from dirbvp import corpus
from dirbvp.solver import CONVERGED, newton_solve

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")


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


def test_trajectory_tool_sees_every_newton_layer_of_a_solve():
    # The tool times Newton's layers only through these names; one that
    # newton_solve stops calling would read no calls in its file.
    trajectory = _load("trajectory", ROOT / "tools" / "trajectory.py")
    assert trajectory.SITES
    missing = [
        f"{module}.{attr}"
        for module, attr in trajectory.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    with trajectory.traced() as tracer:
        report = newton_solve(corpus.build("f1"), 64)
    assert report.status == CONVERGED and report.iterations > 0
    # _root is two layers, f (root 0) and f_x (root 1)
    layers = {attr for _, attr in trajectory.SITES} - {"_root"} | {"f", "fx"}
    assert sorted(layer for layer in layers if not tracer.totals[("op", layer)]["calls"]) == []
