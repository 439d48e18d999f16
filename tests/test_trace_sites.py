"""The benchmark's tracer patches dirbvp names from outside the package; a
name that no longer resolves only prints a note, and its per-layer
metrics silently read zero.  This keeps every traced name resolvable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer, _work in tracing.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
