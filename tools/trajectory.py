"""Per-size, per-layer timings of dirbvp, written as one JSON file.

    python3 tools/trajectory.py --output BENCH_<n>.json [--max-n N] [--repeat K]

Run from the root of a dirbvp source tree; dirbvp is imported from its
``src`` directory.  For f1, f1_sin, f2 and f3 at N = 10^2, 10^4, 10^5
and 10^6 (those up to ``--max-n``) it times ``newton_solve`` from zero,
untraced and warm (the spec keeps the grid's nodes and v from the first
solve), a cold fill of that table entry (``grid_constants``), and v at
the nodes.  Then it runs ``--repeat`` warm solves with each name of
``SITES`` wrapped in a span of perfbench's tracer; ``calls`` holds each
layer's calls per solve, and ``_root`` is two layers, ``f`` and ``fx``,
by its root index.  It counts the steps of the compiled f, f_x, v and
joint programs.  For every corpus problem it times ``check``'s two scans
on the box that ``problem.sample_range`` sizes, and counts f's and f_x's
steps by what they read: t, x, both or neither.  It also times the CLI
in process: ``solve`` on those four configs at the same sizes, and
``check`` and ``converge`` on every config under ``configs/``.

Every time is in milliseconds: the best of its samples under ``ms``, and
their median, which shows how much the host's load moved them, under
``ms_median``.  A layer's samples are its calls in the traced solves;
any other time has ``--repeat`` samples, each the mean of as many calls
as fill about 5 ms.  The file also records the environment the times
depend on: the Python and numpy versions, numpy's SIMD baseline,
dispatch targets and the targets found on this CPU, the core count, the
git HEAD and whether tracked files differ from it.  It is a record of
where time goes, not a gate; ``perfbench/`` holds the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

# One thread: set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dirbvp import cli, corpus, expr, problem, solver  # noqa: E402

_tracing_spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                       ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_tracing_spec)
_tracing_spec.loader.exec_module(tracing)

PROBLEMS = ("f1", "f1_sin", "f2", "f3")
SIZES = (100, 10_000, 100_000, 1_000_000)
SAMPLE_S = 0.005
# (module, attribute): the names newton_solve looks up, which traced() wraps
SITES = [("dirbvp.solver", attr) for attr in
         ("_point", "_root", "_residual", "_jacobian", "solve_tridiagonal", "GridFunction")]


def sample_ms(fn, repeat: int) -> list[float]:
    """``repeat`` samples of fn's time per call, in ms."""
    timer = timeit.Timer(fn)
    number = max(1, int(SAMPLE_S / timer.timeit(1)))
    return [sample / number * 1e3 for sample in timer.repeat(repeat=repeat, number=number)]


def times(samples: dict) -> dict:
    """The best and the median of each name's samples, under ``ms`` and ``ms_median``."""
    return {"ms": {key: min(ms) for key, ms in samples.items()},
            "ms_median": {key: statistics.median(ms) for key, ms in samples.items()}}


def environment() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    changes = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": list(umath.__cpu_dispatch__),
        "simd_found": [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)],
        "npy_disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
        "cpu_count": os.cpu_count(),
        "git_head": git("rev-parse", "HEAD"),
        # tracked files changed since git_head; None outside a git checkout
        "git_dirty": None if changes is None else changes != "",
    }


@contextlib.contextmanager
def traced():
    """Within the block, each name of SITES records a span per call on the tracer it yields."""
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(name) for name, _ in SITES}
    originals = [(modules[name], attr, getattr(modules[name], attr)) for name, attr in SITES]
    try:
        for module, attr, original in originals:
            if attr == "_root":  # root 0 runs f's steps, root 1 f_x's
                roots = [tracer.span(layer, original) for layer in ("f", "fx")]
                replacement = lambda program, env, k, roots=roots: roots[k](program, env, k)  # noqa: E731
            elif isinstance(original, type):
                replacement = tracing._ClassProxy(original, lambda fn, attr=attr: tracer.span(attr, fn))
            else:
                replacement = tracer.span(attr, original)
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def layers(name: str, n: int, repeat: int) -> dict:
    """newton_solve from zero, untraced, then its layers per call in ``repeat`` traced solves."""
    spec = corpus.build(name)
    report = solver.newton_solve(spec, n)
    t = spec._grid(n)[0]

    def grid_constants():
        spec._grids.clear()
        return spec._grid(n)

    samples = {
        "newton_solve": sample_ms(lambda: solver.newton_solve(spec, n), repeat),
        "grid_constants": sample_ms(grid_constants, repeat),
        "v": sample_ms(lambda: expr.evaluate(spec.v, t, 0.0), repeat),
    }
    with traced() as tracer:
        for _ in range(repeat):
            solver.newton_solve(spec, n)
    for *_, layer, start, end in tracer.spans:
        samples.setdefault(layer, []).append((end - start) * 1e3)
    programs = (("f", spec.f._program), ("fx", spec.fx._program), ("v", spec.v._program),
                ("joint", spec._program))
    return {
        "problem": name,
        "n": n,
        "status": report.status,
        "iterations": report.iterations,
        # the steps of the compiled programs the solve runs
        "steps": {key: len(program.steps) for key, program in programs},
        "calls": {layer: total["calls"] / repeat for (_, layer), total in tracer.totals.items()},
        **times(samples),
    }


def check_row(name: str, repeat: int) -> dict:
    """``check``'s two scans of one corpus problem, and its f and f_x steps by what they read."""
    spec = corpus.build(name)
    x_range = problem.sample_range(spec)
    steps = {}
    for key, tree in (("f", spec.f), ("fx", spec.fx)):
        reads = tree._program.reads
        steps[key] = {"none": reads.count(0), "t": reads.count(1), "x": reads.count(2),
                      "both": reads.count(3)}
    return {
        "problem": name,
        "x_range": x_range,
        "steps": steps,
        **times({
            "growth": sample_ms(lambda: problem.check_growth(spec, x_range), repeat),
            "fx_lower": sample_ms(lambda: problem.check_fx_lower(spec, x_range), repeat),
        }),
    }


def cli_row(command: str, config: Path, n: int | None, out: Path, repeat: int) -> dict:
    argv = [command, "--config", str(config), "--output", str(out)]
    if n is not None:
        argv += ["--n", str(n)]
    status = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            status.append(cli.main(argv))

    ms = sample_ms(run, repeat)
    return {"command": command, "config": config.stem, "n": n, "ms": min(ms),
            "ms_median": statistics.median(ms), "exit": status[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="the JSON file to write")
    parser.add_argument("--max-n", type=int, default=SIZES[-1], help="largest N to time")
    parser.add_argument("--repeat", type=int, default=3,
                        help="samples per time, best and median kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sizes = [n for n in SIZES if n <= args.max_n]
    if not sizes:
        parser.error(f"--max-n must be at least {SIZES[0]}")

    result = {
        "environment": environment(),
        "repeat": args.repeat,
        "sizes": sizes,
        "layers": [layers(name, n, args.repeat) for name in PROBLEMS for n in sizes],
        "check": [check_row(name, args.repeat) for name in corpus.names()],
        "cli": [],
    }
    configs = sorted((ROOT / "configs").glob("*.txt"))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        for config in configs:
            if config.stem in PROBLEMS:
                result["cli"] += [cli_row("solve", config, n, out, args.repeat) for n in sizes]
            result["cli"] += [cli_row(command, config, None, out, args.repeat)
                              for command in ("check", "converge")]
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
