"""Per-size, per-layer timings of dirbvp, written as one JSON file.

    python3 tools/trajectory.py --output BENCH_<n>.json [--max-n N] [--repeat K]

Run from the root of a dirbvp source tree; dirbvp is imported from its
``src`` directory.  For f1, f1_sin, f2 and f3 at N = 10^2, 10^4, 10^5
and 10^6 (those up to ``--max-n``) it times ``newton_solve`` from zero,
warm: the spec already keeps the grid's nodes and v there from the first
solve.  ``grid_constants`` times a cold fill of that table entry (the
nodes, their finiteness check, v and sup|v|).  Then, at the solution the
solve returns, it times each layer a Newton step runs: ``evaluate`` of
f, f_x and v at the interior nodes, one Newton point
(f's steps of the joint program of f and f_x, then f_x's on the same
values), the ``_residual`` and ``_jacobian`` kernels on given values,
``solve_tridiagonal``, one Armijo trial (a trial point, f's steps there
and its residual) and ``GridFunction`` construction.  It counts the steps
of the compiled f, f_x and v programs and of the joint one.  For every corpus problem it times
``check``'s two scans, of the growth bound and of the f_x bound, on the
box the CLI samples, and counts the steps of f and f_x by what they read:
t alone, x alone, both, or neither.  It also times the CLI in process:
``solve`` on those four configs at the same sizes, and ``check`` and
``converge`` on every config under ``configs/``.

Every time is in milliseconds, the best of ``--repeat`` samples; a
sample is the mean of as many calls as fill about 5 ms.  The file also
records the environment the times depend on: the Python and numpy
versions, numpy's SIMD baseline, dispatch targets and the targets found
on this CPU, the core count, the git HEAD and whether tracked files
differ from it.  It is a record of where time goes, not a gate;
``perfbench/`` holds the benchmark with its correctness checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
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

from dirbvp import cli, corpus, discrete_op, expr, grid, problem, solver  # noqa: E402

PROBLEMS = ("f1", "f1_sin", "f2", "f3")
SIZES = (100, 10_000, 100_000, 1_000_000)
SAMPLE_S = 0.005


def best_ms(fn, repeat: int) -> float:
    """The best of ``repeat`` samples of fn's time per call, in ms."""
    timer = timeit.Timer(fn)
    number = max(1, int(SAMPLE_S / timer.timeit(1)))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e3


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


def layers(name: str, n: int, repeat: int) -> dict:
    """newton_solve from zero, then each layer at the solution it returns."""
    spec = corpus.build(name)
    report = solver.newton_solve(spec, n)
    row = {
        "problem": name,
        "n": n,
        "status": report.status,
        "iterations": report.iterations,
        # the steps of the compiled programs the layers below run
        "steps": {key: len(tree._program.steps)
                  for key, tree in (("f", spec.f), ("fx", spec.fx), ("v", spec.v))},
        "ms": {"newton_solve": best_ms(lambda: solver.newton_solve(spec, n), repeat)},
    }
    program = spec._program
    row["steps"]["joint"] = len(program.steps)
    values = report.solution.values
    t, v_vals, _ = spec._grid(n)
    interior = values[1:-1]
    f_vals = expr.evaluate(spec.f, t, interior)
    fx_vals = expr.evaluate(spec.fx, t, interior)
    r, _ = discrete_op._residual(f_vals, v_vals, values)
    matrix = discrete_op._jacobian(fx_vals)
    step = discrete_op.solve_tridiagonal(matrix, -r)
    trial = np.zeros(n + 1)

    def newton_point():
        with np.errstate(**expr._TRAPS):
            point = expr._point(program, t, interior)
            expr._root(program, point, 0)
            return expr._root(program, point, 1)

    def armijo_trial():
        with np.errstate(**expr._TRAPS):
            np.add(interior, step, out=trial[1:-1])
            point = expr._point(program, t, trial[1:-1])
            return discrete_op._residual(expr._root(program, point, 0), v_vals, trial)

    def grid_constants():
        spec._grids.clear()
        return spec._grid(n)

    row["ms"].update({
        "grid_constants": best_ms(grid_constants, repeat),
        "f": best_ms(lambda: expr.evaluate(spec.f, t, interior), repeat),
        "fx": best_ms(lambda: expr.evaluate(spec.fx, t, interior), repeat),
        "v": best_ms(lambda: expr.evaluate(spec.v, t, 0.0), repeat),
        "newton_point": best_ms(newton_point, repeat),
        "residual": best_ms(lambda: discrete_op._residual(f_vals, v_vals, values), repeat),
        "jacobian": best_ms(lambda: discrete_op._jacobian(fx_vals), repeat),
        "solve_tridiagonal": best_ms(lambda: discrete_op.solve_tridiagonal(matrix, r), repeat),
        "armijo_trial": best_ms(armijo_trial, repeat),
        "grid_function": best_ms(lambda: grid.GridFunction(n, values), repeat),
    })
    return row


def check_row(name: str, repeat: int) -> dict:
    """``check``'s two scans of one corpus problem, and its f and f_x steps by what they read."""
    spec = corpus.build(name)
    x_range = cli._sample_range(spec)
    steps = {}
    for key, tree in (("f", spec.f), ("fx", spec.fx)):
        reads = tree._program.reads
        steps[key] = {"none": reads.count(0), "t": reads.count(1), "x": reads.count(2),
                      "both": reads.count(3)}
    return {
        "problem": name,
        "x_range": x_range,
        "steps": steps,
        "ms": {
            "growth": best_ms(lambda: problem.check_growth(spec, x_range), repeat),
            "fx_lower": best_ms(lambda: problem.check_fx_lower(spec, x_range), repeat),
        },
    }


def cli_row(command: str, config: Path, n: int | None, out: Path, repeat: int) -> dict:
    argv = [command, "--config", str(config), "--output", str(out)]
    if n is not None:
        argv += ["--n", str(n)]
    status = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            status.append(cli.main(argv))

    row = {"command": command, "config": config.stem, "n": n, "ms": best_ms(run, repeat)}
    row["exit"] = status[-1]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="the JSON file to write")
    parser.add_argument("--max-n", type=int, default=SIZES[-1], help="largest N to time")
    parser.add_argument("--repeat", type=int, default=3, help="samples per time, best kept")
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
