"""The three workloads: inputs made from the seed, set-up, operations, checks.

A workload is run as whole rounds.  Every round holds the same operations
(the seed changes their order after the first round, the random starts of
``solve_small`` and the tightened constants of ``check_box``), so the share
of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle
from dirbvp import cli, corpus, solver
from dirbvp.grid import GridFunction


class BenchmarkError(RuntimeError):
    """The benchmark cannot run: missing inputs or a broken oracle."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], checks.Outcome]
    output: Path | None = None


def read_config(path: Path) -> dict[str, str]:
    """Fields of a flat ``key = value`` config, read without dirbvp."""
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    return fields


def write_config(path: Path, fields: dict[str, str]) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()),
                    encoding="utf-8")


def corpus_config(root: Path, name: str) -> tuple[Path, dict[str, str]]:
    """The config of a corpus problem, checked to declare what the oracle models."""
    path = root / "configs" / f"{name}.txt"
    if not path.is_file():
        raise BenchmarkError(f"missing config {path}")
    fields = read_config(path)
    for key, expected in oracle.PROBLEMS[name].source.items():
        if fields.get(key) != expected:
            raise BenchmarkError(f"{path}: {key} = {fields.get(key)!r}, the oracle models {expected!r}")
    return path, fields


def constants(fields: dict[str, str]) -> checks.Constants:
    return checks.Constants(float(fields["A"]), float(fields["B"]), float(fields["fx_lower"]))


def oracle_references(items) -> dict[tuple[str, int], np.ndarray]:
    """Reference discrete solutions, computed by oracle.py in a child process."""
    command = [sys.executable, str(Path(oracle.__file__).resolve())]
    command += [f"{name}:{n}" for name, n in items]
    try:
        done = subprocess.run(command, capture_output=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("oracle timed out")
    if done.returncode != 0:
        raise BenchmarkError(f"oracle failed: {done.stderr.decode(errors='replace')}")
    with np.load(io.BytesIO(done.stdout), allow_pickle=False) as archive:
        return {(name, n): archive[f"{name}:{n}"] for name, n in items}


class Rounds:
    """Orders each round's operations: as listed in the first round, so that
    the memory peak it sets does not depend on the seed, then shuffled."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.made = 0

    def order(self, ops: list[Op]) -> list[Op]:
        self.made += 1
        if self.made == 1:
            return ops
        return [ops[i] for i in self.rng.permutation(len(ops))]


def _cli(argv: list[str]):
    """Run one dirbvp command in this process; returns (exit code, stdout)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


class SolveSmall:
    """``newton_solve`` on the six corpus problems at small N, from several starts."""

    name = "solve_small"
    NS = (16, 32, 64, 128, 256)
    RANDOM_STARTS = 2  # besides the zero guess, uniform in [-AMPLITUDE, AMPLITUDE]
    AMPLITUDE = 10.0

    def __init__(self, root: Path, out: Path, seed: int):
        self.rounds = Rounds(seed)
        self.rng = self.rounds.rng
        self.consts = {name: constants(corpus_config(root, name)[1]) for name in oracle.PROBLEMS}
        self.specs = {}

    def prepare(self):
        self.refs = oracle_references([(p, n) for p in oracle.PROBLEMS for n in self.NS])

    def setup(self):
        built = {name: corpus.build(name) for name in oracle.PROBLEMS}
        self.specs = {name: getattr(b, "spec", b) for name, b in built.items()}

    def round(self) -> list[Op]:
        ops = []
        for name in oracle.PROBLEMS:
            for n in self.NS:
                starts = [None] + [
                    GridFunction.from_interior(self.rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, n - 1))
                    for _ in range(self.RANDOM_STARTS)
                ]
                for i, start in enumerate(starts):
                    ops.append(self._op(name, n, i, start))
        return self.rounds.order(ops)

    def _op(self, name, n, index, start):
        config = solver.SolverConfig(initial_guess=start)
        spec = self.specs[name]

        def check(report):
            return checks.check_solution(oracle.PROBLEMS[name], self.consts[name], n,
                                         report.solution.values, self.refs[(name, n)],
                                         report.status == "converged")

        return Op(f"{name} N={n} start={index}", lambda: solver.newton_solve(spec, n, config), check)


class SolveLarge:
    """``dirbvp solve`` through ``cli.main`` at N from 10^4 to 10^5, CSV written."""

    name = "solve_large"
    PROBLEMS = ("f1", "f1_sin", "f2", "f3")
    NS = (10_000, 30_000, 100_000)
    # f1_sin and f2 take two Newton steps at N = 10^5, f1 and f3 one.  The
    # two-step solves run twice a round, so that they are the slowest fifth
    # of the operations and the 90th percentile falls among them, not on
    # the gap between one-step and two-step solves.
    TWICE = (("f1_sin", 100_000), ("f2", 100_000))

    def __init__(self, root: Path, out: Path, seed: int):
        self.rounds = Rounds(seed)
        self.csv = out / "solve.csv"
        self.configs = {name: corpus_config(root, name) for name in self.PROBLEMS}

    def prepare(self):
        self.refs = oracle_references([(p, n) for p in self.PROBLEMS for n in self.NS])

    def setup(self):
        for path, _ in self.configs.values():
            cli.build_problem(cli.load_config(path))

    def round(self) -> list[Op]:
        cases = [(name, n) for name in self.PROBLEMS for n in self.NS] + list(self.TWICE)
        return self.rounds.order([self._op(name, n) for name, n in cases])

    def _op(self, name, n):
        path, fields = self.configs[name]
        argv = ["solve", "--config", str(path), "--n", str(n), "--output", str(self.csv)]

        def check(result):
            code, stdout = result
            return checks.check_solve_command(
                oracle.PROBLEMS[name], constants(fields), n, code, stdout, self.csv,
                self.refs[(name, n)])

        return Op(f"{name} N={n}", lambda: _cli(argv), check, self.csv)


class CheckBox:
    """``dirbvp check`` through ``cli.main`` on the corpus and on tightened configs."""

    name = "check_box"
    # Tightened constants, drawn uniformly from these ranges, that the corpus
    # problems violate somewhere on their sample box: f_x is 0 for quadratic
    # and at most 1/4 for zero; |f(1, 0)| is 1/4 for f1 and e for f2; f1's
    # f_x dips to about -0.158 and f3's is -0.2 at x = 0.
    TIGHTEN = {
        "quadratic": [("fx_lower", 0.05, 0.5)],
        "zero": [("fx_lower", 0.26, 0.5)],
        "f1": [("B", 0.10, 0.22), ("fx_lower", -0.12, 0.0)],
        "f1_sin": [("B", 0.10, 0.22), ("fx_lower", -0.12, 0.0)],
        "f2": [("B", 1.5, 2.5)],
        "f3": [("fx_lower", -0.18, 0.0)],
    }

    def __init__(self, root: Path, out: Path, seed: int):
        self.rounds = Rounds(seed)
        self.rng = self.rounds.rng
        self.json = out / "check.json"
        config_dir = out / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.cases = []  # (problem, config path, constants), corpus and tightened
        self.tightened = []
        for name, tightenings in self.TIGHTEN.items():
            path, fields = corpus_config(root, name)
            self.cases.append((name, path, constants(fields)))
            for key, low, high in tightenings:
                tight = dict(fields, name=f"{name}_{key}_tight")
                tight[key] = repr(float(self.rng.uniform(low, high)))
                tight_path = config_dir / f"{name}_{key}.txt"
                write_config(tight_path, tight)
                self.tightened.append((name, tight_path, constants(tight)))
        self.cases += self.tightened

    def prepare(self):
        for name, path, c in self.tightened:
            p = oracle.PROBLEMS[name]
            growth, fx_low = oracle.box_counts(p, c.A, c.B, c.fx_lower,
                                               2.0 * oracle.apriori_bound(p, c.A, c.B))
            if growth.strict + fx_low.strict == 0:
                raise BenchmarkError(f"{path} violates nothing on its sample box")

    def setup(self):
        for _, path, _ in self.cases:
            cli.build_problem(cli.load_config(path))

    def round(self) -> list[Op]:
        return self.rounds.order([self._op(*case) for case in self.cases])

    def _op(self, name, path, c):
        argv = ["check", "--config", str(path), "--output", str(self.json)]

        def check(result):
            code, _ = result
            report = json.loads(self.json.read_text(encoding="utf-8"))
            return checks.check_box_report(oracle.PROBLEMS[name], c, code, report)

        return Op(f"check {path.stem}", lambda: _cli(argv), check, self.json)


WORKLOADS = {w.name: w for w in (SolveSmall, SolveLarge, CheckBox)}
