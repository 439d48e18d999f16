"""Benchmark of dirbvp: one workload per run, closed loop, one client, no threads.

    python3 perfbench/run.py --workload solve_small|solve_large|check_box \\
        --seed N --seconds S --trace 0|1

Run from the root of a dirbvp source tree; dirbvp is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from rounds traced in alternation with untraced rounds
whose time gives the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

# One thread: set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from tracing import metric  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SHARE = 0.08
CALIBRATION_SHARE = 0.1
CALIBRATION_MS = 1.25
LOCAL_SAMPLES = 21
TRACED_SETUPS = 3
MAX_FAULTS_SHOWN = 5


def import_dirbvp():
    """Import dirbvp from this tree's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dirbvp" / "__init__.py").is_file():
        raise SystemExit(f"error: no dirbvp sources under {src}")
    sys.path.insert(0, str(src))
    import dirbvp

    if Path(dirbvp.__file__).resolve().parent != (src / "dirbvp").resolve():
        raise SystemExit(f"error: imported dirbvp from {dirbvp.__file__}, not from {src}")


class Tally:
    """Operation counts, latencies and the faults found by the checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_labels: dict[str, int] = {}
        self.faults: list[str] = []

    def run(self, op, wrap=None):
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        call = op.run if wrap is None else wrap(op.run)
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
        outcome = op.check(result)
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.failed_labels[op.label] = self.failed_labels.get(op.label, 0) + 1
        self.faults += [f"{op.label}: {fault}" for fault in outcome.faults]
        return elapsed

    def result(self, metrics: dict) -> dict:
        for fault in self.faults[:MAX_FAULTS_SHOWN]:
            sys.stderr.write(f"FAULT {fault}\n")
        if self.failed_labels:
            shown = ", ".join(f"{label} x{count}" for label, count in sorted(self.failed_labels.items()))
            sys.stderr.write(f"failed operations: {shown}\n")
        return {"correct": not self.faults, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def calibration_loop():
    """Fixed interpreter and numpy work, timed to follow the machine's speed.

    Its arrays stay below the allocator's mmap threshold, so that its time
    does not depend on what the workload allocated before.
    """
    a = np.linspace(0.0, 1.0, 4096)
    w = 2.0
    for _ in range(6000):
        w = 2.0 - 1.0 / w
    for _ in range(8):
        w += float(np.sum(np.sin(a) * np.cos(a) / (2.0 * a * a + 4.0)))
    return w


def run_plain(workload, seconds: float):
    """Run whole rounds for ``seconds``; returns the end-to-end result and raw times."""
    tally = Tally()
    ops, setups, calibrations = [], [], []  # (midpoint, seconds) of each
    totals = {"op": 0.0, "setup": 0.0, "calibration": 0.0}

    def timed(kind, samples, fn):
        began = perf_counter()
        fn()
        took = perf_counter() - began
        samples.append((began + took / 2, took))
        totals[kind] += took

    start = perf_counter()
    peak_kib = None
    timed("setup", setups, workload.setup)
    while not ops or perf_counter() - start < seconds:
        for op in workload.round():
            began = perf_counter()
            took = tally.run(op)
            ops.append((began + took / 2, took))
            totals["op"] += took
            while totals["calibration"] < CALIBRATION_SHARE * totals["op"]:
                timed("calibration", calibrations, calibration_loop)
            # Set-ups are spread between the operations, so that both see
            # the same spells of a fast or slow shared machine.
            if totals["setup"] < SETUP_SHARE * (perf_counter() - start):
                timed("setup", setups, workload.setup)
        # The first round runs every operation once, as separate commands
        # would; later rounds add only the allocator's fragmentation, which
        # grows with the number of rounds a run happens to fit.
        if peak_kib is None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    latencies = np.array([took for _, took in ops])
    scaled = latencies * speed_scale(calibrations, ops)
    setup_scaled = np.array([took for _, took in setups]) * speed_scale(calibrations, setups)
    raw = {"setup_s": float(np.median([took for _, took in setups])),
           "op_p50_ms": float(np.quantile(latencies, 0.5)) * 1e3,
           "op_p90_ms": float(np.quantile(latencies, 0.9)) * 1e3,
           "ops_per_s": latencies.size / float(latencies.sum()),
           "calibration_ms": float(np.median([took for _, took in calibrations])) * 1e3}
    sys.stderr.write("raw: " + json.dumps(raw) + "\n")
    result = tally.result({
        "setup_s": metric(float(np.median(setup_scaled)), "s"),
        "op_p50_ms": metric(float(np.quantile(scaled, 0.5)) * 1e3, "ms"),
        "op_p90_ms": metric(float(np.quantile(scaled, 0.9)) * 1e3, "ms"),
        "ops_per_s": metric(scaled.size / float(scaled.sum()), "1/s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    })
    return result, raw


def speed_scale(calibrations, samples) -> np.ndarray:
    """Factor that scales each sample's time to the reference speed.

    The machine's cores are shared, and its speed drifts by tens of
    percent over seconds.  The calibration loop runs between operations;
    the median of its LOCAL_SAMPLES runs nearest in time to a sample,
    against CALIBRATION_MS, is the speed at that moment.
    """
    times = np.array([mid for mid, _ in calibrations])
    took = np.array([t for _, t in calibrations])
    width = min(LOCAL_SAMPLES, took.size)
    firsts = np.clip(np.searchsorted(times, [mid for mid, _ in samples]) - width // 2,
                     0, took.size - width)
    windows = took[firsts[:, None] + np.arange(width)]
    return CALIBRATION_MS * 1e-3 / np.median(windows, axis=1)


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    """Run untraced and traced rounds in turn; returns the per-layer result."""
    tracer = tracing.Tracer()
    workload.setup()  # untraced, so that the traced set-ups are warm like those of setup_s
    tracer.phase = "setup"
    tracer.install()
    for _ in range(TRACED_SETUPS):
        workload.setup()
    tracer.uninstall()
    tracer.phase = "op"

    tally = Tally()
    plain_s = traced_s = 0.0
    traced_ops = 0
    rounds = 0
    start = perf_counter()
    # Untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both alike; the comparison of the two is the overhead.
    while rounds < 2 or rounds % 2 or perf_counter() - start < seconds:
        traced = rounds % 2 == 1
        if traced:
            tracer.install()
        for op in workload.round():
            if traced:
                tracer.op = f"{traced_ops} {op.label}"
                traced_s += tally.run(op, lambda fn: tracer.span("op", fn))
                traced_ops += 1
                if op.output is not None and op.output.exists():
                    tracer.count("cli.output_bytes", op.output.stat().st_size)
            else:
                plain_s += tally.run(op)
        if traced:
            tracer.uninstall()
        rounds += 1

    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer, traced_ops, TRACED_SETUPS)
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_s / plain_s - 1.0), "%")
    metrics["trace.spans"] = metric(sum(1 for s in tracer.spans if s[3] == "op") / traced_ops, "count/op")
    return tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_dirbvp()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, OUT, args.seed)
        workload.prepare()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            result, raw = run_traced(workload, args.seconds, spans), None
        else:
            result, raw = run_plain(workload, args.seconds)
    except workloads.BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, raw=raw), indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
