"""Closed-loop benchmark of the qhjqes command line.

Run from the repository root:

    python3 perfbench/run.py --workload derive-mixed --seed 1 --seconds 30 --trace 0

One client drives ``qhjqes.cli.main(argv)`` in this process, one op at a
time: the next op starts only after the previous one returns. Ops are
generated from ``--seed`` (see ``workloads.py``); the program sees only the
config files written for them. A run makes the whole rounds of its workload
that take ``--seconds`` on the reference machine: the op count depends on
nothing measured, so two runs of one seed make the same ops and fail the same
ones. No op is retried or dropped, and no tolerance is overridden.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same ops are run untraced and
then traced, and it holds the per-layer metrics. Every line before it is a
readable summary. Exits 1 without a result if the program is missing or a
correctness check cannot be evaluated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("derive-mixed", "verify-small", "poles-large")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Above p95, a 30 s run on a shared machine measures other tenants: p99 of the
# 3 ms derive ops read 4 ms in calm runs and 9-14 ms in runs hit by stalls.
TAIL_MAX_PCT = 95.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    pass


@dataclass
class Op:
    inst: dict
    seconds: float
    code: int | None
    outcome: object
    digest: str


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("QHJQES_OUT_DIR", None)
    return nproc


def import_program():
    if not os.path.isfile(os.path.join(SRC, "qhjqes", "cli.py")):
        raise BenchmarkError(f"no program to benchmark: {SRC}/qhjqes/cli.py is missing")
    sys.path.insert(0, SRC)
    import qhjqes.cli

    if not os.path.abspath(qhjqes.cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported qhjqes from {qhjqes.cli.__file__}, not from {SRC}")
    return qhjqes.cli


class Runner:
    """Writes each op's config into a private directory and runs it."""

    def __init__(self, tmp: str, judge):
        self.config = os.path.join(tmp, "config.json")
        self.report = os.path.join(tmp, "report.json")
        self.csv = os.path.join(tmp, "poles.csv")
        self.judge = judge

    def argv(self, inst: dict, config: str | None = None) -> list[str]:
        argv = [inst["command"], "--config", config or self.config]
        return argv + ["--level", str(inst["level"])] if inst["command"] == "poles" else argv

    def write_config(self, inst: dict, path: str, report: str, csv: str) -> None:
        remove(path)  # creating a file is much cheaper than truncating one on ext4
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"family": inst["family"], "outputs": {"report": report, "csv": csv}}, fh)

    def run(self, inst: dict, call) -> Op:
        self.write_config(inst, self.config, self.report, self.csv)
        remove(self.report)
        remove(self.csv)
        argv = self.argv(inst)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = call(argv)
                crash = None
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                code, crash = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
        stderr_line = crash or (lines[-1] if lines else "")
        report, csv = read_or_none(self.report), read_or_none(self.csv)
        outcome = self.judge(inst, code, stderr_line, report, csv)
        digest = hashlib.sha256(f"{report}\0{csv}".encode()).hexdigest()
        return Op(inst, seconds, code, outcome, digest)


def remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def read_or_none(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


@dataclass
class Tally:
    """What a pass keeps of its ops: flat lists, so the benchmark's own heap stays small."""

    seconds: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    ok: int = 0
    wrong: int = 0
    causes: dict = field(default_factory=dict)

    def add(self, op: Op) -> None:
        self.seconds.append(op.seconds)
        self.digests.append(f"{op.code}:{op.digest}")
        if op.outcome.status == "ok":
            self.ok += 1
            return
        self.wrong += op.outcome.status == "wrong"
        key = f"{op.outcome.status}: {op.inst['family']['name']}: {op.outcome.reason[:90]}"
        self.causes[key] = self.causes.get(key, 0) + 1


def closed_loop(runner: Runner, ops, call) -> Tally:
    """Run ``ops`` one at a time."""
    gc.collect()
    tally = Tally()
    for inst in ops:
        tally.add(runner.run(inst, call))
    return tally


def measure_setup(tmp: str, runner: Runner, inst: dict) -> list[float]:
    """Cold set-up times, each in a fresh interpreter: imports plus one warm-up op."""
    config = os.path.join(tmp, "setup.json")
    runner.write_config(inst, config, os.path.join(tmp, "setup-report.json"), os.path.join(tmp, "setup.csv"))
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC] + runner.argv(inst, config)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile, at most TAIL_MAX_PCT, with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX_PCT) / 100.0))
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(tally: Tally, setup: list[float]) -> tuple[dict, list[str]]:
    times = tally.seconds
    n = len(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "correct_per_s": (tally.ok / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (tail_s, "s"),
        "ok_share": (tally.ok / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} cold set-ups {[round(s, 4) for s in setup]}",
        f"latency_tail_s: p{tail_pct:.2f} of {n} ops",
        f"fail_share: {(n - tally.ok) / n:.6g} ({n - tally.ok} of {n} ops)",
    ]
    return metrics, notes


def traced_pass(runner: Runner, main, ops, untraced: Tally, tracing, spans_path: str) -> tuple[dict, list[str], bool]:
    """Rerun the untraced pass's ops with every layer wrapped; per-layer metrics."""
    gc.collect()
    tracer = tracing.Tracer()
    traced, failures = Tally(), {}
    residue_margin = residual = 0.0
    with tracer.installed():
        for i, inst in enumerate(ops):
            root = len(tracer.name)
            op = runner.run(inst, lambda argv, i=i: tracer.root("cli.main", "cli", i, main, argv))
            traced.add(op)
            residue_margin = max(residue_margin, op.outcome.residue_margin)
            residual = max(residual, op.outcome.schrodinger_residual)
            if op.outcome.status != "ok":
                layer = tracing.failure_layer(tracer, root, op.outcome.first_failed_check)
                failures[layer] = failures.get(layer, 0) + 1
    n = len(traced.seconds)
    identical = traced.digests == untraced.digests
    metrics = tracing.layer_metrics(tracer, n, failures, residue_margin, residual)
    untraced_s, traced_s = sum(untraced.seconds), sum(traced.seconds)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics["trace.ops"] = (n, "count")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    notes = [
        f"traced {n} ops: {traced_s:.4f} s traced vs {untraced_s:.4f} s untraced",
        f"reports byte-identical to the untraced pass: {identical}",
        f"failures by layer: {failures or 'none'}",
        f"{len(tracer.name)} spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, notes, identical and traced.wrong == 0


def run(args) -> dict:
    nproc = cap_threads()
    import outcomes  # noqa: E402  (imports numpy: only after the thread cap)
    import tracing
    import workloads

    main = import_program().main
    import numpy
    import scipy

    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        runner = Runner(tmp, outcomes.judge)
        command = {"derive-mixed": "derive", "verify-small": "verify", "poles-large": "poles"}[args.workload]
        warm = {"command": command, "family": dict(workloads.GOLDEN), "level": 0}
        setup = [] if args.trace else measure_setup(tmp, runner, warm)
        warm_outcome = runner.run(warm, main).outcome
        # A user runs one op per process, so no op should pay for a full collection
        # over the import-time heap: move that heap out of the collector's reach.
        gc.collect()
        gc.freeze()

        rounds = workloads.round_count(args.workload, args.seconds)
        ops = functools.partial(workloads.instances, args.workload, args.seed, rounds)
        tally = closed_loop(runner, ops(), main)
        correct = tally.wrong == 0 and warm_outcome.status != "wrong"
        if args.trace:
            spans_path = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            metrics, notes, traced_ok = traced_pass(runner, main, ops(), tally, tracing, spans_path)
            correct = correct and traced_ok
        else:
            metrics, notes = end_to_end(tally, setup)
    except outcomes.Unevaluable as exc:
        raise BenchmarkError(str(exc)) from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"closed loop, 1 client; nproc {nproc}; BLAS/OpenMP threads capped at {nproc}; "
        f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}"
    )
    print(f"instances sha256 {workloads.instances_sha256(ops())} ({len(tally.seconds)} ops, {rounds} rounds)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    if warm_outcome.status != "ok":
        print(f"  warm-up op on the README instance: {warm_outcome.status}: {warm_outcome.reason}")
    for key, count in sorted(tally.causes.items(), key=lambda kv: -kv[1]):
        print(f"  {count:5d} x {key}")
    return {
        "correct": correct,
        "attempted": len(tally.seconds),
        "failed": len(tally.seconds) - tally.ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    arguments = parse_args()
    try:
        result = run(arguments)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))
