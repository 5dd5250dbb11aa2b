"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/collect.py --seeds 1-10 --seconds 30 [--workloads verify-small ...]
                                 [--traced-seed 1] [--baseline perfbench/baseline.json]

For each workload and end-to-end metric it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json. ``--traced-seed`` adds one traced run
per workload. ``--baseline`` writes the medians, the per-layer metrics, the
instance-list hashes, the environment and the layer predictions to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each layer's metrics should move, on which workload.
PREDICTIONS = {
    "oracle": {
        "metrics": ["oracle.busy_s", "oracle.refine_calls", "oracle.eigensolves", "oracle.points_solved",
                    "oracle.useful_share", "oracle.failures"],
        "moves": {"verify-small": ["latency_p50_s", "latency_tail_s", "correct_per_s", "ok_share"]},
        "reads_zero_on": ["derive-mixed", "poles-large"],
    },
    "qmf+series": {
        "metrics": ["qmf.busy_s", "qmf.census_calls", "qmf.residue_calls", "qmf.residue_margin_worst",
                    "qmf.failures", "series.busy_s", "series.root_solves", "series.root_solves_per_state",
                    "series.contour_calls", "series.contour_nodes"],
        "moves": {"poles-large": ["latency_p50_s", "latency_tail_s", "correct_per_s"],
                  "verify-small": ["latency_p50_s (a little)"]},
        "reads_zero_on": ["derive-mixed"],
    },
    "engine": {
        "metrics": ["engine.busy_s", "engine.ledger_calls"],
        "moves": {"derive-mixed": ["correct_per_s"]},
        "negligible_on": ["verify-small", "poles-large"],
    },
    "cli": {
        "metrics": ["cli.busy_s"],
        "moves": {"derive-mixed": ["latency_p50_s"]},
    },
    "spectra": {
        "metrics": ["spectra.busy_s", "spectra.states_calls", "spectra.residual_worst", "spectra.failures"],
        "moves": {"poles-large": ["ok_share", "correct_per_s"]},
    },
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], wall


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"workloads": {}}
    walls: dict[tuple, list[float]] = {}  # (workload, trace) -> wall seconds of each run
    for workload in args.workloads:
        runs, hashes = [], {}
        for seed in seeds:
            result, lines, wall = run_once(workload, seed, args.seconds, 0)
            walls.setdefault((workload, 0), []).append(wall)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            hashes[seed] = next(ln.split()[2] for ln in lines if ln.startswith("instances sha256"))
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"seeds": seeds, "instances_sha256": hashes, "end_to_end": {}}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {stats['median']:.6g} {stats['unit']:6s} q1 {stats['q1']:.6g} "
                  f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
        entry["attempted"] = [r["attempted"] for r in runs]
        entry["failed"] = [r["failed"] for r in runs]
        if args.traced_seed is not None:
            result, lines, wall = run_once(workload, args.traced_seed, args.seconds, 1)
            walls.setdefault((workload, 1), []).append(wall)
            entry["traced"] = {"seed": args.traced_seed, "correct": result["correct"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                               "summary": lines}
            print("\n".join(lines))
        out["workloads"][workload] = entry

    for (workload, trace), times in sorted(walls.items()):
        print(f"wall per run: {workload} trace {trace}: median {statistics.median(times):.1f} s, max {max(times):.1f} s")

    if args.baseline:
        import numpy
        import scipy

        nproc = len(os.sched_getaffinity(0))
        out = {
            "environment": {"nproc": nproc, "blas_openmp_thread_cap": nproc,
                            "python": platform.python_version(), "numpy": numpy.__version__,
                            "scipy": scipy.__version__, "machine": platform.machine(),
                            "run_seconds": args.seconds},
            "workloads_why": {w["name"]: w["why"] for w in bench["workloads"]},
            "predictions": PREDICTIONS,
            **out,
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
