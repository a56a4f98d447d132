"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads rerank_small_kb meta_train \\
        --seeds 1-10 --out sweep.json

Each run is ``perfbench/run.py`` in a fresh interpreter, as the benchmark
is meant to be run.  For every workload and metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``: a spread under a third of the bound is steady.  The
JSON written by ``--out`` holds every run and is what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def load_benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int,
             prefix: Optional[List[str]] = None) -> dict:
    """One benchmark run in a child interpreter; returns its parsed report.

    ``prefix`` replaces ``[python, run.py]`` (the planted-delay test uses
    it to start the run through a wrapper).
    """
    command = (prefix or [sys.executable, str(RUN)]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    fingerprint = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("fingerprint ")),
        None,
    )
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall,
                  fingerprint=fingerprint,
                  problems=[line.split(":", 1)[1].strip()
                            for line in lines if line.startswith("  problem:")],
                  log=done.stderr.splitlines()[-20:])
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def summarise(runs: List[dict], bounds: Dict[str, float]) -> List[str]:
    lines = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        failures = [run for run in mine if not run["correct"] or run["failed"]]
        wall = statistics.median(run["wall_s"] for run in mine)
        lines.append(f"{workload}: {len(mine)} runs, {len(failures)} with failures, "
                     f"median wall {wall:.1f} s")
        for name in mine[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in mine]
            if len(values) < 2:
                continue
            stats = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if stats["spread"] < bound / 3
                           else "within bound" if stats["spread"] <= bound else "TOO WIDE")
                verdict = f"bound {bound:g}: {verdict}"
            lines.append(f"  {name:<36} median {stats['median']:12.4f}  "
                         f"IQR/median {stats['spread']:7.4f}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    runs = []
    # Seed-major order spreads a slow stretch of a shared machine over all
    # workloads instead of concentrating it on one.
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s, "
                  f"correct={runs[-1]['correct']} failed={runs[-1]['failed']} "
                  f"{'; '.join(runs[-1]['problems'])}",
                  file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summarise(runs, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
