"""Compare two sweeps (``sweep.py --out``) against the benchmark's bounds.

    python3 perfbench/compare.py parent.json change.json

For each workload in both files it compares the median of every end-to-end
metric and flags a regression where the change is worse than the parent
by more than the metric's bound in ``BENCHMARK.json``.  Where the parent's
own quartile spread is wider than the bound, a difference is reported as
unresolved rather than unchanged, unless every change run is worse than
every parent run by more than the bound.  Traced runs in both files add the
per-layer metrics that moved most, which names the layer behind a
regression.  Runs are compared only seed by seed with equal fingerprints.
Exit status: 0 when nothing regressed, 1 on a regression or a failed run,
2 when the fingerprints differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from sweep import load_benchmark, spread

#: Per-layer metrics listed after a comparison, largest relative change first.
TOP_MOVERS = 5


@dataclass
class Comparison:
    lines: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    failed_runs: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    #: (workload, metric, relative change toward worse) of traced runs.
    movers: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.failed_runs or self.mismatched)


def _select(runs: List[dict], workload: str, trace: int) -> List[dict]:
    return [run for run in runs if run["workload"] == workload and run["trace"] == trace]


def _worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, positive when worse."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def _fingerprints_match(parent: List[dict], change: List[dict]) -> List[str]:
    by_seed = {run["seed"]: run["fingerprint"] for run in parent}
    return [
        f"seed {run['seed']}" for run in change
        if run["seed"] in by_seed and by_seed[run["seed"]] != run["fingerprint"]
    ]


def compare(parent: List[dict], change: List[dict], benchmark: dict) -> Comparison:
    result = Comparison()
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    layers = {metric["name"]: metric for metric in benchmark["per_layer"]}
    for run in change:
        if not run["correct"] or run["failed"]:
            result.failed_runs.append(
                f"{run['workload']} seed {run['seed']} trace {run['trace']}: "
                f"correct={run['correct']} failed={run['failed']}"
            )
    workloads = dict.fromkeys(run["workload"] for run in change)
    for workload in workloads:
        for trace in (0, 1):
            mismatched = _fingerprints_match(_select(parent, workload, trace),
                                             _select(change, workload, trace))
            result.mismatched += [f"{workload}: {entry}" for entry in mismatched]
    if result.mismatched:
        result.lines.append("fingerprints differ, not comparing: " + ", ".join(result.mismatched))
        return result

    for workload in workloads:
        base_runs, new_runs = _select(parent, workload, 0), _select(change, workload, 0)
        if base_runs and new_runs:
            result.lines.append(
                f"{workload} ({len(base_runs)} parent runs, {len(new_runs)} change runs)"
            )
            for name in new_runs[0]["metrics"]:
                base = [run["metrics"][name]["value"] for run in base_runs]
                new = [run["metrics"][name]["value"] for run in new_runs]
                bound = metrics[name]["bound"]
                better = metrics[name]["better"]
                worse = _worse_by(statistics.median(base), statistics.median(new), better)
                noisy = len(base) >= 2 and spread(base)["spread"] > bound
                # Every change run worse than every parent run by the bound
                # is a regression however noisy the parent is.
                separated = min(_worse_by(b, n, better) for b in base for n in new) > bound
                verdict = "ok"
                if separated or (worse > bound and not noisy):
                    verdict = "REGRESSION"
                    result.regressions.append(f"{workload} {name} worse by {worse:+.1%}")
                elif noisy:
                    verdict = "unresolved (parent spread above bound)"
                result.lines.append(
                    f"  {name:<24} {statistics.median(base):12.4f} -> "
                    f"{statistics.median(new):12.4f}  worse by {worse:+7.1%} "
                    f"(bound {bound:.0%})  {verdict}"
                )
        base_traced, new_traced = _select(parent, workload, 1), _select(change, workload, 1)
        if base_traced and new_traced:
            moved = []
            for name in new_traced[0]["metrics"]:
                base = statistics.median(run["metrics"][name]["value"] for run in base_traced)
                new = statistics.median(run["metrics"][name]["value"] for run in new_traced)
                moved.append((workload, name, _worse_by(base, new, layers[name]["better"])))
            moved.sort(key=lambda entry: -entry[2])
            result.movers += moved
            result.lines.append(f"  per-layer metrics that got worse most on {workload}:")
            result.lines += [f"    {name:<36} {worse:+8.1%}"
                             for _, name, worse in moved[:TOP_MOVERS]]
    result.lines += [f"REGRESSION: {entry}" for entry in result.regressions]
    result.lines += [f"FAILED RUN: {entry}" for entry in result.failed_runs]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    runs = [json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)]
    result = compare(runs[0], runs[1], load_benchmark())
    print("\n".join(result.lines))
    if result.mismatched:
        return 2
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
