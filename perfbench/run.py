"""Run one benchmark workload and print its report.

    python3 perfbench/run.py --workload rerank_small_kb --seed 1 --seconds 8 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The report lists every metric of the mode by name, value, unit and
direction, after a fingerprint line (nproc, Python, numpy, BLAS, seed and
the content hash of the workload configuration).  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("rerank_small_kb", "ivf_large_kb_rw", "process_replicas", "meta_train")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import harness
    import metrics
    import workloads

    fingerprint = harness.fingerprint(args.seed, workloads.workload_config())
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = list(metrics.table(bool(args.trace)))
    if set(report.metrics) != set(names):
        print(f"perfbench: {args.workload} reported {sorted(report.metrics)}, "
              f"expected {sorted(names)}", file=sys.stderr)
        return 1
    broken = [name for name, value in report.metrics.items() if not math.isfinite(value)]
    if broken:
        print(f"perfbench: non-finite metrics {broken}", file=sys.stderr)
        return 1

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload}: {mode}, {args.seconds:g} s")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name in names:
        print(metrics.describe(name, report.metrics[name]))
    error_rate = report.failed / max(report.attempted, 1)
    print(f"  attempted {report.attempted}, failed {report.failed} "
          f"(error rate {error_rate:.4f}), outputs {'correct' if report.correct else 'WRONG'}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": metrics.unit(name)}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
