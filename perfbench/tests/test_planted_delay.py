"""Planted-delay self-test: the benchmark catches a slower stage and names it.

The change side runs the benchmark with ``RetrieveStage.__call__`` wrapped
in a 2 ms sleep.  The comparison against the unchanged parent must fail on
``latency_p50_ms`` of ``rerank_small_kb``, and among the stages the traced
runs must put the largest change on the retrieve stage and report it.
Takes a few minutes:

    python -m pytest perfbench/tests/test_planted_delay.py -q
"""

import sys

from compare import compare
from sweep import load_benchmark, run_once

WORKLOAD = "rerank_small_kb"
SEEDS = (1, 2)
DELAY_S = 0.002

PLANTED = f"""
import runpy, sys, time
sys.path.insert(0, "src")
from repro.serving import RetrieveStage
original = RetrieveStage.__call__
def delayed(self, batch):
    time.sleep({DELAY_S})
    return original(self, batch)
RetrieveStage.__call__ = delayed
sys.argv = ["perfbench/run.py"] + sys.argv[1:]
runpy.run_path("perfbench/run.py", run_name="__main__")
"""


def _runs(prefix=None):
    seconds = load_benchmark()["run_seconds"]
    return [run_once(WORKLOAD, seed, seconds, trace, prefix)
            for trace in (0, 1) for seed in SEEDS]


def test_planted_retrieve_delay_fails_the_comparison_and_names_the_stage():
    parent = _runs()
    change = _runs([sys.executable, "-c", PLANTED])
    result = compare(parent, change, load_benchmark())
    report = "\n".join(result.lines)
    assert not result.mismatched, report
    assert any("latency_p50_ms" in entry for entry in result.regressions), report
    # The sleep sits in RetrieveStage.__call__ outside the index search, so
    # index.resolve_us_per_mention (retrieve minus search) moves as well.
    stages = [name for _, name, _ in result.movers
              if name.startswith("stage.") and name.endswith(".us_per_mention")]
    assert stages[0] == "stage.retrieve.us_per_mention", report
    assert "stage.retrieve.us_per_mention" in report
