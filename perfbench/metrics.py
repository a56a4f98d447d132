"""Name, unit and direction of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats these with the bound of
each end-to-end metric; ``perfbench/tests/test_benchmark_json.py`` keeps the two in
step.  Every workload reports every metric of the mode it runs in.  A
per-layer metric of a layer the workload does not run reads 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

LOWER, HIGHER = "lower", "higher"

#: End-to-end metrics, reported with ``--trace 0``.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", LOWER),
    "throughput_mps": ("1/s", HIGHER),
    "latency_p50_ms": ("ms", LOWER),
    "accuracy": ("ratio", HIGHER),
    "recall_at_k": ("ratio", HIGHER),
    "peak_rss_mb": ("MB", LOWER),
}

_STAGES = ("tokenize", "embed", "retrieve", "rerank", "top_candidate")

#: Per-layer metrics, reported with ``--trace 1``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "service.queue_wait_p50_ms": ("ms", LOWER),
    "service.queue_wait_p99_ms": ("ms", LOWER),
    "service.batch_size_mean": ("count", HIGHER),
    "service.flush_ms_mean": ("ms", LOWER),
    **{f"stage.{stage}.us_per_mention": ("us", LOWER) for stage in _STAGES},
    **{f"stage.{stage}.share": ("ratio", LOWER) for stage in _STAGES},
    "pipeline.assemble.us_per_mention": ("us", LOWER),
    "crossencoder.forward_us_per_row": ("us", LOWER),
    "crossencoder.prep_us_per_row": ("us", LOWER),
    "crossencoder.rows_per_call": ("count", HIGHER),
    "index.search_us_per_query": ("us", LOWER),
    "index.resolve_us_per_mention": ("us", LOWER),
    "index.update_ms_p50": ("ms", LOWER),
    "index.pending_entities_end": ("count", LOWER),
    "index.compact_s": ("s", LOWER),
    "cluster.router_submit_us": ("us", LOWER),
    "cluster.roundtrip_ms_per_batch": ("ms", LOWER),
    "cluster.batch_size_mean": ("count", HIGHER),
    "cluster.replica_imbalance": ("ratio", LOWER),
    "cluster.parent_cpu_s_per_1k": ("s", LOWER),
    "cluster.worker_cpu_s_per_1k": ("s", LOWER),
    "generation.rewriter_fit_s": ("s", LOWER),
    "generation.decode_pairs_per_s": ("1/s", HIGHER),
    "meta.compute_weights_ms_per_step": ("ms", LOWER),
    "meta.steps": ("count", LOWER),
    "meta.selected_fraction": ("ratio", HIGHER),
    "train.biencoder_fit_s": ("s", LOWER),
    "train.crossencoder_fit_s": ("s", LOWER),
    "train.finetune_s": ("s", LOWER),
    "bench.latency_p99_ms": ("ms", LOWER),
    "bench.generator_lag_p99_ms": ("ms", LOWER),
    "bench.trace_overhead_pct": ("%", LOWER),
}


def table(trace: bool) -> Dict[str, Tuple[str, str]]:
    """The metrics of one mode: per-layer when traced, else end-to-end."""
    return PER_LAYER if trace else END_TO_END


def describe(name: str, value: float) -> str:
    """One report line: name, value, unit and which direction is better."""
    unit, better = END_TO_END.get(name) or PER_LAYER[name]
    return f"  {name:<36} {value:>14.4f} {unit:<6} ({better} is better)"


def unit(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
