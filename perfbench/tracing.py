"""Per-layer tracing by wrapping the public functions of each layer.

The traced run installs timing wrappers on the classes of the layers
(:class:`Tracer` is a context manager that restores the originals on exit)
and derives the per-layer metrics from what they recorded.  Nothing inside
the program changes: every span is taken from the benchmark's side of a
call into a layer.  Worker processes forked before the tracer is installed
run untraced, so for process replicas only the parent-side layers report.
A layer that was not called during the traced run reports 0.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.generation.rewriter import MentionRewriter
from repro.linking.biencoder import BiEncoderTrainer
from repro.linking.candidates import ShardedEntityIndex
from repro.linking.crossencoder import CrossEncoder, CrossEncoderTrainer
from repro.meta.metablink import MetaBiEncoderTrainer, MetaCrossEncoderTrainer
from repro.meta.reweight import ExampleReweighter
from repro.serving import (
    EmbedStage,
    EntityLinkingPipeline,
    LinkingService,
    RerankStage,
    RetrieveStage,
    Router,
    TokenizeStage,
    TopCandidateStage,
)

STAGES = (TokenizeStage, EmbedStage, RetrieveStage, RerankStage, TopCandidateStage)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Span:
    """Accumulated wall time, call count and work units of one layer call."""

    __slots__ = ("seconds", "calls", "units", "samples")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.units = 0
        self.samples: List[float] = []


class Tracer:
    """Wraps layer entry points while active and accumulates their spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Names of the spans open on each thread, innermost last.
        self._active = threading.local()
        self.spans: Dict[str, Span] = defaultdict(Span)
        self.queue_waits: List[float] = []
        self.selected = 0
        self.weighed = 0
        self._submitted: Dict[int, deque] = defaultdict(deque)
        self._patches: List[tuple] = []
        self._open_loop = False
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Leave the calls made in this block out of every span.

        For the benchmark's own checks, which call into the layers too.
        """
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def open_loop(self):
        """Count the service metrics of the requests sent in this block.

        In the closed loop every request queues behind the 128 in flight,
        which says nothing about the open-loop latency the service metrics
        are meant to explain.
        """
        self._open_loop = True
        try:
            yield
        finally:
            self._open_loop = False

    # -- recording --------------------------------------------------------
    def record(self, name: str, seconds: float, units: int = 0, sample: bool = False) -> None:
        names = (name, "open." + name) if self._open_loop else (name,)
        with self._lock:
            for key in names:
                span = self.spans[key]
                span.seconds += seconds
                span.calls += 1
                span.units += units
                if sample:
                    span.samples.append(seconds)

    def span(self, name: str) -> Span:
        with self._lock:
            return self.spans[name] if name in self.spans else Span()

    # -- installation -----------------------------------------------------
    def _wrap(
        self,
        owner: type,
        attribute: str,
        name: str,
        units: Callable[..., int] = lambda *args: 0,
        sample: bool = False,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
        within: Optional[str] = None,
    ) -> None:
        """Time calls of ``owner.attribute`` as span ``name``.

        With ``within``, only calls made inside span ``within`` on the same
        thread count.
        """
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            active = self._active.__dict__.setdefault("names", [])
            if self._paused or (within is not None and within not in active):
                return original(*args, **kwargs)
            started = time.perf_counter()
            if before is not None:
                before(started, *args)
            active.append(name)
            try:
                result = original(*args, **kwargs)
            finally:
                active.pop()
            self.record(name, time.perf_counter() - started, units(*args), sample)
            if after is not None:
                after(result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _note_submit(self, started: float, _service, mention, *rest) -> None:
        with self._lock:
            self._submitted[id(mention)].append(started)

    def _note_flush(self, started: float, _pipeline, mentions, *rest) -> None:
        # LinkingService queues are FIFO, so the oldest submit of a mention
        # object is the one this batch carries.
        with self._lock:
            for mention in mentions:
                pending = self._submitted.get(id(mention))
                if pending:
                    wait = started - pending.popleft()
                    if self._open_loop:
                        self.queue_waits.append(wait)

    def _note_weights(self, result) -> None:
        with self._lock:
            self.selected += int(np.count_nonzero(result.weights > 0))
            self.weighed += int(result.weights.size)

    def __enter__(self) -> "Tracer":
        for stage in STAGES:
            self._wrap(stage, "__call__", f"stage.{stage.name}",
                       units=lambda _stage, batch: len(batch))
        self._wrap(LinkingService, "submit", "service.submit", before=self._note_submit)
        self._wrap(EntityLinkingPipeline, "link", "pipeline.link",
                   units=lambda _pipeline, mentions: len(mentions),
                   before=self._note_flush)
        # Training calls the forward too; only rerank's forward counts.
        self._wrap(CrossEncoder, "scores_from_ids", "crossencoder.forward",
                   units=lambda _model, ids, *rest: len(ids), within="crossencoder.batch")
        self._wrap(CrossEncoder, "score_candidate_batch", "crossencoder.batch",
                   units=lambda _model, _mentions, candidates, *rest: sum(map(len, candidates)))
        self._wrap(ShardedEntityIndex, "search_routed", "index.search",
                   units=lambda _index, queries, *rest: len(queries))
        self._wrap(ShardedEntityIndex, "update_entities", "index.update", sample=True)
        self._wrap(Router, "submit", "cluster.submit")
        self._wrap(MentionRewriter, "fit", "generation.rewriter_fit")
        self._wrap(MentionRewriter, "rewrite_pairs", "generation.decode",
                   units=lambda _rewriter, pairs, *rest: len(pairs))
        self._wrap(ExampleReweighter, "compute_weights", "meta.compute_weights",
                   after=self._note_weights)
        self._wrap(MetaBiEncoderTrainer, "fit", "train.biencoder_fit")
        self._wrap(MetaCrossEncoderTrainer, "fit", "train.crossencoder_fit")
        self._wrap(BiEncoderTrainer, "fit", "train.finetune")
        self._wrap(CrossEncoderTrainer, "fit", "train.finetune")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- derived per-layer metrics -----------------------------------------
    def stage_metrics(self) -> Dict[str, float]:
        """``stage.*`` cost per mention and share, plus assembly overhead."""
        stages = {stage.name: self.span(f"stage.{stage.name}") for stage in STAGES}
        link = self.span("pipeline.link")
        mentions = max(link.units, 1)
        stage_seconds = sum(span.seconds for span in stages.values())
        metrics: Dict[str, float] = {}
        for name, span in stages.items():
            metrics[f"stage.{name}.us_per_mention"] = 1e6 * span.seconds / mentions
            metrics[f"stage.{name}.share"] = _ratio(span.seconds, stage_seconds)
        metrics["pipeline.assemble.us_per_mention"] = (
            1e6 * (link.seconds - stage_seconds) / mentions
        )
        return metrics

    def service_metrics(self) -> Dict[str, float]:
        """Queue wait and batching of the open-loop requests."""
        link = self.span("open.pipeline.link")
        waits = np.asarray(self.queue_waits or [0.0]) * 1e3
        return {
            "service.queue_wait_p50_ms": float(np.percentile(waits, 50)),
            "service.queue_wait_p99_ms": float(np.percentile(waits, 99)),
            "service.batch_size_mean": _ratio(link.units, link.calls),
            "service.flush_ms_mean": 1e3 * _ratio(link.seconds, link.calls),
        }

    def crossencoder_metrics(self) -> Dict[str, float]:
        forward = self.span("crossencoder.forward")
        batch = self.span("crossencoder.batch")
        rows = max(batch.units, 1)
        return {
            "crossencoder.forward_us_per_row": 1e6 * forward.seconds / rows,
            "crossencoder.prep_us_per_row": 1e6 * (batch.seconds - forward.seconds) / rows,
            "crossencoder.rows_per_call": _ratio(batch.units, batch.calls),
        }

    def index_metrics(self) -> Dict[str, float]:
        search = self.span("index.search")
        retrieve = self.span("stage.retrieve")
        mentions = max(retrieve.units, 1)
        return {
            "index.search_us_per_query": 1e6 * search.seconds / max(search.units, 1),
            "index.resolve_us_per_mention": 1e6 * (retrieve.seconds - search.seconds) / mentions,
        }

    def meta_metrics(self) -> Dict[str, float]:
        weights = self.span("meta.compute_weights")
        decode = self.span("generation.decode")
        return {
            "generation.rewriter_fit_s": self.span("generation.rewriter_fit").seconds,
            "generation.decode_pairs_per_s": _ratio(decode.units, decode.seconds),
            "meta.compute_weights_ms_per_step": 1e3 * _ratio(weights.seconds, weights.calls),
            "meta.steps": float(weights.calls),
            "meta.selected_fraction": _ratio(self.selected, self.weighed),
            "train.biencoder_fit_s": self.span("train.biencoder_fit").seconds,
            "train.crossencoder_fit_s": self.span("train.crossencoder_fit").seconds,
            "train.finetune_s": self.span("train.finetune").seconds,
        }

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric the spans give, 0 for a layer never called."""
        return {
            **self.service_metrics(),
            **self.stage_metrics(),
            **self.crossencoder_metrics(),
            **self.index_metrics(),
            **self.meta_metrics(),
        }
