"""The four benchmark workloads: set-up, load, output checks and metrics.

Every workload is driven from outside the program through its public entry
points (``LinkingService.submit``, ``Router.submit``,
``ShardedEntityIndex.update_entities``, ``MetaBlinkTrainer.train``).  The
models and corpora are fixed by the configuration below (its content hash
is the ``config_id`` of the fingerprint); ``--seed`` drives the generated
inputs only: request order, arrival times and the write stream.

``run(name, seed, seconds, trace)`` returns a :class:`Report`.  With
``trace=False`` it sets up :data:`SETUP_REPEATS` times, measures with
tracing off and reports the end-to-end metrics.  With ``trace=True`` it sets
up once, measures untraced closed-loop rounds for reference and then
repeats the load under :class:`~tracing.Tracer` to report the per-layer
metrics.  Every workload reports every metric of its mode; a layer the
workload does not run reads 0.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.synthetic import enlarge_kb
from repro.data import generate_corpus, split_domain
from repro.data.worlds import TEST_DOMAINS
from repro.eval.experiments import ExperimentSuite, small_experiment_config
from repro.generation import build_tokenizer_for_corpus
from repro.generation.synthesis import (
    build_exact_match_data,
    source_domain_pairs,
    train_rewriter,
)
from repro.index import IVFBackend
from repro.linking import BlinkPipeline, ShardedEntityIndex
from repro.meta import MetaBlinkTrainer
from repro.serving import (
    EmbedStage,
    EntityLinkingPipeline,
    LinkingService,
    PipelineBatch,
    ReplicaPool,
    Router,
    TokenizeStage,
)
from repro.utils.config import (
    BiEncoderConfig,
    CorpusConfig,
    CrossEncoderConfig,
    EncoderConfig,
)

from harness import (
    ERROR,
    OK,
    PENDING,
    WRONG,
    Phase,
    closed_loop,
    cpu_seconds,
    cycle_permutations,
    log,
    open_loop,
    peak_rss_mb,
    percentile,
)
from metrics import table
from tracing import Tracer

#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# -- serving model: trained in set-up, shared by the three serving workloads.
#: 24 entities per world give 75 distinct entities over the 4 test worlds,
#: so chance accuracy is about 1/19 per routed world.
CORPUS = CorpusConfig(entities_per_domain=24, mentions_per_domain=150, seed=13)
ENCODER = EncoderConfig(model_dim=16, num_layers=1, num_heads=2, hidden_dim=32, max_length=16)
#: 8 train worlds x 142 pairs = 1,136 pairs, about 3.5 s of training.
TRAIN_PAIRS_PER_WORLD = 142
CROSS_CANDIDATES = 4
MAX_CROSS_EXAMPLES = 80
TRAIN_SEED = 0
#: Few-shot split of each test world; the test part (100 mentions per
#: world, 400 in all) is the request pool.
SEED_SIZE, DEV_SIZE = 30, 20

# -- load shape ------------------------------------------------------------
BATCH_SIZE = 32
#: Flush bound of every service: with the 10 ms default the open-loop p50
#: is mostly batching wait, and a 2 ms stage delay moves it by only 9%.
MAX_WAIT_MS = 2.0
SMALL_K = 16
#: About a third of the 800-1,050 mentions/s closed-loop capacity of one
#: service measured on 2 CPUs.
RERANK_RATE = 300.0
#: Open-loop + closed-loop rounds per run.
ROUNDS = 5
#: In-flight requests of the closed loop: below the Router's 1,024
#: admission watermark, so nothing is shed by design.
WINDOW = 128

# -- large KB --------------------------------------------------------------
KB_SIZE = 100_000
NPROBE = 8
LARGE_K = 64
READ_RATE = 150.0
#: Each update_entities call holds the interpreter lock for about 20 ms
#: (it copies the shard's id map and entity list).  At 20 calls/s the
#: writer held the lock near half the time: the read p50 sat on the edge
#: between reads that wait for a write and reads that do not, and moved
#: between 14 and 24 ms from run to run.  At 5/s its share is near 10%.
WRITE_RATE = 5.0
WRITE_BATCH = 4
#: Relative noise of a rewritten embedding, as for the KB's own aliases.
WRITE_NOISE = 0.05
KB_SEED = 1

# -- meta-training -----------------------------------------------------------
META_WORLD = "yugioh"
META_CROSS_EXAMPLES = 60

# -- output checks -----------------------------------------------------------
#: Served recall@64 measures 0.900-0.907 at nprobe=8 on the large KB (the
#: exact indexes of the other workloads read 1.0); the floor catches a
#: broken probe, the 0.03 bound catches a smaller loss.
RECALL_FLOOR = 0.85
#: Share of reads whose top candidate names the entity exact search ranks
#: first (aliases resolved), on the large KB.
TOP1_FLOOR = 0.9
#: Accuracy must reach this multiple of chance (1 / entities in the world).
ACCURACY_OVER_CHANCE = 3.0
#: A run whose generator submitted later than this at p90 measured a
#: lighter load than scheduled and is flagged invalid.
MAX_GENERATOR_LAG_MS = 20.0
#: Likewise for the writer: the share of scheduled writes it may skip.
MAX_MISSED_WRITES = 0.05


def workload_config() -> dict:
    """Everything that shapes the workloads; hashed into ``config_id``."""
    return {
        "corpus": asdict(CORPUS),
        "encoder": asdict(ENCODER),
        "train": [TRAIN_PAIRS_PER_WORLD, CROSS_CANDIDATES, MAX_CROSS_EXAMPLES, TRAIN_SEED],
        "split": [SEED_SIZE, DEV_SIZE],
        "serving": [BATCH_SIZE, MAX_WAIT_MS, SMALL_K, RERANK_RATE, ROUNDS, WINDOW],
        "large_kb": [KB_SIZE, NPROBE, LARGE_K, READ_RATE, WRITE_RATE, WRITE_BATCH,
                     WRITE_NOISE, KB_SEED],
        "meta": [META_WORLD, META_CROSS_EXAMPLES, asdict(small_experiment_config())],
        "checks": [RECALL_FLOOR, TOP1_FLOOR, ACCURACY_OVER_CHANCE, MAX_GENERATOR_LAG_MS,
                   MAX_MISSED_WRITES],
        "setup_repeats": SETUP_REPEATS,
    }


@dataclass
class Report:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
@dataclass
class Served:
    """A trained serving model with its request pool."""

    blink: BlinkPipeline
    entities: list
    pool: list


def train_serving_model() -> Served:
    corpus = generate_corpus(CORPUS)
    tokenizer = build_tokenizer_for_corpus(corpus, max_length=ENCODER.max_length)
    blink = BlinkPipeline(
        tokenizer,
        BiEncoderConfig(encoder=ENCODER),
        CrossEncoderConfig(encoder=ENCODER, num_candidates=CROSS_CANDIDATES),
    )
    blink.train(
        source_domain_pairs(corpus, limit_per_domain=TRAIN_PAIRS_PER_WORLD),
        max_crossencoder_examples=MAX_CROSS_EXAMPLES,
        seed=TRAIN_SEED,
    )
    entities = [entity for world in TEST_DOMAINS for entity in corpus.entities(world)]
    pool = [
        mention
        for world in TEST_DOMAINS
        for mention in split_domain(
            corpus, world, seed_size=SEED_SIZE, dev_size=DEV_SIZE
        ).test
    ]
    return Served(blink, entities, pool)


def small_kb_pipeline(served: Served) -> EntityLinkingPipeline:
    """Exact sharded index with world routing, k=16, cross-encoder rerank."""
    index = served.blink.biencoder.build_sharded_index(served.entities, lazy=False)
    return EntityLinkingPipeline(
        served.blink.biencoder, index, served.blink.crossencoder,
        k=SMALL_K, batch_size=BATCH_SIZE,
    )


@dataclass
class LargeKB:
    pipeline: EntityLinkingPipeline
    entities: list
    vectors: np.ndarray


def large_kb_pipeline(served: Served) -> LargeKB:
    """The test-world entities enlarged to 100k, IVF shards, rerank off."""
    biencoder = served.blink.biencoder
    base_vectors = biencoder.embed_entities(served.entities)
    entities, vectors = enlarge_kb(served.entities, base_vectors, KB_SIZE, seed=KB_SEED)
    index = ShardedEntityIndex(
        embed_fn=biencoder.embed_entities, backend=IVFBackend(nprobe=NPROBE)
    )
    rows: Dict[str, List[int]] = {}
    for row, entity in enumerate(entities):
        rows.setdefault(entity.domain, []).append(row)
    for world, members in rows.items():
        index.add_shard(world, [entities[i] for i in members], vectors[members])
    for world in index.worlds():
        index.shard(world)  # cluster every shard before traffic
    pipeline = EntityLinkingPipeline(
        biencoder, index, None, k=LARGE_K, rerank=False, batch_size=BATCH_SIZE
    )
    return LargeKB(pipeline, entities, vectors)


def repeated_setup(build: Callable[[], object], repeats: int,
                   release: Callable[[object], None] = lambda _: None):
    """Run ``build`` ``repeats`` times; keep the last result, time each."""
    seconds: List[float] = []
    result = None
    for attempt in range(repeats):
        if result is not None:
            release(result)
            result = None
        started = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - started)
        log(f"set-up {attempt + 1}/{repeats}: {seconds[-1]:.2f} s")
    return result, statistics.median(seconds)


# ---------------------------------------------------------------------------
# Serving load and checks
# ---------------------------------------------------------------------------
def reference_predictions(served: Served, index) -> Dict[str, Optional[str]]:
    """Offline batch-size-1 predictions over the pool: what serving must return."""
    reference = EntityLinkingPipeline(
        served.blink.biencoder, index, served.blink.crossencoder,
        k=SMALL_K, batch_size=1,
    )
    return {result.mention_id: result.predicted_entity_id
            for result in reference.link(served.pool)}


class Checker:
    """Judges each request as it completes and counts outcomes per run.

    A request fails when it raised, was cancelled, had not completed when
    the phase drained, or returned an answer the check rejects.  The first
    prediction served for each mention is kept for the accuracy figure.
    """

    def __init__(self, report: Report, check: Callable[[object, object], bool]) -> None:
        self.report = report
        self.check = check
        self.errors = 0
        self.wrong = 0
        self.answers: Dict[str, Optional[str]] = {}

    def judge(self, mention, future) -> int:
        if future.cancelled() or future.exception() is not None:
            return ERROR
        result = future.result()
        self.answers.setdefault(mention.mention_id, result.predicted_entity_id)
        return OK if self.check(mention, result) else WRONG

    def add(self, phase: Phase) -> None:
        self.report.attempted += phase.attempted
        self.errors += int(np.count_nonzero((phase.outcome == ERROR) | (phase.outcome == PENDING)))
        self.wrong += int(np.count_nonzero(phase.outcome == WRONG))

    def finish(self) -> None:
        self.report.failed += self.errors + self.wrong
        if self.wrong:
            self.report.fail(f"{self.wrong} requests returned a wrong answer")
        if self.errors:
            self.report.problems.append(f"{self.errors} requests failed")


def check_generator(report: Report, lags_s: np.ndarray) -> float:
    """Flag the run invalid when the generator fell behind its schedule.

    A pause that stops every thread (a full garbage collection takes
    30-50 ms in this process) delays about 1% of the requests and is
    charged to their latency; a generator that is late for a tenth of its
    requests offered a lighter load than scheduled.
    """
    lag = np.asarray(lags_s) * 1e3
    lag_p90 = percentile(lag, 90)
    log(f"generator lag ms: p50 {percentile(lag, 50):.2f} p90 {lag_p90:.2f} "
        f"p99 {percentile(lag, 99):.2f} max {lag.max():.2f}")
    if lag_p90 > MAX_GENERATOR_LAG_MS:
        report.fail(
            f"invalid run: generator lag p90 {lag_p90:.1f} ms exceeds "
            f"{MAX_GENERATOR_LAG_MS} ms, so the offered load fell below the schedule"
        )
    return percentile(lag, 99)


def serve(
    submit,
    pool: Sequence,
    rate: float,
    seconds: float,
    seed: int,
    checker: Checker,
    report: Report,
    tracer: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Warm-up pass, then :data:`ROUNDS` rounds of an open-loop and a
    closed-loop phase, ``seconds`` in all.

    ``submit`` must look the entry point up on every call (a lambda, not a
    bound method taken earlier) so that the tracer's wrapper is reached.

    The warm-up sends each pool mention once, so caches are warm and every
    worker has answered before timing starts.  Throughput and p50 are the
    medians over rounds, so one slow stretch of a shared machine does not
    set them; p99 pools every open-loop request.  With a tracer, untraced
    closed-loop rounds run first and the measured rounds run traced; the
    throughput difference is the tracing overhead.
    """
    rng = np.random.default_rng(seed)
    items = cycle_permutations(pool, rng)
    judge = checker.judge
    checker.add(closed_loop(submit, iter(pool), judge, WINDOW, float("inf")))
    out: Dict[str, float] = {}
    length = seconds / (2 * ROUNDS)
    if tracer is not None:
        plain = [closed_loop(submit, items, judge, WINDOW, length) for _ in range(ROUNDS)]
        for phase in plain:
            checker.add(phase)
        out["untraced_throughput"] = statistics.median(phase.throughput() for phase in plain)
    opened: List[Phase] = []
    closed: List[Phase] = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(ROUNDS):
            with tracer.open_loop() if tracer is not None else contextlib.nullcontext():
                opened.append(open_loop(submit, items, judge, rate, length, rng))
            closed.append(closed_loop(submit, items, judge, WINDOW, length))
    for phase in opened + closed:
        checker.add(phase)
    throughputs = [phase.throughput() for phase in closed]
    p50s = [percentile(phase.latencies_ms(), 50) for phase in opened]
    log("rounds throughput " + " ".join(f"{value:.1f}" for value in throughputs)
        + " | p50 ms " + " ".join(f"{value:.3f}" for value in p50s))
    out["throughput_mps"] = statistics.median(throughputs)
    out["latency_p50_ms"] = statistics.median(p50s)
    out["latency_p99_ms"] = percentile(
        np.concatenate([phase.latencies_ms() for phase in opened]), 99
    )
    out["generator_lag_p99_ms"] = check_generator(
        report, np.concatenate([phase.lag for phase in opened])
    )
    return out


def serving_metrics(report: Report, load: Dict[str, float], tracer: Optional[Tracer]) -> None:
    """Move the load's numbers into the report.

    The open-loop p99 is not steady from run to run (one garbage collection
    decides it), so it is a per-layer ``bench.*`` figure.
    """
    report.metrics["throughput_mps"] = load["throughput_mps"]
    report.metrics["latency_p50_ms"] = load["latency_p50_ms"]
    report.metrics["bench.latency_p99_ms"] = load["latency_p99_ms"]
    report.metrics["bench.generator_lag_p99_ms"] = load["generator_lag_p99_ms"]
    if tracer is not None:
        report.metrics["bench.trace_overhead_pct"] = 100.0 * (
            1.0 - load["throughput_mps"] / load["untraced_throughput"]
        )


def check_accuracy(report: Report, accuracy: float, entities_per_world: float) -> bool:
    floor = ACCURACY_OVER_CHANCE / entities_per_world
    if accuracy < floor:
        report.fail(f"accuracy {accuracy:.3f} is below {floor:.3f} "
                    f"({ACCURACY_OVER_CHANCE}x chance)")
        return False
    return True


def base_entity_id(entity_id: Optional[str]) -> Optional[str]:
    """The real entity an ``enlarge_kb`` alias (``"<id>~<n>"``) stands for."""
    return entity_id.split("~", 1)[0] if entity_id is not None else None


def pool_accuracy(checker: Checker, served: Served, report: Report) -> float:
    """Accuracy over the distinct pool mentions served during the run."""
    answers = checker.answers
    if len(answers) < len(served.pool):
        report.fail(f"only {len(answers)} of {len(served.pool)} pool mentions were served")
    gold = {mention.mention_id: mention.gold_entity_id for mention in served.pool}
    accuracy = sum(
        predicted == gold[mention_id] for mention_id, predicted in answers.items()
    ) / max(len(answers), 1)
    check_accuracy(report, accuracy, len(served.entities) / len(TEST_DOMAINS))
    return accuracy


def matches_reference(reference: Dict[str, Optional[str]]) -> Callable[[object, object], bool]:
    return lambda mention, result: result.predicted_entity_id == reference[mention.mention_id]


class KBMirror:
    """The benchmark's own copy of the KB state, for exact search.

    On ``ivf_large_kb_rw`` the writer applies each update here after the
    index accepted it, so at the end of the run the mirror holds exactly
    the state the index should serve.
    """

    def __init__(self, entities: Sequence, vectors: np.ndarray) -> None:
        self.entities = list(entities)
        self.vectors = vectors.copy()
        worlds: Dict[str, List[int]] = {}
        for row, entity in enumerate(self.entities):
            worlds.setdefault(entity.domain, []).append(row)
        self.rows_of: Dict[str, np.ndarray] = {
            world: np.asarray(rows) for world, rows in worlds.items()
        }
        self.rms = float(np.sqrt(np.mean(vectors ** 2)))

    def exact_top(self, query: np.ndarray, world: str, k: int) -> List[str]:
        """Ids of the ``k`` best rows of ``world``, best first."""
        rows = self.rows_of[world]
        k = min(k, len(rows))
        scores = self.vectors[rows] @ query
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        return [self.entities[row].entity_id for row in rows[top]]


def exact_mirror(pipeline: EntityLinkingPipeline, entities: Sequence) -> KBMirror:
    return KBMirror(entities, pipeline.biencoder.embed_entities(list(entities)))


@dataclass
class AgainstExact:
    #: Served top-k against exact top-k, as a share of the exact ids found.
    recall: float
    #: Share of mentions whose served top candidate names the same real
    #: entity (aliases resolved) as the exact top-1.
    top1: float


def against_exact(pipeline: EntityLinkingPipeline, mirror: KBMirror, mentions: Sequence,
                  tracer: Optional[Tracer] = None) -> AgainstExact:
    """Served candidates against exact search over the mirror, on every mention.

    Query vectors come from the pipeline's own tokenize and embed stages
    over the same micro-batches that ``link`` forms.  These calls are the
    benchmark's check, so a tracer leaves them out of its spans.
    """
    tokenize = TokenizeStage(pipeline.biencoder.tokenizer)
    embed = EmbedStage(pipeline.biencoder)
    overlap = expected = agree = 0
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        for start in range(0, len(mentions), BATCH_SIZE):
            chunk = list(mentions[start:start + BATCH_SIZE])
            served = pipeline.link(chunk)
            queries = embed(tokenize(PipelineBatch(mentions=chunk))).query_vectors
            for mention, result, query in zip(chunk, served, queries):
                exact = mirror.exact_top(query, mention.domain, pipeline.k)
                overlap += len(set(exact).intersection(result.candidate_ids))
                expected += len(exact)
                agree += (bool(result.candidate_ids)
                          and base_entity_id(result.candidate_ids[0]) == base_entity_id(exact[0]))
    return AgainstExact(overlap / expected, agree / len(mentions))


def check_recall(report: Report, recall: float) -> bool:
    if recall < RECALL_FLOOR:
        report.fail(f"recall@k {recall:.3f} is below {RECALL_FLOOR}")
        return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def rerank_small_kb(seed: int, seconds: float, tracer: Optional[Tracer], repeats: int) -> Report:
    report = Report()

    def build():
        served = train_serving_model()
        return served, small_kb_pipeline(served)

    (served, pipeline), report.metrics["setup_s"] = repeated_setup(build, repeats)
    reference = reference_predictions(served, pipeline.index)
    checker = Checker(report, matches_reference(reference))
    with LinkingService(pipeline, max_batch_size=BATCH_SIZE, max_wait_ms=MAX_WAIT_MS) as service:
        load = serve(lambda mention: service.submit(mention), served.pool, RERANK_RATE,
                     seconds, seed, checker, report, tracer)
    checker.finish()
    serving_metrics(report, load, tracer)
    report.metrics["accuracy"] = pool_accuracy(checker, served, report)
    recall = against_exact(pipeline, exact_mirror(pipeline, served.entities), served.pool).recall
    check_recall(report, recall)
    report.metrics["recall_at_k"] = recall
    report.metrics["peak_rss_mb"] = peak_rss_mb()
    return report


class Writer(threading.Thread):
    """Rewrites ``WRITE_BATCH`` embeddings ``WRITE_RATE`` times per second.

    A write that is due while the previous one still runs is late; a writer
    a whole period behind skips the missed ticks instead of catching up
    back to back, and counts them, so a slow update path cannot turn the
    writer into a closed loop that starves the readers.
    """

    def __init__(self, index: ShardedEntityIndex, mirror: KBMirror, seed: int) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.index = index
        self.mirror = mirror
        self.rng = np.random.default_rng([seed, 1])
        self.stop = threading.Event()
        self.latencies_ms: List[float] = []
        self.errors: List[str] = []
        self.missed = 0

    def run(self) -> None:
        period = 1.0 / WRITE_RATE
        due = time.perf_counter()
        while not self.stop.wait(max(due - time.perf_counter(), 0.0)):
            behind = int((time.perf_counter() - due) / period)
            self.missed += behind
            due += behind * period
            rows = self.rng.choice(len(self.mirror.entities), WRITE_BATCH, replace=False)
            vectors = self.mirror.vectors[rows] + WRITE_NOISE * self.mirror.rms * (
                self.rng.standard_normal((WRITE_BATCH, self.mirror.vectors.shape[1]))
            )
            entities = [self.mirror.entities[row] for row in rows]
            due += period
            started = time.perf_counter()
            try:
                self.index.update_entities(entities, vectors)
            except (KeyError, ValueError) as error:
                self.errors.append(f"{type(error).__name__}: {error}")
                continue
            self.latencies_ms.append((time.perf_counter() - started) * 1e3)
            self.mirror.vectors[rows] = vectors


def ivf_large_kb_rw(seed: int, seconds: float, tracer: Optional[Tracer], repeats: int) -> Report:
    report = Report()

    def build():
        served = train_serving_model()
        return served, large_kb_pipeline(served)

    (served, kb), report.metrics["setup_s"] = repeated_setup(build, repeats)
    pipeline = kb.pipeline
    mirror = KBMirror(kb.entities, kb.vectors)
    k = pipeline.k

    def check(_mention, result) -> bool:
        return (len(result.candidate_ids) == k
                and result.predicted_entity_id == result.candidate_ids[0])

    checker = Checker(report, check)
    writer = Writer(pipeline.index, mirror, seed)
    with LinkingService(pipeline, max_batch_size=BATCH_SIZE, max_wait_ms=MAX_WAIT_MS) as service:
        writer.start()
        try:
            load = serve(lambda mention: service.submit(mention), served.pool, READ_RATE,
                         seconds, seed, checker, report, tracer)
        finally:
            writer.stop.set()
            writer.join()
    checker.finish()
    writes = len(writer.latencies_ms) + len(writer.errors)
    report.attempted += writes
    report.failed += len(writer.errors)
    if writer.missed > MAX_MISSED_WRITES * (writes + writer.missed):
        report.fail(f"invalid run: the writer missed {writer.missed} of "
                    f"{writes + writer.missed} scheduled writes")
    for error in writer.errors[:3]:
        report.problems.append(f"write failed: {error}")
    serving_metrics(report, load, tracer)
    # Without rerank, top-1 against the gold labels is at chance (0.0575
    # measured, 1/19 by chance), so accuracy here is agreement with exact
    # search over the end-of-run KB.
    exact = against_exact(pipeline, mirror, served.pool)
    check_recall(report, exact.recall)
    if exact.top1 < TOP1_FLOOR:
        report.fail(f"top-1 agreement with exact search {exact.top1:.3f} is below {TOP1_FLOOR}")
    report.metrics["accuracy"] = exact.top1
    report.metrics["recall_at_k"] = exact.recall
    report.metrics["peak_rss_mb"] = peak_rss_mb()
    if tracer is None:
        return report
    updates = tracer.span("index.update").samples
    report.metrics["index.update_ms_p50"] = 1e3 * percentile(updates, 50)
    index = pipeline.index
    report.metrics["index.pending_entities_end"] = float(
        sum(index.shard(world).num_pending for world in index.worlds())
    )
    started = time.perf_counter()
    index.compact()
    report.metrics["index.compact_s"] = time.perf_counter() - started
    return report


def process_replicas(seed: int, seconds: float, tracer: Optional[Tracer], repeats: int) -> Report:
    report = Report()
    replicas = os.cpu_count() or 1

    def build():
        served = train_serving_model()
        pipeline = small_kb_pipeline(served)
        pool = ReplicaPool.from_pipeline(
            pipeline, replicas=replicas, process_replicas=replicas,
            max_batch_size=BATCH_SIZE, max_wait_ms=MAX_WAIT_MS,
        )
        return served, pipeline, Router(pool)

    (served, pipeline, router), report.metrics["setup_s"] = repeated_setup(
        build, repeats, release=lambda stack: stack[2].close()
    )
    try:
        reference = reference_predictions(served, pipeline.index)
        checker = Checker(report, matches_reference(reference))
        parent_cpu = cpu_seconds(resource.RUSAGE_SELF)
        load = serve(lambda mention: router.submit(mention), served.pool, RERANK_RATE,
                     seconds, seed, checker, report, tracer)
        workers = [child.pid for child in multiprocessing.active_children()]
        peak = peak_rss_mb(workers)
        per_replica = [replica.stats.snapshot() for replica in router.pool.replicas]
    finally:
        router.close()
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)  # the pool joins its workers; make sure
    parent_cpu = cpu_seconds(resource.RUSAGE_SELF) - parent_cpu
    worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
    checker.finish()
    serving_metrics(report, load, tracer)
    report.metrics["accuracy"] = pool_accuracy(checker, served, report)
    # The replicas serve copies of this pipeline, forked in set-up.
    recall = against_exact(pipeline, exact_mirror(pipeline, served.entities), served.pool).recall
    check_recall(report, recall)
    report.metrics["recall_at_k"] = recall
    report.metrics["peak_rss_mb"] = peak
    if tracer is None:
        return report
    mentions = [snapshot["mentions"] for snapshot in per_replica]
    batches = sum(snapshot["batches"] for snapshot in per_replica)
    remote = sum(snapshot["stage_seconds"].get("remote", 0.0) for snapshot in per_replica)
    served_thousands = sum(mentions) / 1000.0
    report.metrics.update({
        "cluster.router_submit_us": 1e6 * tracer.span("cluster.submit").seconds
        / max(tracer.span("cluster.submit").calls, 1),
        "cluster.roundtrip_ms_per_batch": 1e3 * remote / batches,
        "cluster.batch_size_mean": sum(mentions) / batches,
        "cluster.replica_imbalance": max(mentions) / max(min(mentions), 1),
        "cluster.parent_cpu_s_per_1k": parent_cpu / served_thousands,
        "cluster.worker_cpu_s_per_1k": worker_cpu / served_thousands,
    })
    return report


@dataclass
class MetaInputs:
    suite: ExperimentSuite
    synthetic: list
    seed_pairs: list


def meta_inputs() -> MetaInputs:
    """Corpus, splits and the weak supervision: exact match, rewriter, decode."""
    suite = ExperimentSuite(small_experiment_config())
    config = suite.config
    exact = build_exact_match_data(suite.corpus, META_WORLD, per_entity=2, seed=config.seed)
    rewriter = train_rewriter(
        suite.corpus, suite.tokenizer, target_domain=None, config=config.rewriter,
        limit_per_domain=40, seed=config.seed,
    )
    synthetic = rewriter.rewrite_pairs(exact)
    return MetaInputs(suite, synthetic, suite.seed_pairs(META_WORLD))


def meta_iteration(inputs: MetaInputs, rng: np.random.Generator,
                   tracer: Optional[Tracer] = None) -> Dict[str, float]:
    """MetaBlinkTrainer.train, then evaluation on the world's test split.

    ``latency_p50_ms`` of one iteration is the wall time of both: what a
    researcher waits for one trained and evaluated model.  The training seed is fixed: over
    training seeds 1-5 accuracy ranged from 0.28 to 0.50, which would bury
    any regression.  ``rng`` only orders the evaluation requests.
    """
    suite = inputs.suite
    config = suite.config
    entities = suite.corpus.entities(META_WORLD)
    trainer = MetaBlinkTrainer(suite.tokenizer, config.biencoder, config.crossencoder, config.meta)
    started = time.perf_counter()
    trainer.train(
        inputs.synthetic, inputs.seed_pairs, candidate_pool=entities,
        max_crossencoder_examples=META_CROSS_EXAMPLES, seed=TRAIN_SEED,
    )
    train_seconds = time.perf_counter() - started
    serving = EntityLinkingPipeline.from_blink(
        trainer.pipeline, entities=entities, k=config.recall_k
    )
    test = suite.splits[META_WORLD].test
    order = [test[int(i)] for i in rng.permutation(len(test))]
    results = serving.link(order)
    latency_ms = 1e3 * (time.perf_counter() - started)
    return {
        "throughput_mps": (len(inputs.synthetic) + len(inputs.seed_pairs)) / train_seconds,
        "latency_p50_ms": latency_ms,
        "accuracy": sum(result.correct for result in results) / len(results),
        "recall_at_k": against_exact(serving, exact_mirror(serving, entities), order,
                                     tracer).recall,
    }


def meta_train(seed: int, seconds: float, tracer: Optional[Tracer], repeats: int) -> Report:
    """``throughput_mps`` here counts training pairs (one mention each)."""
    report = Report()
    rng = np.random.default_rng(seed)
    if tracer is not None:
        inputs = meta_inputs()
        outcomes = [meta_iteration(inputs, rng)]
        with tracer:
            inputs = meta_inputs()
            outcomes.append(meta_iteration(inputs, rng, tracer))
        report.metrics["bench.trace_overhead_pct"] = 100.0 * (
            1.0 - outcomes[1]["throughput_mps"] / outcomes[0]["throughput_mps"]
        )
    else:
        inputs, report.metrics["setup_s"] = repeated_setup(meta_inputs, repeats)
        outcomes = []
        started = time.perf_counter()
        while not outcomes or time.perf_counter() - started < seconds:
            outcomes.append(meta_iteration(inputs, rng))
            log(f"iteration {len(outcomes)}: {outcomes[-1]}")
        for name in outcomes[0]:
            report.metrics[name] = statistics.median(outcome[name] for outcome in outcomes)
        report.metrics["peak_rss_mb"] = peak_rss_mb()
    report.attempted = len(outcomes)
    entities = len(inputs.suite.corpus.entities(META_WORLD))
    report.failed = sum(
        not (check_accuracy(report, outcome["accuracy"], entities)
             & check_recall(report, outcome["recall_at_k"]))
        for outcome in outcomes
    )
    return report


WORKLOADS = {
    "rerank_small_kb": rerank_small_kb,
    "ivf_large_kb_rw": ivf_large_kb_rw,
    "process_replicas": process_replicas,
    "meta_train": meta_train,
}


def run(name: str, seed: int, seconds: float, trace: bool) -> Report:
    """Run one workload and keep the metrics of the mode.

    Traced runs set up once and report every per-layer metric: what the
    tracer's spans give, the workload's own per-layer figures, and 0 for a
    layer the workload does not run.
    """
    if not trace:
        report = WORKLOADS[name](seed, seconds, None, SETUP_REPEATS)
        measured = report.metrics
    else:
        tracer = Tracer()
        report = WORKLOADS[name](seed, seconds, tracer, 1)
        measured = {**dict.fromkeys(table(True), 0.0), **tracer.layer_metrics(),
                    **report.metrics}
    report.metrics = {metric: measured[metric] for metric in table(trace) if metric in measured}
    return report
