"""Load generation and measurement helpers shared by the workloads.

The load comes from one generator thread (the caller's) in one process:

* :func:`open_loop` sends requests on a seeded Poisson schedule regardless
  of how fast the system answers, and times each request from the moment
  it was *due*, so a stall also charges the requests queued behind it.  It
  records how late the generator itself submitted each request.
* :func:`closed_loop` keeps a fixed window of requests in flight.  The
  completion callback releases a semaphore slot, so no client threads are
  added and the generator submits the next request as soon as one returns.

Both load functions take ``submit(item) -> Future`` and a ``judge`` that checks
each answer in its completion callback, so a phase keeps one outcome code
per request rather than every result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

#: How long a phase waits for its last requests after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


#: Outcome codes of one request, judged in its completion callback.
PENDING, OK, WRONG, ERROR = -1, 0, 1, 2

#: ``judge(item, future) -> outcome``, called once the future is done.
Judge = Callable[[object, Future], int]


@dataclass
class Phase:
    """Timings and outcomes of one load phase, one slot per request.

    ``due`` and ``done`` are absolute ``perf_counter`` instants; ``done`` is
    NaN and ``outcome`` :data:`PENDING` for a request that had not
    completed when the drain timed out.  Futures are dropped when the phase
    ends, so a run does not accumulate every result it was sent.
    """

    due: np.ndarray
    lag: np.ndarray
    done: np.ndarray
    outcome: np.ndarray
    started: float = 0.0

    @classmethod
    def sized(cls, capacity: int) -> "Phase":
        return cls(due=np.full(capacity, np.nan), lag=np.zeros(capacity),
                   done=np.full(capacity, np.nan),
                   outcome=np.full(capacity, PENDING, dtype=np.int8))

    def truncate(self, count: int) -> "Phase":
        return Phase(self.due[:count], self.lag[:count], self.done[:count],
                     self.outcome[:count], self.started)

    @property
    def attempted(self) -> int:
        return len(self.due)

    def latencies_ms(self) -> np.ndarray:
        """Due-to-completion latency of every completed request, in ms."""
        mask = ~np.isnan(self.done)
        return (self.done[mask] - self.due[mask]) * 1e3

    def throughput(self) -> float:
        """Completed requests per second from phase start to the last answer."""
        mask = ~np.isnan(self.done)
        if not mask.any():
            return 0.0
        return int(mask.sum()) / (float(self.done[mask].max()) - self.started)

    def track(self, index: int, item: object, future: Future, judge: Judge,
              then: Optional[Callable[[], None]] = None) -> None:
        def finished(done: Future) -> None:
            self.done[index] = time.perf_counter()
            self.outcome[index] = judge(item, done)
            if then is not None:
                then()
        future.add_done_callback(finished)


def _drain(futures: Sequence[Future], deadline: float) -> None:
    for future in futures:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        try:
            future.exception(timeout=remaining)
        except CancelledError:
            continue
        except FutureTimeoutError:
            return  # the caller counts unfinished requests as failed


def open_loop(
    submit: Callable[[object], Future],
    items: Iterator[object],
    judge: Judge,
    rate: float,
    seconds: float,
    rng: np.random.Generator,
) -> Phase:
    """Poisson arrivals at ``rate``/s for ``seconds``; latency from due time."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    phase = Phase.sized(len(offsets))
    futures: List[Future] = []
    phase.started = start = time.perf_counter()
    phase.due[:] = start + offsets
    for index, due in enumerate(phase.due):
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        item = next(items)
        phase.lag[index] = time.perf_counter() - due
        future = submit(item)
        phase.track(index, item, future, judge)
        futures.append(future)
    _drain(futures, time.perf_counter() + DRAIN_TIMEOUT_S)
    return phase


def closed_loop(
    submit: Callable[[object], Future],
    items: Iterator[object],
    judge: Judge,
    window: int,
    seconds: float,
) -> Phase:
    """Keep ``window`` requests in flight for ``seconds``, then drain.

    The phase also ends when ``items`` runs out, so a finite iterator with
    ``seconds=float("inf")`` sends each item exactly once.
    """
    slots = threading.Semaphore(window)
    phase = Phase.sized(1 << 16)
    futures: List[Future] = []
    phase.started = start = time.perf_counter()
    end = start + seconds
    index = 0
    for item in items:
        if index == len(phase.due) or time.perf_counter() >= end:
            break
        if not slots.acquire(timeout=min(max(end - time.perf_counter(), 0.0), DRAIN_TIMEOUT_S)):
            break
        phase.due[index] = time.perf_counter()
        future = submit(item)
        phase.track(index, item, future, judge, then=slots.release)
        futures.append(future)
        index += 1
    _drain(futures, time.perf_counter() + DRAIN_TIMEOUT_S)
    return phase.truncate(index)


def cycle_permutations(pool: Sequence[object], rng: np.random.Generator) -> Iterator[object]:
    """Endless stream over ``pool``: one seeded permutation after another.

    Every pool item is sent once per cycle, so a run that completes one
    cycle has served the whole pool whatever the seed.
    """
    while True:
        for position in rng.permutation(len(pool)):
            yield pool[int(position)]


def percentile(values: Sequence[float], q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


def _status_kib(pid: str, key: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(child_pids: Sequence[int] = ()) -> float:
    """Peak resident memory of this process plus the given live children.

    Sums each process's high-water mark (``VmHWM``), so pages a forked
    worker shares copy-on-write with its parent count once per process.
    """
    own = _status_kib("self", "VmHWM")
    if own is None:  # no /proc: fall back to getrusage (KiB on Linux)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(_status_kib(str(pid), "VmHWM") or 0 for pid in child_pids)
    return (own + children) / 1024.0


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def config_id(config: dict) -> str:
    """Content hash of a workload configuration: equal configs, equal ids."""
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def fingerprint(seed: int, config: dict) -> dict:
    """What must match for two runs to be comparable."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "seed": seed,
        "config_id": config_id(config),
    }


def log(message: str) -> None:
    """Progress goes to stderr; stdout carries only the report."""
    print(message, file=sys.stderr, flush=True)
