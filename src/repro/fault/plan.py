"""Deterministic, seeded fault injection.

Simulation campaigns are only as trustworthy as their ability to rerun
identically after a failure, so every unreliable boundary in the
reproduction is *addressable*: a :class:`FaultPlan` holds one
:class:`FaultSpec` per site and decides — from a seeded per-site RNG —
whether a given opportunity (a page read, a cache load, a worker task)
actually fails.  The recovery machinery in the sweep engine and the
cache stores then has to make those failures invisible: the ``repro
chaos`` subcommand asserts that a faulted run's final tables are
bit-identical to a fault-free run.

Sites and their effects (the effect lives at the call site; the plan
only decides *whether* to fire):

====================  ====================================================
``disk.read``         :class:`~repro.errors.FaultInjected` from
                      :meth:`DiskManager.read_page` (transient I/O error)
``disk.write``        same, from :meth:`DiskManager.write_page`
``disk.torn``         same, from ``read_page`` (detected torn/corrupt page)
``snapshot.load``     snapshot-store bytes corrupted before checksum
                      verification (entry quarantined, rebuilt)
``snapshot.save``     snapshot-store write fails (store degraded to off)
``pointcache.load``   point-cache entry corrupted before verification
``pointcache.save``   point-cache write fails (cache degrades to memory)
``worker.crash``      pool worker ``os._exit``\\ s mid-task
``worker.hang``       pool worker sleeps past its task budget
``point.poison``      every execution of a point raises (quarantine path)
``sweep.kill``        the process SIGKILLs itself between sweep points
``serve.publish_crash``  the serve writer raises after applying its batch
                      but *before* publishing (attempt discarded, rebuilt)
``serve.reader_hang``  a serve reader sleeps ``hang_seconds`` mid-request,
                      pinning its snapshot past later publishes
``serve.queue_stall``  a serve reader sleeps before dequeueing, backing
                      the bounded admission queue up into load-shedding
====================  ====================================================

Injection is globally off until :func:`install` is called (the guard is
a single module attribute check, so the hot I/O path pays nothing when
no plan is active).  Worker-only sites (``worker.*``) additionally
require :func:`mark_worker`, so a serial fallback in the parent process
never crashes the parent.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import FaultInjected
from repro.util.rng import derive_rng

#: Every addressable injection site.
SITES = (
    "disk.read",
    "disk.write",
    "disk.torn",
    "snapshot.load",
    "snapshot.save",
    "pointcache.load",
    "pointcache.save",
    "worker.crash",
    "worker.hang",
    "point.poison",
    "sweep.kill",
    "serve.publish_crash",
    "serve.reader_hang",
    "serve.queue_stall",
)

#: Sites that may only fire inside a pool worker process.
WORKER_SITES = ("worker.crash", "worker.hang")


@dataclass(frozen=True)
class FaultSpec:
    """Schedule for one site.

    ``rate`` is the per-opportunity firing probability, ``count`` bounds
    total firings (``None`` = unbounded), and ``after`` skips the first
    ``after`` opportunities — ``FaultSpec("sweep.kill", after=3)`` kills
    the process at the boundary after the third completed point.
    """

    site: str
    rate: float = 1.0
    count: Optional[int] = 1
    after: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                "unknown fault site %r (choose from: %s)"
                % (self.site, ", ".join(SITES))
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1], got %r" % (self.rate,))


class FaultPlan:
    """A seeded schedule of faults, addressable by site.

    Firing decisions come from one deterministic RNG per site (derived
    from ``seed`` and the site name), so two plans with equal specs and
    seed fire at exactly the same opportunities.  The plan is picklable
    (it travels to pool workers in their initializer); RNG state and
    counters restart per process, which keeps each worker's schedule
    deterministic given its task stream.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        hang_seconds: float = 5.0,
    ) -> None:
        self.seed = seed
        self.hang_seconds = hang_seconds
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ValueError("duplicate fault spec for site %r" % spec.site)
            self.specs[spec.site] = spec
        self.opportunities: Dict[str, int] = {site: 0 for site in self.specs}
        self.injections: Dict[str, int] = {site: 0 for site in self.specs}
        self._rngs: Dict[str, object] = {}
        # The serving layer fires sites from many threads at once; the
        # lock keeps the counters (and per-site RNG streams) coherent.
        # Sites without a spec never take it (fire() returns first).
        self._lock = threading.Lock()

    # RNG objects are recreated lazily after unpickling, and counters
    # restart: a worker's schedule begins at its own first opportunity.
    def __getstate__(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
            "specs": list(self.specs.values()),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(  # type: ignore[misc]
            state["specs"], seed=state["seed"], hang_seconds=state["hang_seconds"]
        )

    def fire(self, site: str) -> bool:
        """Record one opportunity at ``site``; True if the fault fires."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        with self._lock:
            self.opportunities[site] += 1
            if self.opportunities[site] <= spec.after:
                return False
            if spec.count is not None and self.injections[site] >= spec.count:
                return False
            if spec.rate < 1.0:
                rng = self._rngs.get(site)
                if rng is None:
                    stream = zlib.crc32(site.encode("utf-8"))
                    rng = self._rngs[site] = derive_rng(self.seed, stream=stream)
                if rng.random() >= spec.rate:  # type: ignore[attr-defined]
                    return False
            self.injections[site] += 1
            return True

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of opportunities seen and faults injected, by site."""
        return {
            "opportunities": dict(self.opportunities),
            "injections": dict(self.injections),
        }


# ----------------------------------------------------------------------
# the active plan
# ----------------------------------------------------------------------
#: The process-wide active plan (None = injection off everywhere).
_PLAN: Optional[FaultPlan] = None

#: True inside a sweep pool worker (set by the worker initializer);
#: gates the ``worker.*`` sites so a serial fallback in the parent never
#: crashes the parent process.
_IN_WORKER = False


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` process-wide (None turns injection off)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Turn fault injection off."""
    install(None)


def active() -> Optional[FaultPlan]:
    """The active plan, if any."""
    return _PLAN


def mark_worker() -> None:
    """Declare this process a pool worker (enables ``worker.*`` sites)."""
    global _IN_WORKER
    _IN_WORKER = True


def hit(site: str) -> None:
    """Fire ``site`` if scheduled, applying its effect (usually a raise).

    No-op without an active plan.  ``worker.*`` sites are suppressed
    outside worker processes; ``worker.hang`` sleeps instead of raising;
    ``worker.crash`` and ``sweep.kill`` never return.
    """
    plan = _PLAN
    if plan is None:
        return
    if site in WORKER_SITES and not _IN_WORKER:
        return
    if not plan.fire(site):
        return
    if site == "worker.crash":
        os._exit(3)
    if site in ("worker.hang", "serve.reader_hang", "serve.queue_stall"):
        time.sleep(plan.hang_seconds)
        return
    if site == "sweep.kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise FaultInjected(site)


def corrupt_bytes(site: str, blob: bytes) -> bytes:
    """``blob``, corrupted iff the plan schedules ``site`` (load faults).

    Flips one mid-stream byte — enough for any checksum to catch — so
    the store's verify/quarantine/rebuild path runs for real instead of
    being short-circuited by a synthetic miss.
    """
    plan = _PLAN
    if plan is None or not plan.fire(site):
        return blob
    if not blob:
        return b"\x00"
    index = len(blob) // 2
    return blob[:index] + bytes([blob[index] ^ 0xFF]) + blob[index + 1:]


# ----------------------------------------------------------------------
# CLI schedule parsing
# ----------------------------------------------------------------------
def parse_faults(text: str) -> List[FaultSpec]:
    """Parse ``site=rate[xCOUNT][@AFTER],...`` into fault specs.

    ``rate`` is a probability; ``COUNT`` bounds firings (``*`` for
    unbounded, default 1); ``AFTER`` skips that many opportunities.
    A bare ``site`` means ``rate=1``, ``count=1``::

        disk.read=0.001x3,snapshot.load,sweep.kill=1x1@5
    """
    specs: List[FaultSpec] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        site, _, tail = part.partition("=")
        rate, count, after = 1.0, 1, 0  # type: float, Optional[int], int
        if tail:
            if "@" in tail:
                tail, after_text = tail.rsplit("@", 1)
                after = int(after_text)
            if "x" in tail:
                rate_text, count_text = tail.split("x", 1)
                count = None if count_text == "*" else int(count_text)
            else:
                rate_text = tail
            rate = float(rate_text)
        specs.append(FaultSpec(site, rate=rate, count=count, after=after))
    if not specs:
        raise ValueError("empty fault schedule: %r" % (text,))
    return specs


def default_chaos_specs(jobs: int = 1) -> List[FaultSpec]:
    """The stock ``repro chaos`` cold-pass schedule.

    A bounded mix of every recoverable failure kind: transient disk
    errors and a torn page (point retries), a store write failure
    (graceful degradation), and — under ``--jobs`` — worker crashes
    (pool restarts).  Counts are small enough that retries always
    converge within the default budget.

    The plan's counters restart in every (re)spawned worker process, so
    a worker-site spec describes each worker's own lifetime: ``after=1``
    means every worker finishes one task and crashes on its second —
    the pool keeps making progress while still being torn down and
    rebuilt a few times per sweep.
    """
    specs = [
        FaultSpec("disk.read", rate=0.002, count=2),
        FaultSpec("disk.write", rate=0.002, count=1),
        FaultSpec("disk.torn", rate=0.001, count=1),
        FaultSpec("snapshot.save", rate=1.0, count=1, after=1),
    ]
    if jobs > 1:
        specs.append(FaultSpec("worker.crash", rate=1.0, count=1, after=1))
    return specs


def default_warm_specs() -> List[FaultSpec]:
    """The stock ``repro chaos`` warm-pass schedule.

    Fires on the *load* paths of both persistent caches, so the warm
    replay exercises checksum verification, corrupt-entry quarantine and
    deterministic recomputation.
    """
    return [
        FaultSpec("pointcache.load", rate=1.0, count=2),
        FaultSpec("snapshot.load", rate=1.0, count=1),
    ]
