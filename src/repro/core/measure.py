"""Cost measurement.

The paper's yardstick is average I/O traffic, split for Figure 5 into
``ParCost`` ("the cost of accessing the tuples of ParentRel") and
``ChildCost`` ("the cost of fetching the subobjects").  A
:class:`CostMeter` wraps the disk counters and attributes I/O to named
phases; strategies bracket their parent-access and subobject-fetch work
with :meth:`CostMeter.phase`.

Standard phase names (strategies may add others):

* ``"parent"`` — locating/scanning qualifying parent objects;
* ``"child"``  — fetching subobject values (joins, cache probes,
  materialisation, random cluster accesses);
* ``"update"`` — update queries, including cache invalidation.

The meter counts pages and nothing else: it reads no clock.  Where the
real time goes is the span profiler's business (:mod:`repro.obs.spans`),
whose ``stage:*`` spans sit on the same operator annotations.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.storage.disk import DiskManager, IoSnapshot

PARENT_PHASE = "parent"
CHILD_PHASE = "child"
UPDATE_PHASE = "update"


class _PhaseContext:
    """Reusable, allocation-light replacement for a @contextmanager phase.

    Reads the disk's raw ``reads``/``writes`` integers directly instead
    of materialising :class:`IoSnapshot` objects on entry — the phase
    bracket runs once per measured query and showed up in profiles.
    It reads page counters only, never a clock.
    """

    __slots__ = ("meter", "name", "_reads", "_writes")

    def __init__(self, meter: "CostMeter", name: str) -> None:
        self.meter = meter
        self.name = name

    def __enter__(self) -> None:
        meter = self.meter
        if meter._active is not None:
            raise RuntimeError(
                "phase %r started while %r active" % (self.name, meter._active)
            )
        meter._active = self.name
        tracer = meter.tracer
        if tracer is not None:
            tracer.phase = self.name
        disk = meter.disk
        self._reads = disk.reads
        self._writes = disk.writes

    def __exit__(self, *exc: object) -> None:
        meter = self.meter
        disk = meter.disk
        name = self.name
        delta = IoSnapshot(disk.reads - self._reads, disk.writes - self._writes)
        phases = meter._phases
        accumulated = phases.get(name)
        phases[name] = delta if accumulated is None else accumulated + delta
        meter._active = None
        tracer = meter.tracer
        if tracer is not None:
            tracer.phase = None


class _NullPhase:
    """Shared no-op phase context (see :class:`NullMeter`)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class CostMeter:
    """Accumulates per-phase I/O deltas read from a :class:`DiskManager`.

    When a :class:`~repro.obs.trace.Tracer` is supplied, the meter also
    publishes its active phase to it, so every traced page access
    carries the parent/child/update attribution the meter is computing —
    the two views are kept consistent by construction.
    """

    def __init__(self, disk: DiskManager, tracer: Optional[object] = None) -> None:
        self.disk = disk
        self.tracer = tracer
        self._phases: Dict[str, IoSnapshot] = {}
        self._active: Optional[str] = None

    def phase(self, name: str) -> _PhaseContext:
        """Attribute I/O inside the ``with`` block to phase ``name``.

        Phases do not nest: a strategy is either touching parents or
        fetching subobjects, never both "at once".
        """
        return _PhaseContext(self, name)

    # ------------------------------------------------------------------
    def io(self, name: str) -> IoSnapshot:
        """Accumulated I/O of phase ``name`` (zero if never entered)."""
        return self._phases.get(name, IoSnapshot())

    def cost(self, name: str) -> int:
        """Total page I/Os of phase ``name``."""
        return self.io(name).total

    @property
    def par_cost(self) -> int:
        return self.cost(PARENT_PHASE)

    @property
    def child_cost(self) -> int:
        return self.cost(CHILD_PHASE)

    @property
    def update_cost(self) -> int:
        return self.cost(UPDATE_PHASE)

    @property
    def total_cost(self) -> int:
        return sum(snap.total for snap in self._phases.values())

    def phases(self) -> Dict[str, IoSnapshot]:
        """Copy of the per-phase accumulators."""
        return dict(self._phases)

    def reset(self) -> None:
        self._phases.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            "%s=%d" % (name, snap.total) for name, snap in sorted(self._phases.items())
        )
        return "CostMeter(%s)" % parts


class NullMeter(CostMeter):
    """A meter that measures nothing — for unmetered strategy calls."""

    def __init__(self) -> None:  # no disk needed
        self._phases = {}
        self._active = None

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE
