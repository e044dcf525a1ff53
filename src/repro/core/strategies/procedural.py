"""Strategies for the procedural primary representation.

Section 2.1.1 of the paper: in a procedural representation "the set of
subobjects associated with an object is identified by a procedure, which,
when executed, evaluates to the corresponding subobjects".  The paper
defers the performance study of this column to [JHIN88] but builds its
framework (Figure 1) around it; these strategies complete the column so
the library can compare representations *across* the matrix — the
"future study" of Section 2.4.

A parent's procedure here is ``retrieve (ChildRel[i].all) where lo <=
ret2 <= hi`` (see :func:`repro.workload.generator.build_database` with
``procedural=True``).  ChildRel has no index on ret2, so executing a
procedure requires scanning the relation; the query processor batches
every uncached procedure of a query into **one** scan per child relation
(the obvious optimal plan).

Three cached representations, matching Figure 1's procedural column:

* ``PROC-EXEC``         — cache nothing; execute procedures every time;
* ``PROC-CACHE-OIDS``   — cache the OIDs the procedure evaluates to;
  a hit replaces the scan with per-OID random fetches (the middle cell);
* ``PROC-CACHE-VALUES`` — cache the subobject values; a hit costs one
  cache read ([JHIN88]'s winning configuration).

All three use the same outside :class:`~repro.core.cache.UnitCache` and
I-lock invalidation as DFSCACHE, keyed by a hash of the procedure text.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.database import ComplexObjectDB
from repro.core.measure import CHILD_PHASE, CostMeter, NullMeter, PARENT_PHASE
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import Strategy, register
from repro.obs.trace import stage
from repro.storage.record import CHAR_OVERHEAD, OID_CHARS
from repro.storage.hashfile import stable_hash


def procedure_hashkey(procedure: Tuple[int, int, int]) -> int:
    """Cache key of a stored query: a hash of its (normalised) text."""
    rel_index, lo, hi = procedure
    return stable_hash(("proc", rel_index, lo, hi))


class _ProceduralBase(Strategy):
    """Shared plumbing: procedure resolution and batched scans."""

    uses_procedures = True
    #: What gets cached: None, "oids", or "values".
    cached_rep: Optional[str] = None

    # ------------------------------------------------------------------
    def retrieve(
        self,
        db: ComplexObjectDB,
        query: RetrieveQuery,
        meter: Optional[CostMeter] = None,
    ) -> List[Any]:
        self.check_database(db)
        meter = meter or NullMeter()
        attr_index = db.child_schema.field_index(query.attr)
        ret2_index = db.child_schema.field_index("ret2")

        with meter.phase(PARENT_PHASE), stage("scan"):
            parents = list(db.parents_in_range(query.lo, query.hi))

        results: List[Any] = []
        with meter.phase(CHILD_PHASE):
            pending: List[Tuple[int, int, int]] = []
            for parent in parents:
                procedure = db.procedure_for(db.parent_key_of(parent))
                served = self._try_cache(db, procedure, attr_index, results)
                if not served:
                    pending.append(procedure)
            if pending:
                self._execute_batch(
                    db, pending, attr_index, ret2_index, results
                )
        return results

    # ------------------------------------------------------------------
    def _try_cache(self, db, procedure, attr_index, results) -> bool:
        """Answer one procedure from the cache if possible."""
        if self.cached_rep is None:
            return False
        payload = db.cache.lookup(procedure_hashkey(procedure))
        if payload is None:
            return False
        if self.cached_rep == "values":
            results.extend(child[attr_index] for child in payload)
        else:  # cached OIDs: the values still need fetching
            attr = itemgetter(attr_index)
            for rel_index, run in groupby(payload, key=itemgetter(0)):
                results += db.fetch_children(rel_index, [key for _, key in run], attr)
        return True

    def _execute_batch(self, db, procedures, attr_index, ret2_index, results):
        """Evaluate procedures with one scan per referenced relation."""
        by_rel: Dict[int, List[Tuple[int, int, int]]] = {}
        for procedure in procedures:
            by_rel.setdefault(procedure[0], []).append(procedure)
        for rel_index, group in sorted(by_rel.items()):
            windows = sorted({(lo, hi) for _, lo, hi in group})
            matches: Dict[Tuple[int, int], List[Tuple[Any, ...]]] = {
                window: [] for window in windows
            }
            with stage("scan"):
                for child in db.child_rel(rel_index).scan():
                    value = child[ret2_index]
                    window = _covering_window(windows, value)
                    if window is not None:
                        matches[window].append(child)
            for _, lo, hi in group:
                children = matches[(lo, hi)]
                results.extend(child[attr_index] for child in children)
                self._maybe_cache(db, rel_index, lo, hi, children)

    def _maybe_cache(self, db, rel_index, lo, hi, children) -> None:
        if self.cached_rep is None or not children:
            return
        hashkey = procedure_hashkey((rel_index, lo, hi))
        if db.cache.contains(hashkey):
            return
        child_keys = [child[0] for child in children]
        if self.cached_rep == "values":
            payload = tuple(children)
            payload_bytes = sum(map(db.child_schema.record_size, children))
        else:
            payload = tuple((rel_index, key) for key in child_keys)
            payload_bytes = len(child_keys) * OID_CHARS + CHAR_OVERHEAD
        db.cache.insert(hashkey, rel_index, child_keys, payload, payload_bytes)


def _covering_window(windows, value):
    """The (lo, hi) window containing ``value``, or None.

    Windows are disjoint by construction (OverlapFactor = 1), so a binary
    search suffices.
    """
    import bisect

    index = bisect.bisect_right(windows, (value, float("inf"))) - 1
    if index >= 0:
        lo, hi = windows[index]
        if lo <= value <= hi:
            return (lo, hi)
    return None


@register
class ProcExecStrategy(_ProceduralBase):
    """Execute stored queries every time (procedural, no caching)."""

    name = "PROC-EXEC"
    cached_rep = None


@register
class ProcCacheOidsStrategy(_ProceduralBase):
    """Procedural primary representation with cached OIDs."""

    name = "PROC-CACHE-OIDS"
    cached_rep = "oids"
    uses_cache = True


@register
class ProcCacheValuesStrategy(_ProceduralBase):
    """Procedural primary representation with cached values."""

    name = "PROC-CACHE-VALUES"
    cached_rep = "values"
    uses_cache = True
