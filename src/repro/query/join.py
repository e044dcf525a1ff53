"""Join operators against B-tree inner relations.

Two joins cover everything the paper's strategies need:

* :func:`merge_probe_join` — the "competitive BFS" merge join (Section
  3.1).  The outer is a *sorted* stream of keys (the sorted temporary of
  OIDs); the inner is a B-tree on the join key.  Probing keys in ascending
  order degenerates into a single coordinated forward walk: each
  qualifying inner leaf page is touched once, and leaves containing no
  probe key are skipped via (hot) index pages.  Duplicate outer keys hit
  the already-resident leaf, which is why BFSNODUP "is not much better
  than simple BFS" in Figure 3.

* :func:`iterative_substitution_join` — the nested-loop join INGRES calls
  iterative substitution: one full B-tree descent per outer key, in outer
  order.  This is what DFS, the caching strategies' materialisation and
  the deep recursion run, one call per unit of subobject keys.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import stage
from repro.query.temp import TempRelation
from repro.storage.btree import BTreeFile

Projector = Callable[[Tuple[Any, ...]], Any]


def merge_probe_join(
    sorted_keys: Iterable[Any],
    inner: BTreeFile,
    project: Optional[Projector] = None,
) -> Iterator[Any]:
    """Join ascending ``sorted_keys`` against ``inner`` (B-tree on the key).

    Yields the projected inner record for every (key occurrence, match)
    pair — i.e. duplicate probe keys yield duplicate results, like a real
    join.  Keys absent from the inner are skipped silently (no such keys
    arise in the reproduction workload, but the operator is total).

    The walk itself is :meth:`BTreeFile.merge_walk`.  A ``list`` or
    ``tuple`` of keys is handed to it as one batch; pulling from any
    other iterable may touch the pool, so it is fed a key at a time.

    Traced page accesses are attributed to the ``merge-join`` stage for
    the generator's whole lifetime, including reads the *outer* stream
    performs while being pulled (scanning the sorted temporary is part
    of the join's cost).
    """
    with stage("merge-join"):
        if type(sorted_keys) in (list, tuple):
            batches: Iterable[Any] = (sorted_keys,)
        else:
            batches = ((key,) for key in sorted_keys)
        yield from inner.merge_walk(batches, project)


def join_sorted_temp(
    sorted_temp: TempRelation,
    inner: BTreeFile,
    project: Optional[Projector] = None,
) -> List[Any]:
    """Merge-join a sorted temporary of keys with ``inner``; drop the temporary.

    The hand-off every breadth-first plan ends with: the temporary's
    first field is the join key, each of its pages is one batch of the
    walk (see :func:`merge_probe_join` for the result and the staging),
    and the temporary is dropped whether or not the join completes.
    """
    try:
        with stage("merge-join"):
            batches = (
                [record[0] for record in records]
                for records in sorted_temp.scan_pages()
            )
            return list(inner.merge_walk(batches, project))
    finally:
        sorted_temp.drop()


def iterative_substitution_join(
    keys: Sequence[Any],
    inner: BTreeFile,
    project: Optional[Projector] = None,
) -> List[Any]:
    """Nested-loop join: one B-tree descent per outer key, in outer order.

    The whole join (:meth:`BTreeFile.probe_many`) runs, and its ``probe``
    stage closes, before the caller sees a match.  Absent keys match nothing.
    """
    with stage("probe"):
        return inner.probe_many(keys, project)
