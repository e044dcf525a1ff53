"""Catalog-wide invariant walker.

Each storage engine carries its own ``check_invariants()`` debug hook
(key order and occupancy for the B-tree, overflow-chain integrity for
the hash file, per-page ordering for ISAM, tail accounting for heaps,
slot/byte accounting on every page, frame/policy bookkeeping in the buffer
pool).  :func:`check_all` fans one call out over everything a
:class:`~repro.storage.catalog.Catalog` owns, so a state machine can
assert whole-store well-formedness after every rule with one line.

All hooks read pages via ``DiskManager.peek_page``: a check charges no
I/O and never perturbs buffer-pool state, so interleaving checks with
measured operations cannot change what the engines do next.
"""

from __future__ import annotations

from repro.storage.catalog import Catalog


def check_all(catalog: Catalog) -> None:
    """Run every invariant hook owned by ``catalog``; raise on the first
    violation (:class:`AssertionError` with the failing detail)."""
    for name, relation in catalog.relations():
        check = getattr(relation, "check_invariants", None)
        if check is None:
            raise AssertionError(
                "relation %r (%s) has no check_invariants hook"
                % (name, type(relation).__name__)
            )
        check()
    for name, index in catalog._indexes.items():
        index.check_invariants()
    catalog.pool.check_invariants()
