"""Query-sequence generation (Section 4 of the paper).

A sequence mixes retrieve queries of the form::

    retrieve (ParentRel.children.attr) where val1 <= ParentRel.OID <= val2

with updates that "modify a fixed number of tuples of ChildRel in place".
Updates occur with probability Pr(UPDATE) per slot; generation continues
until the sequence contains ``num_queries`` retrieves ("the number of
retrieve queries in a sequence was typically 1000").  Each retrieve picks
``val1`` uniformly so "each complex object has an equal likelihood of
being accessed", selects NumTop consecutive OIDs, and draws its target
attribute at random from {ret1, ret2, ret3}.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Union

from repro.core.database import ComplexObjectDB
from repro.core.queries import RETRIEVE_ATTRS, RetrieveQuery, UpdateQuery
from repro.util.rng import derive_rng
from repro.workload.params import WorkloadParams

Operation = Union[RetrieveQuery, UpdateQuery]

_VALUE_RANGE = 1_000_000


def random_retrieve(
    params: WorkloadParams, rng: random.Random, num_top: Optional[int] = None
) -> RetrieveQuery:
    """One uniformly placed retrieve of ``num_top`` consecutive parents."""
    span = num_top if num_top is not None else params.num_top
    span = min(span, params.num_parents)
    lo = rng.randrange(params.num_parents - span + 1)
    return RetrieveQuery(lo, lo + span - 1, rng.choice(RETRIEVE_ATTRS))


def random_update(
    params: WorkloadParams, child_counts: Sequence[int], rng: random.Random
) -> UpdateQuery:
    """One update of ``update_size`` random subobjects (in place)."""
    refs = []
    for _ in range(params.update_size):
        rel_index = rng.randrange(len(child_counts))
        key = rng.randrange(child_counts[rel_index])
        refs.append((rel_index, key))
    return UpdateQuery(tuple(refs), rng.randrange(_VALUE_RANGE))


def generate_sequence(
    params: WorkloadParams,
    db: Optional[ComplexObjectDB] = None,
    rng: Optional[random.Random] = None,
    num_retrieves: Optional[int] = None,
) -> List[Operation]:
    """A random sequence with ``num_retrieves`` retrieves.

    ``db`` supplies the actual child-relation cardinalities for update
    targets; without it the parameter-derived cardinalities are used.
    """
    rng = rng or derive_rng(params.seed, stream=7)
    want = num_retrieves if num_retrieves is not None else params.num_queries
    if db is not None:
        child_counts = [rel.num_records for rel in db.child_rels]
    else:
        base = params.num_children // params.num_child_rels
        remainder = params.num_children % params.num_child_rels
        child_counts = [
            base + (1 if i < remainder else 0) for i in range(params.num_child_rels)
        ]

    sequence: List[Operation] = []
    retrieves = 0
    while retrieves < want:
        if rng.random() < params.pr_update:
            sequence.append(random_update(params, child_counts, rng))
        else:
            sequence.append(random_retrieve(params, rng))
            retrieves += 1
    return sequence


def generate_mixed_sequence(
    params: WorkloadParams,
    num_tops: Sequence[int],
    db: Optional[ComplexObjectDB] = None,
    rng: Optional[random.Random] = None,
    num_retrieves: Optional[int] = None,
) -> List[Operation]:
    """A sequence whose retrieves draw NumTop uniformly from ``num_tops``.

    Section 5.3 evaluates SMART on "a good mix (some low NumTop queries,
    and some large NumTop queries)"; this generator produces that mix.
    """
    if not num_tops:
        raise ValueError("num_tops must not be empty")
    rng = rng or derive_rng(params.seed, stream=8)
    want = num_retrieves if num_retrieves is not None else params.num_queries
    if db is not None:
        child_counts = [rel.num_records for rel in db.child_rels]
    else:
        child_counts = [params.num_children // params.num_child_rels] * (
            params.num_child_rels
        )

    sequence: List[Operation] = []
    retrieves = 0
    while retrieves < want:
        if rng.random() < params.pr_update:
            sequence.append(random_update(params, child_counts, rng))
        else:
            sequence.append(
                random_retrieve(params, rng, num_top=rng.choice(list(num_tops)))
            )
            retrieves += 1
    return sequence
