"""B-tree differential fuzz: a bulk-loaded tree under random in-place
updates, probes, merge walks and range scans vs a dict model AND an
in-memory sqlite3 mirror, with the tree's structural invariants
(separators, fences, leaf chain, occupancy accounting) checked after
every step."""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.oracle.machines import BTreeMachine


def test_btree_state_machine():
    run_state_machine_as_test(BTreeMachine, settings=settings())
