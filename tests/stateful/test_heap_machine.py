"""Heap-file differential fuzz: insert/insert_many/truncate against a
list of the records in insertion order, with insert_many checked against
one insert() per record on a twin and tail-page and record-count
accounting checked after every step."""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.oracle.machines import HeapMachine


def test_heap_state_machine():
    run_state_machine_as_test(HeapMachine, settings=settings())
