"""Static-hash differential fuzz: insert/delete/truncate with
overflow-chain integrity (acyclic chains, correct bucket placement,
free-list/chain partition of the file) checked after every step."""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.oracle.machines import HashMachine


def test_hash_state_machine():
    run_state_machine_as_test(HashMachine, settings=settings())
