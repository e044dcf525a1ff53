"""Shrunk counterexamples from fuzz campaigns, frozen as plain tests.

Each test replays an exact operation sequence Hypothesis shrank from a
failing campaign, so the bug stays fixed even if the example corpus is
pruned.  Keep these independent of a Hypothesis run: no strategies, no
example database — just the sequence (a machine's rules are plain
methods and can be called in order).
"""

from __future__ import annotations


def _replay_crash_machine(steps):
    """Run ``steps`` (callables on the machine) the way Hypothesis
    would: the per-step invariant after each, ``teardown`` at the end."""
    from repro.oracle.machines import CrashConsistencyMachine

    machine = CrashConsistencyMachine()
    try:
        for step in steps:
            step(machine)
            machine.working_agrees_when_quiescent()
    finally:
        machine.teardown()


def test_crash_machine_commit_over_a_mapped_arena_serves_new_bytes():
    """Shrunk from the crash machine's first run on the arena store.

    ``seed`` maps the durable arena; ``commit`` replaces the file under
    the same key.  The process-wide arena registry kept answering with
    the mapping of the replaced inode, so the store's memory tier and
    the reload both served the pre-delete hash contents.
    """
    _replay_crash_machine(
        [
            lambda m: m.seed({0}),
            lambda m: m.hash_delete(0),
            lambda m: m.commit(),
            lambda m: m.reload_durable_from_store(corrupt=False),
        ]
    )


def test_crash_machine_corrupt_reload_is_a_cold_read():
    """Shrunk from the same run: a ``snapshot.load`` corruption only
    fires when the file is actually parsed.  With the writer's mapping
    still registered the reload never touched the disk, so "corrupted
    snapshot bytes were served" — the rule must drop the registry entry
    to be the cold process it models."""
    _replay_crash_machine(
        [
            lambda m: m.seed(set()),
            lambda m: m.reload_durable_from_store(corrupt=True),
        ]
    )
