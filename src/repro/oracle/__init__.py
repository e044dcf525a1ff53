"""Generative testing oracle.

This package is the repo's correctness-under-arbitrary-orderings layer
(ROADMAP item 4): Hypothesis ``RuleBasedStateMachine`` suites drive
random operation sequences against every access method and the
snapshot/clone layer, cross-checking each read against an in-memory
reference model and calling the storage engines' ``check_invariants()``
debug hooks after every step.

Module map:

* :mod:`repro.oracle.profiles`   — tiered Hypothesis settings profiles
  (QUICK / STANDARD / STATE_MACHINE / DEEP) shared by pytest and the
  ``repro fuzz`` CLI;
* :mod:`repro.oracle.reference`  — dict and sqlite3 reference
  models (no hypothesis dependency);
* :mod:`repro.oracle.invariants` — the ``check_all`` walker over a
  catalog's relations plus its buffer pool;
* :mod:`repro.oracle.machines`   — the state machines themselves
  (imports hypothesis);
* :mod:`repro.oracle.campaign`   — deep fuzz campaigns outside pytest,
  with seed replay and a persistent failure corpus.

Import discipline: only :mod:`machines`, :mod:`profiles` and
:mod:`campaign` may import ``hypothesis``; the core simulator must stay
runnable without it, so nothing here is imported by ``repro.*`` outside
the CLI's lazily-imported ``fuzz`` handler.
"""
