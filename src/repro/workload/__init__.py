"""Workload: parameters, database generation, query sequences, driver."""

from repro.workload.deepgen import DeepParams, build_deep_database
from repro.workload.driver import CostReport, measure_strategy, run_sequence
from repro.workload.generator import (
    build_database,
    child_dummy_width,
    make_child_schema,
    make_parent_schema,
    parent_dummy_width,
)
from repro.workload.params import WorkloadParams
from repro.workload.queries import (
    generate_sequence,
    random_retrieve,
    random_update,
)

__all__ = [
    "DeepParams",
    "build_deep_database",
    "CostReport",
    "measure_strategy",
    "run_sequence",
    "build_database",
    "child_dummy_width",
    "make_child_schema",
    "make_parent_schema",
    "parent_dummy_width",
    "WorkloadParams",
    "generate_sequence",
    "random_retrieve",
    "random_update",
]
