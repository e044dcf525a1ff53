"""Small shared utilities: deterministic RNG helpers, statistics, tables."""

from repro.util.rng import derive_rng
from repro.util.stats import RunningStats, percentile
from repro.util.fmt import format_table, format_float
from repro.util.deadline import Deadline, check_active, enforced

__all__ = [
    "derive_rng",
    "RunningStats",
    "percentile",
    "format_table",
    "format_float",
    "Deadline",
    "check_active",
    "enforced",
]
