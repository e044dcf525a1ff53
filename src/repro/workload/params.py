r"""Experimental parameters (Section 4 of the paper).

Defaults reproduce the paper's setup:

* ``num_parents`` = 10,000 ParentRel tuples;
* ``size_unit`` = 5 expected subobjects per unit;
* ``use_factor`` = 5 (default), ``overlap_factor`` = 1, giving
  ShareFactor = UseFactor x OverlapFactor = 5;
* \|ChildRel\| = num_parents x size_unit / ShareFactor (eqn. (1));
* NumUnits = num_parents / UseFactor;
* ``size_cache`` = 1000 units (about 10% of the database);
* ``buffer_pages`` = 100 INGRES pages of 2 KB;
* typical tuple widths 200 bytes (ParentRel) and 100 bytes (ChildRel);
* 1000 retrieve queries per sequence.

``scaled()`` shrinks the database while preserving the ratios the paper
says matter ("the results for larger database sizes can be obtained from
scaling ... provided a proportionally larger cache and main memory buffer
is used") — tests and reduced-scale reports use it to keep pure-Python
sweeps tractable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadParams:
    """All knobs of the simulation, with paper defaults."""

    num_parents: int = 10000
    size_unit: int = 5
    use_factor: int = 5
    overlap_factor: int = 1
    num_child_rels: int = 1
    pr_update: float = 0.0
    num_top: int = 100
    num_queries: int = 1000
    update_size: int = 10
    size_cache: int = 1000
    buffer_pages: int = 100
    page_size: int = 2048
    parent_bytes: int = 200
    child_bytes: int = 100
    buffer_policy: str = "lru"
    seed: int = 42

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def share_factor(self) -> int:
        """Expected number of objects sharing a subobject (Section 3.3)."""
        return self.use_factor * self.overlap_factor

    @property
    def num_units(self) -> int:
        """NumUnits = |ParentRel| / UseFactor (rounded; factors are
        *expected* values in the paper)."""
        return max(1, round(self.num_parents / self.use_factor))

    @property
    def num_children(self) -> int:
        """|ChildRel| (all child relations together), eqn. (1), rounded."""
        return max(
            self.size_unit,
            round(self.num_parents * self.size_unit / self.share_factor),
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the parameter point is consistent and generatable."""
        if self.num_parents <= 0:
            raise WorkloadError("num_parents must be positive")
        if self.size_unit <= 0:
            raise WorkloadError("size_unit must be positive")
        if self.use_factor <= 0 or self.overlap_factor <= 0:
            raise WorkloadError("sharing factors must be positive")
        if self.num_child_rels <= 0:
            raise WorkloadError("num_child_rels must be positive")
        if not 0.0 <= self.pr_update <= 0.99:
            raise WorkloadError(
                "pr_update must be in [0, 0.99] (1.0 would produce an "
                "all-update sequence with no retrieves to measure)"
            )
        if not 1 <= self.num_top <= self.num_parents:
            raise WorkloadError(
                "num_top must be in [1, num_parents], got %d" % self.num_top
            )
        if self.num_queries <= 0:
            raise WorkloadError("num_queries must be positive")
        if self.update_size <= 0:
            raise WorkloadError("update_size must be positive")
        if self.size_cache <= 0:
            raise WorkloadError("size_cache must be positive")
        if self.buffer_pages < 3:
            raise WorkloadError("buffer_pages must be at least 3")
        if self.buffer_policy not in ("lru", "clock"):
            raise WorkloadError(
                "buffer_policy must be 'lru' or 'clock', got %r"
                % (self.buffer_policy,)
            )
        if self.num_units < self.num_child_rels:
            raise WorkloadError(
                "fewer units (%d) than child relations (%d)"
                % (self.num_units, self.num_child_rels)
            )
        if self.num_children < self.num_child_rels * self.size_unit:
            raise WorkloadError(
                "each child relation needs at least size_unit subobjects"
            )
        if self.parent_bytes < 40 or self.child_bytes < 20:
            raise WorkloadError("tuple widths too small to hold the fields")

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "WorkloadParams":
        """A copy with the given fields changed (validated)."""
        params = dataclasses.replace(self, **changes)
        params.validate()
        return params

    def scaled(self, factor: float) -> "WorkloadParams":
        """Shrink the database by ``factor`` preserving the paper's ratios.

        Cardinality, cache size, buffer pages and NumTop all scale
        together; sharing factors, tuple widths and probabilities do not.
        """
        if not 0 < factor <= 1:
            raise WorkloadError("scale factor must be in (0, 1], got %r" % factor)

        def scale(value: int, minimum: int) -> int:
            return max(minimum, int(round(value * factor)))

        parents = scale(self.num_parents, self.use_factor * self.num_child_rels)
        return self.replace(
            num_parents=parents,
            size_cache=scale(self.size_cache, 8),
            buffer_pages=scale(self.buffer_pages, 8),
            num_top=min(scale(self.num_top, 1), parents),
        )
