"""Regenerate the golden results-table digests.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_table_digests.py

The output file, ``tests/golden/table_digests.json``, pins the SHA-256 of
the JSON rows of each of the 13 experiments ``repro report`` prints —
the paper's I/O-count tables — at scale 0.05 with ``num_retrieves``
capped (and fig4 on its coarse grid) so the whole matrix stays a few
seconds of the test suite.  Any change that moves one table cell shows
up as a digest mismatch in ``tests/golden/test_table_digests.py``.

Only regenerate it when a change is *supposed* to alter measured
behaviour, and name the tables that moved (and why) in the commit
message — the same rule as for ``trace_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from repro.experiments import ablations, deep, fig3, fig4, fig5, fig7, matrix, opt, sec62, smart

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "table_digests.json")

SCALE = 0.05
NUM_RETRIEVES = 8

#: ``repro report``'s suite, in report order, with the retrieve count
#: capped: name -> (experiment function, keyword arguments).  sec62
#: keeps its 0.2 scale floor and deep its 12-root span, as in the report.
EXPERIMENTS = {
    "fig3": (fig3.run, {}),
    "fig4": (fig4.run, {"coarse": True}),
    "fig5": (fig5.run, {}),
    "fig7": (fig7.run, {}),
    "sec62": (sec62.run, {"scale": 0.2}),
    "smart": (smart.run, {}),
    "ablation_cache_size": (ablations.run_cache_size, {}),
    "ablation_buffer": (ablations.run_buffer_size, {}),
    "ablation_inside_outside": (ablations.run_inside_outside, {}),
    "deep": (deep.run, {"span": 12}),
    "matrix": (matrix.run, {}),
    "opt": (opt.run, {}),
    "ablation_buffer_policy": (ablations.run_buffer_policy, {}),
}


def table_digest(name: str) -> str:
    """SHA-256 of the JSON rows of experiment ``name``'s table."""
    run, kwargs = EXPERIMENTS[name]
    kwargs = {"scale": SCALE, "num_retrieves": NUM_RETRIEVES, **kwargs}
    return hashlib.sha256(json.dumps(run(**kwargs).rows).encode()).hexdigest()


def main() -> int:
    golden = {
        "scale": SCALE,
        "num_retrieves": NUM_RETRIEVES,
        "tables": {},
    }
    for name in EXPERIMENTS:
        golden["tables"][name] = table_digest(name)
        sys.stderr.write("generated %s\n" % name)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stderr.write("wrote %s (%d tables)\n" % (GOLDEN_PATH, len(EXPERIMENTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
