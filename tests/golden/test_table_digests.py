"""Golden results-table regression suite.

``table_digests.json`` pins the SHA-256 of the JSON rows of every
experiment ``repro report`` prints (scale 0.05, capped retrieve count,
fig4's coarse grid; see ``generate_table_digests.py``).  A change that
moves any cell of the paper's tables — one page read more or less in one
strategy — fails here, so behaviour-preserving changes need no manual
table diff.
"""

import json

import pytest

from tests.golden.generate_table_digests import EXPERIMENTS, GOLDEN_PATH, table_digest


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_table_digest_unchanged(golden, name):
    assert table_digest(name) == golden["tables"][name]
