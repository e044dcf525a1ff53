"""Golden trace-digest regression suite.

``trace_digests.json`` was generated from the pre-rewrite engine
(decoded-tuple pages, per-record iteration through the buffer pool); see
``generate_digests.py``.  These tests certify that the raw-speed engine
— zero-copy slotted pages, hits booked for re-touches of the page
touched last (the buffer pool's one rule, see :mod:`repro.storage.buffer`),
batched record iteration — reproduces every measured number of the
original engine bit for bit: the SHA-256 digest of the physical
page-access stream, the driver's cost accounting, the buffer pool's
hit/miss/eviction counters and the unit cache's counters.

The full matrix is 11 strategies x 3 configs and runs in about a second
and a half, so every point runs in the normal suite.
"""

import json
import os

import pytest

from tests.golden.generate_digests import CONFIGS, GOLDEN_PATH, STRATEGIES, run_point

ALL_POINTS = [
    (label, name) for label, _, _, _ in CONFIGS for name in STRATEGIES
]


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.skip("golden digest file missing; run generate_digests.py")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def config(label):
    """``(scale, overrides, run_kwargs)`` of the config named ``label``."""
    for config_label, scale, overrides, run_kwargs in CONFIGS:
        if config_label == label:
            return scale, overrides, run_kwargs
    raise KeyError(label)


@pytest.mark.parametrize("label,name", ALL_POINTS)
def test_digest_bit_identical(golden, label, name):
    scale, overrides, run_kwargs = config(label)
    expected = golden["points"]["%s/%s" % (label, name)]
    actual = run_point(name, scale, overrides, run_kwargs)
    # The digest is the strongest check (it pins the exact event stream);
    # comparing the full dicts keeps failures readable, field by field.
    assert actual == expected
