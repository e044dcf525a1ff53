"""Referee for the buffer pool's one rule: a pool that grants no lease.

Under :class:`LiteralPool` no page is ever the page touched last (see
:mod:`repro.storage.buffer`), so every site that would book a hit for a
page it did not fetch takes the real ``fetch`` instead, and a replayed
B-tree route is the literal ``fetch`` loop.  Every measured number, and
the pool's final frame order, reference bits and clock hand, must come
out the same as under the default pool and as pinned in
``tests/golden/trace_digests.json``.
"""

import types

import pytest

import repro.storage.catalog as catalog_module
from repro.storage.buffer import BufferPool
from tests.golden.generate_digests import CONFIGS, STRATEGIES, run_point
from tests.golden.test_trace_digests import golden, config  # noqa: F401

#: What :attr:`LiteralPool.last` always reads: a frame holding no page.
_NO_FRAME = types.SimpleNamespace(page=None)

#: Every pool built since the last :func:`_run` began.
POOLS = []


class CountingPool(BufferPool):
    """The default pool, counting its real fetches and its replayed
    B-tree routes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.real_fetches = 0
        self.replays = 0
        POOLS.append(self)

    def fetch(self, page_id):
        self.real_fetches += 1
        return super().fetch(page_id)

    def fetch_frame(self, page_id):
        self.real_fetches += 1
        return super().fetch_frame(page_id)

    def fetch_path(self, page_ids):
        self.replays += 1
        if self._is_lru:  # under clock it is the fetch loop, counted there
            self.real_fetches += len(page_ids)
        return super().fetch_path(page_ids)


class LiteralPool(CountingPool):
    """A pool that grants no lease: no page is the page touched last."""

    @property
    def last(self):
        return _NO_FRAME

    @last.setter
    def last(self, frame):
        pass

    def fetch_path(self, page_ids):
        """A replayed route as the literal ``fetch`` loop."""
        for page_id in page_ids:
            page = self.fetch(page_id)
        return page


SMOKE = (
    ("retrieve", "DFS"),
    ("retrieve", "BFS"),
    ("mixed", "DFSCACHE"),
    ("retrieve", "DFSCLUST"),
    ("cold", "OPT"),
)


def _run(monkeypatch, pool_class, name, scale, overrides, run_kwargs):
    """``run_point`` on pools of ``pool_class``: its result plus the final
    state of every pool it built."""
    monkeypatch.setattr(catalog_module, "BufferPool", pool_class)
    del POOLS[:]
    result = run_point(name, scale, overrides, run_kwargs)
    states = [
        (
            list(pool._frames),
            [frame.dirty for frame in pool._frames.values()],
            dict(pool._referenced),
            list(pool._clock_ring),
            pool._clock_hand,
        )
        for pool in POOLS
    ]
    fetches = sum(pool.real_fetches for pool in POOLS)
    replays = sum(pool.replays for pool in POOLS)
    return result, states, fetches, replays


def _compare(monkeypatch, label, name, overrides):
    scale, base, run_kwargs = config(label)
    overrides = dict(base, **overrides)
    default = _run(monkeypatch, CountingPool, name, scale, overrides, run_kwargs)
    literal = _run(monkeypatch, LiteralPool, name, scale, overrides, run_kwargs)
    assert literal[:2] == default[:2]
    assert literal[2] >= default[2]
    return default


@pytest.mark.parametrize(
    "label,name", [(label, name) for label, _, _, _ in CONFIGS for name in STRATEGIES]
)
def test_golden_point_without_leases(golden, monkeypatch, label, name):
    result, states, _, replays = _compare(monkeypatch, label, name, {})
    assert states
    assert result == golden["points"]["%s/%s" % (label, name)]
    if name.startswith("DFS"):
        assert replays > 0  # the default pool replayed remembered routes


@pytest.mark.parametrize("label,name", SMOKE)
def test_clock_point_without_leases(monkeypatch, label, name):
    _compare(monkeypatch, label, name, {"buffer_policy": "clock"})


def test_the_referee_takes_the_real_path(monkeypatch):
    # Under the default pool DFS books four hits per unique match and
    # heap appends book theirs; without the rule each is a real fetch.
    for name in ("DFS", "BFS"):
        scale, overrides, run_kwargs = config("retrieve")
        default = _run(monkeypatch, CountingPool, name, scale, overrides, run_kwargs)
        literal = _run(monkeypatch, LiteralPool, name, scale, overrides, run_kwargs)
        assert literal[2] > default[2]
