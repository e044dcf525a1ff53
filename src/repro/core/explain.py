"""EXPLAIN: human-readable physical plans.

The paper reasons about strategies as query plans ("iterative
substitution", "merge-join", "scan the NumTop tuples and collect into
temp...").  :func:`explain` renders the plan a strategy would execute
for a concrete query against a concrete database, annotated with the
optimizer-grade numbers that drive the Figure 4 trade-offs.

    >>> print(explain("BFS", db, RetrieveQuery(0, 199, "ret1")))
    BFS: breadth-first, merge join
      scan ParentRel [0 .. 199]            (~200 tuples, ~20 pages)
      -> temp(OID) per child relation      (~1000 OIDs)
      -> external sort temp
      -> merge join temp with ChildRel     (~430 of 500 leaf pages)
      -> project ret1
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.database import ComplexObjectDB
from repro.core.queries import RetrieveQuery
from repro.core.strategies.base import REGISTRY, make_strategy
from repro.core.strategies.optimizer import child_probes, pages_touched
from repro.errors import QueryError


def _stats(db: ComplexObjectDB, query: RetrieveQuery) -> dict:
    num_top = query.num_top
    parents_per_page = max(
        1, db.parent_rel.num_records // max(1, db.parent_rel.num_leaf_pages)
    )
    k, child_leaves = child_probes(db, num_top)
    keys = round(k)
    return {
        "num_top": num_top,
        "parent_pages": max(1, round(num_top / parents_per_page)),
        "keys": keys,
        "child_leaves": child_leaves,
        "touched": round(pages_touched(keys, child_leaves)),
    }


def _parent_line(db: ComplexObjectDB, query: RetrieveQuery, s: dict) -> str:
    return "  scan ParentRel [%d .. %d]  (~%d tuples, ~%d pages)" % (
        query.lo,
        query.hi,
        s["num_top"],
        s["parent_pages"],
    )


def explain(
    strategy_name: str,
    db: ComplexObjectDB,
    query: RetrieveQuery,
    **strategy_kwargs,
) -> str:
    """The physical plan ``strategy_name`` would run for ``query``.

    ``strategy_kwargs`` configure parameterised strategies (e.g. SMART's
    ``threshold``).
    """
    if strategy_name not in REGISTRY:
        raise QueryError("unknown strategy %r" % strategy_name)
    s = _stats(db, query)
    lines: List[str] = []

    if strategy_name == "DFS":
        lines = [
            "DFS: depth-first, iterative substitution",
            _parent_line(db, query, s),
            "  -> per OID: B-tree lookup into ChildRel  (~%d random fetches)"
            % s["keys"],
            "  -> project %s" % query.attr,
        ]
    elif strategy_name in ("BFS", "BFSNODUP"):
        dedup = strategy_name == "BFSNODUP"
        lines = [
            "%s: breadth-first, merge join" % strategy_name,
            _parent_line(db, query, s),
            "  -> temp(OID) per child relation  (~%d OIDs)" % s["keys"],
            "  -> external sort temp%s" % (" with duplicate elimination" if dedup else ""),
            "  -> merge join temp with ChildRel  (~%d of %d leaf pages)"
            % (s["touched"], s["child_leaves"]),
            "  -> project %s" % query.attr,
        ]
    elif strategy_name == "DFSCACHE":
        coverage = db.cache.num_cached if db.cache is not None else 0
        lines = [
            "DFSCACHE: depth-first with outside value cache",
            _parent_line(db, query, s),
            "  -> per unit: probe Cache(hashkey)  (%d units currently cached)"
            % coverage,
            "  ->   hit:  read cached values  (1 page)",
            "  ->   miss: materialise via ChildRel fetches, insert into cache",
            "  -> project %s" % query.attr,
        ]
    elif strategy_name == "DFSCLUST":
        cluster = db.cluster
        stride = cluster.stride if cluster is not None else 0
        lines = [
            "DFSCLUST: depth-first over ClusterRel",
            "  range scan ClusterRel ck in [%d .. %d]" % (
                query.lo * stride,
                (query.hi + 1) * stride - 1,
            ),
            "  -> co-located subobjects: free (same cluster pages)",
            "  -> others: ISAM(OID) probe + B-tree fetch per subobject",
            "  -> project %s" % query.attr,
        ]
    elif strategy_name == "SMART":
        threshold = make_strategy("SMART", **strategy_kwargs).threshold
        arm = "DFSCACHE" if query.num_top <= threshold else "cache-aware BFS"
        lines = [
            "SMART: NumTop=%d vs threshold N=%d -> %s arm" % (
                query.num_top,
                threshold,
                arm,
            ),
            _parent_line(db, query, s),
            "  -> cached units answered from Cache (bucket order)"
            if arm != "DFSCACHE"
            else "  -> per unit: probe/maintain Cache",
            "  -> uncached OIDs: temp + sort + merge join"
            if arm != "DFSCACHE"
            else "  -> misses materialised and cached",
        ]
    elif strategy_name == "OPT":
        estimate = make_strategy("OPT").estimate(db, query)
        lines = [
            "OPT: cost-based choice",
            "  est DFS child cost: %.1f pages" % estimate.dfs_cost,
            "  est BFS child cost: %.1f pages" % estimate.bfs_cost,
            "  -> chosen plan: %s" % estimate.choice,
        ]
    elif REGISTRY[strategy_name].uses_procedures:
        cached = {None: "none", "oids": "OIDs", "values": "values"}[
            REGISTRY[strategy_name].cached_rep
        ]
        lines = [
            "%s: procedural representation (cached: %s)" % (strategy_name, cached),
            _parent_line(db, query, s),
            "  -> per parent: stored query 'retrieve ChildRel where ret2 in window'",
            "  -> uncached procedures batched into one relation scan "
            "(%d leaf pages)" % s["child_leaves"],
        ]
        if cached != "none":
            lines.append("  -> cached procedures answered from Cache")
    elif strategy_name == "DFSCACHE-INSIDE":
        lines = [
            "DFSCACHE-INSIDE: depth-first with per-object (inside) cache",
            _parent_line(db, query, s),
            "  -> per parent: probe Cache(parent key); no sharing of entries",
        ]
    else:  # pragma: no cover - future strategies
        lines = ["%s: no EXPLAIN template" % strategy_name]
    return "\n".join(lines)


#: Which analytic estimate of ``_stats`` predicts a strategy's measured
#: ChildCost.  DFS pays ~1 leaf per random fetch; the breadth-first
#: strategies touch the Cardenas/Yao page count.  Strategies missing here
#: (cache/cluster/procedural plans) have no single-number child estimate,
#: so only the parent scan is checked.
_CHILD_ESTIMATE = {"DFS": "keys", "BFS": "touched", "BFSNODUP": "touched"}

#: Relative divergence between estimate and measurement worth flagging.
DIVERGENCE_THRESHOLD = 0.10


def _estimate_line(label: str, actual: int, estimate: Optional[int]) -> str:
    line = "    %-14s %6d measured" % (label + ":", actual)
    if estimate is None:
        return line
    line += "  (est ~%d" % estimate
    divergence = abs(actual - estimate) / max(1, actual)
    if divergence > DIVERGENCE_THRESHOLD:
        line += ", DIVERGES %+.0f%%" % (100.0 * (estimate - actual) / max(1, actual))
    line += ")"
    return line


def measured_explain(
    strategy_name: str,
    db: ComplexObjectDB,
    query: RetrieveQuery,
    **strategy_kwargs,
) -> str:
    """:func:`explain` plus a traced cold run of the same query.

    Runs the strategy once against ``db`` with a :class:`repro.obs.Tracer`
    attached and appends the measured page counts next to the analytic
    estimates, flagging any estimate off by more than
    ``DIVERGENCE_THRESHOLD`` — the observability check that the
    optimizer-grade numbers EXPLAIN prints actually predict what the
    executor does.
    """
    from repro.core.measure import CostMeter
    from repro.obs import MetricsRegistry, Tracer, profiled

    text = explain(strategy_name, db, query, **strategy_kwargs)
    strategy = make_strategy(strategy_name, **strategy_kwargs)
    strategy.check_database(db)
    db.start_measurement(cold=True)
    tracer = Tracer(registry=MetricsRegistry(), keep_events=False)
    tracer.strategy = strategy.name
    meter = CostMeter(db.disk, tracer=tracer)
    with profiled() as prof, tracer.observe(db.disk):
        tracer.begin_op("retrieve", 0)
        strategy.retrieve(db, query, meter)
        tracer.end_op()
    summary = tracer.summary()
    stage_ns = prof.stage_ns()
    measured = summary["measured"]
    s = _stats(db, query)

    child_key = _CHILD_ESTIMATE.get(strategy_name)
    parent_estimate = None if strategy_name == "DFSCLUST" else s["parent_pages"]
    lines = [
        text,
        "  measured (traced cold run):",
        _estimate_line("parent pages", measured["par_cost"], parent_estimate),
        _estimate_line(
            "child pages",
            measured["child_cost"],
            s[child_key] if child_key else None,
        ),
        _estimate_line("total pages", measured["retrieve_io"], None),
        # Pages next to the wall time of the same stage:* spans (the
        # profiler never feeds the page counts, so they stay exact).
        "    by stage:      "
        + " ".join(
            "%s=%d/%.1f" % (name, pages, stage_ns.get(name, 0) / 1e6)
            for name, pages in sorted(summary["by_stage"].items())
        )
        + "  (pages/ms)",
    ]
    return "\n".join(lines)
