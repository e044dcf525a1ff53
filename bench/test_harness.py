"""Tests of the benchmark harness itself (not of the program).

    python -m pytest bench/ -q

Outside tier-1's ``testpaths`` on purpose: these check the measuring
instrument — the percentile rule, span arithmetic, that tracing leaves
the program exactly as it found it, the comparison verdicts — and end
with a ``--smoke`` pass of the whole benchmark at tiny sizes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import compare
import harness
import tracing

harness.bootstrap()


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (4500, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected
    assert expected == 50.0 or count * (1 - expected / 100.0) >= 10 - 1e-9


def test_percentile_interpolates():
    assert harness.percentile([1, 2, 3, 4], 50) == 2.5
    assert harness.percentile([10], 99) == 10
    assert harness.percentile(range(101), 95) == 95


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
#   retrieve [0, 100]
#     range_scan: generator alive [5, 60], resumed for 20 of it
#       read_page [10, 14]   (inside a resume)
#     lookup [60, 90]
#       read_page [70, 80]
SPANS = [
    (1, 0, 1, "core.strategies.retrieve", 0, 100, 100),
    (2, 1, 1, "storage.btree.range_scan", 5, 60, 20),
    (3, 2, 1, "storage.disk.read_page", 10, 14, 4),
    (4, 1, 1, "storage.btree.lookup", 60, 90, 30),
    (5, 4, 1, "storage.disk.read_page", 70, 80, 10),
]


def test_self_time_is_busy_minus_children():
    own = tracing.self_times(SPANS)
    assert own == {1: 100 - 20 - 30, 2: 20 - 4, 3: 4, 4: 30 - 10, 5: 10}
    assert sum(own.values()) == 100  # nothing lost, nothing counted twice


def test_budget_sums_to_one_with_explicit_residual():
    by_name = tracing.self_time_by_name(SPANS)
    assert by_name["storage.disk.read_page"] == {"count": 2, "self_ns": 14, "busy_ns": 14}
    shares = tracing.layer_budget(by_name, 125.0, pool_fetch_ns=9.0)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["core.strategies"] == pytest.approx(50 / 125)
    assert shares["storage.disk"] == pytest.approx(14 / 125)
    assert shares["storage.buffer"] == pytest.approx(9 / 125)
    assert shares["storage.btree"] == pytest.approx((36 - 9) / 125)
    assert shares["unattributed"] == pytest.approx(25 / 125)


def test_buffer_estimate_never_exceeds_its_callers():
    by_name = tracing.self_time_by_name(SPANS)
    shares = tracing.layer_budget(by_name, 100.0, pool_fetch_ns=1e9)
    assert shares["storage.buffer"] == pytest.approx(0.36)  # all of btree's, no more
    assert shares["storage.btree"] == pytest.approx(0.0)
    assert sum(shares.values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def test_instrumentation_restores_every_patched_attribute():
    import repro.experiments  # noqa: F401

    before = tracing.patched_attributes()
    recorder = tracing.Recorder()
    with tracing.Instrumentation(recorder):
        from repro.storage.btree import BTreeFile
        from repro.experiments import fig3, pool

        assert BTreeFile.lookup is not before[("BTreeFile", "lookup")]
        assert fig3.run_sweep is pool.run_sweep is not before[("repro.experiments.pool", "run_sweep")]
    after = tracing.patched_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrapped_calls_nest_and_generators_count_only_resumed_time():
    recorder = tracing.Recorder()

    def leaf():
        time.sleep(0.002)

    leaf_traced = tracing.wrap_call(recorder, "storage.disk.read_page", leaf)

    def produce():
        leaf_traced()
        yield 1
        yield 2

    produce_traced = tracing.wrap_generator(recorder, "storage.btree.range_scan", produce)

    def consume():
        for _item in produce_traced():
            time.sleep(0.005)  # the consumer's own work between yields

    tracing.wrap_call(recorder, "core.strategies.retrieve", consume)()
    spans = {span[3]: span for span in recorder.spans()}
    retrieve = spans["core.strategies.retrieve"]
    scan = spans["storage.btree.range_scan"]
    read = spans["storage.disk.read_page"]
    assert scan[1] == retrieve[0] and read[1] == scan[0]      # parents
    assert retrieve[2] == scan[2] == read[2] == retrieve[0]   # one trace id
    assert scan[6] < 0.006e9 < scan[5] - scan[4]              # busy excludes the consumer
    own = tracing.self_times(recorder.spans())
    assert own[retrieve[0]] >= 0.009e9                        # ... who keeps that time


def test_recorder_is_per_thread():
    import threading

    recorder = tracing.Recorder()
    work = tracing.wrap_call(recorder, "serve.server.submit", lambda: None)
    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(span[1] for span in recorder.spans()) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _record(ops_per_s, rounds, seed=42, pins=None, smoke=False, layer=None):
    entry = {
        "correct": True,
        "pins": pins or {"total_io": 10},
        "end_to_end": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s", "samples": rounds},
            "setup_s": {"value": 0.010, "unit": "s"},
        },
    }
    if layer is not None:
        entry["per_layer"] = {"storage.disk.reads": {"value": layer, "unit": "count"}}
    return {"schema": 1, "seed": seed, "smoke": smoke, "workloads": {"probe_dfs": entry}}


def _verdicts(base, candidate):
    rows, status = compare.compare(base, candidate)
    return {row[1]: row[-1] for row in rows}, status


def test_compare_same_better_worse():
    tight = [99.0, 100.0, 101.0]
    base = _record(100.0, tight)
    assert _verdicts(base, _record(95.0, [94.0, 95.0, 96.0])) == (
        {"ops_per_s": "same", "setup_s": "same"}, 0)
    assert _verdicts(base, _record(130.0, [129.0, 130.0, 131.0]))[0]["ops_per_s"] == "better"
    verdicts, status = _verdicts(base, _record(70.0, [69.0, 70.0, 71.0]))
    assert verdicts["ops_per_s"] == "worse" and status == 1


def test_compare_unresolved_when_rounds_scatter_and_overlap():
    base = _record(100.0, [70.0, 100.0, 130.0])
    verdicts, status = _verdicts(base, _record(70.0, [50.0, 70.0, 105.0]))
    assert verdicts["ops_per_s"] == "unresolved" and status == 0


def test_compare_floor_absorbs_clock_noise_near_zero():
    base = _record(100.0, [100.0, 100.0])
    candidate = _record(100.0, [100.0, 100.0])
    candidate["workloads"]["probe_dfs"]["end_to_end"]["setup_s"]["value"] = 0.025
    assert _verdicts(base, candidate)[0]["setup_s"] == "same"  # +150 %, but 15 ms < 20 ms


def test_compare_exact_counts_must_repeat():
    base = _record(100.0, [100.0, 100.0], layer=7)
    _verdicts_, status = _verdicts(base, _record(100.0, [100.0, 100.0], layer=8))
    assert status == 1
    _verdicts_, status = _verdicts(base, _record(100.0, [100.0, 100.0], pins={"total_io": 11}))
    assert status == 1
    # another seed is another input: nothing exact to compare
    _verdicts_, status = _verdicts(base, _record(100.0, [100.0, 100.0], seed=7, layer=8))
    assert status == 0


def test_compare_refuses_smoke_records(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(_record(100.0, [100.0], smoke=True)))
    with pytest.raises(compare.Refused):
        compare.load(str(path))
    assert compare.main([str(path), str(path)]) == 2


# ----------------------------------------------------------------------
# BENCHMARK.json keeps to the driver's contract
# ----------------------------------------------------------------------
def test_benchmark_json_contract():
    spec = harness.load_benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert os.path.getsize(harness.BENCHMARK_JSON) <= 64 * 1024


# ----------------------------------------------------------------------
# the whole benchmark, at smoke sizes
# ----------------------------------------------------------------------
def test_smoke_pass_runs_every_workload_and_is_not_comparable(tmp_path):
    record_path = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"), "--smoke",
         "--trace", "--seconds", "1", "--seed", "7", "--record", str(record_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    record = json.loads(record_path.read_text())
    assert record["smoke"] is True and record["seed"] == 7
    spec = harness.load_benchmark_json()
    assert sorted(record["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, entry in record["workloads"].items():
        assert entry["correct"], (name, entry["problems"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for metric in spec["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0, (name, metric["name"])
        for metric in spec["per_layer"]:
            assert metric["name"] in entry["per_layer"], (name, metric["name"])
        if name != "serve_mix":
            shares = [v["value"] for k, v in entry["per_layer"].items()
                      if k.startswith("budget.")]
            assert sum(shares) == pytest.approx(1.0)
        assert os.path.exists(harness.trace_path(name))
    assert compare.main([str(record_path), str(record_path)]) == 2
