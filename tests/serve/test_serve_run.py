"""run_serve end to end: nominal, storm, ledger, and the chaos phase."""

import json
import os

import pytest

from repro.fault import plan as _fault
from repro.fault.chaos import run_chaos
from repro.obs import ledger as _ledger
from repro.serve.run import run_serve


@pytest.fixture(autouse=True)
def no_fault_plan():
    yield
    _fault.clear()


SMALL = dict(
    scale=0.02,
    clients=2,
    duration=1.0,
    readers=2,
    queue_depth=8,
    publish_interval=0.02,
    pr_update=0.3,
    quiet=True,
)


class TestNominal:
    def test_nominal_run_verifies_and_ledgers(self, tmp_path):
        json_out = tmp_path / "serve.json"
        code = run_serve(out=str(tmp_path), json_out=str(json_out), **SMALL)
        assert code == 0
        summary = json.loads(json_out.read_text())
        assert summary["verified"] is True
        assert summary["mismatches"] == []
        assert summary["stuck_threads"] == []
        assert summary["requests"]["acknowledged"] > 0
        assert summary["requests"]["errors"] == 0
        assert summary["throughput_rps"] > 0
        assert summary["latency_ms"]["retrieve"]["p95"] >= 0
        # Server-side budget rows: retrieve service time and the clone
        # attach every reader / writer batch pays per epoch.
        assert summary["service_ms"]["count"] > 0
        for role in ("reader", "writer"):
            assert summary["attach_ms"][role]["count"] > 0
            assert summary["attach_ms"][role]["p50"] > 0
        # Exactly one kind=serve record landed in the ledger, schema 2.
        ledger = _ledger.RunLedger(
            os.path.join(str(tmp_path), _ledger.LEDGER_FILENAME)
        )
        records = ledger.read("serve")
        assert len(records) == 1
        assert records[0]["schema"] == _ledger.LEDGER_SCHEMA == 2
        assert records[0]["requests"]["acknowledged"] > 0

    def test_no_ledger_flag_skips_the_ledger(self, tmp_path):
        code = run_serve(out=str(tmp_path), ledger=False, **SMALL)
        assert code == 0
        assert not (tmp_path / _ledger.LEDGER_FILENAME).exists()


class TestStorm:
    def test_storm_sheds_with_typed_rejections_and_recovers(self, tmp_path):
        json_out = tmp_path / "storm.json"
        params = dict(SMALL)
        params.update(duration=1.5, queue_depth=4, clients=3)
        code = run_serve(
            out=str(tmp_path), json_out=str(json_out), storm=4,
            ledger=False, **params
        )
        # Shedding is the contract working: the run itself must pass.
        assert code == 0
        summary = json.loads(json_out.read_text())
        assert summary["verified"] is True
        assert [phase["phase"] for phase in summary["phases"]] == [
            "nominal", "storm", "recovery",
        ]
        assert summary["requests"]["shed"] > 0
        # Every shed was a typed rejection the admission queue counted.
        assert sum(summary["admission"]["shed"].values()) > 0
        assert summary["recovered"] is True
        assert summary["stuck_threads"] == []


class TestChaosServePhase:
    def test_chaos_serve_phase_fires_all_faults_and_verifies(self, tmp_path):
        code = run_chaos(
            scale=0.02,
            fault_seed=0,
            out=str(tmp_path),
            phase="serve",
            serve_duration=2.0,
        )
        assert code == 0
        summary = json.loads(
            (tmp_path / "chaos" / "CHAOS_serve.json").read_text()
        )
        assert summary["verified"] is True
        assert summary["requests"]["errors"] == 0
        assert summary["publish"]["crashes"] >= 1
        assert summary["stuck_threads"] == []
