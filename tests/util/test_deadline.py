"""Deadline helper: monotonic expiry, per-thread enforcement, pool glue."""

import signal
import threading
import time

import pytest

from repro.core.strategies.base import make_strategy
from repro.errors import DeadlineExceeded, WorkerLost
from repro.experiments.pool import RetryPolicy, SweepPoint, _point_deadline, run_sweep
from repro.util.deadline import Deadline, active, check_active, enforced
from repro.util.rng import derive_rng
from repro.workload.driver import CostReport, run_sequence
from repro.workload.queries import generate_sequence


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        assert deadline.budget_seconds == 60.0

    def test_expired_deadline_checks_raise(self):
        deadline = Deadline.after(-0.001)
        assert deadline.expired()
        assert deadline.remaining() < 0
        with pytest.raises(DeadlineExceeded, match="slow thing"):
            deadline.check("slow thing")

    def test_unexpired_check_is_a_no_op(self):
        Deadline.after(60.0).check()


class TestEnforced:
    def test_check_active_is_a_no_op_without_a_deadline(self):
        assert active() is None
        check_active()  # must not raise

    def test_enforced_installs_and_restores(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(30.0)
        with enforced(outer):
            assert active() is outer
            with enforced(inner):
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_check_active_raises_once_expired(self):
        with enforced(Deadline.after(-1.0)):
            with pytest.raises(DeadlineExceeded):
                check_active("measured sequence")

    def test_enforcement_is_per_thread(self):
        seen = {}

        def worker():
            seen["other_thread"] = active()

        with enforced(Deadline.after(60.0)):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other_thread"] is None


class TestPointDeadline:
    """The --point-timeout glue must work off the main thread now."""

    def test_expiry_on_a_worker_thread_raises_worker_lost(self):
        outcome = {}

        def worker():
            try:
                with _point_deadline(0.01):
                    deadline_end = time.monotonic() + 1.0
                    while time.monotonic() < deadline_end:
                        check_active("spin")
                        time.sleep(0.002)
                outcome["error"] = None
            except WorkerLost as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(5.0)
        assert isinstance(outcome["error"], WorkerLost)

    def test_no_timeout_means_no_deadline(self):
        with _point_deadline(None):
            assert active() is None

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timers")
    def test_timed_sweep_leaves_the_callers_timer_alone(self, tiny_params):
        """An embedder's SIGALRM handler and armed timer survive a sweep."""

        def handler(signum, frame):  # pragma: no cover - never fires
            pass

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, 30)
        try:
            point = SweepPoint(params=tiny_params, strategy="BFS", num_retrieves=3)
            (report,) = run_sweep([point], policy=RetryPolicy(point_timeout=10))
            remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
            handler_after = signal.getsignal(signal.SIGALRM)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert isinstance(report, CostReport)
        assert remaining > 20
        assert handler_after is handler

    def test_driver_checkpoints_between_operations(self, tiny_db, tiny_params):
        strategy = make_strategy("BFS")
        sequence = generate_sequence(tiny_params, tiny_db, derive_rng(3))
        with enforced(Deadline.after(-1.0)):
            with pytest.raises(DeadlineExceeded):
                run_sequence(tiny_db, strategy, sequence)
