"""Chaos suite: stall detection, cooperative cancel, worker replacement.

A hung worker must never hang the batch: the watchdog flags the wedged
query, the runner cancels it cooperatively, replaces the worker, and the
slot comes back UNKNOWN with a structured :class:`StallReport` — with
every healthy query's trace untouched and output order preserved.

Detection is exercised two ways: deterministically, with a
:class:`FakeClock` and a manual ``scan_stalls()`` call (zero real
waiting, ``watchdog_thread=False``), and end-to-end through the real
watchdog thread with a sub-second threshold.  Marked ``chaos``: run with
``pytest -m chaos``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.jobs.runner as runner_module
from repro import JobConfig, JobRunner, Verdict
from repro.jobs import StallOutcome, Watchdog
from repro.jobs.admission import AdmissionGate
from repro.jobs.faults import FakeClock, HangingQueryFn
from repro.jobs.watchdog import WorkerHeartbeat

pytestmark = pytest.mark.chaos

QUESTIONS = [
    "Acme collects the email address.",
    "Acme shares the usage information with analytics providers.",
    "Acme sells the contact information.",
    "Does Acme collect my name?",
]
HUNG_QUESTION = QUESTIONS[1]
STALL_AFTER = 30.0


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Watchdog mechanics (pure, fake-clock)
# ---------------------------------------------------------------------------


class TestWatchdogScan:
    def test_flags_only_overdue_busy_workers(self):
        clock = FakeClock()
        dog = Watchdog(stall_after=10.0, clock=clock)
        fresh, overdue, idle, cancelled = (
            WorkerHeartbeat(1),
            WorkerHeartbeat(2),
            WorkerHeartbeat(3),
            WorkerHeartbeat(4),
        )
        overdue.begin(0, "q0", clock.now())
        cancelled.begin(1, "q1", clock.now())
        cancelled.cancelled.set()
        clock.advance(11.0)
        fresh.begin(2, "q2", clock.now())  # started after the jump
        flagged = dog.scan([fresh, overdue, idle, cancelled], now=clock.now())
        assert flagged == [overdue]

    def test_beat_resets_the_deadline(self):
        clock = FakeClock()
        dog = Watchdog(stall_after=10.0, clock=clock)
        hb = WorkerHeartbeat(1)
        hb.begin(0, "q0", clock.now())
        clock.advance(9.0)
        hb.beat("verify", clock.now())  # cooperative mid-query heartbeat
        clock.advance(9.0)
        assert dog.scan([hb], now=clock.now()) == []
        clock.advance(2.0)
        assert dog.scan([hb], now=clock.now()) == [hb]
        assert hb.stage == "verify"  # the report names the last stage

    def test_exactly_at_threshold_is_not_stalled(self):
        clock = FakeClock()
        dog = Watchdog(stall_after=10.0, clock=clock)
        hb = WorkerHeartbeat(1)
        hb.begin(0, "q0", clock.now())
        clock.advance(10.0)
        assert dog.scan([hb], now=clock.now()) == []

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            Watchdog(stall_after=0.0)

    def test_interval_defaults_to_quarter_threshold(self):
        assert Watchdog(stall_after=8.0).interval == 2.0
        assert Watchdog(stall_after=0.02).interval == 0.01  # floored

    def test_heartbeat_lifecycle(self):
        hb = WorkerHeartbeat(7)
        assert not hb.busy and hb.stage == "idle"
        hb.begin(3, "q3", 5.0)
        assert hb.busy and hb.index == 3 and hb.last_beat == 5.0
        hb.finish()
        assert not hb.busy and hb.index is None


# ---------------------------------------------------------------------------
# Deterministic stall injection (fake clock, manual scan)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline(pipeline, small_model):
    return [_trace(pipeline.query(small_model, q)) for q in QUESTIONS]


def _run_with_hang(pipeline, small_model, on_hang, **config_kwargs):
    """Run the suite with ``HUNG_QUESTION`` wedged; drive ``on_hang`` once
    the worker is provably stuck.  Returns (result, runner, hanging)."""
    clock = FakeClock()
    hanging = HangingQueryFn(
        pipeline, small_model, hang_questions=(HUNG_QUESTION,)
    )
    config = JobConfig(
        max_workers=1,  # only the hung query is in flight at scan time
        stall_after=STALL_AFTER,
        watchdog_thread=False,
        handle_signals=False,
        **config_kwargs,
    )
    runner = JobRunner(
        pipeline, small_model, config, clock=clock, query_fn=hanging
    )
    box = {}

    def drive():
        box["result"] = runner.run(QUESTIONS)

    thread = threading.Thread(target=drive)
    thread.start()
    assert hanging.hang_started.wait(timeout=10.0), "worker never wedged"
    clock.advance(STALL_AFTER + 1.0)
    on_hang(runner)
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "job hung despite the watchdog"
    return box["result"], runner, hanging


class TestStallInjection:
    def test_hung_worker_detected_replaced_and_batch_completes(
        self, pipeline, small_model, baseline
    ):
        reports = {}

        def scan(runner):
            reports["first"] = runner.scan_stalls()
            reports["second"] = runner.scan_stalls()  # idempotent

        result, runner, hanging = _run_with_hang(pipeline, small_model, scan)

        assert len(reports["first"]) == 1
        assert reports["second"] == []  # a cancelled worker is not re-flagged
        report = reports["first"][0]
        assert report.index == 1
        assert report.question == HUNG_QUESTION
        assert report.waited_seconds > STALL_AFTER
        assert report.stall_after == STALL_AFTER
        assert report.replaced

        # The stalled slot is a structured UNKNOWN, never a silent hang.
        stalled = result.outcomes[1]
        assert isinstance(stalled, StallOutcome)
        assert stalled.verdict is Verdict.UNKNOWN
        assert stalled.stall.as_dict() == report.as_dict()
        assert "stalled" in stalled.summary()

        # Order preserved; every healthy query byte-identical to baseline.
        assert not result.aborted
        assert result.pending == []
        for index in (0, 2, 3):
            assert _trace(result.outcomes[index]) == baseline[index]

        assert result.stalls == [report]
        assert result.metrics.stalled_queries == 1
        assert result.metrics.workers_replaced == 1
        assert hanging.hangs == 1

    def test_cancelled_worker_result_is_discarded(
        self, pipeline, small_model
    ):
        result, runner, hanging = _run_with_hang(
            pipeline, small_model, lambda runner: runner.scan_stalls()
        )
        # The wedged worker observed its cancellation, retired, and its
        # late result did not overwrite the committed StallOutcome.
        assert hanging.cancelled_hangs == 1
        assert isinstance(result.outcomes[1], StallOutcome)

    def test_stall_is_checkpointed_for_resume(
        self, pipeline, small_model, tmp_path
    ):
        result, runner, _ = _run_with_hang(
            pipeline,
            small_model,
            lambda runner: runner.scan_stalls(),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert isinstance(result.outcomes[1], StallOutcome)
        # A resumed job trusts the committed UNKNOWN rather than re-running
        # the pathological query.
        resumed = JobRunner(
            pipeline,
            small_model,
            JobConfig(checkpoint_dir=str(tmp_path / "ckpt")),
        ).resume()
        assert resumed.restored == len(QUESTIONS)
        assert resumed.outcomes[1].as_dict() == result.outcomes[1].as_dict()
        assert resumed.outcomes[1].verdict is Verdict.UNKNOWN

    def test_stall_that_completes_the_job_frees_its_slot_first(
        self, pipeline, small_model, monkeypatch
    ):
        # The hung query is the last one, so the stall's commit completes
        # the job.  A gate whose exit stalls before it frees the slot
        # widens the window; run() must still return with no slot held.
        class SlowExitGate(AdmissionGate):
            def exit(self) -> None:
                time.sleep(0.05)
                super().exit()

        monkeypatch.setattr(runner_module, "AdmissionGate", SlowExitGate)
        clock = FakeClock()
        questions = [QUESTIONS[0], HUNG_QUESTION]
        hanging = HangingQueryFn(
            pipeline, small_model, hang_questions=(HUNG_QUESTION,)
        )
        config = JobConfig(
            max_workers=1,
            stall_after=STALL_AFTER,
            watchdog_thread=False,
            handle_signals=False,
        )
        runner = JobRunner(
            pipeline, small_model, config, clock=clock, query_fn=hanging
        )
        box = {}

        def drive():
            box["result"] = runner.run(questions)
            box["depth"] = runner._gate.depth

        thread = threading.Thread(target=drive)
        thread.start()
        assert hanging.hang_started.wait(timeout=10.0), "worker never wedged"
        clock.advance(STALL_AFTER + 1.0)
        assert len(runner.scan_stalls()) == 1
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "job hung despite the watchdog"
        assert isinstance(box["result"].outcomes[1], StallOutcome)
        assert box["depth"] == 0

    def test_healthy_workers_never_flagged(self, pipeline, small_model):
        clock = FakeClock()
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(
                max_workers=2,
                stall_after=STALL_AFTER,
                watchdog_thread=False,
                handle_signals=False,
            ),
            clock=clock,
        )
        result = runner.run(QUESTIONS)
        assert runner.scan_stalls() == []
        assert result.stalls == []
        assert result.metrics.stalled_queries == 0


# ---------------------------------------------------------------------------
# Real watchdog thread (sub-second threshold, actual waiting)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestWatchdogThread:
    def test_detects_stall_without_manual_scan(self, pipeline, small_model):
        hanging = HangingQueryFn(
            pipeline, small_model, hang_questions=(HUNG_QUESTION,)
        )
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(
                max_workers=1,
                stall_after=0.15,
                watchdog_interval=0.02,
                handle_signals=False,
            ),
            query_fn=hanging,
        )
        result = runner.run(QUESTIONS)  # real clock: the thread must act
        assert len(result.stalls) == 1
        assert result.stalls[0].question == HUNG_QUESTION
        assert isinstance(result.outcomes[1], StallOutcome)
        assert result.pending == []
        assert result.metrics.workers_replaced == 1
