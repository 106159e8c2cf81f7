"""Supervised job runner: admission, checkpointing, resume, isolation.

Fast suite (no markers): admission through the gate that bounds the
runner's item queue (the gate's serving side is in ``test_server.py``),
journal recovery —
including the two corruptions an append-only log can suffer, a torn final
record and a replayed (duplicated) append — runner/sequential-query trace
parity, resume-only-the-pending behaviour, BaseException propagation
(KeyboardInterrupt must abort, never become a per-query ErrorOutcome),
graceful drain, and per-query timeout composition.

The kill matrix (crash at every journal boundary) lives in
``test_jobs_crash.py``; stall detection in ``test_jobs_watchdog.py``.
Like its sibling job suites this one exercises real worker threads, so it
rides the chaos lane (``pytest -m chaos``) rather than the fast lane.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time

import pytest

import repro.jobs.runner as runner_module
from repro import JobConfig, JobError, JobRunner, Verdict
from repro.core.pipeline import ErrorOutcome
from repro.jobs import (
    CheckpointedOutcome,
    ShedOutcome,
    read_journal,
)
from repro.jobs.admission import AdmissionGate
from repro.jobs.checkpoint import (
    JOURNAL_NAME,
    KIND_OUTCOME,
    CheckpointJournal,
)
from repro.jobs.faults import CountingQueryFn
from repro.store.envelope import encode

pytestmark = pytest.mark.chaos

QUESTIONS = [
    "Acme collects the email address.",
    "Acme shares the usage information with analytics providers.",
    "Acme sells the contact information.",
    "Does Acme collect my name?",
]


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline(pipeline, small_model):
    """Sequential ``pipeline.query`` traces — the byte-identity reference."""
    return [_trace(pipeline.query(small_model, q)) for q in QUESTIONS]


# ---------------------------------------------------------------------------
# Admission queue: the gate that bounds the runner's item queue
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    """The runner's admission as its feeder and workers use it: ``enter``
    then ``put`` to admit, ``get`` then ``exit`` to complete."""

    def test_admits_until_max_pending(self):
        gate = AdmissionGate(max_pending=2)
        assert gate.enter() is None
        assert gate.enter() is None
        assert gate.depth == 2
        assert gate.high_water == 2

    def test_backpressure_blocks_until_task_done(self):
        gate, items = AdmissionGate(max_pending=1), queue.SimpleQueue()
        assert gate.enter() is None
        items.put("a")
        admitted = []

        def feeder():
            admitted.append(gate.enter())
            items.put("b")

        thread = threading.Thread(target=feeder)
        thread.start()
        time.sleep(0.05)
        assert not admitted  # still blocked at the bound
        assert items.get() == "a"
        gate.exit()
        thread.join(timeout=5.0)
        assert admitted == [None]
        assert items.get(timeout=5.0) == "b"

    def test_blocked_admit_aborts_on_should_stop(self):
        gate = AdmissionGate(max_pending=1)
        assert gate.enter() is None
        results = []
        thread = threading.Thread(target=lambda: results.append(gate.enter()))
        thread.start()
        gate.stop()  # what request_drain() does to a blocked feeder
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [r.reason for r in results] == ["draining"]

    def test_blocked_admit_wakes_on_task_done_without_polling(self):
        # No poll period at all: the waiter sleeps purely on the condition
        # variable, so exit() must wake it directly.
        gate = AdmissionGate(max_pending=1)
        assert gate.enter() is None
        admitted = []
        thread = threading.Thread(target=lambda: admitted.append(gate.enter()))
        thread.start()
        time.sleep(0.05)
        assert not admitted
        started = time.monotonic()
        gate.exit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0, "wakeup must not wait a poll tick"
        assert admitted == [None]

    def test_wake_makes_stop_flag_observed_immediately(self):
        gate = AdmissionGate(max_pending=1)
        assert gate.enter() is None
        results = []
        thread = threading.Thread(target=lambda: results.append(gate.enter()))
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive(), "feeder should be parked on the cv"
        gate.wake()  # a bare wake re-checks and parks again
        time.sleep(0.05)
        assert thread.is_alive() and not results
        gate.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "stop() must rouse the blocked enter"
        assert [r.reason for r in results] == ["draining"]

    def test_shed_above_must_not_exceed_max_pending(self):
        # A threshold past the blocking bound would create a depth band
        # [max_pending, shed_above) that blocks instead of shedding.
        with pytest.raises(ValueError, match="shed_above"):
            AdmissionGate(max_pending=1, shed_above=2)
        with pytest.raises(ValueError, match="shed_above"):
            JobConfig(max_pending=1, shed_above=2)

    def test_shed_above_never_blocks(self):
        gate = AdmissionGate(max_pending=10, shed_above=1)
        assert gate.enter() is None
        # Depth 1 >= shed threshold 1: refused immediately, no blocking.
        refusal = gate.enter()
        assert refusal.reason == "shed" and refusal.pending_at_admission == 1
        gate.exit()
        assert gate.enter() is None

    def test_pending_counts_in_flight_not_just_queued(self):
        gate, items = AdmissionGate(max_pending=4), queue.SimpleQueue()
        assert gate.enter() is None
        items.put("a")
        assert items.get() == "a"
        assert gate.depth == 1  # taken by a worker but not completed
        gate.exit()
        assert gate.depth == 0

    def test_get_returns_none_when_closed_and_empty(self, pipeline, small_model):
        runner = JobRunner(pipeline, small_model, JobConfig(max_workers=2))
        before = set(threading.enumerate())
        runner.run(QUESTIONS)
        for thread in set(threading.enumerate()) - before:
            if thread.name.startswith("job-worker-"):
                thread.join(timeout=5.0)
        # Every worker passed the close marker on; it alone is left.
        assert runner._items.get_nowait() is None
        assert runner._items.empty()
        runner.request_drain()
        assert runner._gate.enter().reason == "draining"

    def test_drain_removes_unstarted_items(self, pipeline, small_model):
        counting = CountingQueryFn(pipeline, small_model)
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=1, max_pending=8, handle_signals=False),
        )

        def drain_on_first(index, question, certify, heartbeat):
            if index == 0:
                runner.request_drain()
                # Hold the in-flight query until the drain lands, so the
                # worker's next get() deterministically sees it.
                deadline = time.monotonic() + 10.0
                while not runner._drain_applied and time.monotonic() < deadline:
                    time.sleep(0.002)
            return counting(index, question, certify, heartbeat)

        runner._query_fn = drain_on_first
        result = runner.run(QUESTIONS)
        # The in-flight query finished; the queued ones never started.
        assert counting.by_index == {0: 1}
        assert result.outcomes[0] is not None
        assert result.pending == [1, 2, 3]


# ---------------------------------------------------------------------------
# Journal recovery (satellite: torn final record + duplicated record)
# ---------------------------------------------------------------------------


def _write_journal(tmp_path, records):
    directory = tmp_path / "ckpt"
    with CheckpointJournal(directory) as journal:
        journal.write_header(QUESTIONS, company="Acme", revision=1)
        for index, question in records:
            journal.append_result(
                index, question, KIND_OUTCOME, Verdict.VALID, {"question": question}
            )
    return directory / JOURNAL_NAME


class TestJournalRecovery:
    def test_round_trip(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        recovery = read_journal(path)
        assert recovery.header is not None
        assert recovery.header["questions"] == QUESTIONS
        assert sorted(recovery.completed) == [0, 1]
        assert not recovery.torn_tail
        assert recovery.duplicates == 0

    def test_missing_file_is_empty_recovery(self, tmp_path):
        recovery = read_journal(tmp_path / "nope" / JOURNAL_NAME)
        assert recovery.header is None
        assert recovery.completed == {}

    def test_torn_final_record_recovers_to_prefix(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        text = path.read_text("utf-8")
        # Cut the last record mid-line: the torn write a kill produces.
        torn = text[: text.rindex("\n", 0, len(text) - 1) + 1 + 10]
        path.write_text(torn, "utf-8")
        recovery = read_journal(path)
        assert recovery.torn_tail
        assert sorted(recovery.completed) == [0]
        assert recovery.header is not None

    def test_checksum_corruption_ends_trusted_prefix(self, tmp_path):
        path = _write_journal(
            tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1]), (2, QUESTIONS[2])]
        )
        lines = path.read_text("utf-8").splitlines()
        # Flip a byte inside record 1's payload: checksum fails, and
        # records *after* it are no longer vouched for.
        lines[2] = lines[2].replace(QUESTIONS[1], QUESTIONS[1].upper(), 1)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        recovery = read_journal(path)
        assert recovery.torn_tail
        assert sorted(recovery.completed) == [0]

    def test_duplicated_record_first_occurrence_wins(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0]), (1, QUESTIONS[1])])
        # Replay record 0's append with a *different* trace: recovery must
        # keep the first occurrence and only count the duplicate.
        replay = encode(
            {
                "kind": KIND_OUTCOME,
                "index": 0,
                "question": QUESTIONS[0],
                "verdict": Verdict.INVALID.value,
                "trace": {"question": "replayed"},
            }
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(replay + "\n")
        recovery = read_journal(path)
        assert recovery.duplicates == 1
        assert sorted(recovery.completed) == [0, 1]
        assert recovery.completed[0]["verdict"] == Verdict.VALID.value
        assert "duplicate" in recovery.summary()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        path.write_text(path.read_text("utf-8") + "\n\n", "utf-8")
        recovery = read_journal(path)
        assert not recovery.torn_tail
        assert sorted(recovery.completed) == [0]


class TestJournalTailRepair:
    """Reopening a torn journal must repair the tear before appending.

    Without the repair, the first post-crash append coalesces onto the
    torn fragment: that line fails its checksum, and prefix recovery then
    silently distrusts every record the resumed run commits — the exact
    crash-resume-crash data loss the journal exists to prevent.
    """

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # kill tears record 0 mid-line
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            assert journal.repaired_tail
            for index in (1, 2):
                journal.append_result(
                    index,
                    QUESTIONS[index],
                    KIND_OUTCOME,
                    Verdict.VALID,
                    {"question": QUESTIONS[index]},
                )
        recovery = read_journal(path)
        assert not recovery.torn_tail
        assert recovery.header is not None
        # The torn record is gone (pending again); the post-reopen
        # appends are fully trusted rather than lost past the tear.
        assert sorted(recovery.completed) == [1, 2]

    def test_reopen_of_intact_journal_repairs_nothing(self, tmp_path):
        path = _write_journal(tmp_path, [(0, QUESTIONS[0])])
        before = path.read_bytes()
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            assert not journal.repaired_tail
        assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# Runner end-to-end
# ---------------------------------------------------------------------------


class TestJobRunner:
    def test_traces_match_query_batch(self, pipeline, small_model, baseline):
        runner = JobRunner(pipeline, small_model, JobConfig(max_workers=1))
        result = runner.run(QUESTIONS)
        assert not result.aborted
        assert result.pending == []
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_checkpointed_run_traces_identical(
        self, pipeline, small_model, tmp_path, baseline
    ):
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt")),
        )
        result = runner.run(QUESTIONS)
        assert [_trace(o) for o in result.outcomes] == baseline
        assert result.metrics.checkpoint_records == len(QUESTIONS)
        recovery = read_journal(tmp_path / "ckpt" / JOURNAL_NAME)
        assert sorted(recovery.completed) == list(range(len(QUESTIONS)))

    def test_resume_restores_all_executes_none(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {}  # nothing re-executed
        assert result.restored == len(QUESTIONS)
        assert all(isinstance(o, CheckpointedOutcome) for o in result.outcomes)
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_resume_executes_only_pending(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        # Drop the last two records: queries 2 and 3 become pending again.
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", "utf-8")

        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {2: 1, 3: 1}
        assert result.restored == 2
        assert result.metrics.checkpoint_restored == 2
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_resume_rejects_mismatched_suite(self, pipeline, small_model, tmp_path):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        with pytest.raises(JobError, match="does not match"):
            JobRunner(pipeline, small_model, config).resume(QUESTIONS[:2])

    def test_run_refuses_initialized_checkpoint_dir(
        self, pipeline, small_model, tmp_path
    ):
        # Recovery keeps the first header and first-occurrence records,
        # so running job B into job A's directory would make a later
        # resume restore A's verdicts under B's name.
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        with pytest.raises(JobError, match="resume"):
            JobRunner(pipeline, small_model, config).run(QUESTIONS[:2])

    def test_resume_rejects_model_mismatch(
        self, pipeline, small_model, small_policy_text, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)

        other_company = pipeline.process(small_policy_text, company="OtherCorp")
        with pytest.raises(JobError, match="refusing to mix"):
            JobRunner(pipeline, other_company, config).resume()

        other_revision = pipeline.process(small_policy_text)
        other_revision.revision = small_model.revision + 1
        with pytest.raises(JobError, match="refusing to mix"):
            JobRunner(pipeline, other_revision, config).resume()

    def test_resume_rejects_header_digest_mismatch(
        self, pipeline, small_model, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        JobRunner(pipeline, small_model, config).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        lines = path.read_text("utf-8").splitlines()
        header = json.loads(lines[0])["record"]
        header["questions"] = list(QUESTIONS[:2])  # suite swapped, digest stale
        lines[0] = encode(header)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(JobError, match="digest"):
            JobRunner(pipeline, small_model, config).resume()

    def test_resume_without_checkpoint_dir_rejected(self, pipeline, small_model):
        with pytest.raises(JobError, match="checkpoint_dir"):
            JobRunner(pipeline, small_model, JobConfig()).resume()

    def test_resume_empty_checkpoint_needs_questions(
        self, pipeline, small_model, tmp_path
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        with pytest.raises(JobError, match="header"):
            JobRunner(pipeline, small_model, config).resume()
        # With the suite supplied, an empty checkpoint starts from scratch.
        result = JobRunner(pipeline, small_model, config).resume(QUESTIONS)
        assert result.pending == []
        assert result.restored == 0

    def test_pipeline_run_and_resume_wrappers(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        result = pipeline.run_job(small_model, QUESTIONS, job_config=config)
        assert [_trace(o) for o in result.outcomes] == baseline
        resumed = pipeline.resume_job(small_model, job_config=config)
        assert resumed.restored == len(QUESTIONS)
        assert [_trace(o) for o in resumed.outcomes] == baseline

    def test_pipeline_config_jobs_is_the_default(
        self, small_policy_text, tmp_path
    ):
        from repro import PipelineConfig, PolicyPipeline

        config = PipelineConfig(
            jobs=JobConfig(max_workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        )
        scoped = PolicyPipeline(config=config)
        model = scoped.process(small_policy_text)
        result = scoped.run_job(model, QUESTIONS[:2])  # config from pipeline
        assert result.metrics.checkpoint_records == 2
        assert (tmp_path / "ckpt" / JOURNAL_NAME).exists()

    def test_error_isolation_matches_query_batch(self, pipeline, small_model):
        def flaky(index, question, certify, heartbeat):
            if index == 1:
                raise RuntimeError("injected backend failure")
            return pipeline.query(small_model, question, certify=certify)

        runner = JobRunner(
            pipeline, small_model, JobConfig(max_workers=1), query_fn=flaky
        )
        result = runner.run(QUESTIONS)
        assert isinstance(result.outcomes[1], ErrorOutcome)
        assert result.outcomes[1].error_type == "RuntimeError"
        assert result.metrics.query_errors == 1
        assert not result.aborted  # fault isolated, job completed

    def test_workers_exit_when_run_ends(self, pipeline, small_model):
        # The close marker is passed from worker to worker: none of a
        # run's workers outlives it, however many there are.
        before = set(threading.enumerate())
        JobRunner(pipeline, small_model, JobConfig(max_workers=3)).run(QUESTIONS)
        workers = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("job-worker-")
        ]
        for thread in workers:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in workers)


class TestLoadShedding:
    def test_overflow_queries_shed_to_unknown(self, pipeline, small_model):
        config = JobConfig(max_workers=1, max_pending=4, shed_above=1)
        runner = JobRunner(pipeline, small_model, config)

        def first_waits_for_sheds(index, question, certify, heartbeat):
            # Hold query 0 in flight until every other query has been
            # shed, so the shed set is deterministic, not schedule-luck.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with runner._lock:
                    if runner._remaining <= 1:
                        break
                time.sleep(0.002)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = first_waits_for_sheds
        result = runner.run(QUESTIONS)
        assert result.shed == len(QUESTIONS) - 1
        assert result.metrics.shed_queries == len(QUESTIONS) - 1
        for outcome in result.outcomes[1:]:
            assert isinstance(outcome, ShedOutcome)
            assert outcome.verdict is Verdict.UNKNOWN
            assert outcome.shed_above == 1
            # The depth the gate saw under its lock: query 0 in flight.
            assert outcome.pending_at_admission == 1
        assert not isinstance(result.outcomes[0], ShedOutcome)

    def test_many_workers_fill_every_slot_exactly_once(self, pipeline, small_model):
        # More workers than cores, a tight watermark and a short switch
        # interval: each slot is answered once or shed once, every shed
        # carries the depth the gate refused at, and the depth drains to 0.
        questions = [QUESTIONS[i % len(QUESTIONS)] for i in range(64)]
        counting = CountingQueryFn(pipeline, small_model)
        config = JobConfig(max_workers=8, max_pending=6, shed_above=4)
        runner = JobRunner(pipeline, small_model, config, query_fn=counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = runner.run(questions)
        finally:
            sys.setswitchinterval(interval)
        assert not result.aborted
        shed = [o for o in result.outcomes if isinstance(o, ShedOutcome)]
        assert len(shed) == result.shed
        assert set(counting.by_index.values()) <= {1}
        assert len(counting.by_index) + len(shed) == len(questions)
        assert all(o.pending_at_admission == 4 for o in shed)
        assert runner._gate.depth == 0

    def test_run_returns_after_the_last_slot_is_released(
        self, pipeline, small_model, monkeypatch
    ):
        # A gate whose exit stalls before it frees the slot widens the
        # window between a worker's last commit and its release.  run()
        # must still find every slot free when it returns.
        class SlowExitGate(AdmissionGate):
            def exit(self) -> None:
                time.sleep(0.05)
                super().exit()

        monkeypatch.setattr(runner_module, "AdmissionGate", SlowExitGate)
        config = JobConfig(max_workers=2, max_pending=2)
        runner = JobRunner(pipeline, small_model, config)
        result = runner.run(QUESTIONS)
        assert not result.aborted
        assert isinstance(runner._gate, SlowExitGate)
        assert runner._gate.depth == 0

    def test_high_water_tracked(self, pipeline, small_model):
        config = JobConfig(max_workers=2, max_pending=2)
        result = JobRunner(pipeline, small_model, config).run(QUESTIONS)
        assert 1 <= result.metrics.queue_high_water <= 2


# ---------------------------------------------------------------------------
# BaseException propagation (satellite: interruption is never an outcome)
# ---------------------------------------------------------------------------


class TestInterruptPropagation:
    def test_query_batch_propagates_keyboard_interrupt(
        self, pipeline, small_model, monkeypatch
    ):
        real_query = pipeline.query

        def interrupted(model, question, **kwargs):
            if question == QUESTIONS[1]:
                raise KeyboardInterrupt
            return real_query(model, question, **kwargs)

        monkeypatch.setattr(pipeline, "query", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.query_batch(small_model, QUESTIONS, max_workers=1)

    def test_query_batch_propagates_system_exit(
        self, pipeline, small_model, monkeypatch
    ):
        def exiting(model, question, **kwargs):
            raise SystemExit(2)

        monkeypatch.setattr(pipeline, "query", exiting)
        with pytest.raises(SystemExit):
            pipeline.query_batch(small_model, QUESTIONS, max_workers=2)

    def test_no_query_starts_after_a_worker_abort(self, pipeline, small_model):
        # Once run() has re-raised a worker's BaseException, the surviving
        # workers must not start the items still queued.
        started: list[int] = []
        other_busy = threading.Event()

        def query_fn(index, question, certify, heartbeat):
            if index == 0:
                other_busy.wait(5.0)
                raise KeyboardInterrupt
            started.append(index)
            other_busy.set()
            time.sleep(0.02)
            return pipeline.query(small_model, question, certify=False)

        config = JobConfig(max_workers=2, handle_signals=False)
        runner = JobRunner(pipeline, small_model, config, query_fn=query_fn)
        with pytest.raises(KeyboardInterrupt):
            runner.run(QUESTIONS * 10)
        at_raise = len(started)
        time.sleep(0.3)
        assert len(started) == at_raise
        assert at_raise < len(QUESTIONS * 10) - 1

    def test_interrupt_in_feeding_thread_stops_the_workers(
        self, pipeline, small_model, monkeypatch
    ):
        # Ctrl-C with no drain handlers lands in the thread that feeds the
        # queue; items it already admitted must not start after the raise.
        class InterruptingGate(AdmissionGate):
            entered = 0

            def enter(self, **kwargs):
                InterruptingGate.entered += 1
                if InterruptingGate.entered == 3:
                    raise KeyboardInterrupt
                return super().enter(**kwargs)

        monkeypatch.setattr(runner_module, "AdmissionGate", InterruptingGate)
        started: list[int] = []

        def query_fn(index, question, certify, heartbeat):
            started.append(index)
            time.sleep(0.05)
            return pipeline.query(small_model, question, certify=False)

        config = JobConfig(max_workers=1, handle_signals=False)
        runner = JobRunner(pipeline, small_model, config, query_fn=query_fn)
        with pytest.raises(KeyboardInterrupt):
            runner.run(QUESTIONS)
        at_raise = list(started)
        time.sleep(0.2)
        assert started == at_raise
        assert started in ([], [0])

    def test_runner_aborts_on_keyboard_interrupt(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(
            max_workers=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            handle_signals=False,
        )

        def interrupted(index, question, certify, heartbeat):
            if index == 2:
                raise KeyboardInterrupt
            return pipeline.query(small_model, question, certify=certify)

        runner = JobRunner(pipeline, small_model, config, query_fn=interrupted)
        with pytest.raises(KeyboardInterrupt):
            runner.run(QUESTIONS)

        # Committed work survived the interrupt; resume finishes the rest
        # byte-identically.
        recovery = read_journal(tmp_path / "ckpt" / JOURNAL_NAME)
        assert sorted(recovery.completed) == [0, 1]
        result = JobRunner(pipeline, small_model, config).resume()
        assert [_trace(o) for o in result.outcomes] == baseline


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_drain_checkpoints_partial_and_resumes(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = JobConfig(
            max_workers=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            handle_signals=False,
        )
        runner = JobRunner(pipeline, small_model, config)

        def drain_after_first(index, question, certify, heartbeat):
            if index == 0:
                runner.request_drain()  # the signal handler's code path
            else:
                # Any later query the worker already picked up holds until
                # the drain lands, so the still-queued tail is determin-
                # istically dropped (in-flight queries finish; queued ones
                # stay pending for resume).
                deadline = time.monotonic() + 10.0
                while not runner._drain_applied and time.monotonic() < deadline:
                    time.sleep(0.002)
            return pipeline.query(small_model, question, certify=certify)

        runner._query_fn = drain_after_first
        result = runner.run(QUESTIONS)
        assert result.aborted
        assert result.outcomes[0] is not None
        assert result.pending  # something was left for resume
        assert set(result.pending) >= {2, 3}  # the never-started tail
        assert result.metrics.jobs_aborted == 1
        assert "ABORTED" in result.summary()

        resumed = JobRunner(pipeline, small_model, config).resume()
        assert not resumed.aborted
        assert resumed.pending == []
        assert [_trace(o) for o in resumed.outcomes] == baseline

    def test_completed_run_is_not_aborted(self, pipeline, small_model):
        result = JobRunner(
            pipeline, small_model, JobConfig(max_workers=2)
        ).run(QUESTIONS)
        assert not result.aborted
        assert result.metrics.jobs_aborted == 0


# ---------------------------------------------------------------------------
# Per-query timeout composition (satellite: --timeout)
# ---------------------------------------------------------------------------


class TestQueryTimeout:
    def _captured_budget(self, pipeline, small_model, monkeypatch, timeout):
        captured = {}
        real_query = pipeline.query

        def capture(model, question, budget=None, **kwargs):
            captured["budget"] = budget
            return real_query(model, question, budget=budget, **kwargs)

        monkeypatch.setattr(pipeline, "query", capture)
        runner = JobRunner(
            pipeline,
            small_model,
            JobConfig(max_workers=1, query_timeout=timeout),
        )
        runner.run(QUESTIONS[:1])
        return captured["budget"]

    def test_tightens_solver_deadline(self, pipeline, small_model, monkeypatch):
        base = pipeline.config.solver_budget
        budget = self._captured_budget(pipeline, small_model, monkeypatch, 1.5)
        assert budget.timeout_seconds == 1.5
        assert budget.max_conflicts == base.max_conflicts  # only time changes

    def test_never_loosens_solver_deadline(
        self, pipeline, small_model, monkeypatch
    ):
        base = pipeline.config.solver_budget
        budget = self._captured_budget(
            pipeline, small_model, monkeypatch, base.timeout_seconds + 100.0
        )
        assert budget.timeout_seconds == base.timeout_seconds

    def test_default_leaves_budget_untouched(
        self, pipeline, small_model, monkeypatch
    ):
        budget = self._captured_budget(pipeline, small_model, monkeypatch, None)
        assert budget is None  # pipeline default budget applies


class TestJobConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            JobConfig(max_pending=0)
        with pytest.raises(ValueError):
            JobConfig(shed_above=0)
        with pytest.raises(ValueError, match="shed_above"):
            JobConfig(max_pending=4, shed_above=5)
        with pytest.raises(ValueError):
            JobConfig(stall_after=0.0)
        with pytest.raises(ValueError):
            JobConfig(query_timeout=-1.0)
        with pytest.raises(ValueError):
            JobConfig(max_workers=0)

    def test_pipeline_config_carries_job_config(self, pipeline, small_model):
        from repro import PipelineConfig

        config = PipelineConfig(jobs=JobConfig(max_workers=1))
        assert config.jobs.max_workers == 1
