"""Crash matrix: kill the job at every journal boundary, then resume.

The checkpoint journal reports its append/fsync steps through the same
:data:`~repro.store.atomic.StepHook` seam as the snapshot store, so the
matrix is *enumerated*, not hand-coded: a recording run captures the full
step schedule (``append:header``, ``sync:header``, ``append:record:i``,
``sync:record:i``, ...), and one test case kills the job at each
boundary.  After every kill, a fresh runner resumes and must produce a
final outcome list byte-identical to an uninterrupted run — and must
never re-execute a query whose record survived the crash.

Single-worker runs pin the journal order to question order, making the
schedule (and therefore the matrix) deterministic.  Marked ``chaos`` and
``crash``: run with ``pytest -m crash``.
"""

from __future__ import annotations

import json

import pytest

from repro import JobConfig, JobRunner
from repro.jobs import read_journal
from repro.jobs.checkpoint import JOURNAL_NAME
from repro.jobs.faults import CountingQueryFn
from repro.store.faults import CrashInjector, SimulatedCrash, kill_points

pytestmark = [pytest.mark.chaos, pytest.mark.crash]

QUESTIONS = [
    "Acme collects the email address.",
    "Acme shares the usage information with analytics providers.",
    "Acme sells the contact information.",
    "Does Acme collect my name?",
]


def _trace(outcome) -> str:
    return json.dumps(outcome.as_dict(), sort_keys=True)


def _config(tmp_path) -> JobConfig:
    return JobConfig(
        max_workers=1,  # pins journal order: the matrix is deterministic
        checkpoint_dir=str(tmp_path / "ckpt"),
        handle_signals=False,
    )


@pytest.fixture(scope="module")
def baseline(pipeline, small_model):
    """Sequential ``pipeline.query`` traces: what every resume must equal."""
    return [_trace(pipeline.query(small_model, q)) for q in QUESTIONS]


@pytest.fixture(scope="module")
def schedule(pipeline, small_model, tmp_path_factory):
    """The journal's full step schedule, recorded from one clean run."""
    tmp_path = tmp_path_factory.mktemp("schedule")
    injector = CrashInjector()
    runner = JobRunner(
        pipeline, small_model, _config(tmp_path), journal_step=injector
    )
    result = runner.run(QUESTIONS)
    assert result.pending == []
    return list(injector.steps)


class TestSchedule:
    def test_every_record_has_an_append_and_a_sync(self, schedule):
        assert schedule[:2] == ["append:header", "sync:header"]
        for index in range(len(QUESTIONS)):
            assert f"append:record:{index}" in schedule
            assert f"sync:record:{index}" in schedule
        # One kill point per boundary: header + one record per question.
        assert len(schedule) == 2 + 2 * len(QUESTIONS)

    def test_single_worker_order_is_question_order(self, schedule):
        records = [s for s in schedule if s.startswith("append:record:")]
        assert records == [
            f"append:record:{i}" for i in range(len(QUESTIONS))
        ]


class TestKillMatrix:
    def _kill_and_resume(self, pipeline, small_model, tmp_path, step, occurrence):
        """Kill one run at (step, occurrence); resume; return both halves."""
        config = _config(tmp_path)
        injector = CrashInjector(crash_at=step, occurrence=occurrence)
        runner = JobRunner(
            pipeline, small_model, config, journal_step=injector
        )
        with pytest.raises(SimulatedCrash):
            runner.run(QUESTIONS)

        # What the journal can vouch for after the kill is exactly what
        # resume may trust; everything else must be re-executed once.
        recovery = read_journal(tmp_path / "ckpt" / JOURNAL_NAME)
        counting = CountingQueryFn(pipeline, small_model)
        resumed = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        return recovery, counting, resumed

    def test_kill_at_every_journal_boundary_resumes_byte_identical(
        self, pipeline, small_model, tmp_path_factory, schedule, baseline
    ):
        matrix = kill_points(schedule)
        assert len(matrix) == len(schedule)
        for step, occurrence in matrix:
            tmp_path = tmp_path_factory.mktemp("kill")
            recovery, counting, resumed = self._kill_and_resume(
                pipeline, small_model, tmp_path, step, occurrence
            )
            context = f"killed at {step!r} (occurrence {occurrence})"

            if recovery.header is None:
                # Died before the header was durable: nothing to resume
                # from, and resume() must refuse rather than guess.
                assert step in ("append:header", "sync:header"), context
                continue

            committed = set(recovery.completed)
            expected_reruns = {
                i for i in range(len(QUESTIONS)) if i not in committed
            }
            # No query executed twice past its committed record — and
            # every pending one executed exactly once.
            assert counting.by_index == {
                i: 1 for i in sorted(expected_reruns)
            }, context
            assert resumed.restored == len(committed), context
            assert resumed.pending == [], context
            assert not resumed.aborted, context
            assert [_trace(o) for o in resumed.outcomes] == baseline, context

    def test_torn_header_requires_fresh_start(
        self, pipeline, small_model, tmp_path, baseline
    ):
        from repro import JobError

        config = _config(tmp_path)
        injector = CrashInjector(crash_at="append:header")
        with pytest.raises(SimulatedCrash):
            JobRunner(
                pipeline, small_model, config, journal_step=injector
            ).run(QUESTIONS)
        # The append itself is flushed before the hook fires, so model the
        # OS losing the un-fsynced tail: tear the header line in half.
        path = tmp_path / "ckpt" / JOURNAL_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        # The torn header is untrusted; resume() without the suite refuses,
        # with the suite it starts the job from scratch.
        with pytest.raises(JobError):
            JobRunner(pipeline, small_model, config).resume()
        result = JobRunner(pipeline, small_model, config).resume(QUESTIONS)
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_crash_during_resume_then_resume_again(
        self, pipeline, small_model, tmp_path, baseline
    ):
        config = _config(tmp_path)
        # First kill: one record committed.
        with pytest.raises(SimulatedCrash):
            JobRunner(
                pipeline,
                small_model,
                config,
                journal_step=CrashInjector(crash_at="sync:record:0"),
            ).run(QUESTIONS)
        # The resume itself dies one record further in.
        with pytest.raises(SimulatedCrash):
            JobRunner(
                pipeline,
                small_model,
                config,
                journal_step=CrashInjector(crash_at="sync:record:1"),
            ).resume()
        # Second resume completes; records 0 and 1 restored, 2 and 3 run.
        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {2: 1, 3: 1}
        assert result.restored == 2
        assert [_trace(o) for o in result.outcomes] == baseline

    def test_records_committed_after_torn_tail_resume_stay_durable(
        self, pipeline, small_model, tmp_path, baseline
    ):
        # Crash-tear-resume-crash-resume: reopening a torn journal must
        # repair the tear first, or the resumed run's appends coalesce
        # onto the fragment and every record it fsync'd falls outside the
        # trusted prefix of the *next* recovery — silently re-losing work
        # the journal claimed was durable.
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            JobRunner(
                pipeline,
                small_model,
                config,
                journal_step=CrashInjector(crash_at="append:record:1"),
            ).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 25])  # the kill tears record 1

        resumed = JobRunner(pipeline, small_model, config).resume()
        assert resumed.restored == 1  # only record 0 survived the tear
        assert [_trace(o) for o in resumed.outcomes] == baseline

        # Everything the resumed run committed must be readable by the
        # next recovery: re-read the journal and resume once more.
        recovery = read_journal(path)
        assert not recovery.torn_tail
        assert sorted(recovery.completed) == list(range(len(QUESTIONS)))
        counting = CountingQueryFn(pipeline, small_model)
        final = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {}  # nothing re-executed
        assert final.restored == len(QUESTIONS)
        assert [_trace(o) for o in final.outcomes] == baseline

    def test_torn_tail_after_kill_is_recovered(
        self, pipeline, small_model, tmp_path, baseline
    ):
        # A kill can tear the in-flight append: simulate by truncating the
        # journal mid-record after a crash between append and sync.
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            JobRunner(
                pipeline,
                small_model,
                config,
                journal_step=CrashInjector(crash_at="append:record:2"),
            ).run(QUESTIONS)
        path = tmp_path / "ckpt" / JOURNAL_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 25])  # tear the final record

        recovery = read_journal(path)
        assert recovery.torn_tail
        assert sorted(recovery.completed) == [0, 1]
        counting = CountingQueryFn(pipeline, small_model)
        result = JobRunner(
            pipeline, small_model, config, query_fn=counting
        ).resume()
        assert counting.by_index == {2: 1, 3: 1}
        assert [_trace(o) for o in result.outcomes] == baseline
