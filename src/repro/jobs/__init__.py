"""Supervised batch jobs: watchdog, admission control, checkpoint/resume.

The one engine behind
:meth:`~repro.core.pipeline.PolicyPipeline.query_batch`, ``run_job`` and
fleet queries: a :class:`JobRunner` runs a question suite with per-query
heartbeats and a stall watchdog (hung workers are cooperatively cancelled
and replaced, their slots filled with structured UNKNOWNs), a bounded
admission gate (backpressure by default, load shedding above a
configurable depth), and an append-only fsync'd checkpoint journal so a
killed job resumes from its last committed record instead of starting
over.

Typical use::

    from repro.jobs import JobConfig, JobRunner

    runner = JobRunner(pipeline, model, JobConfig(
        checkpoint_dir="audit.ckpt", stall_after=60.0,
    ))
    result = runner.run(questions)        # Ctrl-C drains gracefully
    if result.aborted:
        result = JobRunner(pipeline, model, runner.config).resume()

Deterministic fault injection for the supervision tests lives in
:mod:`repro.jobs.faults` (imported explicitly, not re-exported — test
infrastructure).
"""

from repro.jobs.checkpoint import (
    CheckpointJournal,
    CheckpointedOutcome,
    JournalRecovery,
    read_journal,
)
from repro.jobs.config import JobConfig
from repro.jobs.runner import (
    JobResult,
    JobRunner,
    ShedOutcome,
    StallOutcome,
)
from repro.jobs.watchdog import MonotonicClock, StallReport, Watchdog

__all__ = [
    "CheckpointJournal",
    "CheckpointedOutcome",
    "JobConfig",
    "JobResult",
    "JobRunner",
    "JournalRecovery",
    "MonotonicClock",
    "ShedOutcome",
    "StallOutcome",
    "StallReport",
    "Watchdog",
    "read_journal",
]
