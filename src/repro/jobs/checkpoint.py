"""Append-only, crash-resumable checkpoint journal for batch jobs.

One journal file (``journal.jsonl``) per job: a header record naming the
question list and model identity, then one record per completed query in
completion order.  Every line is the self-checking envelope of
:mod:`repro.store.envelope` — ``{"sha256": <hex>, "record": {...}}`` with
the digest taken over the canonical JSON of the record — appended through
:func:`repro.store.atomic.append_durable_line` (write + flush + fsync), so
a kill can lose at most the record being appended.

Recovery (:func:`read_journal`) tolerates exactly the corruptions an
append-only log can suffer:

* a **torn tail** — the final line was cut mid-write by a crash; it fails
  to parse (or fails its checksum) and the journal recovers to the last
  complete prefix.  :class:`CheckpointJournal` also *repairs* the tear on
  reopen (truncating back to the last newline) — otherwise the resumed
  run's first append would coalesce onto the torn fragment and every
  record committed after the crash would fall outside the trusted prefix
  of the *next* recovery;
* a **duplicated record** — an append replayed after an ill-timed crash;
  the first occurrence of an index wins and the duplicate is counted, not
  trusted.

Anything *before* the tail that fails its checksum is real corruption:
recovery stops at it (prefix semantics), reports it, and the resumed job
re-executes everything past that point — never trusts a damaged record.

Restored results come back as :class:`CheckpointedOutcome`: a verdict plus
the exact trace dict the original outcome serialized, so a resumed job's
final outcome list is byte-identical (``as_dict`` for ``as_dict``) to an
uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.core.metrics import PipelineMetrics
from repro.core.verify import Verdict
from repro.store.atomic import StepHook, append_durable_line, fsync_dir
from repro.store.envelope import (
    MISSING_FIELDS,
    Damage,
    ScannedLine,
    encode,
    scan,
    truncate_torn_tail,
)

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1

#: Record kinds a journal line may carry.
KIND_HEADER = "header"
KIND_OUTCOME = "outcome"  # QueryOutcome trace
KIND_ERROR = "error"  # ErrorOutcome trace (fault-isolated failure)
KIND_STALL = "stall"  # StallOutcome trace (watchdog replacement)
KIND_SHED = "shed"  # ShedOutcome trace (refused by admission control)


def questions_digest(questions: list[str]) -> str:
    """The digest binding a journal header to its question suite."""
    return hashlib.sha256("\n".join(questions).encode("utf-8")).hexdigest()


def _check_record(record: dict) -> Damage | None:
    if record.get("kind") != KIND_HEADER and not isinstance(record.get("index"), int):
        return Damage(MISSING_FIELDS, "record has no integer index")
    return None


def scan_journal(path: str | Path) -> list[ScannedLine]:
    """Every non-blank journal line, decoded; a result record without an
    integer index counts as damaged (see :func:`repro.store.envelope.scan`)."""
    return scan(path, _check_record)


@dataclass(slots=True)
class JournalRecovery:
    """What :func:`read_journal` found (and refused to trust)."""

    header: dict | None = None
    completed: dict[int, dict] = field(default_factory=dict)
    records_read: int = 0
    torn_tail: bool = False  # final line incomplete or checksum-invalid
    duplicates: int = 0  # replayed appends dropped (first occurrence wins)

    def summary(self) -> str:
        parts = [f"{len(self.completed)} completed records"]
        if self.torn_tail:
            parts.append("torn tail dropped")
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate records ignored")
        return "journal recovery: " + ", ".join(parts)


def read_journal(path: str | Path) -> JournalRecovery:
    """Recover the last complete prefix of a checkpoint journal.

    Lines are consumed in order; the first line that fails to parse or
    fails its checksum ends the trusted prefix (everything after it is
    ignored — an append-only log has no way to vouch for records past a
    corruption).  Duplicate indices within the prefix are dropped.
    """
    recovery = JournalRecovery()
    path = Path(path)
    if not path.exists():
        return recovery
    for line in scan_journal(path):
        record = line.record
        if record is None:
            recovery.torn_tail = True
            break
        recovery.records_read += 1
        if record.get("kind") == KIND_HEADER:
            if recovery.header is None:
                recovery.header = record
            continue
        index = record["index"]
        if index in recovery.completed:
            recovery.duplicates += 1
            continue
        recovery.completed[index] = record
    return recovery


@dataclass(slots=True)
class CheckpointedOutcome:
    """A finished result restored from the journal instead of re-executed.

    Holds the exact trace dict the original outcome serialized, so
    ``as_dict()`` — and therefore any serialized comparison of a resumed
    run against an uninterrupted one — is byte-identical.  Restored
    outcomes carry empty metrics (the work was paid for before the crash;
    ``JobResult.restored`` counts them).
    """

    question: str
    kind: str  # KIND_OUTCOME / KIND_ERROR / KIND_STALL
    verdict: Verdict
    trace: dict
    metrics: PipelineMetrics = field(
        default_factory=lambda: PipelineMetrics(queries=0)
    )

    @property
    def failed(self) -> bool:
        return self.kind == KIND_ERROR

    @property
    def restored(self) -> bool:
        return True

    def summary(self) -> str:
        return (
            f"query: {self.question}\n"
            f"verdict: {self.verdict} (restored from checkpoint)"
        )

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        return self.trace


class CheckpointJournal:
    """Writer half of the journal: fsync'd appends, one open handle.

    Opening an existing journal repairs a torn tail first (see
    :func:`~repro.store.envelope.truncate_torn_tail`); :attr:`repaired_tail`
    records whether a tear was found.  Not thread-safe by itself — the
    :class:`~repro.jobs.runner.JobRunner` serializes appends under its
    commit lock, which also pins the record order for a single-worker run.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = True,
        step: StepHook | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self.fsync = fsync
        self._step = step
        self.records_written = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        self.repaired_tail = existed and truncate_torn_tail(self.path)
        self._handle: IO[str] = open(self.path, "a", encoding="utf-8")
        if not existed:
            # Make the (empty) journal itself durable before any record,
            # so a crash between creation and the first append cannot
            # resurrect an older unlinked file.
            fsync_dir(self.directory)

    def write_header(
        self,
        questions: list[str],
        *,
        company: str,
        revision: int,
    ) -> None:
        digest = questions_digest(list(questions))
        self._append(
            {
                "kind": KIND_HEADER,
                "version": JOURNAL_VERSION,
                "company": company,
                "revision": revision,
                "questions": list(questions),
                "questions_sha256": digest,
            },
            label="header",
        )

    def append_result(
        self, index: int, question: str, kind: str, verdict: Verdict, trace: dict
    ) -> None:
        self._append(
            {
                "kind": kind,
                "index": index,
                "question": question,
                "verdict": verdict.value,
                "trace": trace,
            },
            label=f"record:{index}",
        )

    def _append(self, record: dict, *, label: str) -> None:
        append_durable_line(
            self._handle,
            encode(record),
            fsync=self.fsync,
            step=self._step,
            label=label,
        )
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self.fsync:
                try:
                    os.fsync(self._handle.fileno())
                except OSError:  # pragma: no cover - handle already gone
                    pass
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def restore_outcome(record: dict) -> CheckpointedOutcome:
    """A :class:`CheckpointedOutcome` for one recovered journal record."""
    return CheckpointedOutcome(
        question=str(record.get("question", "")),
        kind=str(record.get("kind", KIND_OUTCOME)),
        verdict=Verdict(record.get("verdict", Verdict.UNKNOWN.value)),
        trace=dict(record.get("trace", {})),
    )
