"""Record/replay cassettes: real-provider runs become offline fixtures.

A cassette is an append-only JSONL file of prompt→completion pairs keyed
by prompt digest (:func:`~repro.llm.client.prompt_fingerprint`).  Each
line is the self-checking envelope of :mod:`repro.store.envelope` —
``{"sha256": <hex of canonical record>, "record": {...}}`` — appended
through :func:`repro.store.atomic.append_durable_line` (write + flush +
fsync), so a kill mid-recording loses at most the pair being appended
and never corrupts earlier ones.

:class:`RecordingLLM` wraps a live backend and captures every completion
it produces; :class:`ReplayLLM` serves a cassette back deterministically
with no backend at all.  The composition is content-addressed, not
call-ordered: any worker count, any arrival order, any retry schedule
replays to the same completions, which is what makes a recorded
real-policy run a stable tier-1 fixture.

Replay loading tolerates exactly the damage an append-only log can
suffer — torn tails, checksum-failed lines, garbage bytes — by skipping
the bad line and reporting it in a structured
:class:`CassetteReport`; a damaged cassette degrades to a smaller one,
it never crashes replay.  Duplicate digests are first-wins (two workers
may race to record the same prompt; both wrote the same completion).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CassetteError, CassetteMissError
from repro.llm.client import LLMClient, UsageStats, prompt_fingerprint
from repro.store.atomic import StepHook, append_durable_line, atomic_write_json
from repro.store.envelope import (
    MISSING_FIELDS,
    Damage,
    ScannedLine,
    encode,
    scan,
    truncate_torn_tail,
)

CASSETTE_VERSION = 1

#: Suffix of the damage sidecar written next to a cassette whose load
#: skipped lines, so ``fsck`` can report cassette damage observed by a
#: real replay run without replaying the cassette itself.
SIDECAR_SUFFIX = ".integrity.json"

#: Damage kind for a record whose digest names a different prompt.
DIGEST_MISMATCH = "digest-mismatch"


def cassette_line(prompt: str, completion: str) -> str:
    """Envelope one prompt→completion pair as a self-checking JSONL line."""
    return encode(
        {
            "v": CASSETTE_VERSION,
            "digest": prompt_fingerprint(prompt),
            "prompt": prompt,
            "completion": completion,
        }
    )


def _check_pair(record: dict) -> Damage | None:
    fields = [record.get(key) for key in ("digest", "prompt", "completion")]
    if not all(isinstance(value, str) for value in fields):
        return Damage(MISSING_FIELDS, "record missing digest/prompt/completion")
    if prompt_fingerprint(record["prompt"]) != record["digest"]:
        return Damage(DIGEST_MISMATCH, "digest does not match prompt")
    return None


def scan_cassette(path: str | Path) -> list[ScannedLine]:
    """Every non-blank cassette line, decoded; a record that is not a
    well-formed, correctly keyed pair counts as damaged (see
    :func:`repro.store.envelope.scan`)."""
    return scan(path, _check_pair)


@dataclass(slots=True)
class SkippedLine:
    """One cassette line that could not be trusted, and why."""

    line_number: int  # 1-based
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {"line_number": self.line_number, "reason": self.reason}


@dataclass(slots=True)
class CassetteReport:
    """Structured account of a cassette load."""

    path: str
    entries: int = 0  # distinct digests loaded
    duplicates: int = 0  # repeated digests (first occurrence wins)
    skipped: list[SkippedLine] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "entries": self.entries,
            "duplicates": self.duplicates,
            "skipped": [line.as_dict() for line in self.skipped],
        }


def sidecar_path(path: str | Path) -> Path:
    """Where a cassette's damage sidecar lives (``<cassette>.integrity.json``)."""
    return Path(str(path) + SIDECAR_SUFFIX)


def persist_cassette_report(report: CassetteReport) -> Path | None:
    """Persist damage a cassette load observed; drop the sidecar when clean.

    Called by :class:`RecordingLLM` and :class:`ReplayLLM` after every
    load: skipped (torn/corrupt) lines are written atomically next to
    the cassette so a later ``fsck`` can report the damage without a
    full replay, and a clean load removes any stale sidecar so the two
    never disagree.  Returns the sidecar path when one was written.
    """
    side = sidecar_path(report.path)
    if report.skipped:
        atomic_write_json(side, {"v": CASSETTE_VERSION, **report.as_dict()})
        return side
    try:
        side.unlink()
    except FileNotFoundError:
        pass
    except OSError:  # pragma: no cover - unwritable parent; load proceeds
        pass
    return None


def load_cassette(path: str | Path) -> tuple[dict[str, str], CassetteReport]:
    """Load a cassette into a digest→completion map, skipping damage.

    A missing file is an empty cassette (strict replay then reports every
    lookup as a miss — loudly — rather than the load crashing first).
    """
    path = Path(path)
    table: dict[str, str] = {}
    report = CassetteReport(path=str(path))
    if not path.exists():
        return table, report
    try:
        lines = scan_cassette(path)
    except OSError as exc:
        raise CassetteError(f"cassette {path} is unreadable: {exc}") from exc
    for line in lines:
        if line.damage is not None:
            report.skipped.append(
                SkippedLine(line_number=line.number, reason=line.damage.reason)
            )
            continue
        digest = line.record["digest"]
        if digest in table:
            report.duplicates += 1
            continue
        table[digest] = line.record["completion"]
    report.entries = len(table)
    return table, report


class RecordingLLM:
    """Capture every completion the inner backend produces into a cassette.

    Thread-safe and dedup-on-write: concurrent workers completing the
    same prompt record it once (first caller wins the append).  The file
    handle stays open for the wrapper's lifetime so every append is one
    write + flush + fsync, and :meth:`close` (or use as a context
    manager) releases it.  Appending to an existing cassette extends it:
    a torn tail left by a crash is truncated first (:attr:`repaired_tail`
    records whether one was found), then already-recorded digests are
    loaded and never re-appended.
    """

    def __init__(
        self,
        inner: LLMClient,
        path: str | Path,
        *,
        fsync: bool = True,
        stats: UsageStats | None = None,
        step: StepHook | None = None,
    ) -> None:
        self._inner = inner
        self._path = Path(path)
        self._fsync = fsync
        self._step = step
        self.stats = stats if stats is not None else UsageStats()
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # Cut a tear left by a crash mid-append first: the next pair would
        # otherwise be appended onto the fragment and skipped with it.
        self.repaired_tail = truncate_torn_tail(self._path)
        self._recorded, self.report = load_cassette(self._path)
        persist_cassette_report(self.report)
        self._handle = open(self._path, "a", encoding="utf-8")

    @property
    def path(self) -> Path:
        return self._path

    def complete(self, prompt: str) -> str:
        completion = self._inner.complete(prompt)
        digest = prompt_fingerprint(prompt)
        with self._lock:
            if self._handle is None:
                raise CassetteError(f"cassette {self._path} is closed for recording")
            if digest not in self._recorded:
                append_durable_line(
                    self._handle,
                    cassette_line(prompt, completion),
                    fsync=self._fsync,
                    step=self._step,
                    label=digest[:12],
                )
                self._recorded[digest] = completion
                self.stats.cassette_records += 1
        return completion

    def __len__(self) -> int:
        with self._lock:
            return len(self._recorded)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RecordingLLM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplayLLM:
    """Serve a recorded cassette deterministically; no backend required.

    In strict mode (the default) an unknown prompt raises a typed
    :class:`~repro.errors.CassetteMissError` carrying the prompt digest,
    so an incomplete fixture fails loudly with exactly the inputs a
    re-recording run must cover.  With ``fallback`` set, misses delegate
    to that client instead (useful for incrementally extending a cassette
    behind a :class:`RecordingLLM`).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        strict: bool = True,
        fallback: LLMClient | None = None,
        stats: UsageStats | None = None,
    ) -> None:
        self._path = Path(path)
        self.strict = strict
        self._fallback = fallback
        self.stats = stats if stats is not None else UsageStats()
        self._lock = threading.Lock()
        self._table, self.report = load_cassette(self._path)
        persist_cassette_report(self.report)

    @property
    def path(self) -> Path:
        return self._path

    def complete(self, prompt: str) -> str:
        digest = prompt_fingerprint(prompt)
        with self._lock:
            hit = self._table.get(digest)
            if hit is not None:
                self.stats.cassette_replays += 1
                return hit
            self.stats.cassette_misses += 1
        if self._fallback is not None:
            return self._fallback.complete(prompt)
        if self.strict:
            raise CassetteMissError(
                f"cassette {self._path} has no completion for prompt "
                f"digest {digest[:12]}… ({len(self._table)} entries loaded)",
                prompt_digest=digest,
            )
        raise CassetteMissError(
            f"cassette {self._path} missed digest {digest[:12]}… and no "
            "fallback client is configured",
            prompt_digest=digest,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)
