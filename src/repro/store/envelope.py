"""The self-checking JSONL line shared by every append-only log.

One line carries one record inside an envelope::

    {"record": {...}, "sha256": "<hex digest of the record's canonical JSON>"}

where canonical JSON means sorted keys and no whitespace.  The checkpoint
journal (:mod:`repro.jobs.checkpoint`) and LLM cassettes
(:mod:`repro.providers.cassette`) append such lines through
:func:`repro.store.atomic.append_durable_line`.  Their loaders, the
integrity walkers and the repair planner all read them back through
:func:`scan`, so what a loader refuses is exactly what ``fsck`` reports.

A crash mid-append leaves a *torn tail*: a final line with no newline.
:func:`scan` flags it, and a writer calls :func:`truncate_torn_tail`
before reopening the file for append; otherwise the next record would be
glued onto the fragment and lost with it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Kinds of damage :func:`decode` reports (``Damage.kind``).
UNPARSEABLE = "unparseable"
NOT_AN_OBJECT = "not-an-object"
MISSING_FIELDS = "missing-fields"
CHECKSUM = "checksum"


@dataclass(frozen=True, slots=True)
class Damage:
    """Why one line cannot be trusted."""

    kind: str
    reason: str  # human-readable; what load reports and fsck findings quote


#: A format's own check on a record whose envelope verified: ``None``
#: when the record is acceptable, its :class:`Damage` otherwise.
RecordCheck = Callable[[dict], "Damage | None"]


@dataclass(frozen=True, slots=True)
class ScannedLine:
    """One non-blank line of an enveloped log, decoded."""

    number: int  # 1-based
    text: str  # the line as stored, without its newline
    record: dict | None
    damage: Damage | None
    torn: bool  # the final line, with no newline: an interrupted append


def _digest(record: dict) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode(record: dict) -> str:
    """Envelope ``record`` as one line (no trailing newline)."""
    return json.dumps(
        {"sha256": _digest(record), "record": record},
        sort_keys=True,
        separators=(",", ":"),
    )


def decode(line: str, check: RecordCheck | None = None) -> dict | Damage:
    """The record ``line`` carries, or the :class:`Damage` that refuses it."""
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        return Damage(UNPARSEABLE, f"unparseable JSON: {exc}")
    if not isinstance(envelope, dict):
        return Damage(NOT_AN_OBJECT, "envelope is not an object")
    record = envelope.get("record")
    declared = envelope.get("sha256")
    if not isinstance(record, dict) or not isinstance(declared, str):
        return Damage(MISSING_FIELDS, "envelope missing record/sha256")
    if _digest(record) != declared:
        return Damage(CHECKSUM, "checksum mismatch")
    damage = None if check is None else check(record)
    return record if damage is None else damage


def scan(path: str | Path, check: RecordCheck | None = None) -> list[ScannedLine]:
    """Decode every non-blank line of ``path``, in order.

    Lines are split on ``\\n`` only (the separator writers append) and
    decoded as UTF-8 with replacement, so damaged bytes become a damaged
    line rather than an exception.  Raises ``OSError`` when the file
    cannot be read.
    """
    chunks = Path(path).read_bytes().split(b"\n")
    lines = []
    for number, chunk in enumerate(chunks, start=1):
        text = chunk.decode("utf-8", errors="replace")
        if not text.strip():
            continue
        result = decode(text, check)
        damaged = isinstance(result, Damage)
        lines.append(
            ScannedLine(
                number=number,
                text=text,
                record=None if damaged else result,
                damage=result if damaged else None,
                # A newline-terminated file ends in an empty chunk, so a
                # non-blank last chunk is exactly a newline-less tail.
                torn=number == len(chunks),
            )
        )
    return lines


def truncate_torn_tail(path: str | Path) -> bool:
    """Cut a torn (newline-less) final line back to the last newline.

    Returns True when a tear was found and removed; a missing or cleanly
    terminated file is left alone.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return False
    with handle:
        data = handle.read()
        if not data or data.endswith(b"\n"):
            return False
        handle.truncate(data.rfind(b"\n") + 1)
        handle.flush()
        os.fsync(handle.fileno())
    return True
