"""The shared self-checking JSONL line: golden bytes, damage, torn tails.

The golden lines pin the on-disk format of the checkpoint journal and of
cassettes: both writers must keep producing exactly these bytes, so old
journals resume and old cassettes replay.
"""

from __future__ import annotations

import json

import pytest

from repro.core.verify import Verdict
from repro.jobs.checkpoint import JOURNAL_NAME, KIND_OUTCOME, CheckpointJournal
from repro.providers import RecordingLLM
from repro.store.envelope import (
    CHECKSUM,
    MISSING_FIELDS,
    NOT_AN_OBJECT,
    UNPARSEABLE,
    Damage,
    decode,
    encode,
    scan,
    truncate_torn_tail,
)

GOLDEN_JOURNAL_LINE = (
    b'{"record":{"index":3,"kind":"outcome","question":"Acme sells the '
    b'contact information.","trace":{"question":"Acme sells the contact '
    b'information.","verdict":"VALID"},"verdict":"VALID"},"sha256":'
    b'"edcc83c48d9dd440f4d022c216ff99a65acdd8bba65c0b6cf48b39e29950f4aa"}\n'
)

GOLDEN_CASSETTE_LINE = (
    b'{"record":{"completion":"completion::Extract the data practices.",'
    b'"digest":"487021b821acb03baedb49a203978e5808c11cfb169d46db4530595dc0f84e26",'
    b'"prompt":"Extract the data practices.","v":1},"sha256":'
    b'"d726d4fcb5280004446283d27d823abb7e2d27080ab9ff533ae2cb3e131e12da"}\n'
)


class EchoLLM:
    def complete(self, prompt: str) -> str:
        return f"completion::{prompt}"


class TestGoldenBytes:
    def test_journal_writes_the_golden_line(self, tmp_path):
        question = "Acme sells the contact information."
        with CheckpointJournal(tmp_path, fsync=False) as journal:
            journal.append_result(
                3,
                question,
                KIND_OUTCOME,
                Verdict.VALID,
                {"question": question, "verdict": "VALID"},
            )
        assert (tmp_path / JOURNAL_NAME).read_bytes() == GOLDEN_JOURNAL_LINE

    def test_recorder_writes_the_golden_line(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        with RecordingLLM(EchoLLM(), path, fsync=False) as recorder:
            recorder.complete("Extract the data practices.")
        assert path.read_bytes() == GOLDEN_CASSETTE_LINE


class TestDecode:
    def test_round_trip(self):
        record = {"b": [1, 2], "a": "x"}
        assert decode(encode(record)) == record

    @pytest.mark.parametrize(
        "line, kind",
        [
            ("{not json", UNPARSEABLE),
            ("[1, 2, 3]", NOT_AN_OBJECT),
            (json.dumps({"sha256": "abc"}), MISSING_FIELDS),
            (encode({"a": 1}).replace('"a":1', '"a":2'), CHECKSUM),
        ],
    )
    def test_damage_is_typed(self, line, kind):
        damage = decode(line)
        assert isinstance(damage, Damage) and damage.kind == kind

    def test_record_check_runs_after_the_checksum(self):
        def needs_name(record):
            return None if "name" in record else Damage(MISSING_FIELDS, "no name")

        assert decode(encode({"name": "x"}), needs_name) == {"name": "x"}
        assert decode(encode({}), needs_name) == Damage(MISSING_FIELDS, "no name")


class TestScan:
    def test_only_a_newline_less_last_line_is_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = encode({"n": 1})
        path.write_text(f"{good}\n\n{{bad\n{good}\n{good[:10]}", encoding="utf-8")
        lines = scan(path)
        assert [line.number for line in lines] == [1, 3, 4, 5]
        assert [line.torn for line in lines] == [False, False, False, True]
        assert [line.record is None for line in lines] == [False, True, False, True]
        assert lines[1].damage.kind == UNPARSEABLE
        assert lines[0].text == good

    def test_terminated_file_has_no_torn_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("{bad\n", encoding="utf-8")
        (line,) = scan(path)
        assert line.damage is not None and not line.torn


class TestTruncateTornTail:
    def test_cuts_back_to_the_last_newline(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"one\ntwo\nthr")
        assert truncate_torn_tail(path)
        assert path.read_bytes() == b"one\ntwo\n"
        assert not truncate_torn_tail(path)

    def test_single_torn_line_truncates_to_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"x" * 10_000)
        assert truncate_torn_tail(path)
        assert path.read_bytes() == b""

    def test_missing_and_empty_files_are_left_alone(self, tmp_path):
        assert not truncate_torn_tail(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert not truncate_torn_tail(empty)
