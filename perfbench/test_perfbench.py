"""Tests of the benchmark itself.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = inputs.load_reference()


def _run(args, cwd=ROOT, timeout=170):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def test_inputs_identical_per_seed_and_different_across_seeds():
    assert inputs.cold_inputs(REFERENCE, 3) == inputs.cold_inputs(REFERENCE, 3)
    assert inputs.cold_inputs(REFERENCE, 3) != inputs.cold_inputs(REFERENCE, 4)
    assert inputs.served_inputs(REFERENCE, 3, 5.0) == inputs.served_inputs(REFERENCE, 3, 5.0)
    assert inputs.served_inputs(REFERENCE, 3, 5.0) != inputs.served_inputs(REFERENCE, 4, 5.0)
    assert inputs.churn_ops(REFERENCE, 3, 200) == inputs.churn_ops(REFERENCE, 3, 200)
    assert inputs.churn_ops(REFERENCE, 3, 200) != inputs.churn_ops(REFERENCE, 4, 200)
    assert inputs.churn_texts() == inputs.churn_texts()


def test_every_generated_input_has_a_reference_answer():
    cold = REFERENCE["cold_verify"]["digests"]
    for name, question in inputs.cold_inputs(REFERENCE, 5).sequence:
        assert inputs.key_string([name, question]) in cold
    served = REFERENCE["served_zipf"]["digests"]
    for pair in inputs.served_inputs(REFERENCE, 5, 5.0).pairs:
        assert inputs.key_string(list(pair)) in served
    churn = REFERENCE["fleet_churn"]["digests"]
    for op in inputs.churn_ops(REFERENCE, 5, 300):
        if op.kind == "read":
            for company in inputs.churn_companies():
                assert inputs.key_string([company, 0, op.target]) in churn
        else:
            assert 0 <= op.variant <= inputs.CHURN_VARIANTS


def test_cold_sequence_keeps_the_model_mix_and_asks_each_question_once():
    sequence = inputs.cold_inputs(REFERENCE, 9).sequence
    assert len(set(sequence)) == len(sequence)
    names = [name for name, _ in sequence[:30]]
    assert names == [inputs.COLD_PATTERN[i % 3] for i in range(30)]


def test_churn_revisions_always_change_the_policy():
    current = {company: 0 for company in inputs.churn_companies()}
    for op in inputs.churn_ops(REFERENCE, 11, 500):
        if op.kind == "write":
            assert op.variant != current[op.target]
            current[op.target] = op.variant


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def _installed_attributes():
    return [tracing._resolve(module, path) for module, path, _, _ in tracing.WRAPPED]


def test_tracer_restores_every_wrapped_function():
    originals = [owner.__dict__[attr] for owner, attr in _installed_attributes()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(_installed_attributes(), originals):
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__perfbench_original__ is original
    finally:
        tracer.restore()
    for (owner, attr), original in zip(_installed_attributes(), originals):
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_traced_query_records_layer_spans_and_restores():
    from repro import PolicyPipeline
    from repro.corpus.generator import PolicyGenerator
    from repro.registry import MintSpec

    spec = MintSpec(count=1, seed=2)
    text = PolicyGenerator(spec.profile_of(0)).generate(spec.words_of(0)).text
    pipeline = PolicyPipeline()
    model = pipeline.process(text)
    originals = [owner.__dict__[attr] for owner, attr in _installed_attributes()]
    with tracing.Tracer() as tracer:
        root = tracer.open("op.read", "q1")
        pipeline.query(model, "The company collects the email address.")
        tracer.close(root)
    for (owner, attr), original in zip(_installed_attributes(), originals):
        assert owner.__dict__[attr] is original
    names = {span.name for span in tracer.spans}
    assert {"core.pipeline.query", "llm.parse", "core.encode", "smtlib.print",
            "smtlib.parse", "solver.check", "solver.ground", "solver.search"} <= names
    assert all(span.rid == "q1" and span.end >= span.start for span in tracer.spans)
    selfs = layers.self_times(tracer.spans)
    assert sum(selfs) == tracer.spans[root].end - tracer.spans[root].start
    metrics, details = layers.layer_metrics(tracer.spans, {"q1": "read"})
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert details["queries"] == 1
    assert metrics["core.caches.verification_entries"] == 1
    trace = tracer.chrome_trace()
    assert len(tracing.spans_from_chrome(trace)) == len(tracer.spans)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("parent", 0, 100),
        tracing.Span("a", 10, 40, parent=0),
        tracing.Span("b", 30, 60, parent=0),  # overlaps a (another thread)
        tracing.Span("c", 90, 130, parent=0),  # runs past the parent's end
    ]
    assert layers.self_times(spans) == [100 - 50 - 10, 30, 30, 40]


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_its_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0)
    # Too few samples for p90: the maximum, flagged unresolved.
    assert run.tail([float(i) for i in range(1, 100)]) == (99.0, None)


class _FanOut:
    def __init__(self, companies, outcomes):
        self.companies, self.outcomes = companies, outcomes

    def per_company(self):
        return list(zip(self.companies, self.outcomes))


def test_fan_out_check_fails_unless_every_company_answered_once():
    current = {"a": 0, "b": 0, "c": 0}
    result = workloads.RunResult()
    short = _FanOut(["a", "b", "c"], [None, None])  # an outcome went missing
    assert "expected" in workloads._check_fan_out(short, "q", current, {}, result)
    partial = _FanOut(["a", "b"], [None, None])
    assert "expected" in workloads._check_fan_out(partial, "q", current, {}, result)
    twice = _FanOut(["a", "a", "b", "c"], [None] * 4)
    assert "expected" in workloads._check_fan_out(twice, "q", current, {}, result)
    unanswered = _FanOut(["a", "b", "c"], [None] * 3)
    assert "no outcome" in workloads._check_fan_out(unanswered, "q", current, {}, result)


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _src_state():
    return sorted(
        (str(path), path.stat().st_mtime_ns)
        for path in (ROOT / "src").rglob("*")
        if path.is_file()
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_the_contract_line_and_leaves_src_untouched(trace):
    before = _src_state()
    proc = _run(["--workload", "fleet_churn", "--seed", "2", "--seconds", "1",
                 "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    group = "per_layer" if trace == "1" else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in bench[group]}
    for metric in bench[group]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert _src_state() == before


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cold_verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _recorded():
    recorded = json.loads((HERE / "recorded" / "seeds.json").read_text("utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return recorded, {m["name"]: m["bound"] for m in bench["end_to_end"]}


def test_recorded_sets_are_correct_and_agree_within_the_bounds():
    """Two sets of ten proving runs of the same code, one after the
    other: every run is correct, and each end-to-end median of the
    second set lies within its bound of the first's."""
    recorded, bounds = _recorded()
    first, second = recorded["sets"]
    assert set(first) == set(second) == set(workload_names())
    for workload in first:
        for record in (first[workload], second[workload]):
            assert record["all_correct"]
            assert set(record["runs"]) == set(record["raw_runs"]) == set(bounds)
        for name, bound in bounds.items():
            before = first[workload]["summary"][name]["median"]
            after = second[workload]["summary"][name]["median"]
            assert abs(after / before - 1) <= bound, (workload, name, before, after)


def test_recorded_run_on_an_unseen_seed_matches_the_tuned_seeds():
    """The seed-1000 runs were made once, after tuning on other seeds.
    They are correct, and no figure lies outside the range of the twenty
    proving runs widened by the metric's bound."""
    recorded, bounds = _recorded()
    for workload, unseen in recorded["unseen_seed_runs"].items():
        assert unseen["correct"] and unseen["failed"] == 0
        for name, bound in bounds.items():
            values = [v for s in recorded["sets"] for v in s[workload]["runs"][name]]
            value = unseen["metrics"][name]
            low = min(values) * (1 - bound)
            high = max(values) * (1 + bound)
            assert low <= value <= high, (workload, name, value, low, high)


def workload_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return [w["name"] for w in bench["workloads"]]
