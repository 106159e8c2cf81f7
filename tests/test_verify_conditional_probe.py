"""The conditional-validity probe on the main check's solver.

An INVALID verdict that depends on vague (uninterpreted) conditions gets
a second question: would the query follow if every vague condition held?
In-process, :func:`verify_encoded` asks it as a ``check-sat-assuming`` on
the instance that just answered the main check; the process backend,
which has no in-process instance, loads one for it.  Either way the
answer must equal the one a fresh solver gives — built here, in the test,
the way the probe used to build it.

Covered: the INVALID-with-uninterpreted questions among a fixed stride
sample of the statements the bundled TikTak and MetaBook models yield,
plus named ones whose conditions do not rescue the query; certification
off and on; the thread backend and (``procpool`` lane) the process
backend.
"""

from __future__ import annotations

import pytest

from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.core.metrics import PipelineMetrics
from repro.core.questions import _third_person
from repro.core.verify import verify_encoded
from repro.corpus import metabook_policy
from repro.errors import QueryError
from repro.fol.builder import negate
from repro.fol.formula import PredicateSymbol
from repro.procpool import ProcPoolConfig
from repro.solver import CertificationConfig, SatResult, Solver, SolverBudget

CERTIFICATION = {"uncertified": None, "certified": CertificationConfig()}


def statements(model) -> list[str]:
    """Every distinct statement question the model's practices yield."""
    out = set()
    for practice in model.extraction.practices:
        params = practice.params
        if params.sender != model.company or len(params.data_type.split()) > 4:
            continue
        text = f"{model.company} {_third_person(params.action)} {params.data_type}"
        if params.receiver:
            text += f" with {params.receiver}"
        out.add(text + ".")
    return sorted(out)


def fresh_probe(encoded, budget: SolverBudget) -> bool | None:
    """The probe on a solver of its own: policy ∧ ¬query, then assume
    every vague condition true."""
    solver = Solver(budget=budget)
    for formula in encoded.policy_formulas:
        solver.assert_formula(formula)
    solver.assert_formula(negate(encoded.query_formula))
    assumptions = [
        PredicateSymbol(name, (), uninterpreted=True, source_text=source)()
        for name, source in sorted(encoded.uninterpreted.items())
    ]
    status = solver.check_sat_assuming(assumptions).status
    return {SatResult.UNSAT: True, SatResult.SAT: False}.get(status)


#: Every n-th statement per model, in sorted order: the models yield
#: 815 (TikTak) and 1,622 (MetaBook) statements, too many to ask here.
STRIDE = {"TikTak": 20, "MetaBook": 80}

#: Statements whose vague conditions do not rescue the query (the probe
#: answers False); rare among the statements, so named outright.
NOT_RESCUED = (
    "TikTak deletes watch history.",
    "TikTak shares watch history with advertisers.",
)


@pytest.fixture(scope="module")
def vague_invalid(pipeline, tiktak_model):
    """(label, encoded query, fresh-probe answer) for the sampled INVALID
    queries that depend on an uninterpreted condition."""
    cases = []
    for model in (tiktak_model, pipeline.process(metabook_policy().text)):
        questions = statements(model)[:: STRIDE[model.company]]
        if model.company == "TikTak":
            questions += NOT_RESCUED
        for question in questions:
            try:
                outcome = pipeline.query(model, question)
            except QueryError:
                continue  # no data practice in this phrasing
            if outcome.verdict is not Verdict.INVALID:
                continue
            if not outcome.encoded.uninterpreted:
                continue
            budget = pipeline.config.solver_budget
            cases.append(
                (f"{model.company}: {question}", outcome.encoded,
                 fresh_probe(outcome.encoded, budget))
            )
    answers = [expected for _label, _encoded, expected in cases]
    # Both answers occur, so equality is not satisfied vacuously.
    assert answers.count(True) >= 20 and answers.count(False) >= 2, answers
    return cases


@pytest.mark.parametrize("certify", sorted(CERTIFICATION))
def test_thread_backend_probe_equals_fresh_solver(pipeline, vague_invalid, certify):
    budget = pipeline.config.solver_budget
    for label, encoded, expected in vague_invalid:
        result = verify_encoded(
            encoded, budget=budget, certification=CERTIFICATION[certify]
        )
        assert result.verdict is Verdict.INVALID, label
        assert result.conditionally_valid == expected, label


@pytest.mark.procpool
@pytest.mark.parametrize("certify", sorted(CERTIFICATION))
def test_process_backend_probe_equals_fresh_solver(vague_invalid, certify):
    pipeline = PolicyPipeline(
        config=PipelineConfig(
            execution_backend="process",
            procpool=ProcPoolConfig(workers=2, poll_interval=0.01),
        )
    )
    budget = pipeline.config.solver_budget
    try:
        run_script = pipeline._pooled_run_script(PipelineMetrics(), None)
        for label, encoded, expected in vague_invalid:
            result = verify_encoded(
                encoded,
                budget=budget,
                certification=CERTIFICATION[certify],
                run_script=run_script,
            )
            assert result.verdict is Verdict.INVALID, label
            assert result.conditionally_valid == expected, label
    finally:
        pipeline.shutdown()
