"""Degradation-ladder and fault-isolation tests for the query pipeline.

Covers the solver UNKNOWN -> QueryOutcome path end-to-end, the
escalate/decompose ladder, per-query budget overrides, strict translation,
and the conversion of raising queries into structured ErrorOutcome records
inside ``query_batch``.
"""

from __future__ import annotations

import pytest

from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.core.encode import encode_query
from repro.core.pipeline import ErrorOutcome
from repro.core.subgraph import Subgraph, component_for_terms, split_components
from repro.core.verify import verify_encoded
from repro.errors import TranslationError
from repro.resilience import BudgetLadder, execute_ladder, is_budget_limited
from repro.resilience.faults import (
    STARVED_BUDGET,
    BudgetStarvingPipeline,
    FaultInjectingLLM,
)
from repro.llm.client import CachedLLM
from repro.llm.simulated import SimulatedLLM
from repro.solver.interface import SolverBudget

QUESTION = "Does Acme collect my email address?"


def _full_graph_subgraph(model) -> Subgraph:
    """All practice edges plus the hierarchy links between their terms."""
    sub = Subgraph()
    sub.edges = list(model.graph.edges())
    for edge in sub.edges:
        sub.data_terms.add(edge.target)
        sub.entity_terms.add(edge.source)
        if edge.receiver:
            sub.entity_terms.add(edge.receiver)
    taxonomy = model.graph.data_taxonomy
    for child in sorted(sub.data_terms):
        parent = taxonomy.parent(child)
        if parent and parent != taxonomy.root and parent in sub.data_terms:
            sub.hierarchy_edges.append((parent, child))
    return sub


class TestUnknownVerdictEndToEnd:
    """Solver budget exhaustion must surface as a structured UNKNOWN."""

    def test_starved_budget_yields_budget_unknown(self, pipeline, small_model):
        outcome = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert outcome.verdict is Verdict.UNKNOWN
        reason = outcome.verification.solver_result.reason
        assert "budget exhausted" in reason or "timeout" in reason
        assert is_budget_limited(outcome.verification)
        # Without a ladder configured, no degradation is attempted and the
        # trace stays byte-identical to prior releases.
        assert outcome.degradation is None
        assert "degradation" not in outcome.as_dict()
        assert f"reason: {reason}" in outcome.summary()
        assert outcome.failed is False

    def test_budget_override_does_not_pollute_default_cache(
        self, pipeline, small_model
    ):
        starved = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert starved.verdict is Verdict.UNKNOWN
        normal = pipeline.query(small_model, QUESTION)
        assert normal.verdict is not Verdict.UNKNOWN
        again = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert again.verdict is Verdict.UNKNOWN


class TestBudgetLadder:
    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetLadder(multipliers=(1.0,))
        with pytest.raises(ValueError):
            BudgetLadder(multipliers=(16.0, 4.0))
        with pytest.raises(ValueError):
            BudgetLadder(decompose_budget_multiplier=0.0)

    def test_scaled_budget(self):
        base = SolverBudget(
            max_conflicts=10,
            max_propagations=None,
            max_ground_instances=3,
            timeout_seconds=1.0,
        )
        scaled = base.scaled(4.0)
        assert scaled.max_conflicts == 40
        assert scaled.max_propagations is None
        assert scaled.max_ground_instances == 12
        assert scaled.timeout_seconds == 4.0
        with pytest.raises(ValueError):
            base.scaled(0.0)

    @pytest.mark.parametrize(
        "budget, seconds, expected",
        [
            (SolverBudget(timeout_seconds=None), 2.0, 2.0),  # unbounded
            (SolverBudget(timeout_seconds=1.0), 5.0, 1.0),  # looser cap
            (SolverBudget(timeout_seconds=10.0), 0.25, 0.25),  # tighter cap
            (
                SolverBudget(max_conflicts=10, timeout_seconds=1.0).scaled(4.0),
                3.0,
                3.0,
            ),
        ],
        ids=["unbounded", "looser", "tighter", "scaled"],
    )
    def test_tightened_budget(self, budget, seconds, expected):
        tightened = budget.tightened(seconds)
        assert tightened.timeout_seconds == expected
        # Only the deadline moves; every other limit is kept as configured.
        assert tightened.max_conflicts == budget.max_conflicts
        assert tightened.max_propagations == budget.max_propagations
        assert tightened.max_ground_instances == budget.max_ground_instances

    def test_escalation_rescues_starved_query(self, small_policy_text):
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(budget_ladder=BudgetLadder()),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, QUESTION)
        assert outcome.verdict is not Verdict.UNKNOWN
        report = outcome.degradation
        assert report is not None
        assert report.rescued
        assert report.final_rung == "escalate"
        assert report.steps[0].rung == "escalate"
        assert "budget" in report.base_reason
        assert outcome.metrics.degraded_queries == 1
        assert outcome.metrics.ladder_rescues == 1
        assert outcome.metrics.ladder_escalations >= 1
        # The report travels with the deterministic trace and the summary.
        assert outcome.as_dict()["degradation"]["rescued"] is True
        assert "degradation ladder" in outcome.summary()

    def test_unstarved_queries_skip_the_ladder(self, small_policy_text):
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(budget_ladder=BudgetLadder()),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, "Acme collects the phone number.")
        assert outcome.degradation is None
        assert outcome.metrics.degraded_queries == 0

    def test_decomposition_rescues_when_escalation_cannot(self, small_model):
        """A policy-sized encoding over budget, rescued by its data branch."""
        pipeline = PolicyPipeline()
        full = _full_graph_subgraph(small_model)
        components = split_components(full)
        assert len(components) > 1

        resolved = pipeline.runner.resolve_coreferences(
            "Acme collects email address.", small_model.company
        )
        params = pipeline.runner.extract_parameters(
            resolved, small_model.company
        )[0]
        encoded = encode_query(full, params)
        # Too small for the full graph, ample for the email component —
        # and one doubling does not close the gap.
        base = SolverBudget(
            max_conflicts=None,
            max_propagations=None,
            max_ground_instances=100,
            timeout_seconds=None,
        )
        initial = verify_encoded(encoded, budget=base)
        assert initial.verdict is Verdict.UNKNOWN
        assert is_budget_limited(initial)

        final, report = execute_ladder(
            full,
            params,
            initial,
            ladder=BudgetLadder(multipliers=(2.0,)),
            base_budget=base,
            encoded=encoded,
        )
        assert final.verdict is Verdict.VALID
        assert report.rescued
        assert report.final_rung == "decompose"
        assert report.escalations == 1
        assert report.decompositions == 1
        escalate, decompose = report.steps
        assert escalate.verdict == "UNKNOWN"
        assert decompose.verdict == "VALID"
        assert decompose.sound  # a component VALID is sound for the whole
        assert "component" in decompose.detail

    def test_component_lookup_matches_query_terms(self, small_model):
        components = split_components(_full_graph_subgraph(small_model))
        component = component_for_terms(components, ["email address"])
        assert component is not None
        assert "email address" in component.data_terms
        assert component_for_terms(components, ["no such term"]) is None

    def test_unrescued_ladder_reports_every_step(self, small_policy_text):
        # Escalation multipliers too small to matter, decomposition
        # disabled: the original UNKNOWN must stand, with the trail intact.
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(
                budget_ladder=BudgetLadder(
                    multipliers=(1.5,), decompose=False
                )
            ),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, QUESTION)
        assert outcome.verdict is Verdict.UNKNOWN
        report = outcome.degradation
        assert report is not None
        assert not report.rescued
        assert report.final_rung is None
        assert "not rescued" in report.summary()
        assert outcome.metrics.ladder_rescues == 0


class TestStrictTranslation:
    QUESTION = "Acme collects the shoe size."

    def test_strict_mode_raises_with_terms(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(strict_translation=True, min_similarity=0.99)
        )
        with pytest.raises(TranslationError) as excinfo:
            pipeline.query(small_model, self.QUESTION)
        assert excinfo.value.terms  # names the untranslatable terms
        assert all(isinstance(t, str) for t in excinfo.value.terms)

    def test_default_mode_counts_fallbacks(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(min_similarity=0.99, enable_query_caches=False)
        )
        outcome = pipeline.query(small_model, self.QUESTION)
        assert outcome.metrics.translation_fallbacks >= 1
        assert any(t.fell_back for t in outcome.translations.values())

    def test_strict_error_isolated_in_batch(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(strict_translation=True, min_similarity=0.99)
        )
        batch = pipeline.query_batch(small_model, [self.QUESTION], max_workers=1)
        (outcome,) = batch.outcomes
        assert isinstance(outcome, ErrorOutcome)
        assert outcome.stage == "translate"
        assert outcome.error_type == "TranslationError"


class TestBatchFaultIsolation:
    # The poisoned question is declarative: interrogatives are rewritten
    # by normalization before any prompt is rendered, so their original
    # text never appears at the LLM boundary.
    QUESTIONS = [
        "Acme collects the email address.",
        "Acme collects the phone number.",
        "Acme shares the location information with advertisers.",
    ]

    def _poisoned_pipeline(self, poison: str) -> PolicyPipeline:
        llm = CachedLLM(
            FaultInjectingLLM(SimulatedLLM(), fail_substrings=(poison,))
        )
        return PolicyPipeline(llm=llm)

    def test_failed_query_becomes_error_outcome(self, small_policy_text):
        poison = self.QUESTIONS[1]
        pipeline = self._poisoned_pipeline(poison)
        model = PolicyPipeline().process(small_policy_text)
        batch = pipeline.query_batch(model, self.QUESTIONS, max_workers=2)
        assert [o.question for o in batch.outcomes] == self.QUESTIONS
        good_a, error, good_b = batch.outcomes
        assert isinstance(error, ErrorOutcome)
        assert error.verdict is Verdict.ERROR
        assert error.failed is True
        assert error.stage == "parse"  # the first LLM call carries the text
        assert error.error_type == "InjectedFaultError"
        assert not good_a.failed and not good_b.failed
        assert batch.errors == [error]
        assert batch.succeeded == [good_a, good_b]
        assert batch.metrics.query_errors == 1
        assert "1 isolated failures" in batch.summary()
        as_dict = batch.as_dict()
        assert as_dict["errors"] == 1
        assert as_dict["verdicts"]["ERROR"] == 1
        assert as_dict["outcomes"][1]["error"]["stage"] == "parse"
        assert "ERROR in parse stage" in error.summary()

    def test_unaffected_queries_match_fault_free_run(self, small_policy_text):
        clean = PolicyPipeline()
        model = clean.process(small_policy_text)
        baseline = {
            q: clean.query(model, q).as_dict() for q in self.QUESTIONS
        }
        poisoned = self._poisoned_pipeline(self.QUESTIONS[1])
        model2 = PolicyPipeline().process(small_policy_text)
        batch = poisoned.query_batch(model2, self.QUESTIONS, max_workers=3)
        for outcome in batch.outcomes:
            if isinstance(outcome, ErrorOutcome):
                continue
            assert outcome.as_dict() == baseline[outcome.question]
