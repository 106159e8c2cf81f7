"""Deterministic fault injection for chaos testing.

The chaos suite needs failures that are *chosen deterministically* yet
land mid-batch under any worker count.  Both injectors here key their
faults on content, never on call order:

* :class:`FaultInjectingLLM` decides per *prompt* (seeded hash of the
  prompt fingerprint, or explicit substring designation), so the set of
  affected completions — and therefore the set of affected queries — is
  identical whether a batch runs on 1 thread or 8.
* :class:`BudgetStarvingPipeline` decides per *question*, verifying
  designated queries under a starved :class:`SolverBudget` that converts
  their verification into UNKNOWN-with-a-budget-reason.

Test infrastructure, not production resilience: nothing in the pipeline
imports this module.
"""

from __future__ import annotations

import hashlib
import threading

from repro.core.pipeline import PolicyModel, PolicyPipeline, QueryOutcome
from repro.errors import InjectedFaultError
from repro.llm.client import LLMClient, prompt_fingerprint
from repro.solver.interface import SolverBudget

#: A budget no verification survives: grounding even a single quantified
#: axiom overdraws the instance budget, and the conflict/propagation caps
#: are zero.  Starvation is deliberately expressed through the
#: *deterministic* resource budgets rather than the wall-clock timeout
#: (which is now enforced as early as grounding and would make the
#: escalation trail depend on scheduler timing).
STARVED_BUDGET = SolverBudget(
    max_conflicts=0,
    max_propagations=0,
    max_ground_instances=1,
    timeout_seconds=None,
)


class FaultInjectingLLM:
    """Wrapper that fails designated prompts deterministically.

    A prompt is designated when its fingerprint hashes under ``rate``
    (seeded, so schedules are reproducible) or when it contains any of
    ``fail_substrings``.  Designated prompts raise
    :class:`~repro.errors.InjectedFaultError` for their first
    ``failures_per_prompt`` attempts — ``None`` means they fail forever,
    which keeps repeated questions deterministic across worker counts;
    a finite count exercises retry-rescue paths.
    """

    def __init__(
        self,
        inner: LLMClient,
        *,
        rate: float = 0.0,
        seed: int = 0,
        fail_substrings: tuple[str, ...] = (),
        failures_per_prompt: int | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self._inner = inner
        self.rate = rate
        self.seed = seed
        self.fail_substrings = tuple(fail_substrings)
        self.failures_per_prompt = failures_per_prompt
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self.calls = 0
        self.faults_injected = 0

    def is_designated(self, prompt: str) -> bool:
        """Would this prompt (ever) be faulted?  Pure content decision."""
        if any(marker in prompt for marker in self.fail_substrings):
            return True
        if self.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{prompt_fingerprint(prompt)}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.rate

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.calls += 1
            if self.is_designated(prompt):
                key = prompt_fingerprint(prompt)
                attempt = self._attempts.get(key, 0)
                if (
                    self.failures_per_prompt is None
                    or attempt < self.failures_per_prompt
                ):
                    self._attempts[key] = attempt + 1
                    self.faults_injected += 1
                    raise InjectedFaultError(
                        f"injected LLM fault (prompt {key[:12]}, attempt {attempt + 1})"
                    )
        return self._inner.complete(prompt)


class BudgetStarvingPipeline(PolicyPipeline):
    """Pipeline shim that starves the solver for designated questions.

    Designation is by exact question text (case-insensitive), so which
    queries starve is a property of the batch content, not of scheduling.
    Everything else — extraction, translation, caching — behaves exactly
    like the parent pipeline; only the verification budget changes, which
    the verification cache key already accounts for.
    """

    def __init__(
        self,
        *args,
        starve_questions: tuple[str, ...] = (),
        starved_budget: SolverBudget = STARVED_BUDGET,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._starve = {q.strip().lower() for q in starve_questions}
        self._starved_budget = starved_budget

    def is_starved(self, question: str) -> bool:
        return question.strip().lower() in self._starve

    def query(
        self,
        model: PolicyModel,
        question: str,
        *,
        budget: SolverBudget | None = None,
        certify: bool | None = None,
        cancel=None,
    ) -> QueryOutcome:
        if self.is_starved(question):
            budget = self._starved_budget
        return super().query(
            model, question, budget=budget, certify=certify, cancel=cancel
        )
