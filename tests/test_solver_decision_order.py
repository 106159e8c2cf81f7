"""Differential test: the CDCL decision heap vs a linear reference scan.

:meth:`CDCLSolver._decide` keeps a binary heap keyed on
(-activity, variable).  It must pick exactly the variable a full scan
picks — the unassigned variable with the highest activity, lowest index
on ties — or models, traces and DRUP proofs would drift.  The reference
scan below lives only in this file.

Each problem is driven through two solvers over the same clauses and
solve calls: one deciding with the heap (every decision is also checked
against the scan on the spot), one deciding with the scan alone.  The
runs must produce identical decision sequences, verdicts, models,
statistics and :class:`ProofLog` events.  The problems cover assumptions,
restarts (a tiny Luby base), activity rescales (a tiny rescale
threshold), learned-clause database reduction, and variables added
between solves, both by new clauses and by ``ensure_vars`` alone.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.solver import sat
from repro.solver.proof import ProofLog
from repro.solver.sat import CDCLSolver


def reference_decide(solver: CDCLSolver) -> int:
    """The linear scan: highest activity, lowest index on ties, or 0."""
    best_var = 0
    best_act = -1.0
    for var in range(1, solver._num_vars + 1):
        if solver._values[var] == 0 and solver._activity[var] > best_act:
            best_var = var
            best_act = solver._activity[var]
    if best_var == 0:
        return 0
    return best_var if solver._phases[best_var] else -best_var


def heap_solver(num_vars: int, decisions: list[int]) -> CDCLSolver:
    solver = CDCLSolver(num_vars, max_conflicts=3000)
    heap_decide = solver._decide

    def checked() -> int:
        expected = reference_decide(solver)
        got = heap_decide()
        assert got == expected, f"heap picked {got}, scan picks {expected}"
        decisions.append(got)
        return got

    solver._decide = checked
    return solver


def scan_solver(num_vars: int, decisions: list[int]) -> CDCLSolver:
    solver = CDCLSolver(num_vars, max_conflicts=3000)

    def scan() -> int:
        got = reference_decide(solver)
        decisions.append(got)
        return got

    solver._decide = scan
    return solver


def run(solver: CDCLSolver, rounds, max_learned: int) -> list:
    """Feed every round to ``solver``; returns what each solve answered."""
    solver.proof = ProofLog()
    solver._max_learned = max_learned
    answers = []
    for grow_to, clauses, assumptions in rounds:
        solver.ensure_vars(grow_to)
        for clause in clauses:
            solver.add_clause(clause)
        try:
            verdict = solver.solve(assumptions)
        except BudgetExceededError as exc:
            answers.append(("budget", str(exc)))
            continue
        model = solver.model() if verdict is sat.SatResult.SAT else None
        answers.append((verdict.value, model))
    return answers


def assert_same_runs(rounds, *, num_vars, restart_base, rescale, max_learned):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "_RESTART_BASE", restart_base)
        mp.setattr(sat, "_ACTIVITY_RESCALE", rescale)
        heap_decisions: list[int] = []
        scan_decisions: list[int] = []
        heap = heap_solver(num_vars, heap_decisions)
        scan = scan_solver(num_vars, scan_decisions)
        heap_answers = run(heap, rounds, max_learned)
        scan_answers = run(scan, rounds, max_learned)
    assert heap_decisions == scan_decisions
    assert heap_answers == scan_answers
    assert heap.proof.events == scan.proof.events
    assert heap.stats.as_dict() == scan.stats.as_dict()
    return heap


@st.composite
def problems(draw):
    num_vars = draw(st.integers(min_value=0, max_value=8))
    rounds = []
    n = num_vars
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        # Grow between solves: new variables, sometimes with no clause
        # mentioning them (ensure_vars alone).
        n += draw(st.integers(min_value=0, max_value=6))
        if n == 0:
            rounds.append((0, [], ()))
            continue
        literal = st.integers(min_value=1, max_value=n).flatmap(
            lambda v: st.sampled_from((v, -v))
        )
        clauses = draw(
            st.lists(
                st.lists(literal, min_size=1, max_size=4).map(tuple),
                max_size=5 * n,
            )
        )
        assumptions = tuple(draw(st.lists(literal, max_size=3)))
        rounds.append((n, clauses, assumptions))
    return num_vars, rounds


@given(
    problems(),
    st.sampled_from((1, 2, 64)),
    st.sampled_from((2.0, 1e100)),
    st.sampled_from((2, 4000)),
)
@settings(max_examples=300, deadline=None)
def test_heap_decisions_equal_the_scan(problem, restart_base, rescale, max_learned):
    num_vars, rounds = problem
    assert_same_runs(
        rounds,
        num_vars=num_vars,
        restart_base=restart_base,
        rescale=rescale,
        max_learned=max_learned,
    )


def random_3sat(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_hard_instances_exercise_restarts_rescales_and_reduction(seed):
    # Near the 3-SAT phase transition, so the search conflicts, restarts,
    # rescales and reduces its learned-clause database; the paths the
    # heap must survive are provably taken, not just hoped for.
    rng = random.Random(seed)
    rounds = [
        (30, random_3sat(rng, 30, 120), ()),
        (40, random_3sat(rng, 40, 60), (1, -2)),
        (45, [], (3,)),  # ensure_vars growth with no new clause
        (45, random_3sat(rng, 45, 20), ()),
    ]
    rebuilds = []
    real_rebuild = CDCLSolver._rebuild_order

    def counting_rebuild(self):
        rebuilds.append(1)
        real_rebuild(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CDCLSolver, "_rebuild_order", counting_rebuild)
        heap = assert_same_runs(
            rounds, num_vars=10, restart_base=2, rescale=8.0, max_learned=4
        )
    assert heap.stats.conflicts > 0
    assert heap.stats.restarts > 0
    assert heap.stats.db_reductions > 0
    assert rebuilds
