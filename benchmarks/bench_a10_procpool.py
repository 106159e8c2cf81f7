"""A10 — process-pool execution backend: GIL escape and portfolio rescues.

The solver hot path is pure-Python CPU work, so the thread-backend batch
engine serializes on the GIL no matter how many workers it runs.  The
process backend (``repro.procpool``) ships each SMT-LIB script to a
supervised worker process; on a multi-core box the same batch of hard
formulas should finish close to ``cores``-times faster.

Measures the same suite of hard pigeonhole units solved (a) in-process on
a thread pool — the thread backend's execution shape — and (b) on the
supervised worker pool, asserting status-identical answers everywhere and
a >= 2x wall-clock speedup when at least 4 CPUs are available (on fewer
cores the numbers are recorded without the assertion: there is no
parallelism to win).  Also runs the portfolio rescue over deterministic
budget-exhausted formulas and counts rescued verdicts — the robustness
half of the backend's value: answers, not UNKNOWNs, from the same budget.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import print_table, write_bench_json

from repro.procpool import PortfolioConfig, ProcPoolConfig, WorkerSupervisor, WorkUnit
from repro.smtlib.parser import execute_script
from repro.solver.interface import SolverBudget
from repro.solver.result import SatResult

UNITS = 6
WORKERS = 4
PIGEONS = 8  # PHP(8,7): a few seconds of pure CPU per unit
RESCUE_FORMULAS = 3
RESCUE_BUDGET = SolverBudget(max_conflicts=30)
# No wall-clock ceiling on the measured units: GIL-serialized threads
# inflate each solve's *wall* time past the default 10s deadline, which
# would turn the baseline's answers into timeout UNKNOWNs and hide the
# very contention being measured.
UNIT_BUDGET = SolverBudget(timeout_seconds=None)


def php_script(pigeons: int, *, guard: bool = False) -> str:
    """PHP(n, n-1); with ``guard``, every clause is escaped by a fresh
    guard variable ``s`` (decision var 1), making the formula trivially
    SAT for any seed that phases ``s`` True and exponentially hard for
    seed 0's all-False dive — the deterministic rescue shape."""
    holes = pigeons - 1
    lines = ["(set-logic UF)"]
    if guard:
        lines.append("(declare-fun s () Bool)")

    def var(i: int, j: int) -> str:
        return f"x{i}_{j}"

    for i in range(pigeons):
        for j in range(holes):
            lines.append(f"(declare-fun {var(i, j)} () Bool)")
    g = "s " if guard else ""
    for i in range(pigeons):
        lits = " ".join(var(i, j) for j in range(holes))
        lines.append(f"(assert (or {g}{lits}))")
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                lines.append(
                    f"(assert (or {g}(not {var(i, j)}) (not {var(k, j)})))"
                )
    lines.append("(check-sat)")
    return "\n".join(lines)


def test_a10_procpool_speedup_and_rescues():
    script = php_script(PIGEONS)
    cores = os.cpu_count() or 1

    # (a) Thread backend shape: in-process solves on a thread pool.  The
    # GIL serializes them — this is what query_batch's workers get.
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        thread_results = list(
            pool.map(
                lambda _: execute_script(script, budget=UNIT_BUDGET)[-1],
                range(UNITS),
            )
        )
    thread_seconds = time.perf_counter() - start
    assert all(r.status is SatResult.UNSAT for r in thread_results)

    # (b) Process backend: same units on the supervised worker pool.
    supervisor = WorkerSupervisor(ProcPoolConfig(workers=WORKERS))
    try:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            outcomes = list(
                pool.map(
                    lambda i: supervisor.run_unit(
                        WorkUnit(
                            script_text=script,
                            budget=UNIT_BUDGET,
                            label=f"php-{i}",
                        )
                    ),
                    range(UNITS),
                )
            )
        process_seconds = time.perf_counter() - start
        assert all(o.ok for o in outcomes)
        assert all(o.results[-1].status is SatResult.UNSAT for o in outcomes)

        # (c) Portfolio rescues: budget-exhausted formulas answered
        # decisively (and certified) by the seed race.
        rescued = 0
        start = time.perf_counter()
        for index in range(RESCUE_FORMULAS):
            outcome = supervisor.run_rescued(
                WorkUnit(
                    script_text=php_script(6 + index, guard=True),
                    budget=RESCUE_BUDGET,
                    label=f"rescue-{index}",
                ),
                portfolio=PortfolioConfig(),
            )
            assert outcome.ok
            if outcome.rescued_seed is not None:
                result = outcome.results[-1]
                assert result.status is SatResult.SAT
                assert result.certificate is not None
                assert not result.certificate.failed
                rescued += 1
        rescue_seconds = time.perf_counter() - start
        pool_stats = supervisor.stats()
    finally:
        supervisor.shutdown()
    assert supervisor.live_pids() == []

    speedup = (
        thread_seconds / process_seconds if process_seconds > 0 else float("inf")
    )
    print_table(
        f"A10: process-pool backend ({UNITS} x PHP({PIGEONS},{PIGEONS - 1}), "
        f"{WORKERS} workers, {cores} cores)",
        ["mode", "seconds", "speedup", "notes"],
        [
            ["thread pool (GIL-bound)", f"{thread_seconds:.2f}", "1.0x", "-"],
            [
                f"process pool ({WORKERS} workers)",
                f"{process_seconds:.2f}",
                f"{speedup:.1f}x",
                f"{pool_stats['workers_spawned']} workers spawned",
            ],
            [
                "portfolio rescues",
                f"{rescue_seconds:.2f}",
                "-",
                f"{rescued}/{RESCUE_FORMULAS} budget-UNKNOWNs rescued to "
                "certified SAT",
            ],
        ],
    )

    # Every budget-exhausted rescue formula must come back decisive: the
    # guard construction makes the race deterministic.
    assert rescued == RESCUE_FORMULAS
    # The parallel win needs actual cores; on a starved box the numbers
    # are recorded but the ratio proves nothing about the backend.
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x on {cores} cores, got {speedup:.2f}x "
            f"({thread_seconds:.2f}s threads vs {process_seconds:.2f}s processes)"
        )

    write_bench_json(
        "a10_procpool",
        {
            "units": UNITS,
            "workers": WORKERS,
            "cpu_count": cores,
            "pigeons": PIGEONS,
            "thread_seconds": round(thread_seconds, 6),
            "process_seconds": round(process_seconds, 6),
            "speedup": round(speedup, 2),
            "rescue_formulas": RESCUE_FORMULAS,
            "rescued": rescued,
            "rescue_seconds": round(rescue_seconds, 6),
            "workers_spawned": pool_stats["workers_spawned"],
        },
    )
