"""Prove the benchmark steady: run every workload on ten seeds, twice,
then once on a seed no tuning used, and record the results.

    python3 -B perfbench/prove.py

The first set runs every workload on seeds 11-20, the second set does
the same again afterwards, and the unseen seed (1000) runs last.  For
each end-to-end metric and set it prints the median and the spread: the
distance between the first and third quartile of the ten values
(``statistics.quantiles(values, n=4)``), as a share of their median; and
how far the second set's median moved from the first's.  The raw
figures (before machine-speed scaling, see speed.py) are recorded beside
the reported ones.  It writes ``perfbench/recorded/seeds.json``, which
the tests read.  It takes about 45 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(11, 21)
UNSEEN_SEED = 1000
SETS = 2


def run(workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json")
        .read_text("utf-8")
    )
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return {
        "seed": seed,
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": metrics,
        "raw": {name: report["details"][f"raw.{name}"] for name in metrics},
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def prove_set(workload: str, seconds: float, bounds: dict, number: int) -> dict:
    runs = [run(workload, seed, seconds) for seed in SEEDS]
    values = {name: [r["metrics"][name] for r in runs] for name in bounds}
    raw = {name: [r["raw"][name] for r in runs] for name in bounds}
    summary = {}
    for name in bounds:
        summary[name] = {
            "median": statistics.median(values[name]),
            "spread": spread(values[name]),
            "raw_median": statistics.median(raw[name]),
            "raw_spread": spread(raw[name]),
        }
        print(f"set {number} {workload:12s} {name:14s} "
              f"median {summary[name]['median']:10.4f} "
              f"spread {summary[name]['spread']:.3f} "
              f"(raw {summary[name]['raw_spread']:.3f}, bound {bounds[name]})", flush=True)
    if not all(r["correct"] for r in runs):
        print(f"set {number} {workload}: a proving run was not correct", file=sys.stderr)
    return {
        "seeds": [r["seed"] for r in runs],
        "runs": values,
        "raw_runs": raw,
        "summary": summary,
        "all_correct": all(r["correct"] for r in runs),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    sets = [
        {workload: prove_set(workload, seconds, bounds, number) for workload in names}
        for number in range(1, SETS + 1)
    ]
    for workload in names:
        for name in bounds:
            first = sets[0][workload]["summary"][name]["median"]
            moved = sets[-1][workload]["summary"][name]["median"] / first - 1
            print(f"moved {workload:12s} {name:14s} {moved:+.3f} (bound {bounds[name]})")
    record = {
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sets": sets,
        "unseen_seed_runs": {workload: run(workload, UNSEEN_SEED, seconds)
                             for workload in names},
    }
    out = HERE / "recorded" / "seeds.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
