"""The repository benchmark: run one workload, check every answer, and
print every metric by name with its unit.

    python3 perfbench/run.py --workload cold_verify --seed 1 --seconds 25 --trace 0

Workloads: cold_verify, served_zipf, fleet_churn (see workloads.py and
NOTES.md).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run that wraps each layer boundary in spans, reports the
per-layer metrics and writes a Chrome trace.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A human-readable report precedes it, and the full result
(with nproc, Python version and git sha) is written under
``.perfbench/results/``.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import sys
import tempfile
from pathlib import Path

# Never rewrite the tracked bytecode under src/.
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "ops_per_s": "1/s",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text("utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text("utf-8").strip()
            for line in (root / ".git" / "packed-refs").read_text("utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


#: Tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail(samples: list[float]) -> tuple[float, float | None]:
    """(value, percentile): the latency at the highest of p99.9, p99 and
    p90 that still has at least ten samples beyond it (nearest rank).
    With fewer than 100 samples no percentile qualifies: the value is
    then the maximum and the percentile None (unresolved)."""
    ordered = sorted(samples)
    for percentile in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - percentile) / 100.0 >= 10:
            rank = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
            return ordered[rank], percentile
    return ordered[-1], None


def end_to_end(result) -> tuple[dict, dict]:
    """Every end-to-end metric.  Reads and writes are scaled to reference
    machine speed by probes taken while the program is idle (speed.py);
    set-up is reported as measured, because a few probes around set-ups
    that take seconds tracked them worse than no probes at all."""
    window_factor = result.window_speed.factor()
    write_factor = result.write_speed.factor()
    if result.read_blocks:  # open loop: median over time slices
        slices = [(block, factor)
                  for block, factor in zip(result.read_blocks, result.block_factors) if block]
        tails = [(tail(block), factor) for block, factor in slices]
        percentiles = [p for (_, p), _ in tails]
        percentile = None if None in percentiles else min(percentiles)
        tail_ms = statistics.median(v for (v, _), _ in tails)
        read_p50 = statistics.median(statistics.median(block) for block, _ in slices)
        # Each slice is scaled by the probes of the pauses around it.
        scaled_tail = statistics.median(v * f for (v, _), f in tails)
        scaled_p50 = statistics.median(statistics.median(b) * f for b, f in slices)
    else:
        tail_ms, percentile = tail(result.read_ms)
        read_p50 = statistics.median(result.read_ms)
        scaled_tail = tail_ms * window_factor
        scaled_p50 = read_p50 * window_factor
    raw = {
        "setup_s": statistics.median(result.setup_s),
        "read_p50_ms": read_p50,
        "read_tail_ms": tail_ms,
        "ops_per_s": result.good_reads / result.window_s,
        "write_p50_ms": statistics.median(result.write_ms),
        "peak_rss_mb": result.peak_rss_kb / 1024.0,
    }
    metrics = {
        "setup_s": raw["setup_s"],
        "read_p50_ms": scaled_p50,
        "read_tail_ms": scaled_tail,
        # An open loop's throughput is its arrival rate, not machine speed.
        "ops_per_s": raw["ops_per_s"] / (window_factor if result.closed_loop else 1.0),
        "write_p50_ms": raw["write_p50_ms"] * write_factor,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "read_samples": len(result.read_ms),
        "read_slices": len(result.read_blocks) or 1,
        # None: too few samples for p90, so the tail is the maximum.
        "read_tail_percentile": percentile,
        "write_samples": len(result.write_ms),
        "setup_samples_s": [round(s, 4) for s in result.setup_s],
        "error_ratio": result.failed / result.attempted if result.attempted else 1.0,
        "speed_factor_window": round(window_factor, 4),
        "speed_factor_write": round(write_factor, 4),
        "speed_probes": len(result.window_speed.samples),
        "speed_factor_slices": [round(f, 4) for f in result.block_factors],
        **{f"raw.{name}": round(value, 4) for name, value in raw.items()},
    }
    return metrics, details


def print_report(args, metrics: dict, units: dict, result, details: dict) -> None:
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    for name, value in details.items():
        print(f"  {name:40s} {value}")
    print(f"  {'verdicts':40s} {json.dumps(result.verdicts, sort_keys=True)}")
    for name, value in result.notes.items():
        if name != "read_breakdown_ms":
            print(f"  {name:40s} {json.dumps(value, sort_keys=True, default=str)}")
    breakdown = result.notes.get("read_breakdown_ms")
    if breakdown:
        print("  -- mean self ms per read, by span --")
        for name, value in breakdown.items():
            print(f"  {name:40s} {value:14.4f}")
    for failure in result.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The solver's work depends on set iteration order, so on the hash
    # seed: on cold_verify two hash seeds moved read_p50_ms by 15%.  Each
    # --seed therefore fixes its own hash seed (for the server and probe
    # processes too), and a run is repeatable; across seeds the hash seed
    # varies like the inputs.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, sys.orig_argv, env)
    # Unwind (reap the server child, remove scratch) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import layers
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ctx = workloads.Context(
            root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            work_dir=work_dir, reference=inputs.load_reference(),
        )
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        speed.shutdown()
        workloads.cleanup(work_dir)

    e2e, details = end_to_end(result)
    details["nproc"] = os.cpu_count()
    details["python"] = platform.python_version()
    details["git_sha"] = git_sha(ROOT)
    if args.trace:
        factor = result.window_speed.factor()
        reported = {
            name: value * factor if layers.PER_LAYER_UNITS[name] == "ms" else value
            for name, value in result.per_layer.items()
        }
        units = layers.PER_LAYER_UNITS
        details.update({f"traced.{k}": round(v, 4) for k, v in e2e.items()})
    else:
        reported, units = e2e, END_TO_END_UNITS

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    if args.trace:
        untraced = results_dir / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text("utf-8"))["end_to_end"]
            details["tracing_overhead"] = {
                name: round(e2e[name] - base[name], 4) for name in e2e
            }
        trace_dir = OUT / "traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{stem}.json").write_text(json.dumps(result.trace), "utf-8")
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "end_to_end": e2e, "per_layer": result.per_layer,
        "details": details, "verdicts": result.verdicts,
        "notes": result.notes, "failures": result.failures,
    }, indent=1, sort_keys=True, default=str), "utf-8")

    print_report(args, reported, units, result, details)
    if not all(math.isfinite(v) for v in reported.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
