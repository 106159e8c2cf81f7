"""Per-layer metrics from recorded spans.

A span's self time is its duration minus the part of its interval that
its child spans cover (children on other threads included, overlaps
counted once).  Layer times are reported per operation of the kind the
layer serves: read-path layers per read, write-path layers per write.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Span

#: Read-path layers reported as mean self milliseconds per read.
READ_SELF_MS = {
    "solver.ground_ms": "solver.ground",
    "solver.simplify_ms": "solver.simplify",
    "solver.tseitin_ms": "solver.tseitin",
    "solver.search_ms": "solver.search",
    "smtlib.print_ms": "smtlib.print",
    "smtlib.parse_ms": "smtlib.parse",
    "core.encode.ms": "core.encode",
    "llm.parse_ms": "llm.parse",
    "core.translation.ms": "core.translation",
    "core.subgraph.ms": "core.subgraph",
    "core.verify.ms": "core.verify",
    "server.handle_ms": "server.handle",
    "jobs.self_ms": "jobs",
}
#: Write-path layers reported as mean self milliseconds per write.
WRITE_SELF_MS = {
    "core.pipeline.update_ms": "core.pipeline.update",
    "core.hierarchy.col_ms": "core.hierarchy.col",
    "store.commit_ms": "store.commit",
}

PER_LAYER_UNITS = {
    **{name: "ms" for name in READ_SELF_MS},
    **{name: "ms" for name in WRITE_SELF_MS},
    "solver.decisions": "count",
    "solver.conflicts": "count",
    "solver.clauses": "count",
    "solver.instances_per_query": "count",
    "solver.certify_ms": "ms",
    "solver.check_ms": "ms",
    "core.caches.verification_hit_ratio": "ratio",
    "core.caches.verification_entries": "count",
    "server.admission_wait_ms": "ms",
    "server.transport_ms": "ms",
    "registry.hit_ratio": "ratio",
    "registry.load_ms": "ms",
    "core.extraction.ms": "ms",
    "update.reextracted_ratio": "ratio",
}


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span, in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(max(0, span.end - span.start - covered))
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], roots: dict[str, str]) -> tuple[dict, dict]:
    """(metrics, details): every per-layer metric, plus the bases the
    ratios and means were taken over.  ``roots`` maps each operation's
    request id to its kind, "read" or "write"; spans inherit the id."""
    selfs = self_times(spans)
    kinds = [roots.get(span.rid) for span in spans]
    reads = sum(1 for kind in roots.values() if kind == "read")
    writes = sum(1 for kind in roots.values() if kind == "write")
    self_ms: dict[tuple[str, str], float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    has_load_child: set[int] = set()
    for index, span in enumerate(spans):
        if span.name == "registry.load" and span.parent >= 0:
            has_load_child.add(span.parent)
    for index, span in enumerate(spans):
        kind = kinds[index]
        if kind is None:
            continue
        self_ms[(kind, span.name)] += selfs[index] / 1e6
        duration_ms = (span.end - span.start) / 1e6
        if kind == "read":
            for key, value in span.counts.items():
                counts[key] += value
            if span.name in ("solver.init", "core.pipeline.query", "server.admission"):
                counts[span.name] += 1
            if span.name == "server.admission":
                durations["admission"].append(duration_ms)
            if span.name == "registry.get_model":
                counts["registry.hit" if index not in has_load_child else "registry.miss"] += 1
            if span.name == "registry.load":
                durations["registry.load"].append(duration_ms)
        else:
            if span.name == "core.extraction":
                durations["extraction"].append(duration_ms)
            for key in ("segments_total", "segments_reextracted"):
                counts[key] += span.counts.get(key, 0)

    metrics = {}
    for name, layer in READ_SELF_MS.items():
        metrics[name] = _ratio(self_ms[("read", layer)], reads)
    for name, layer in WRITE_SELF_MS.items():
        metrics[name] = _ratio(self_ms[("write", layer)], writes)
    metrics["solver.decisions"] = _ratio(counts["decisions"], reads)
    metrics["solver.conflicts"] = _ratio(counts["conflicts"], reads)
    metrics["solver.clauses"] = _ratio(counts["clauses"], reads)
    metrics["solver.certify_ms"] = _ratio(counts["certify_s"] * 1000.0, reads)
    # What check_sat does outside its wrapped children, certification
    # excluded: building the CNF core, presolve, the theory loop, models.
    metrics["solver.check_ms"] = _ratio(
        self_ms[("read", "solver.check")] - counts["certify_s"] * 1000.0, reads
    )
    metrics["solver.instances_per_query"] = _ratio(
        counts["solver.init"], counts["core.pipeline.query"]
    )
    hits, misses = counts["verification_hit"], counts["verification_miss"]
    metrics["core.caches.verification_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["core.caches.verification_entries"] = misses
    metrics["server.admission_wait_ms"] = _ratio(sum(durations["admission"]), reads)
    metrics["server.transport_ms"] = 0.0  # filled in by the served workload
    registry_calls = counts["registry.hit"] + counts["registry.miss"]
    metrics["registry.hit_ratio"] = _ratio(counts["registry.hit"], registry_calls)
    metrics["registry.load_ms"] = _ratio(
        sum(durations["registry.load"]), len(durations["registry.load"])
    )
    metrics["core.extraction.ms"] = _ratio(sum(durations["extraction"]), writes)
    metrics["update.reextracted_ratio"] = _ratio(
        counts["segments_reextracted"], counts["segments_total"]
    )
    details = {
        "reads": reads,
        "writes": writes,
        "queries": counts["core.pipeline.query"],
        "verification_lookups": hits + misses,
        "registry_lookups": registry_calls,
        "registry_loads": len(durations["registry.load"]),
    }
    return metrics, details


#: Spans that orchestrate rather than do a layer's work.
ORCHESTRATION = ("op.read", "op.write", "core.pipeline.query")


def coverage(spans: list[Span], root_name: str, prefixes: tuple[str, ...] = ()) -> list[float]:
    """Per root span: the share of its wall time covered by the self
    times of the layer spans under it (orchestration spans excluded), or
    only of those whose names start with one of ``prefixes``."""
    selfs = self_times(spans)
    layer_ns: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        if span.name in ORCHESTRATION:
            continue
        if not prefixes or span.name.startswith(prefixes):
            layer_ns[span.rid] += selfs[index]
    return [
        layer_ns[span.rid] / (span.end - span.start)
        for span in spans
        if span.name == root_name and span.end > span.start
    ]


def read_layer_breakdown(spans: list[Span], roots: dict[str, str]) -> dict[str, float]:
    """Mean self ms per read for every span name (for the printed table)."""
    selfs = self_times(spans)
    reads = sum(1 for kind in roots.values() if kind == "read") or 1
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if roots.get(span.rid) == "read":
            totals[span.name] += selfs[index] / 1e6 / reads
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
