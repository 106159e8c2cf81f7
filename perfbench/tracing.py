"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` replaces public functions and methods with wrappers that
record one span per call (name, start, end, parent, request id) in
memory, and puts every original back on :meth:`Tracer.restore`.  Nothing
under ``src/`` knows it is being traced.

A span's parent is the innermost open span on the same thread.  Work a
layer hands to other threads (the job runner's worker pool) has no span
open on its thread; it is parented to the innermost open *ambient* span
instead, which is how ``JobRunner.run`` is registered.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: (module, attribute path, span name, ambient).  Functions are patched
#: where the caller looks them up: the name the calling module imported.
WRAPPED = (
    ("repro.llm.tasks", "TaskRunner.resolve_coreferences", "llm.parse", False),
    ("repro.llm.tasks", "TaskRunner.extract_parameters", "llm.parse", False),
    ("repro.core.pipeline", "translate_query_terms", "core.translation", False),
    ("repro.core.pipeline", "extract_subgraph", "core.subgraph", False),
    ("repro.core.pipeline", "encode_query", "core.encode", False),
    ("repro.core.verify", "compile_validity_script", "smtlib.print", False),
    ("repro.smtlib.parser", "parse_script", "smtlib.parse", False),
    ("repro.solver.interface", "ground", "solver.ground", False),
    ("repro.solver.interface", "simplify", "solver.simplify", False),
    ("repro.solver.interface", "tseitin", "solver.tseitin", False),
    ("repro.solver.sat", "CDCLSolver.solve", "solver.search", False),
    ("repro.solver.interface", "Solver.__init__", "solver.init", False),
    ("repro.solver.interface", "Solver.check_sat", "solver.check", False),
    ("repro.solver.interface", "Solver.check_sat_assuming", "solver.check", False),
    ("repro.core.caches", "ModelCaches.get_or_compute", "core.caches", False),
    ("repro.core.pipeline", "verify_encoded", "core.verify", False),
    ("repro.server.admission", "AdmissionGate.enter", "server.admission", False),
    ("repro.server.daemon", "PolicyServer.handle_query", "server.handle", False),
    ("repro.registry.registry", "PolicyRegistry.get_model", "registry.get_model", False),
    ("repro.core.pipeline", "PolicyPipeline.load_model", "registry.load", False),
    ("repro.core.pipeline", "PolicyPipeline.query", "core.pipeline.query", False),
    ("repro.core.pipeline", "PolicyPipeline.update", "core.pipeline.update", False),
    ("repro.store.snapshot", "SnapshotStore.commit", "store.commit", False),
    ("repro.jobs.runner", "JobRunner.run", "jobs", True),
    ("repro.core.pipeline", "extract_policy", "core.extraction", False),
    ("repro.core.pipeline", "chain_of_layer", "core.hierarchy.col", False),
)


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: int = -1  # index into Tracer.spans; -1 for a root
    rid: str = ""
    tid: int = 0
    #: Counters read from the call's public result (solver statistics,
    #: certificate seconds, cache hit/miss, update stats).
    counts: dict = field(default_factory=dict)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _solver_counts(solver, before: tuple, result) -> dict:
    stats = solver.statistics
    counts = {
        "decisions": stats.decisions - before[0],
        "conflicts": stats.conflicts - before[1],
        "clauses": stats.clauses,
    }
    certificate = getattr(result, "certificate", None)
    if certificate is not None:
        counts["certify_s"] = certificate.seconds
    return counts


class Tracer:
    """In-memory span recorder; install, run, restore, then read spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ambient: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, path, span_name, ambient in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, ambient, path))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: str | None = None, *, ambient: bool = False) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._ambient:
                parent = self._ambient[-1]
            else:
                parent = -1
            if rid is None:
                rid = self.spans[parent].rid if parent >= 0 else ""
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter_ns(), parent=parent, rid=rid,
                     tid=threading.get_ident())
            )
            if ambient:
                self._ambient.append(index)
        stack.append(index)
        return index

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        if counts:
            span.counts.update(counts)
        self._stack().pop()
        if self._ambient and self._ambient[-1] == index:
            with self._lock:
                self._ambient.pop()

    def _wrap(self, original, span_name: str, ambient: bool, path: str):
        tracer = self
        counter = _COUNTERS.get(path)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = _request_id(path, args)
            index = tracer.open(span_name, rid, ambient=ambient)
            before = counter[0](args) if counter else None
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                counts = counter[1](args, before, result) if counter else None
                tracer.close(index, counts)

        wrapper.__perfbench_original__ = original
        return wrapper

    # -- export ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.start / 1000.0,
                "dur": max(0, span.end - span.start) / 1000.0,
                "pid": 1,
                "tid": span.tid,
                "args": {"rid": span.rid, "parent": span.parent, "id": index,
                         **span.counts},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome_trace()), "utf-8")


def spans_from_chrome(trace: dict) -> list[Span]:
    """Rebuild spans from :meth:`Tracer.chrome_trace` output (used to
    read the served workload's server-side trace)."""
    spans = []
    for event in trace["traceEvents"]:
        args = dict(event["args"])
        rid = args.pop("rid")
        parent = args.pop("parent")
        args.pop("id")
        start = int(event["ts"] * 1000)
        spans.append(Span(event["name"], start, start + int(event["dur"] * 1000),
                          parent, rid, event["tid"], args))
    return spans


def _request_id(path: str, args) -> str | None:
    """A served request carries its id in the JSON body (``rid``)."""
    if path == "PolicyServer.handle_query" and len(args) > 1:
        rid = args[1].get("rid") if isinstance(args[1], dict) else None
        return None if rid is None else str(rid)
    return None


def _before_solver(args):
    stats = args[0].statistics
    return (stats.decisions, stats.conflicts)


def _cache_counts(args, _before, result):
    kind = args[1] if len(args) > 1 else None
    if kind != "verification" or result is None:
        return None
    return {"verification_miss" if result[1] else "verification_hit": 1}


def _update_counts(_args, _before, result):
    if result is None:
        return None
    stats = result[1]
    return {"segments_total": stats.segments_total,
            "segments_reextracted": stats.segments_reextracted}


_COUNTERS = {
    "Solver.check_sat": (_before_solver, lambda a, b, r: _solver_counts(a[0], b, r)),
    "Solver.check_sat_assuming": (_before_solver,
                                  lambda a, b, r: _solver_counts(a[0], b, r)),
    "ModelCaches.get_or_compute": (lambda a: None, _cache_counts),
    "PolicyPipeline.update": (lambda a: None, _update_counts),
}
