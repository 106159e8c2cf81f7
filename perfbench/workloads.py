"""The three workloads.  Each sets up, measures for a fixed window,
checks every answer against ``reference.json`` and returns a
:class:`RunResult`.

* ``cold_verify`` — closed loop, one caller, ``PolicyPipeline.query`` on
  the bundled TikTak and MetaBook models.  Every question is asked once
  per pass and the model caches are cleared between passes, so the
  verification cache always misses: the solver and SMT-LIB layers do
  almost all the work.
* ``served_zipf`` — open loop, Poisson arrivals at a fixed rate, Zipf
  (company, question) pairs, against a ``PolicyServer`` in its own
  process over a fleet twice its warm-model bound: admission, the
  registry LRU and the per-model caches do the work.
* ``fleet_churn`` — closed loop, one caller, ``PolicyRegistry.query_fleet``
  over a fleet larger than the registry's warm bound, with seeded
  ``make_version`` revisions (update, commit, invalidate) between
  fan-outs: the job runner, registry, store and Phase 1/2 update path.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
import speed
from speed import SpeedMeter
from tracing import Tracer, spans_from_chrome

#: How many times a run sets up; setup_s is the median.
SETUP_REPEATS = 3
#: cold_verify measures whole passes over its sample, so every seed's
#: figures cover all of it; a pass still running after this many windows
#: is cut short.
COLD_MAX_WINDOWS = 4
#: cold_verify revises TikTak after every n-th ask, cycling through this
#: many seeded revisions.
COLD_WRITE_EVERY = 16
COLD_REVISIONS = 4
#: Closed loops take a speed probe before every n-th operation.
COLD_PROBE_EVERY = 4
CHURN_PROBE_EVERY = 2
#: served_zipf pauses before each time slice of its window and after the
#: last one: it waits for every request in flight, then probes this many
#: times while the server is idle.  A probe while requests are in flight
#: would compete with the server for the CPU.
SERVED_PROBES = 5
#: served_zipf reports each latency figure as the median over this many
#: equal time slices of its window, so one stall of the shared machine
#: (it delays every request due in its 100-200 ms) moves one slice only;
#: each slice is scaled by the probes of the pauses around it.
SERVED_SLICES = 5
#: served_zipf counts a read toward ops_per_s only within this limit.
SERVED_LATENCY_LIMIT_MS = 100.0


@dataclass
class RunResult:
    read_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: Reads that count toward ops_per_s, and the window they ran in.
    good_reads: int = 0
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_kb: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    #: Machine-speed probes taken around the reads and around the writes
    #: (the same meter when the writes run in the window).
    window_speed: SpeedMeter = field(default_factory=SpeedMeter)
    write_speed: SpeedMeter | None = None
    closed_loop: bool = True
    #: Open loop: read latencies per time slice of the window, and the
    #: speed factor of the probes around each slice.
    read_blocks: list[list[float]] = field(default_factory=list)
    block_factors: list[float] = field(default_factory=list)
    #: Filled by traced runs only.
    per_layer: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def count_verdict(self, verdict: str, conditionally_valid) -> None:
        label = verdict + ("/conditional" if conditionally_valid else "")
        self.verdicts[label] = self.verdicts.get(label, 0) + 1


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work_dir: Path  # scratch inside the checkout, removed after the run
    reference: dict


def _own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _traced_window(ctx: Context):
    tracer = Tracer()
    if ctx.trace:
        tracer.install()
    return tracer


# ----------------------------------------------------------------------
# cold_verify
# ----------------------------------------------------------------------


def cold_verify(ctx: Context) -> RunResult:
    from repro import PolicyPipeline
    from repro.corpus import metabook_policy, tiktak_policy

    result = RunResult()
    texts = {"TikTak": tiktak_policy().text, "MetaBook": metabook_policy().text}
    digests = ctx.reference["cold_verify"]["digests"]
    sequence = inputs.cold_inputs(ctx.reference, ctx.seed).sequence

    for _ in range(SETUP_REPEATS):
        gc.collect()
        pipeline = PolicyPipeline()
        models = {}
        started = time.perf_counter()
        for name, text in texts.items():
            models[name] = pipeline.process(text)
        result.setup_s.append(time.perf_counter() - started)
    # Writes: a seeded make_version revision of TikTak through the Phase 1/2
    # update path.  The revised model is dropped, so the questions keep
    # their reference answers.
    from repro.corpus.versions import make_version

    revisions = [
        make_version(texts["TikTak"], seed=ctx.seed * 1000 + i).text
        for i in range(COLD_REVISIONS)
    ]
    result.write_speed = result.window_speed
    result.notes["write"] = "PolicyPipeline.update of TikTak to a make_version revision"

    tracer = _traced_window(ctx)
    roots = {}
    per_question: dict[tuple[str, str], list[float]] = {}
    write_s = 0.0  # left out of the read window, like the probes
    try:
        window_start = time.perf_counter()
        deadline = window_start + ctx.seconds
        hard_deadline = window_start + COLD_MAX_WINDOWS * ctx.seconds
        step = 0
        while True:
            now = time.perf_counter()
            at_pass_start = step % len(sequence) == 0
            if now >= hard_deadline or (now >= deadline and at_pass_start and step):
                break
            if at_pass_start:
                for model in models.values():
                    model.caches.clear()  # every pass starts cold
            if step % COLD_PROBE_EVERY == 0:
                result.window_speed.sample()
            if step % COLD_WRITE_EVERY == COLD_WRITE_EVERY - 1:
                write_s += _cold_write(ctx, result, roots, tracer, pipeline,
                                       models["TikTak"], revisions, step)
            name, question = sequence[step % len(sequence)]
            rid = str(step)
            roots[rid] = "read"
            span = tracer.open("op.read", rid) if ctx.trace else None
            began = time.perf_counter()
            try:
                outcome = pipeline.query(models[name], question)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome = None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            if span is not None:
                tracer.close(span)
            step += 1
            result.attempted += 1
            if outcome is None:
                result.fail(f"{name}: {question!r}: {error}")
                continue
            key = [name, question]
            if inputs.outcome_digest(key, outcome) != digests.get(inputs.key_string(key)):
                result.fail(f"{name}: {question!r}: answer differs from reference")
                continue
            if step <= len(sequence):
                result.count_verdict(
                    outcome.verdict.value, outcome.verification.conditionally_valid
                )
            per_question.setdefault((name, question), []).append(elapsed * 1e3)
            result.good_reads += 1
        result.window_s = (
            time.perf_counter() - window_start - result.window_speed.spent_s - write_s
        )
    finally:
        tracer.restore()
    # One latency per question, the median of its asks: this damps the
    # per-call noise of a shared machine without mixing questions.
    result.read_ms = [statistics.median(asks) for asks in per_question.values()]
    result.peak_rss_kb = _own_peak_rss_kb()
    result.notes["questions_per_pass"] = len(sequence)
    result.notes["passes"] = round(step / len(sequence), 3)
    if ctx.trace:
        result.per_layer, details = layers.layer_metrics(tracer.spans, roots)
        covered = layers.coverage(tracer.spans, "op.read")
        result.notes["trace"] = details
        result.notes["span_coverage_median"] = statistics.median(covered) if covered else 0.0
        solver_share = layers.coverage(tracer.spans, "op.read", ("solver.", "smtlib."))
        result.notes["solver_smtlib_share_median"] = (
            statistics.median(solver_share) if solver_share else 0.0
        )
        result.notes["read_breakdown_ms"] = layers.read_layer_breakdown(tracer.spans, roots)
        result.trace = tracer.chrome_trace()
    return result


def _cold_write(ctx, result, roots, tracer, pipeline, model, revisions, step) -> float:
    """One timed revision; returns the seconds it took."""
    rid = f"w{step}"
    roots[rid] = "write"
    span = tracer.open("op.write", rid) if ctx.trace else None
    began = time.perf_counter()
    try:
        pipeline.update(model, revisions[(step // COLD_WRITE_EVERY) % len(revisions)])
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        result.fail(f"revision at step {step}: {type(exc).__name__}: {exc}")
    took = time.perf_counter() - began
    if span is not None:
        tracer.close(span)
    result.attempted += 1
    result.write_ms.append(took * 1e3)
    return took


# ----------------------------------------------------------------------
# served_zipf
# ----------------------------------------------------------------------


class _Server:
    """One ``serve.py`` child process; always reaped by :meth:`close`."""

    def __init__(self, ctx: Context, registry_root: Path, tag: str) -> None:
        self.report_path = ctx.work_dir / f"server-{tag}.json"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-B", str(ctx.root / "perfbench" / "serve.py"),
             "--root", str(registry_root),
             "--report", str(self.report_path)]
            + (["--trace"] if ctx.trace else []),
            stdout=subprocess.PIPE,
            env=env,
            cwd=ctx.root,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("server process exited before it was ready")
        self.port = json.loads(line)["port"]

    def drain(self) -> dict:
        from repro import ServingClient

        client = ServingClient("127.0.0.1", self.port, timeout=30.0)
        try:
            client.drain()
        except (OSError, http.client.HTTPException):
            pass  # the server can exit before its reply to /drain is sent
        finally:
            client.close()
        self.proc.wait(timeout=60)
        return json.loads(self.report_path.read_text("utf-8"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _mint_one_by_one(registry, spec_params: dict, meter: SpeedMeter) -> list[float]:
    """Mint the fleet a company at a time, probing machine speed before
    each; returns each company's write time in milliseconds (mint is
    idempotent, so ``count=k`` only mints company ``k - 1``)."""
    from repro.registry import MintSpec

    times = []
    for count in range(1, spec_params["count"] + 1):
        meter.sample()
        began = time.perf_counter()
        registry.mint(MintSpec(count=count, seed=spec_params["seed"]))
        times.append((time.perf_counter() - began) * 1e3)
    return times


def _open_loop(port: int, plan: inputs.ServedInputs, indices: list[int],
               offset_s: float, connections: int, records: list) -> float:
    """Send the planned requests ``indices`` at their due times (arrival
    minus ``offset_s`` after the start) over ``connections`` keep-alive
    connections, time each from its due time into ``records``, and
    return when all have been answered: the seconds it took."""
    from repro import ServingClient

    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = ServingClient("127.0.0.1", port, timeout=30.0)
        try:
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(indices):
                    return
                index = indices[position]
                due = start + plan.arrivals[index] - offset_s
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                company, question = plan.pairs[index]
                sent = time.perf_counter()
                try:
                    status, body = client.request(
                        "POST", "/query",
                        {"company": company, "question": question, "rid": index},
                    )
                except OSError as exc:
                    status, body = -1, {"error": str(exc)}
                done = time.perf_counter()
                records[index] = {
                    "status": status, "body": body,
                    "latency_ms": (done - due) * 1e3,
                    "wire_ms": (done - sent) * 1e3,
                    "late_ms": (sent - due) * 1e3,
                }
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _sliced_window(port: int, plan: inputs.ServedInputs, seconds: float,
                   connections: int, result: RunResult) -> tuple[list, list[int], float]:
    """The open loop, one time slice at a time, with a probing pause
    before each slice and after the last.  Returns the records, each
    request's slice, and the seconds spent sending."""
    slice_s = seconds / SERVED_SLICES
    slice_of = [min(int(arrival / slice_s), SERVED_SLICES - 1) for arrival in plan.arrivals]
    records: list[dict | None] = [None] * len(plan.arrivals)
    pauses = []
    window = 0.0
    for number in range(SERVED_SLICES + 1):
        meter = SpeedMeter()
        for _ in range(SERVED_PROBES):
            meter.sample()
        pauses.append(meter.samples)
        result.window_speed.samples.extend(meter.samples)
        if number == SERVED_SLICES:
            break
        indices = [i for i, s in enumerate(slice_of) if s == number]
        window += _open_loop(port, plan, indices, number * slice_s, connections, records)
    for number in range(SERVED_SLICES):
        result.block_factors.append(speed.factor_of(pauses[number] + pauses[number + 1]))
    return records, slice_of, window


def served_zipf(ctx: Context) -> RunResult:
    from repro import PolicyPipeline
    from repro.registry import PolicyRegistry

    result = RunResult()
    plan = inputs.served_inputs(ctx.reference, ctx.seed, ctx.seconds)
    digests = ctx.reference["served_zipf"]["digests"]
    connections = max(1, os.cpu_count() or 1)

    result.write_speed = SpeedMeter()
    result.closed_loop = False
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.drain()
                server.close()
            gc.collect()
            registry_root = ctx.work_dir / f"served-{repeat}"
            started = time.perf_counter()
            registry = PolicyRegistry(registry_root, pipeline=PolicyPipeline())
            result.write_ms.extend(
                _mint_one_by_one(registry, inputs.SERVED_FLEET, result.write_speed)
            )
            server = _Server(ctx, registry_root, str(repeat))
            result.setup_s.append(time.perf_counter() - started)
        result.notes["write"] = "per-company fleet mint (process + commit + register) during set-up"

        records, slice_of, window = _sliced_window(
            server.port, plan, ctx.seconds, connections, result
        )
        report = server.drain()
    finally:
        if server is not None:
            server.close()
    result.window_s = window
    result.peak_rss_kb = report["maxrss_kb"]
    result.read_blocks = [[] for _ in range(SERVED_SLICES)]

    # Outside the timed window: answer every distinct pair in-process and
    # check it against the reference, then every served verdict against it.
    pipeline = PolicyPipeline()
    check = PolicyRegistry(registry_root, pipeline=pipeline, max_warm=2 * inputs.SERVED_MAX_WARM)
    local: dict[tuple[str, str], str | None] = {}
    for pair in sorted(set(plan.pairs)):
        outcome = pipeline.query(check.get_model(pair[0]), pair[1])
        key = [pair[0], pair[1]]
        ok = inputs.outcome_digest(key, outcome) == digests.get(inputs.key_string(key))
        local[pair] = outcome.verdict.value if ok else None

    late = []
    for index, record in enumerate(records):
        result.attempted += 1
        pair = plan.pairs[index]
        if record is None or record["status"] != 200:
            status = None if record is None else record["status"]
            result.fail(f"{pair}: status {status}")
            continue
        late.append(record["late_ms"])
        expected = local[pair]
        if expected is None:
            result.fail(f"{pair}: in-process answer differs from reference")
            continue
        if record["body"].get("verdict") != expected:
            result.fail(f"{pair}: served {record['body'].get('verdict')}, expected {expected}")
            continue
        result.verdicts[expected] = result.verdicts.get(expected, 0) + 1
        result.read_ms.append(record["latency_ms"])
        result.read_blocks[slice_of[index]].append(record["latency_ms"])
        if record["latency_ms"] <= SERVED_LATENCY_LIMIT_MS:
            result.good_reads += 1
    result.notes["connections"] = connections
    result.notes["offered_rate_per_s"] = inputs.SERVED_RATE_PER_S
    result.notes["latency_limit_ms"] = SERVED_LATENCY_LIMIT_MS
    result.notes["distinct_pairs"] = len(local)
    result.notes["generator_late_ms"] = {
        "p50": statistics.median(late) if late else 0.0,
        "max": max(late) if late else 0.0,
    }
    result.notes["send_window_s"] = window

    if ctx.trace:
        trace = json.loads(Path(report["trace"]).read_text("utf-8"))
        spans = spans_from_chrome(trace)
        roots = {str(index): "read" for index in range(len(records))}
        result.per_layer, details = layers.layer_metrics(spans, roots)
        handled = {
            span.rid: (span.end - span.start) / 1e6
            for span in spans if span.name == "server.handle"
        }
        transport = [
            record["wire_ms"] - handled[str(index)]
            for index, record in enumerate(records)
            if record is not None and str(index) in handled
        ]
        result.per_layer["server.transport_ms"] = (
            statistics.fmean(transport) if transport else 0.0
        )
        details["verification_entries_per_distinct_pair"] = (
            result.per_layer["core.caches.verification_entries"] / max(1, len(local))
        )
        result.notes["trace"] = details
        result.notes["read_breakdown_ms"] = layers.read_layer_breakdown(spans, roots)
        result.trace = trace
    return result


# ----------------------------------------------------------------------
# fleet_churn
# ----------------------------------------------------------------------


def fleet_churn(ctx: Context) -> RunResult:
    from repro import PolicyPipeline
    from repro.registry import PolicyRegistry

    result = RunResult()
    digests = ctx.reference["fleet_churn"]["digests"]
    texts = inputs.churn_texts()
    ops = inputs.churn_ops(ctx.reference, ctx.seed, count=20000)

    for repeat in range(SETUP_REPEATS):
        gc.collect()
        pipeline = PolicyPipeline()
        started = time.perf_counter()
        registry = PolicyRegistry(ctx.work_dir / f"fleet-{repeat}", pipeline=pipeline)
        registry.mint(inputs.mint_spec(inputs.CHURN_FLEET))
        result.setup_s.append(time.perf_counter() - started)
    result.write_speed = result.window_speed
    result.notes["write"] = "make_version revision: update + commit + invalidate"
    result.notes["max_warm"] = registry.cache.capacity

    current = {company: 0 for company in registry.companies()}
    tracer = _traced_window(ctx)
    roots = {}
    try:
        window_start = time.perf_counter()
        deadline = window_start + ctx.seconds
        step = 0
        while time.perf_counter() < deadline and step < len(ops):
            if step % CHURN_PROBE_EVERY == 0:
                result.window_speed.sample()
            op = ops[step]
            rid = str(step)
            roots[rid] = op.kind
            step += 1
            result.attempted += 1
            span = tracer.open(f"op.{op.kind}", rid) if ctx.trace else None
            began = time.perf_counter()
            error = None
            try:
                if op.kind == "read":
                    report = registry.query_fleet(op.target)
                else:
                    model = registry.get_model(op.target)
                    revised, _stats = pipeline.update(model, texts[op.target][op.variant])
                    registry.store_for(op.target).commit(revised)
                    registry.invalidate(op.target)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                error = f"{type(exc).__name__}: {exc}"
            elapsed_ms = (time.perf_counter() - began) * 1e3
            if span is not None:
                tracer.close(span)
            if error is not None:
                result.fail(f"{op}: {error}")
                continue
            if op.kind == "write":
                current[op.target] = op.variant
                result.write_ms.append(elapsed_ms)
                continue
            wrong = _check_fan_out(report, op.target, current, digests, result)
            if wrong:
                result.fail(f"{op}: {wrong}")
                continue
            result.read_ms.append(elapsed_ms)
        result.window_s = time.perf_counter() - window_start - result.window_speed.spent_s
    finally:
        tracer.restore()
    result.good_reads = len(result.read_ms)
    result.peak_rss_kb = _own_peak_rss_kb()
    result.notes["fleet"] = len(current)
    if ctx.trace:
        result.per_layer, details = layers.layer_metrics(tracer.spans, roots)
        result.notes["trace"] = details
        result.notes["read_breakdown_ms"] = layers.read_layer_breakdown(tracer.spans, roots)
        result.trace = tracer.chrome_trace()
    return result


def _check_fan_out(report, question, current, digests, result) -> str | None:
    """None when every company of the fleet answered once and each answer
    matches the reference for the revision it holds; otherwise what went
    wrong."""
    answered = list(report.per_company())
    companies = [company for company, _ in answered]
    if len(companies) != len(set(companies)) or set(companies) != set(current):
        return f"answered by {sorted(companies)}, expected {sorted(current)}"
    for company, outcome in answered:
        if outcome is None or outcome.failed:
            return f"{company}: {outcome.summary() if outcome else 'no outcome'}"
        key = [company, current[company], question]
        if inputs.outcome_digest(key, outcome) != digests.get(inputs.key_string(key)):
            return f"{company}: answer differs from reference"
        result.count_verdict(outcome.verdict.value, outcome.verification.conditionally_valid)
    return None


WORKLOADS = {
    "cold_verify": cold_verify,
    "served_zipf": served_zipf,
    "fleet_churn": fleet_churn,
}


def cleanup(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
