"""Unit tests for the LLM resilience boundary.

Covers the retry policy/wrapper, the circuit breaker automaton, the
deterministic fault injector they are tested against, and the cache
robustness satellites (corrupt persisted caches, atomic flush).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import PolicyPipeline
from repro.errors import (
    CassetteError,
    CircuitOpenError,
    InjectedFaultError,
    LLMError,
    PermanentHTTPError,
    RateLimitError,
)
from repro.llm.client import CachedLLM, UsageStats, prompt_fingerprint
from repro.llm.simulated import SimulatedLLM
from repro.resilience import CircuitBreaker, RetryingLLM, RetryPolicy
from repro.resilience.faults import FaultInjectingLLM


class EchoLLM:
    """Backend that always succeeds, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return f"echo:{prompt}"


class FailingLLM:
    """Backend that fails its first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int, exc: type[BaseException] = LLMError) -> None:
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"transient failure {self.calls}")
        return f"ok:{prompt}"


class TestRetryPolicy:
    def test_delay_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_retries=4,
            base_delay_seconds=0.5,
            backoff_multiplier=2.0,
            max_delay_seconds=2.0,
        )
        assert policy.delay_schedule() == (0.5, 1.0, 2.0, 2.0)
        assert policy.delay_schedule() == policy.delay_schedule()

    def test_zero_retries_means_empty_schedule(self):
        assert RetryPolicy(max_retries=0).delay_schedule() == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_circuit_open_is_never_retryable(self):
        policy = RetryPolicy()
        assert policy.is_retryable(LLMError("x"))
        assert policy.is_retryable(TimeoutError())
        assert not policy.is_retryable(CircuitOpenError("open"))
        assert not policy.is_retryable(ValueError("not transient"))

    def test_permanent_provider_errors_are_never_retryable(self):
        # PermanentHTTPError and CassetteError subclass LLMError (which is
        # retryable by default) but retrying a 401 or a cassette miss can
        # never succeed.
        policy = RetryPolicy()
        assert not policy.is_retryable(PermanentHTTPError("401", status=401))
        assert not policy.is_retryable(CassetteError("miss"))
        assert policy.is_retryable(RateLimitError("429"))


class TestRetryAfterHonoring:
    """Server-advised backoff: sleep min(max(schedule, hint), max_delay)."""

    def test_hint_below_or_equal_schedule_is_ignored(self):
        policy = RetryPolicy(base_delay_seconds=0.5, max_delay_seconds=2.0)
        exc = RateLimitError("429", retry_after=0.1)
        assert policy.retry_delay(0.5, exc) == (0.5, False)
        exc = RateLimitError("429", retry_after=0.5)
        assert policy.retry_delay(0.5, exc) == (0.5, False)

    def test_hint_above_schedule_is_honored(self):
        policy = RetryPolicy(max_delay_seconds=2.0)
        exc = RateLimitError("429", retry_after=1.5)
        assert policy.retry_delay(0.5, exc) == (1.5, True)

    def test_hint_is_capped_at_max_delay(self):
        policy = RetryPolicy(max_delay_seconds=2.0)
        exc = RateLimitError("429", retry_after=60.0)
        assert policy.retry_delay(0.5, exc) == (2.0, True)

    def test_exceptions_without_hints_use_the_schedule(self):
        policy = RetryPolicy()
        assert policy.retry_delay(0.5, LLMError("x")) == (0.5, False)
        assert policy.retry_delay(0.5, RateLimitError("429")) == (0.5, False)

    def test_retrying_llm_sleeps_the_hint_and_counts_it(self):
        class RateLimitedLLM:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt):
                self.calls += 1
                if self.calls == 1:
                    raise RateLimitError("slow down", retry_after=1.5)
                return f"ok:{prompt}"

        slept: list[float] = []
        llm = RetryingLLM(
            RateLimitedLLM(),
            RetryPolicy(max_retries=2, max_delay_seconds=2.0),
            sleep=slept.append,
        )
        assert llm.complete("p") == "ok:p"
        assert slept == [1.5]  # the hint, not the 0.05s schedule step
        assert llm.stats.retries == 1
        assert llm.stats.retry_after_honored == 1

    def test_unhinted_retries_do_not_count_as_honored(self):
        inner = FailingLLM(failures=1)
        llm = RetryingLLM(inner, RetryPolicy(max_retries=1), sleep=lambda _: None)
        assert llm.complete("p") == "ok:p"
        assert llm.stats.retries == 1
        assert llm.stats.retry_after_honored == 0


class TestRetryingLLM:
    def test_recovers_within_budget(self):
        inner = FailingLLM(failures=2)
        slept: list[float] = []
        llm = RetryingLLM(
            inner, RetryPolicy(max_retries=2), sleep=slept.append
        )
        assert llm.complete("p") == "ok:p"
        assert inner.calls == 3
        assert llm.stats.retries == 2
        assert llm.stats.retry_giveups == 0
        assert slept == list(RetryPolicy(max_retries=2).delay_schedule())

    def test_gives_up_after_budget(self):
        inner = FailingLLM(failures=10)
        llm = RetryingLLM(inner, RetryPolicy(max_retries=2), sleep=lambda _: None)
        with pytest.raises(LLMError):
            llm.complete("p")
        assert inner.calls == 3
        assert llm.stats.retries == 2
        assert llm.stats.retry_giveups == 1

    def test_non_retryable_raises_immediately(self):
        inner = FailingLLM(failures=10, exc=ValueError)
        llm = RetryingLLM(inner, RetryPolicy(max_retries=3), sleep=lambda _: None)
        with pytest.raises(ValueError):
            llm.complete("p")
        assert inner.calls == 1
        assert llm.stats.retries == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_short_circuits(self):
        inner = FailingLLM(failures=100)
        breaker = CircuitBreaker(inner, failure_threshold=3, cooldown_calls=2)
        for _ in range(3):
            with pytest.raises(LLMError):
                breaker.complete("p")
        assert breaker.state == "open"
        assert breaker.stats.breaker_opens == 1
        # Cooldown: rejected without touching the backend.
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                breaker.complete("p")
        assert inner.calls == 3
        assert breaker.stats.breaker_short_circuits == 2

    def test_half_open_probe_success_closes(self):
        inner = FailingLLM(failures=3)
        breaker = CircuitBreaker(inner, failure_threshold=3, cooldown_calls=1)
        for _ in range(3):
            with pytest.raises(LLMError):
                breaker.complete("p")
        with pytest.raises(CircuitOpenError):
            breaker.complete("p")  # cooldown rejection
        # Next call is the half-open probe; the backend has recovered.
        assert breaker.complete("p") == "ok:p"
        assert breaker.state == "closed"
        assert breaker.complete("q") == "ok:q"

    def test_half_open_probe_failure_reopens(self):
        inner = FailingLLM(failures=100)
        breaker = CircuitBreaker(inner, failure_threshold=2, cooldown_calls=1)
        for _ in range(2):
            with pytest.raises(LLMError):
                breaker.complete("p")
        with pytest.raises(CircuitOpenError):
            breaker.complete("p")
        with pytest.raises(LLMError):
            breaker.complete("p")  # the probe itself fails
        assert breaker.state == "open"
        assert breaker.stats.breaker_opens == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(EchoLLM(), failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(EchoLLM(), cooldown_calls=-1)


class TestComposition:
    def test_cache_over_breaker_over_retry(self):
        """The documented stack: CachedLLM(CircuitBreaker(RetryingLLM(...)))."""
        stats = UsageStats()
        inner = FailingLLM(failures=1)
        stack = CachedLLM(
            CircuitBreaker(
                RetryingLLM(
                    inner,
                    RetryPolicy(max_retries=2),
                    stats=stats,
                    sleep=lambda _: None,
                ),
                failure_threshold=3,
                stats=stats,
            )
        )
        assert stack.complete("p") == "ok:p"  # rescued by one retry
        assert stats.retries == 1
        assert stats.breaker_opens == 0
        before = inner.calls
        assert stack.complete("p") == "ok:p"  # served by the cache
        assert inner.calls == before
        assert stack.stats.cache_hits == 1

    def test_retry_rescues_fault_injector(self):
        injector = FaultInjectingLLM(
            EchoLLM(), fail_substrings=("p",), failures_per_prompt=2
        )
        llm = RetryingLLM(
            injector, RetryPolicy(max_retries=2), sleep=lambda _: None
        )
        assert llm.complete("p") == "echo:p"
        assert injector.faults_injected == 2
        assert llm.stats.retries == 2


class TestFaultInjectingLLM:
    def test_designation_is_content_keyed_and_deterministic(self):
        a = FaultInjectingLLM(EchoLLM(), rate=0.3, seed=7)
        b = FaultInjectingLLM(EchoLLM(), rate=0.3, seed=7)
        prompts = [f"prompt number {i}" for i in range(200)]
        designated = [p for p in prompts if a.is_designated(p)]
        assert designated == [p for p in prompts if b.is_designated(p)]
        # ~30% of prompts, not all and not none.
        assert 0.15 < len(designated) / len(prompts) < 0.45
        different_seed = FaultInjectingLLM(EchoLLM(), rate=0.3, seed=8)
        assert designated != [p for p in prompts if different_seed.is_designated(p)]

    def test_rate_zero_never_faults(self):
        llm = FaultInjectingLLM(EchoLLM(), rate=0.0, seed=1)
        for i in range(50):
            assert llm.complete(f"p{i}") == f"echo:p{i}"
        assert llm.faults_injected == 0

    def test_substring_designation_always_fails(self):
        llm = FaultInjectingLLM(EchoLLM(), fail_substrings=("poison",))
        assert llm.complete("clean") == "echo:clean"
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                llm.complete("poison pill")
        assert llm.faults_injected == 3

    def test_finite_failure_count_then_recovers(self):
        llm = FaultInjectingLLM(
            EchoLLM(), fail_substrings=("x",), failures_per_prompt=2
        )
        with pytest.raises(InjectedFaultError):
            llm.complete("x")
        with pytest.raises(InjectedFaultError):
            llm.complete("x")
        assert llm.complete("x") == "echo:x"

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjectingLLM(EchoLLM(), rate=1.5)


class TestPipelineClientInjection:
    def test_empty_cached_llm_is_not_discarded(self):
        """Regression: an empty CachedLLM is falsy (it has __len__), and a
        truthiness check in the pipeline constructor silently replaced
        injected clients with the default backend."""
        llm = CachedLLM(EchoLLM())
        assert len(llm) == 0
        pipeline = PolicyPipeline(llm=llm)
        assert pipeline.llm is llm
        assert pipeline.runner.client is llm


class TestCachePersistenceRobustness:
    def test_corrupt_cache_file_degrades_to_cold_start(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"truncated": "mid-wri', "utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable LLM cache"):
            llm = CachedLLM(EchoLLM(), cache_path=path)
        assert len(llm) == 0
        llm.complete("p")  # still fully functional
        assert len(llm) == 1

    def test_malformed_cache_shape_degrades_to_cold_start(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(["not", "a", "mapping"]), "utf-8")
        with pytest.warns(RuntimeWarning, match="malformed LLM cache"):
            llm = CachedLLM(EchoLLM(), cache_path=path)
        assert len(llm) == 0
        path.write_text(json.dumps({"key": 42}), "utf-8")
        with pytest.warns(RuntimeWarning, match="malformed LLM cache"):
            assert len(CachedLLM(EchoLLM(), cache_path=path)) == 0

    def test_flush_is_atomic_and_round_trips(self, tmp_path):
        path = tmp_path / "nested" / "cache.json"
        llm = CachedLLM(EchoLLM(), cache_path=path)
        completion = llm.complete("some prompt")
        llm.flush()
        # No temp-file droppings next to the cache.
        assert [p.name for p in path.parent.iterdir()] == ["cache.json"]
        persisted = json.loads(path.read_text("utf-8"))
        assert persisted == {prompt_fingerprint("some prompt"): completion}
        reloaded = CachedLLM(EchoLLM(), cache_path=path)
        assert len(reloaded) == 1

    def test_flush_fsyncs_payload_before_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        llm = CachedLLM(EchoLLM(), cache_path=path)
        llm.complete("some prompt")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", info.st_ino, info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            info = os.stat(src)
            events.append(("replace", info.st_ino, info.st_size))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        llm.flush()
        renamed = [e for e in events if e[0] == "replace"]
        assert len(renamed) == 1
        (_, inode, size) = renamed[0]
        assert size == path.stat().st_size > 0
        synced = events.index(("fsync", inode, size))
        assert synced < events.index(renamed[0])

    def test_flush_replaces_rather_than_truncates(self, tmp_path):
        path = tmp_path / "cache.json"
        llm = CachedLLM(EchoLLM(), cache_path=path)
        llm.complete("first")
        llm.flush()
        first = path.read_text("utf-8")
        llm.complete("second")
        llm.flush()
        second = path.read_text("utf-8")
        assert first != second
        assert len(json.loads(second)) == 2
