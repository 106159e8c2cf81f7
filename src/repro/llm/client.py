"""LLM client protocol, caching wrapper, and usage accounting.

The protocol is string-in/string-out, matching how the paper's pipeline
talks to GPT-4o-mini.  A production deployment would implement
:class:`LLMClient` with an HTTP API call; this repository ships
:class:`repro.llm.simulated.SimulatedLLM` as the offline backend.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable


@runtime_checkable
class LLMClient(Protocol):
    """Anything that can complete a rendered prompt."""

    def complete(self, prompt: str) -> str:
        """Return the model completion for ``prompt``."""
        ...


@dataclass(slots=True)
class UsageStats:
    """Token/call accounting, mirroring API usage reporting.

    Tokens are approximated as whitespace-separated words; the point is to
    expose the *relative* cost of pipeline stages (segment extraction
    dominates), not to bill anyone.
    """

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cache_hits: int = 0
    retries: int = 0  # failed attempts that were retried
    retry_giveups: int = 0  # completions abandoned after the retry budget
    retry_after_honored: int = 0  # retries that slept on a server-advised hint
    breaker_opens: int = 0  # closed/half-open -> open transitions
    breaker_short_circuits: int = 0  # calls rejected without reaching the backend
    provider_calls: int = 0  # completions served by a remote HTTP provider
    provider_rate_limited: int = 0  # 429 rejections the provider surfaced
    cassette_records: int = 0  # prompt->completion pairs appended to a cassette
    cassette_replays: int = 0  # completions served from a cassette
    cassette_misses: int = 0  # replay lookups the cassette could not serve
    faults_injected: int = 0  # deterministic faults raised by ProfiledLLM
    calls_by_task: dict[str, int] = field(default_factory=dict)

    def record(self, prompt: str, completion: str, task: str) -> None:
        self.calls += 1
        self.prompt_tokens += len(prompt.split())
        self.completion_tokens += len(completion.split())
        self.calls_by_task[task] = self.calls_by_task.get(task, 0) + 1

    def merge(self, other: "UsageStats") -> None:
        """Fold ``other``'s counters into this instance.

        Used by :func:`repro.providers.introspect.llm_stack_state` to
        aggregate the distinct :class:`UsageStats` objects a composed
        wrapper stack may hold into one operational view.
        """
        self.calls += other.calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.cache_hits += other.cache_hits
        self.retries += other.retries
        self.retry_giveups += other.retry_giveups
        self.retry_after_honored += other.retry_after_honored
        self.breaker_opens += other.breaker_opens
        self.breaker_short_circuits += other.breaker_short_circuits
        self.provider_calls += other.provider_calls
        self.provider_rate_limited += other.provider_rate_limited
        self.cassette_records += other.cassette_records
        self.cassette_replays += other.cassette_replays
        self.cassette_misses += other.cassette_misses
        self.faults_injected += other.faults_injected
        for task, count in other.calls_by_task.items():
            self.calls_by_task[task] = self.calls_by_task.get(task, 0) + count

    def as_dict(self) -> dict[str, object]:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "retry_giveups": self.retry_giveups,
            "retry_after_honored": self.retry_after_honored,
            "breaker_opens": self.breaker_opens,
            "breaker_short_circuits": self.breaker_short_circuits,
            "provider_calls": self.provider_calls,
            "provider_rate_limited": self.provider_rate_limited,
            "cassette_records": self.cassette_records,
            "cassette_replays": self.cassette_replays,
            "cassette_misses": self.cassette_misses,
            "faults_injected": self.faults_injected,
            "calls_by_task": dict(self.calls_by_task),
        }


def prompt_fingerprint(prompt: str) -> str:
    """Stable content hash of a prompt, used as the cache key."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class _InFlight:
    """A completion one thread owns and others wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: str | None = None
        self.error: BaseException | None = None


class CachedLLM:
    """Response cache around any :class:`LLMClient`.

    The paper caches extracted parameters per content-hashed segment so that
    policy updates only re-extract modified segments; this wrapper provides
    that behaviour at the completion level.  The cache can optionally be
    persisted to a JSON file for cross-run reuse.

    The wrapper is thread-safe: cache reads/writes and usage accounting are
    lock-guarded, and concurrent requests for the *same* prompt are
    deduplicated — one thread calls the inner client while the rest block on
    the in-flight entry and count as cache hits, so an identical prompt
    never reaches the backend twice.
    """

    def __init__(
        self,
        inner: LLMClient,
        *,
        cache_path: str | Path | None = None,
    ) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self._cache: dict[str, str] = {}
        self._in_flight: dict[str, _InFlight] = {}
        self._cache_path = Path(cache_path) if cache_path else None
        self.stats = UsageStats()
        if self._cache_path and self._cache_path.exists():
            self._cache = self._load_persisted(self._cache_path)

    @staticmethod
    def _load_persisted(path: Path) -> dict[str, str]:
        """Load a persisted cache, tolerating corrupt or truncated files.

        A cache is an optimization: a file that cannot be parsed (killed
        mid-write by a pre-atomic-flush crash, disk corruption, concurrent
        clobbering) must degrade to a cold start, never fail construction.
        """
        try:
            loaded = json.loads(path.read_text("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            warnings.warn(
                f"ignoring unreadable LLM cache {path}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return {}
        if not isinstance(loaded, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in loaded.items()
        ):
            warnings.warn(
                f"ignoring malformed LLM cache {path}: expected a JSON object "
                "of string completions",
                RuntimeWarning,
                stacklevel=3,
            )
            return {}
        return loaded

    def complete(self, prompt: str) -> str:
        key = prompt_fingerprint(prompt)
        with self._lock:
            if key in self._cache:
                self.stats.cache_hits += 1
                return self._cache[key]
            pending = self._in_flight.get(key)
            if pending is None:
                pending = self._in_flight[key] = _InFlight()
                owner = True
            else:
                owner = False
        if not owner:
            pending.event.wait()
            if pending.error is not None:
                raise pending.error
            with self._lock:
                self.stats.cache_hits += 1
            return pending.value  # type: ignore[return-value]

        try:
            completion = self._inner.complete(prompt)
        except BaseException as exc:
            pending.error = exc
            with self._lock:
                self._in_flight.pop(key, None)
            pending.event.set()
            raise

        from repro.llm.prompts import task_name  # avoid import cycle at load

        try:
            task = task_name(prompt)
        except Exception:  # noqa: BLE001 - accounting must never fail a call
            task = "unknown"
        pending.value = completion
        with self._lock:
            self.stats.record(prompt, completion, task)
            self._cache[key] = completion
            self._in_flight.pop(key, None)
        pending.event.set()
        return completion

    def flush(self) -> None:
        """Persist the cache if a path was configured.

        The write goes through :func:`repro.store.atomic.atomic_write_text`
        (temp file, fsync, rename, directory fsync), so a crash mid-flush
        leaves either the old cache or the new one, never a truncated
        hybrid.
        """
        if not self._cache_path:
            return
        # Imported here: repro.store imports the pipeline, which imports us.
        from repro.store.atomic import atomic_write_text

        with self._lock:
            payload = json.dumps(self._cache, indent=0, sort_keys=True)
        atomic_write_text(self._cache_path, payload)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)
