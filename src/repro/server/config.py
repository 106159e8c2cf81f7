"""Tunables for the resident serving daemon.

Mirrors the :class:`~repro.jobs.config.JobConfig` philosophy: every
robustness bound is explicit and validated at construction; the
admission bounds go through the same
:func:`~repro.jobs.admission.check_admission_bounds` the gate applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.jobs.admission import check_admission_bounds


@dataclass(slots=True)
class ServerConfig:
    """Knobs for one :class:`~repro.server.daemon.PolicyServer`.

    The defaults favour *refusing load fast* over queueing it: a small
    in-flight bound, a shed watermark below it, and a per-request
    deadline that only ever tightens the solver budget.
    """

    #: Registry directory (see :class:`~repro.registry.PolicyRegistry`);
    #: every query resolves its company through the current epoch's
    #: manifest.
    root: str | Path
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (the bound address is
    #: reported by :attr:`PolicyServer.address`).
    port: int = 0
    #: Admission bound: at most this many requests executing at once.
    #: Requests beyond it wait (bounded by their deadline) for a slot.
    max_pending: int = 8
    #: Load-shed watermark: an in-flight depth at or above this sheds the
    #: request immediately — a fast 503 with a structured body, never a
    #: stuck connection.  Must be <= max_pending; None disables shedding
    #: (requests then wait out their deadline for a slot).
    shed_above: int | None = None
    #: Per-request wall-clock deadline in seconds.  A request may pass
    #: ``deadline_seconds`` to tighten it further; it can never loosen
    #: it.  Whatever remains after admission tightens the solver budget
    #: the same way (min, never max).
    default_deadline: float = 10.0
    #: LRU bound on warm models per epoch.
    max_warm: int = 32
    #: Companies to pre-load before reporting ready (and after each
    #: reload, before the epoch swap): 0 = none, -1 = every registered
    #: company, n > 0 = the first n (sorted).
    warm_on_start: int = 0
    #: Seconds a graceful drain waits for in-flight requests before
    #: giving up and reporting them as abandoned.
    drain_grace: float = 30.0
    #: Per-connection socket timeout (read/write); a client that stops
    #: mid-request cannot pin a handler thread forever.
    socket_timeout: float = 30.0
    #: Override the pipeline's certification default for served queries;
    #: None leaves it as configured.
    certify: bool | None = None
    #: Install SIGINT/SIGTERM handlers (graceful drain) while serving in
    #: the foreground.  Tests drive :meth:`PolicyServer.begin_drain`
    #: directly instead.
    handle_signals: bool = True
    #: Seconds between background-scrubber ticks (one snapshot hash-
    #: verified per tick, skipped while queries are in flight); None
    #: disables scrubbing.  See
    #: :class:`~repro.integrity.scrub.BackgroundScrubber`.
    scrub_interval: float | None = None

    def __post_init__(self) -> None:
        check_admission_bounds(self.max_pending, self.shed_above)
        if self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0")
        if self.drain_grace <= 0:
            raise ValueError("drain_grace must be > 0")
        if self.socket_timeout <= 0:
            raise ValueError("socket_timeout must be > 0")
        if self.max_warm < 1:
            raise ValueError("max_warm must be >= 1")
        if self.warm_on_start < -1:
            raise ValueError("warm_on_start must be -1, 0, or a positive count")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.scrub_interval is not None and self.scrub_interval <= 0:
            raise ValueError("scrub_interval must be > 0 seconds, or None")
