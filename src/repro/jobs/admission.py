"""Bounded admission with watermark shedding: the one gate.

:class:`AdmissionGate` is a counter, not a queue.  The serving daemon
takes a slot per request (each request is its own handler thread); the
:class:`~repro.jobs.runner.JobRunner` takes one per query before handing
it to a worker.  Both rely on the same invariants:

* ``depth`` counts work admitted but not yet completed (queued plus in
  flight), so the bound limits live memory, not just queue length;
* with ``shed_above`` set (validated ``<= max_pending``), a depth at or
  above the watermark **sheds immediately**: the caller turns the
  :class:`ShedDecision` into an answer (a fast 503, or a recorded
  ``ShedOutcome``), never a wait;
* below the watermark but at ``max_pending``, :meth:`~AdmissionGate.enter`
  **waits** on the condition variable until a slot frees, the caller's
  optional deadline expires, or :meth:`~AdmissionGate.stop` (drain) wakes
  it for an immediate ``draining`` refusal.

The condition variable sits on an ``RLock``, so :meth:`~AdmissionGate.stop`
and :meth:`~AdmissionGate.wake` are safe from a signal handler that
interrupts the owning thread while it holds the lock inside ``enter``: the
re-entrant acquire succeeds where a plain lock would deadlock.

Counters (``admitted`` / ``shed`` / ``refused_draining`` /
``refused_deadline`` / ``high_water``) are maintained under the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


def check_admission_bounds(max_pending: int, shed_above: int | None) -> None:
    """Refuse an admission bound and watermark that cannot work together.

    ``shed_above`` must lie in ``[1, max_pending]``: a watermark past the
    blocking bound would leave a depth band that waits instead of
    shedding.  Raises ``ValueError``.
    """
    if max_pending < 1:
        raise ValueError("max_pending must be >= 1")
    if shed_above is not None and not 1 <= shed_above <= max_pending:
        raise ValueError(
            "shed_above must be in [1, max_pending]: the shed "
            "watermark has to fire before the blocking bound, or a "
            "depth between the two would wait instead of shedding"
        )


@dataclass(slots=True)
class ShedDecision:
    """Why admission was refused (the body of a served 503)."""

    reason: str  # "shed" | "draining" | "deadline"
    pending_at_admission: int  # the depth seen under the gate's lock
    shed_above: int | None
    max_pending: int

    def as_dict(self) -> dict[str, object]:
        return {
            "error": self.reason,
            "verdict": "UNKNOWN",
            "shed": {
                "pending_at_admission": self.pending_at_admission,
                "shed_above": self.shed_above,
                "max_pending": self.max_pending,
            },
        }


class AdmissionGate:
    """Bounded in-flight counter with a shed watermark (see module doc)."""

    def __init__(self, max_pending: int, *, shed_above: int | None = None) -> None:
        check_admission_bounds(max_pending, shed_above)
        self.max_pending = max_pending
        self.shed_above = shed_above
        self._cv = threading.Condition(threading.RLock())
        self._depth = 0
        self._stopped = False
        self.high_water = 0
        self.admitted = 0
        self.shed = 0
        self.refused_draining = 0
        self.refused_deadline = 0

    @property
    def depth(self) -> int:
        with self._cv:
            return self._depth

    def _refuse(self, reason: str) -> ShedDecision:
        return ShedDecision(reason, self._depth, self.shed_above, self.max_pending)

    def enter(self, *, deadline_at: float | None = None) -> ShedDecision | None:
        """Try to take a slot; ``None`` on success, the refusal otherwise.

        ``deadline_at`` is an absolute ``time.monotonic()`` instant; a
        caller never waits past its own deadline for a slot.  Without one
        the wait lasts until a slot frees or the gate is stopped.  A gate
        that has been :meth:`stop`-ped refuses immediately with reason
        ``draining``.
        """
        with self._cv:
            while True:
                if self._stopped:
                    self.refused_draining += 1
                    return self._refuse("draining")
                if self.shed_above is not None and self._depth >= self.shed_above:
                    self.shed += 1
                    return self._refuse("shed")
                if self._depth < self.max_pending:
                    self._depth += 1
                    self.high_water = max(self.high_water, self._depth)
                    self.admitted += 1
                    return None
                timeout = None
                if deadline_at is not None:
                    timeout = deadline_at - time.monotonic()
                    if timeout <= 0:
                        self.refused_deadline += 1
                        return self._refuse("deadline")
                self._cv.wait(timeout)

    def exit(self) -> None:
        """Release a slot taken by a successful :meth:`enter`."""
        with self._cv:
            self._depth = max(0, self._depth - 1)
            self._cv.notify_all()

    def stop(self) -> None:
        """Refuse all future admissions (drain); waiters are woken and
        refused immediately.  Idempotent."""
        with self._cv:
            self._stopped = True
            self._cv.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        """Block until every admitted caller has exited (drain barrier)."""
        with self._cv:
            return self._cv.wait_for(lambda: self._depth == 0, timeout)

    def wake(self) -> None:
        """Nudge waiters to re-check deadlines and stop state."""
        with self._cv:
            self._cv.notify_all()
