"""Machine-speed probe.

On a shared machine the same work takes 30-50% longer in some minutes
than in others (other tenants, frequency scaling), for the program and
for a fixed piece of plain Python work alike.  A run times that probe
while the program is idle, outside every timed region, and reports times
scaled to the speed at which the probe takes ``REFERENCE_PROBE_MS``: a
run in a slow minute and a run in a fast one then report the same
program speed.  The raw figures and the factor are in every report.

The probe runs in a child process of its own.  The caller blocks while
it runs, so a thread the program leaves running does not share the
probe's interpreter lock: it can slow the program's own figures, but
not the probe that scales them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: The probe builds, sorts and drops a table of this many small objects:
#: interpreter work with allocation and a working set of a few MB, like
#: the program's.  It tracked the program's speed swings a little better
#: than a pure arithmetic loop did.
PROBE_ENTRIES = 8_000
#: The probe's median on a 2-core x86-64 machine with Python 3.11 in a
#: typical minute; it only fixes the scale.
REFERENCE_PROBE_MS = 10.0
#: Each sampling first waits this long, so threads the program has just
#: released (a job runner's workers exiting) are done before the probe.
SETTLE_S = 0.01

_CHILD = f"""
import sys, time

def probe():
    table = {{}}
    for i in range({PROBE_ENTRIES}):
        table["k%d" % i] = ("v%d" % i, [i, i + 1])
    return sorted(table, key=lambda k: table[k][0])

for _ in sys.stdin:
    started = time.perf_counter()
    probe()
    print((time.perf_counter() - started) * 1e3, flush=True)
"""

_child: subprocess.Popen | None = None


def probe_ms() -> float:
    """One timing of the probe, in the probe process (started on first use)."""
    global _child
    if _child is None:
        _child = subprocess.Popen(
            [sys.executable, "-B", "-c", _CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        _exchange()  # the first probe warms the child up
    return _exchange()


def _exchange() -> float:
    _child.stdin.write("\n")
    _child.stdin.flush()
    line = _child.stdout.readline()
    if not line:
        raise RuntimeError("speed probe process exited")
    return float(line)


def shutdown() -> None:
    """Stop the probe process and wait for it to end."""
    global _child
    if _child is None:
        return
    child, _child = _child, None
    child.stdin.close()
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()


class SpeedMeter:
    """Probe samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time the probes took, to leave out of windows

    def sample(self, times: int = 1) -> None:
        started = time.perf_counter()
        time.sleep(SETTLE_S)
        for _ in range(times):
            self.samples.append(probe_ms())
        self.spent_s += time.perf_counter() - started

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return factor_of(self.samples)


def factor_of(samples: list[float]) -> float:
    """Reference time over the probes' mean, leaving out the highest and
    lowest tenth.  Probe times are bimodal on a shared machine (about 6 and
    10 ms, in shares that drift), and a median jumps between the modes
    where the program, whose operations last far longer than a probe,
    feels their mixture."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_PROBE_MS / statistics.fmean(ordered[cut:len(ordered) - cut])
