"""Bounded admission for the serving daemon.

The daemon takes one :class:`AdmissionGate` slot per request and turns a
refusal into a fast 503 whose body is the :class:`ShedDecision`.  The
gate itself lives in :mod:`repro.jobs.admission`, shared with the job
runner's feeder; this module is where the daemon and its callers look it
up.
"""

from repro.jobs.admission import AdmissionGate, ShedDecision

__all__ = ["AdmissionGate", "ShedDecision"]
