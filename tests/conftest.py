"""Shared fixtures.

Expensive artifacts (full policy models) are session-scoped; the small
policy fixture keeps most tests fast and independent of the big corpora.

The suite also installs an autouse network guard: tier-1 must run fully
offline, so any test that accidentally reaches a non-loopback address
(an HTTP provider built without its env gate, a mis-mocked transport)
fails loudly instead of hanging on a firewall or silently calling out.
Loopback stays open — the serving-daemon tests exercise real sockets on
127.0.0.1 by design.

A second autouse fixture is the hang guard: a test still running after
``TEST_TIMEOUT_SECONDS`` dumps every thread's stack and exits the
process, so a reintroduced silent hang (the failure mode the job
watchdog exists for) fails the run instead of wedging it.
"""

from __future__ import annotations

import faulthandler
import os
import socket

import pytest

from repro import PipelineConfig, PolicyPipeline
from repro.llm.client import CachedLLM
from repro.llm.simulated import SimulatedLLM
from repro.llm.tasks import TaskRunner

_LOOPBACK_NAMES = {"localhost", "127.0.0.1", "::1", ""}

#: Per-test wall-clock cap enforced by :func:`_hang_guard`.
TEST_TIMEOUT_SECONDS = 600

#: The terminal's stderr, duplicated before output capture redirects fd 2,
#: so a hang's stack dump is seen rather than lost with the capture.
_HANG_DUMP_FILE = pytest.StashKey()


def pytest_configure(config):
    config.stash[_HANG_DUMP_FILE] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_HANG_DUMP_FILE].close()


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Dump all stacks and exit if one test runs past the cap."""
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_SECONDS, exit=True, file=request.config.stash[_HANG_DUMP_FILE]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


def _is_loopback(address: object) -> bool:
    """Is a connect() destination local? (AF_UNIX paths always are.)"""
    if not isinstance(address, tuple) or not address:
        return True  # AF_UNIX path, abstract socket, etc.
    host = address[0]
    if isinstance(host, bytes):
        host = host.decode("utf-8", "replace")
    if not isinstance(host, str):
        return True
    return host in _LOOPBACK_NAMES or host.startswith("127.")


@pytest.fixture(autouse=True)
def _no_external_network(monkeypatch):
    """Fail loudly on any non-loopback network connect during tier-1."""
    real_connect = socket.socket.connect
    real_connect_ex = socket.socket.connect_ex

    def guarded_connect(self, address):
        if not _is_loopback(address):
            raise RuntimeError(
                f"test attempted an external network connection to "
                f"{address!r}; tier-1 must stay offline (use a fake "
                f"transport or a cassette)"
            )
        return real_connect(self, address)

    def guarded_connect_ex(self, address):
        if not _is_loopback(address):
            raise RuntimeError(
                f"test attempted an external network connection to "
                f"{address!r}; tier-1 must stay offline (use a fake "
                f"transport or a cassette)"
            )
        return real_connect_ex(self, address)

    monkeypatch.setattr(socket.socket, "connect", guarded_connect)
    monkeypatch.setattr(socket.socket, "connect_ex", guarded_connect_ex)
    yield

SMALL_POLICY = """\
Acme Privacy Policy. Last updated January 2025. Welcome to Acme ("Acme", \
"we", "us", or "our"). This Privacy Policy explains how Acme handles your \
information.

1. Information You Provide
We collect information that you provide directly. We collect your name \
and email address. When you create an account, you may provide your \
name, email address, and phone number. If you contact customer support, \
we collect your message content. Account and profile information, such \
as username, password, and profile image.

2. How We Share Your Information
We share your usage information with analytics providers for legitimate \
business purposes. We disclose personal information to law enforcement \
when required by law. We do not sell your contact information to third \
parties. We share your location information with advertisers with your \
consent.

3. Data Retention
We retain your email address as long as your account remains active. We \
delete your message content after 90 days.
"""


@pytest.fixture(scope="session")
def runner() -> TaskRunner:
    return TaskRunner(CachedLLM(SimulatedLLM()))


@pytest.fixture(scope="session")
def pipeline() -> PolicyPipeline:
    return PolicyPipeline()

@pytest.fixture(scope="session")
def small_policy_text() -> str:
    return SMALL_POLICY


@pytest.fixture(scope="session")
def small_model(pipeline, small_policy_text):
    return pipeline.process(small_policy_text)


@pytest.fixture(scope="session")
def tiktak_model(pipeline):
    from repro.corpus import tiktak_policy

    return pipeline.process(tiktak_policy().text)
