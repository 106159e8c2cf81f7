"""Deterministic chaos suites for the serving daemon (``-m serving``).

Each scenario is the acceptance proof for one PR 7 robustness headline,
driven through real sockets on 127.0.0.1 but made deterministic the way
the job-runner chaos suite is: the ``query_fn`` seam blocks on events
instead of sleeping, so "under load" means "provably in flight", not
"hopefully still running".

* **overload storm** — with the shed watermark crossed, every excess
  request gets a *fast* structured 503 while the admitted ones still
  complete within their deadlines; nothing hangs.
* **reload under load** — a registry hot-swap during a pinned in-flight
  query loses zero requests; the in-flight answer comes from the old
  epoch/revision, the next request observes the new one.
* **drain under load** — ``POST /drain`` refuses new work immediately,
  finishes everything already admitted, and reports both counts.
* **kill mid-request** — a hard stop with a request on the wire never
  corrupts the on-disk registry: a fresh daemon on the same root serves
  correct answers immediately.
* **drain reply** — a ``POST /drain`` client gets its 202 even from a
  process that exits as soon as the drain completes.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import PolicyPipeline, PolicyServer, ServerConfig, ServingClient
from repro.registry import MintSpec, PolicyRegistry

pytestmark = pytest.mark.serving

QUESTION = "The company collects the user's email address."

UPDATED_POLICY = """\
Updated Privacy Policy. We collect your name and email address. We share \
your usage information with analytics providers. We retain your email \
address while your account is active. We collect your precise location \
and share it with advertisers with your consent.
"""


def mint_root(pipeline, tmp_path, count=3, seed=31):
    root = tmp_path / "reg"
    registry = PolicyRegistry(root, pipeline=pipeline, max_warm=8)
    report = registry.mint(MintSpec(count=count, seed=seed, target_words=(340,)))
    assert len(report.minted) == count
    return root


class GatedQueries:
    """A ``query_fn`` whose in-flight requests park on an event until
    released — deterministic load, no sleeps."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.pipeline = PolicyPipeline()

    def __call__(self, model, question, budget, certify):
        self.entered.release()
        assert self.release.wait(timeout=30.0), "test forgot to release"
        return self.pipeline.query(model, question, budget=budget, certify=certify)

    def wait_in_flight(self, n: int) -> None:
        for _ in range(n):
            assert self.entered.acquire(timeout=10.0), "request never started"


def start_server(root, *, query_fn=None, **overrides) -> PolicyServer:
    defaults = dict(
        root=root,
        port=0,
        max_pending=4,
        default_deadline=15.0,
        warm_on_start=-1,
        handle_signals=False,
    )
    defaults.update(overrides)
    server = PolicyServer(
        ServerConfig(**defaults), pipeline=PolicyPipeline(), query_fn=query_fn
    )
    server.start()
    return server


def query_in_thread(server, company, results, key, **kwargs):
    host, port = server.address

    def run():
        client = ServingClient(host, port, timeout=30.0)
        try:
            results[key] = client.query(company, QUESTION, **kwargs)
        except OSError as exc:  # killed mid-request
            results[key] = exc
        finally:
            client.close()

    thread = threading.Thread(target=run, name=f"chaos-{key}")
    thread.start()
    return thread


class TestOverloadStorm:
    def test_storm_sheds_fast_while_admitted_requests_complete(
        self, pipeline, tmp_path
    ):
        gated = GatedQueries()
        server = start_server(
            mint_root(pipeline, tmp_path),
            query_fn=gated,
            max_pending=4,
            shed_above=2,
        )
        try:
            company = server.companies()[0]
            results: dict[str, object] = {}

            in_flight = [
                query_in_thread(server, company, results, f"admitted-{i}")
                for i in range(2)
            ]
            gated.wait_in_flight(2)

            # The storm: every request past the watermark must be refused
            # in bounded time with a structured body — while the two
            # admitted requests are still provably parked in flight.
            host, port = server.address
            storm_client = ServingClient(host, port, timeout=10.0)
            try:
                started = time.monotonic()
                storm = [
                    storm_client.query(company, QUESTION) for _ in range(6)
                ]
                storm_seconds = time.monotonic() - started
            finally:
                storm_client.close()

            assert storm_seconds < 5.0, "sheds must be fast, not queued"
            for status, body in storm:
                assert status == 503
                assert body["error"] == "shed"
                assert body["verdict"] == "UNKNOWN"
                assert body["shed"]["shed_above"] == 2

            gated.release.set()
            for t in in_flight:
                t.join(timeout=30.0)
                assert not t.is_alive()
            for i in range(2):
                status, body = results[f"admitted-{i}"]
                assert status == 200, "admitted requests must still finish"

            stats = server.stats()
            assert stats["queue"]["shed"] == 6
            assert stats["queue"]["admitted"] == 2
            assert stats["queue"]["depth"] == 0
            assert stats["metrics"]["server_requests"] == 2
        finally:
            gated.release.set()
            server.stop()

    def test_unshedded_overflow_waits_then_wins_a_slot(self, pipeline, tmp_path):
        # Without a watermark the overflow request waits (bounded by its
        # deadline) and is admitted as soon as a slot frees — backpressure,
        # not refusal.
        gated = GatedQueries()
        server = start_server(
            mint_root(pipeline, tmp_path, count=2, seed=37),
            query_fn=gated,
            max_pending=1,
            shed_above=None,
        )
        try:
            company = server.companies()[0]
            results: dict[str, object] = {}
            first = query_in_thread(server, company, results, "first")
            gated.wait_in_flight(1)
            overflow = query_in_thread(server, company, results, "overflow")
            time.sleep(0.1)
            assert overflow.is_alive(), "overflow should be waiting for a slot"

            gated.release.set()
            first.join(timeout=30.0)
            overflow.join(timeout=30.0)
            assert results["first"][0] == 200
            assert results["overflow"][0] == 200
            assert server.gate.admitted == 2
        finally:
            gated.release.set()
            server.stop()


class TestReloadUnderLoad:
    def test_zero_loss_and_new_revision_visible(self, pipeline, tmp_path):
        root = mint_root(pipeline, tmp_path, count=2, seed=41)
        gated = GatedQueries()
        server = start_server(root, query_fn=gated)
        try:
            company = server.companies()[0]
            host, port = server.address
            results: dict[str, object] = {}

            pinned = query_in_thread(server, company, results, "pinned")
            gated.wait_in_flight(1)

            # Out-of-band revision bump: the successor snapshot lands on
            # disk while the old epoch still holds the old model warm.
            side = PolicyRegistry(root, pipeline=pipeline)
            model = side.get_model(company)
            old_revision = model.revision
            updated, _ = pipeline.update(model, UPDATED_POLICY)
            side.store_for(company).commit_update(updated)

            control = ServingClient(host, port, timeout=10.0)
            try:
                status, reload_body = control.reload()
                assert status == 200
                assert reload_body["new_epoch"] == 1
                assert reload_body["pinned"] == 1, "in-flight pin must be visible"

                stats = control.stats()
                assert stats["epoch"] == 1
                assert stats["retiring"] == [[0, 1]], (
                    "old epoch must drain via the retiring list, not vanish"
                )

                gated.release.set()
                pinned.join(timeout=30.0)
                assert not pinned.is_alive()

                # Zero loss: the pinned request finished against its old
                # epoch and old revision.
                status, body = results["pinned"]
                assert status == 200
                assert body["epoch"] == 0
                assert body["revision"] == old_revision

                # The very next request observes the reloaded registry.
                status, body = control.query(company, QUESTION)
                assert status == 200
                assert body["epoch"] == 1
                assert body["revision"] == old_revision + 1

                assert control.stats()["retiring"] == []
            finally:
                control.close()
        finally:
            gated.release.set()
            server.stop()


class TestDrainUnderLoad:
    def test_http_drain_finishes_in_flight_and_refuses_new(
        self, pipeline, tmp_path
    ):
        gated = GatedQueries()
        server = start_server(
            mint_root(pipeline, tmp_path), query_fn=gated, max_pending=4
        )
        try:
            company = server.companies()[0]
            host, port = server.address
            results: dict[str, object] = {}

            in_flight = [
                query_in_thread(server, company, results, f"inflight-{i}")
                for i in range(3)
            ]
            gated.wait_in_flight(3)

            control = ServingClient(host, port, timeout=10.0)
            try:
                status, body = control.drain()
                assert status == 202 and body["initiated"] is True
                status, body = control.drain()  # idempotent over HTTP too
                assert status == 202 and body["initiated"] is False

                status, body = control.query(company, QUESTION)
                assert status == 503 and body["error"] == "draining"
                assert control.readyz()[0] == 503
                assert control.healthz()[0] == 200
            finally:
                control.close()

            gated.release.set()
            report = server.await_drained(timeout=30.0)
            for t in in_flight:
                t.join(timeout=30.0)

            assert report.drained_clean
            assert report.reason == "http"
            assert report.in_flight_at_drain == 3
            assert report.completed_during_drain == 3
            assert report.refused_during_drain == 1
            for i in range(3):
                assert results[f"inflight-{i}"][0] == 200
        finally:
            gated.release.set()
            server.stop()


class TestKillMidRequest:
    def test_hard_kill_then_clean_restart_on_same_root(self, pipeline, tmp_path):
        root = mint_root(pipeline, tmp_path, count=2, seed=43)
        gated = GatedQueries()
        server = start_server(root, query_fn=gated)
        company = server.companies()[0]
        results: dict[str, object] = {}

        victim = query_in_thread(server, company, results, "victim")
        gated.wait_in_flight(1)

        # Hard stop with the request still on the wire — no drain, the
        # moral equivalent of SIGKILL for everything but the test process.
        server.stop()
        gated.release.set()
        victim.join(timeout=30.0)
        assert not victim.is_alive()
        # The victim either got its answer out through the already-open
        # socket or saw the connection die; both are acceptable for a
        # kill.  What is NOT acceptable is hanging or corrupting state.
        outcome = results["victim"]
        assert isinstance(outcome, (tuple, OSError))

        # A fresh daemon on the same root must come up and answer
        # immediately: the kill touched no durable state.
        reborn = start_server(root)
        try:
            host, port = reborn.address
            client = ServingClient(host, port, timeout=10.0)
            try:
                assert client.companies() == sorted(client.companies())
                status, body = client.query(company, QUESTION)
                assert status == 200
                assert body["verdict"] in {"VALID", "INVALID", "UNKNOWN"}
                status, fleet_body = client.fleet(QUESTION)
                assert status == 200
                assert fleet_body["aborted"] is False
            finally:
                client.close()
        finally:
            reborn.stop()


#: A ``repro serve`` stand-in that exits the moment ``serve_until_drained``
#: returns.  ``begin_drain`` is slowed down after it returns: the handler
#: thread that called it stalls there, as a descheduled thread would, while
#: the foreground loop is free to drain and exit.
_EXIT_ON_DRAIN = """\
import os, sys, time
from repro import PolicyPipeline, PolicyServer, ServerConfig

real = PolicyServer.begin_drain

def slow_begin_drain(self, *args, **kwargs):
    initiated = real(self, *args, **kwargs)
    time.sleep(1.0)
    return initiated

PolicyServer.begin_drain = slow_begin_drain
server = PolicyServer(
    ServerConfig(root=sys.argv[1], port=0, handle_signals=False),
    pipeline=PolicyPipeline(),
)
server.start()
print(server.address[1], flush=True)
server.serve_until_drained()
os._exit(0)
"""


class TestDrainReply:
    @pytest.mark.parametrize("body", [None, b"{}"], ids=["no-body", "body"])
    def test_http_drain_reply_survives_process_exit(self, pipeline, tmp_path, body):
        root = mint_root(pipeline, tmp_path)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _EXIT_ON_DRAIN, str(root)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            port = int(proc.stdout.readline())
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
            try:
                conn.request("POST", "/drain", body=body)
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
            finally:
                conn.close()
            assert status == 202
            assert reply == {"draining": True, "initiated": True}
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
