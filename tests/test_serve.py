"""The campaign daemon: units + in-process API integration.

The in-process tests run the real ServeApp (real sockets, real worker
processes) on an ephemeral port inside a thread; subprocess crash
tests live in ``test_serve_replay.py``.
"""

import asyncio
import errno
import json
import logging
import os
import queue
import threading
import time

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.store import ResultStore, config_from_dict, config_key
from repro.parallel.manifest import RunManifest
from repro.parallel.retry import NO_RETRY
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, ServeError
from repro.serve.executor import CampaignExecutor
from repro.serve.http import HttpError, read_request
from repro.serve.loadgen import micro_cell
from repro.serve.scheduler import (
    AdmissionController,
    AdmissionLimits,
    FairScheduler,
    ShedLoad,
)
from repro.serve.service import CampaignService
from repro.serve.singleflight import FLIGHT_CANCELLED, FLIGHT_QUEUED, SingleFlight

from tests.conftest import MICRO_SCALE


# ---------------------------------------------------------------------------
# units: fair scheduler


def _flight(registry, key, tenant, priority=10):
    return registry.open(key, config=None, tenant=tenant, priority=priority)


class TestFairScheduler:
    def test_round_robin_across_tenants(self):
        reg, sched = SingleFlight(), FairScheduler()
        # Tenant A floods before tenant B submits a single flight.
        for i in range(3):
            sched.push(_flight(reg, f"a{i}", "alice"))
        sched.push(_flight(reg, "b0", "bob"))
        order = [sched.pop().key for _ in range(4)]
        # Bob's lone flight runs second, not behind Alice's backlog.
        assert order == ["a0", "b0", "a1", "a2"]

    def test_priority_orders_within_tenant(self):
        reg, sched = SingleFlight(), FairScheduler()
        sched.push(_flight(reg, "low", "alice", priority=50))
        sched.push(_flight(reg, "high", "alice", priority=1))
        assert sched.pop().key == "high"
        assert sched.pop().key == "low"

    def test_cancelled_flights_lazily_skipped(self):
        reg, sched = SingleFlight(), FairScheduler()
        doomed = _flight(reg, "x", "alice")
        sched.push(doomed)
        sched.push(_flight(reg, "y", "alice"))
        doomed.state = FLIGHT_CANCELLED
        assert len(sched) == 1
        assert sched.pop().key == "y"
        assert sched.pop() is None

    def test_clear_returns_only_queued(self):
        reg, sched = SingleFlight(), FairScheduler()
        doomed = _flight(reg, "x", "alice")
        live = _flight(reg, "y", "bob")
        sched.push(doomed)
        sched.push(live)
        doomed.state = FLIGHT_CANCELLED
        assert [f.key for f in sched.clear()] == ["y"]
        assert len(sched) == 0


class TestAdmission:
    def test_queue_ceiling_sheds_with_retry_after(self):
        ctl = AdmissionController(AdmissionLimits(max_queued=4), workers=2)
        with pytest.raises(ShedLoad) as exc:
            ctl.admit(
                tenant="t", new_flights=3, queued=2,
                tenant_queued=0, inflight_cells=0,
            )
        assert exc.value.retry_after_s >= 1
        assert ctl.shed_by_reason == {"queue_full": 1}

    def test_tenant_quota_independent_of_global_queue(self):
        ctl = AdmissionController(
            AdmissionLimits(max_queued=100, max_tenant_queued=2), workers=2
        )
        with pytest.raises(ShedLoad, match="tenant"):
            ctl.admit(
                tenant="greedy", new_flights=1, queued=5,
                tenant_queued=2, inflight_cells=0,
            )

    def test_inflight_budget(self):
        ctl = AdmissionController(AdmissionLimits(max_inflight=4), workers=2)
        with pytest.raises(ShedLoad, match="in-flight"):
            ctl.admit(
                tenant="t", new_flights=2, queued=1,
                tenant_queued=1, inflight_cells=2,
            )

    def test_within_limits_admits(self):
        ctl = AdmissionController(AdmissionLimits(), workers=2)
        ctl.admit(
            tenant="t", new_flights=10, queued=0,
            tenant_queued=0, inflight_cells=0,
        )
        assert ctl.shed_count == 0

    def test_retry_after_tracks_observed_service_rate(self):
        ctl = AdmissionController(AdmissionLimits(), workers=2)
        fast = ctl.retry_after_s(backlog=100)
        for _ in range(50):
            ctl.observe_wall(30.0)  # cells got much slower
        assert ctl.retry_after_s(backlog=100) > fast


# ---------------------------------------------------------------------------
# units: single-flight registry


class TestSingleFlight:
    def test_join_counts_dedup_and_pulls_priority_forward(self):
        reg = SingleFlight()
        flight = reg.open("k", config=None, tenant="a", priority=50)

        class _Campaign:
            priority = 3

        reg.join("k", _Campaign(), object())
        assert reg.joins == 1
        assert flight.priority == 3  # queued flight rescheduled hotter

    def test_duplicate_open_rejected(self):
        reg = SingleFlight()
        reg.open("k", config=None, tenant="a", priority=1)
        with pytest.raises(ValueError, match="already open"):
            reg.open("k", config=None, tenant="b", priority=1)

    def test_land_removes(self):
        reg = SingleFlight()
        reg.open("k", config=None, tenant="a", priority=1)
        assert reg.land("k").key == "k"
        assert "k" not in reg
        assert reg.land("k") is None


# ---------------------------------------------------------------------------
# units: HTTP parsing hardening


def _parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestHttpParsing:
    def test_parses_request_line_query_and_body(self):
        req = _parse(
            b"POST /v1/campaigns?x=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        assert req.method == "POST"
        assert req.path == "/v1/campaigns"
        assert req.query == {"x": "1"}
        assert req.json() == {}

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GARBAGE\r\n\r\n")
        assert exc.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
            )
        assert exc.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert exc.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert exc.value.status == 400

    def test_bad_json_body_is_400(self):
        req = _parse(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{bad"
        )
        with pytest.raises(HttpError) as exc:
            req.json()
        assert exc.value.status == 400


# ---------------------------------------------------------------------------
# units: the loop -> supervisor hand-off


class _InlineLoop:
    """Stands in for the event loop: runs posted callbacks at once."""

    @staticmethod
    def call_soon_threadsafe(fn, *args):
        fn(*args)


class TestExecutorHandOff:
    def test_submit_and_stop_do_not_wait_for_a_heartbeat(self, tmp_path):
        # With a 5 s heartbeat nothing but the wake channel can get a
        # cell to a worker (or the thread to its exit) within a second.
        sim_log = tmp_path / "sim.log"
        done: queue.Queue = queue.Queue()
        executor = CampaignExecutor(
            loop=_InlineLoop(), store=ResultStore(str(tmp_path / "store")),
            on_done=lambda job, outcome: done.put((job, outcome)),
            workers=1, retry=NO_RETRY,
            sim_log=str(sim_log), heartbeat_s=5.0,
        )
        executor.start()
        try:
            for seed in (1, 2):  # empty fleet, then a warm idle worker
                time.sleep(0.3)  # the supervisor is back in its wait
                cfg = ExperimentConfig(
                    scale=MICRO_SCALE, seed=seed, sim_time_ns=6e5,
                    warmup_ns=2e5,
                )
                key = config_key(cfg)
                submitted = time.monotonic()
                executor.submit(cfg, key)
                while not (sim_log.exists() and key in sim_log.read_text()):
                    assert time.monotonic() - submitted < 1.0, (
                        f"cell {seed} not dispatched within 1 s of submit"
                    )
                    time.sleep(0.002)
                job, outcome = done.get(timeout=60)
                assert (outcome.key, outcome.status) == (key, "ok")
                assert 0.0 <= job.started - job.queued_at < 1.0
        finally:
            asked = time.monotonic()
            assert executor.stop(timeout_s=30)
        assert time.monotonic() - asked < 1.0


# ---------------------------------------------------------------------------
# units: the admission journal, driven without HTTP or workers


async def _drain(service):
    await service.drain(asyncio.get_running_loop())


@pytest.fixture
def journal_service(tmp_path):
    """Services over one store; each drains (closing its journal) at teardown."""
    made = []

    def make():
        service = CampaignService(str(tmp_path / "store"), workers=1)
        made.append(service)
        return service

    yield make
    for service in made:
        asyncio.run(_drain(service))
        assert service._journal_fd is None


def _journal(service):
    with open(service.journal_path, "rb") as fh:
        return fh.read()


class TestAdmissionJournal:
    def test_each_admission_is_one_line_and_no_spec_file(self, journal_service):
        service = journal_service()
        campaigns = [service.submit([micro_cell(seed=s)]) for s in (1, 2, 2)]
        records = [json.loads(line) for line in _journal(service).splitlines()]
        assert [r["id"] for r in records] == [c.id for c in campaigns]
        for record, campaign in zip(records, campaigns):
            ((cell, written),) = zip(campaign.cells, record["cells"])
            assert written["key"] == cell.key
            assert config_from_dict(written["config"]) == cell.config
        assert os.listdir(service.campaigns_dir) == []

    def test_the_line_is_synced_before_submit_returns(
        self, journal_service, monkeypatch
    ):
        service = journal_service()
        synced = []
        fdatasync = os.fdatasync
        monkeypatch.setattr(
            os, "fdatasync",
            lambda fd: (fdatasync(fd), synced.append(_journal(service)))[0],
        )
        campaign = service.submit([micro_cell(seed=1)])
        (on_disk,) = synced
        assert json.loads(on_disk)["id"] == campaign.id

    def test_a_failed_append_admits_nothing_and_replays_nothing(
        self, journal_service, monkeypatch
    ):
        def enospc(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        service = journal_service()
        monkeypatch.setattr(os, "fdatasync", enospc)
        with pytest.raises(OSError):
            service.submit([micro_cell(seed=1)])
        monkeypatch.undo()
        assert service.campaigns == {}
        assert len(service.scheduler) == 0 and len(service.flights) == 0
        assert _journal(service) == b""

        kept = service.submit([micro_cell(seed=2)]).id
        before = _journal(service)
        monkeypatch.setattr(os, "fdatasync", enospc)
        with pytest.raises(OSError):
            service.submit([micro_cell(seed=3)])
        monkeypatch.undo()
        assert list(service.campaigns) == [kept]
        assert len(service.scheduler) == 1 and len(service.flights) == 1
        assert _journal(service) == before
        fresh = journal_service()
        assert fresh.recover()["campaigns"] == 1
        assert list(fresh.campaigns) == [kept]

    def test_a_failed_cancel_append_cancels_nothing(
        self, journal_service, monkeypatch
    ):
        def enospc(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        service = journal_service()
        campaign = service.submit([micro_cell(seed=1)])
        (cell,) = campaign.cells
        before = _journal(service)
        monkeypatch.setattr(os, "fdatasync", enospc)
        with pytest.raises(OSError):
            service.cancel(campaign.id)
        monkeypatch.undo()
        assert not campaign.cancelled
        assert cell.status == "queued"
        assert service.flights.get(cell.key).state == FLIGHT_QUEUED
        assert len(service.scheduler) == 1
        assert _journal(service) == before
        fresh = journal_service()
        assert fresh.recover()["campaigns"] == 1
        assert not fresh.get(campaign.id).cancelled
        assert [c.status for c in fresh.get(campaign.id).cells] == ["queued"]

    def test_a_cancels_later_line_wins_on_recovery(self, journal_service):
        first = journal_service()
        cid = first.submit([micro_cell(seed=1)]).id
        first.cancel(cid)
        assert len(_journal(first).splitlines()) == 2
        second = journal_service()
        assert second.recover()["campaigns"] == 1
        assert second.get(cid).cancelled
        assert [c.status for c in second.get(cid).cells] == ["cancelled"]

    def test_a_corrupt_middle_line_is_skipped_and_counted(
        self, journal_service, caplog
    ):
        first = journal_service()
        ids = [first.submit([micro_cell(seed=s)]).id for s in (1, 2, 3)]
        lines = _journal(first).splitlines(keepends=True)
        with open(first.journal_path, "wb") as fh:
            fh.write(lines[0] + b'{"id": "c-bad", "cel\n' + lines[2])
        second = journal_service()
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            assert second.recover()["campaigns"] == 2
        assert sorted(second.campaigns) == sorted([ids[0], ids[2]])
        assert "skipped 1 unreadable journal line" in caplog.text

    def test_a_torn_tail_is_cut_and_the_next_line_stands_alone(
        self, journal_service
    ):
        first = journal_service()
        ids = [first.submit([micro_cell(seed=s)]).id for s in (1, 2)]
        whole = _journal(first)
        with open(first.journal_path, "ab") as fh:
            fh.write(b'{"id": "c-torn", "tenant": "def')
        second = journal_service()
        assert second.recover()["campaigns"] == 2
        assert list(second.campaigns) == ids
        assert _journal(second) == whole
        later = second.submit([micro_cell(seed=3)]).id
        records = [json.loads(line) for line in _journal(second).splitlines()]
        assert [r["id"] for r in records] == ids + [later]

    def test_an_old_layout_spec_file_is_reported_not_replayed(
        self, journal_service, caplog
    ):
        first = journal_service()
        old = os.path.join(first.campaigns_dir, "c-old.json")
        with open(old, "w") as fh:
            json.dump({"id": "c-old", "cells": [
                {"config": micro_cell(seed=1)},
            ]}, fh)
        second = journal_service()
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            assert second.recover()["campaigns"] == 0
        assert "1 old-layout campaigns/<id>.json spec(s)" in caplog.text
        assert "c-old" not in second.campaigns
        assert os.path.exists(old)


# ---------------------------------------------------------------------------
# in-process daemon fixture


class Daemon:
    """A real ServeApp on an ephemeral port, on a background thread."""

    def __init__(self, store_dir, **service_kw):
        service_kw.setdefault("workers", 2)
        self.service = CampaignService(str(store_dir), **service_kw)
        self.app = ServeApp(self.service, host="127.0.0.1", port=0)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.app.run()), daemon=True
        )
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.app.bound_port is None:
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.01)
        self.client = ServeClient("127.0.0.1", self.app.bound_port)

    def stop(self):
        if self.thread.is_alive():
            self.app.loop.call_soon_threadsafe(self.app.request_shutdown)
            self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "daemon failed to drain"


@pytest.fixture
def daemon_factory(tmp_path):
    started = []

    def start(subdir="store", **kw):
        d = Daemon(tmp_path / subdir, **kw)
        started.append(d)
        return d

    yield start
    for d in started:
        d.stop()


# ---------------------------------------------------------------------------
# API integration


class TestServeApi:
    def test_submit_run_cache_and_result_fetch(self, daemon_factory):
        d = daemon_factory()
        c = d.client
        r = c.submit(
            [micro_cell(seed=11), micro_cell(seed=11), micro_cell(seed=12)],
            tenant="alice",
        )
        assert r.status == 202
        state = c.wait(r.json()["id"], timeout_s=120)
        assert state["counts"] == {"ok": 3}
        assert state["dedup_joins"] == 1  # within-campaign duplicate joined

        # Same configs again: pure cache, zero new simulations.
        before = c.stats()["simulations_started"]
        r2 = c.submit([micro_cell(seed=11), micro_cell(seed=12)])
        state2 = c.wait(r2.json()["id"], timeout_s=30)
        assert state2["counts"] == {"cached": 2}
        assert c.stats()["simulations_started"] == before

        key = state["cells"][0]["key"]
        raw = c.result_bytes(key)
        assert raw == c.result_bytes(key)  # stable bytes
        import json as _json

        assert "rates_gbps" in _json.loads(raw)

    def test_invalid_cells_rejected_with_per_cell_problems(
        self, daemon_factory
    ):
        d = daemon_factory()
        bad = micro_cell()
        bad["p"] = 9.0
        worse = {"seed": 1}  # no scale at all
        r = d.client.submit([micro_cell(), bad, worse])
        assert r.status == 400
        problems = r.json()["problems"]
        assert [p["cell"] for p in problems] == [1, 2]
        assert "p must be in [0, 1]" in problems[0]["error"]
        # Nothing was admitted.
        assert d.client.stats()["campaigns"] == 0

    def test_payload_shape_validation(self, daemon_factory):
        d = daemon_factory()
        assert d.client.submit([]).status == 400
        assert d.client.request(
            "POST", "/v1/campaigns", {"cells": [micro_cell()], "priority": -1}
        ).status == 400
        assert d.client.request("POST", "/v1/campaigns", "nope").status == 400

    def test_unknown_routes_and_methods(self, daemon_factory):
        d = daemon_factory()
        assert d.client.request("GET", "/v1/nope").status == 404
        assert d.client.request("DELETE", "/v1/campaigns").status == 405
        assert d.client.request("GET", "/v1/results/deadbeef").status == 404
        with pytest.raises(ServeError):
            d.client.campaign("missing")

    def test_admission_sheds_with_retry_after(self, daemon_factory):
        d = daemon_factory(
            subdir="shed-store",
            limits=AdmissionLimits(max_queued=1, max_inflight=3),
            workers=1,
        )
        statuses = []
        responses = []
        for i in range(12):
            r = d.client.submit([micro_cell(seed=500 + i)])
            statuses.append(r.status)
            responses.append(r)
        assert 429 in statuses, statuses
        shed = [r for r in responses if r.status == 429]
        assert all(r.retry_after_s >= 1 for r in shed)
        assert all(r.json()["shed"] for r in shed)
        stats = d.client.stats()
        assert stats["shed"]["total"] == len(shed)
        # Accepted campaigns still complete despite the pressure.
        for r in responses:
            if r.status == 202:
                d.client.wait(r.json()["id"], timeout_s=120)

    def test_cancel_queued_cells(self, daemon_factory):
        d = daemon_factory(subdir="cancel-store", workers=1)
        # One worker + several distinct cells: most of them queue.
        r = d.client.submit([micro_cell(seed=700 + i) for i in range(6)])
        assert r.status == 202
        cid = r.json()["id"]
        state = d.client.cancel(cid)
        assert state["cancelled"] is True
        final = d.client.wait(cid, timeout_s=120)
        counts = final["counts"]
        assert counts.get("cancelled", 0) >= 1, counts
        # Cancel is idempotent.
        assert d.client.cancel(cid)["cancelled"] is True
        # The daemon still serves fresh work afterwards.
        r2 = d.client.submit([micro_cell(seed=790)])
        assert d.client.wait(r2.json()["id"], timeout_s=120)["counts"] == {
            "ok": 1
        }

    def test_sse_stream_snapshot_deltas_and_terminal_event(
        self, daemon_factory
    ):
        d = daemon_factory()
        r = d.client.submit([micro_cell(seed=900)])
        events = d.client.events(r.json()["id"], timeout_s=120)
        names = [n for n, _ in events]
        assert names[0] == "snapshot"
        assert names[-1] == "campaign"
        assert events[-1][1]["done"] is True
        cell_events = [p for n, p in events if n == "cell"]
        assert any(p["status"] == "ok" for p in cell_events)

    def test_sse_on_finished_campaign_is_just_the_snapshot(
        self, daemon_factory
    ):
        d = daemon_factory()
        r = d.client.submit([micro_cell(seed=901)])
        d.client.wait(r.json()["id"], timeout_s=120)
        events = d.client.events(r.json()["id"], timeout_s=30)
        assert [n for n, _ in events] == ["snapshot"]
        assert events[0][1]["done"] is True

    def test_stats_shape(self, daemon_factory):
        d = daemon_factory()
        stats = d.client.stats()
        for field in (
            "workers", "draining", "campaigns", "queued_flights",
            "cache_hits", "dedup_joins", "shed", "simulations_started",
            "cells_done", "worker_restarts", "dispatch_wait_ms",
        ):
            assert field in stats, field

    def test_dispatch_wait_is_reported_by_the_daemon(self, daemon_factory):
        d = daemon_factory(subdir="wait-store", workers=1)
        r = d.client.submit([micro_cell(seed=960 + i) for i in range(3)])
        final = d.client.wait(r.json()["id"], timeout_s=120)
        waits = [c["queue_wait_s"] for c in final["cells"]]
        # One worker: each cell waits for the ones before it...
        assert waits == sorted(waits) and waits[0] >= 0.0
        assert waits[2] >= final["cells"][0]["wall_seconds"]
        # ...while the hand-off itself, once a worker is free, is short.
        stage = d.client.stats()["dispatch_wait_ms"]
        assert stage["count"] == 3
        assert 0.0 <= stage["p50"] <= stage["p95"] <= stage["max"] < 1000.0
        # A cached cell never waited for a worker.
        r2 = d.client.submit([micro_cell(seed=960)])
        (cell,) = d.client.wait(r2.json()["id"], timeout_s=30)["cells"]
        assert (cell["status"], cell["queue_wait_s"]) == ("cached", None)

    def test_cell_status_and_manifest_carry_the_workers_peak_rss(
        self, daemon_factory
    ):
        d = daemon_factory(subdir="rss-store", workers=1)
        r = d.client.submit([micro_cell(seed=970 + i) for i in range(3)])
        final = d.client.wait(r.json()["id"], timeout_s=120)
        peaks = [c["peak_rss_mb"] for c in final["cells"]]
        # One persistent worker: its high-water mark, read as each cell
        # ended, can only grow -- and a Python process is never < 5 MB.
        assert peaks == sorted(peaks) and peaks[0] > 5.0
        manifest = RunManifest.load(
            d.service._manifest_path(r.json()["id"])
        )
        assert [c.peak_rss_mb for c in manifest.cells] == peaks
        # A cached cell ran in no worker.
        r2 = d.client.submit([micro_cell(seed=970)])
        (cell,) = d.client.wait(r2.json()["id"], timeout_s=30)["cells"]
        assert (cell["status"], cell["peak_rss_mb"]) == ("cached", None)

    def test_manifests_are_flushed_once_and_only_when_changed(
        self, daemon_factory, monkeypatch
    ):
        writes = []
        save = RunManifest.save
        monkeypatch.setattr(
            RunManifest, "save",
            lambda self, path: (writes.append(path), save(self, path))[1],
        )

        def flushed(cid):
            return sum(1 for p in writes if f"{cid}.manifest" in p)

        d = daemon_factory(subdir="flush-store", workers=1)
        cells = [micro_cell(seed=980), micro_cell(seed=981)]
        ran = d.client.submit(cells).json()["id"]
        d.client.wait(ran, timeout_s=120)
        born_done = d.client.submit(cells).json()["id"]
        assert d.client.wait(born_done, timeout_s=30)["counts"] == {"cached": 2}
        # One flush per executed cell; none for the all-cached campaign
        # until the drain, which leaves the clean campaign alone.
        assert (flushed(ran), flushed(born_done)) == (2, 0)
        d.stop()
        assert (flushed(ran), flushed(born_done)) == (2, 1)

        # Recovery turns "ok" into "cached" — one rewrite — and finds
        # the other manifest already saying what it would write.
        del writes[:]
        d2 = daemon_factory(subdir="flush-store", workers=1)
        assert d2.client.campaign(ran)["counts"] == {"cached": 2}
        d2.stop()
        assert (flushed(ran), flushed(born_done)) == (1, 0)

        del writes[:]
        daemon_factory(subdir="flush-store", workers=1).stop()
        assert writes == []

    def test_failure_taxonomy_surfaces_per_cell(self, daemon_factory):
        # A daemon whose per-cell budget no simulation can meet: every
        # cell must fail with the structured "timeout" taxonomy kind.
        d = daemon_factory(
            subdir="tax-store", workers=2, timeout_s=0.05, retry=None,
        )
        r = d.client.submit([micro_cell(seed=950)])
        assert r.status == 202
        final = d.client.wait(r.json()["id"], timeout_s=120)
        (cell,) = final["cells"]
        assert cell["status"] == "failed"
        assert cell["error_kind"] == "timeout"
        assert "exceeded" in cell["error"]


# ---------------------------------------------------------------------------
# the thundering herd: >=100 concurrent submissions, exactly 1 simulation


class TestThunderingHerd:
    def test_hundred_duplicate_submissions_run_one_simulation(
        self, daemon_factory
    ):
        d = daemon_factory(subdir="herd-store", workers=2)
        c = d.client
        cell = micro_cell(seed=4242)
        n_clients = 100
        barrier = threading.Barrier(n_clients)
        results = [None] * n_clients

        def client_thread(i):
            barrier.wait()
            r = c.submit([cell], tenant=f"tenant-{i % 8}")
            results[i] = r.status if r.status != 202 else r.json()["id"]

        threads = [
            threading.Thread(target=client_thread, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        cids = [r for r in results if isinstance(r, str)]
        assert len(cids) == n_clients, results  # nothing shed at defaults
        payloads = set()
        for cid in cids:
            state = c.wait(cid, timeout_s=180)
            (cell_state,) = state["cells"]
            assert cell_state["status"] in ("ok", "cached"), state
            payloads.add(c.result_bytes(cell_state["key"]))
        # Every client got the same stored bytes...
        assert len(payloads) == 1
        # ...and the ledger proves exactly one simulation ever started.
        assert c.stats()["simulations_started"] == 1
        stats = c.stats()
        assert stats["dedup_joins"] + stats["cache_hits"] == n_clients - 1
