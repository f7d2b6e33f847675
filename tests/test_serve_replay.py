"""Crash recovery of the campaign daemon, against real processes.

The daemon process is started via ``python -m repro serve`` exactly as
in production, SIGKILLed mid-campaign (no drain, no checkpoint flush
beyond the per-cell ones), and restarted against the same store. The
accounting proof rides on two independent ledgers:

* the **store**: which config keys have durable results;
* the **sim log**: one append-only line per simulation a worker
  actually *started* (written before the simulation runs).

Recovery is correct iff keys completed before the kill are served from
the store byte-identically and never appear in the sim log again,
while interrupted cells re-run to completion.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient
from repro.serve.loadgen import micro_cell

from tests.conftest import descendants, wait_processes_gone

SRC = Path(__file__).resolve().parent.parent / "src"


def _spawn_daemon(tmp_path, tag, extra=()):
    """Start ``python -m repro serve`` on an ephemeral port."""
    ready = tmp_path / f"ready-{tag}"
    log = tmp_path / f"daemon-{tag}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(tmp_path / "store"),
            "--jobs", "2",
            "--port", "0",
            "--ready-file", str(ready),
            "--log-file", str(log),
            "--log-level", "INFO",
            *extra,
        ],
        env=env,
        cwd=str(tmp_path),
    )
    deadline = time.monotonic() + 60
    while not ready.exists():
        assert proc.poll() is None, f"daemon died at startup; see {log}"
        assert time.monotonic() < deadline, f"daemon never ready; see {log}"
        time.sleep(0.05)
    host, port = ready.read_text().split()
    ready.unlink()  # so a restart's ready file is unambiguous
    return proc, ServeClient(host, int(port))


def _end(proc, sig):
    """Signal the daemon and reap it; nothing it started may outlive it."""
    workers = descendants(proc.pid)
    proc.send_signal(sig)
    code = proc.wait(timeout=120)
    assert wait_processes_gone(workers) == [], "orphaned worker processes"
    return code


def _journal_record(tmp_path, cid):
    """The campaign's latest line in the daemon's admission journal."""
    journal = tmp_path / "store" / "serve" / "campaigns.jsonl"
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    return [r for r in records if r["id"] == cid][-1]


def _sim_log_keys(tmp_path):
    path = tmp_path / "store" / "serve" / "sim.log"
    if not path.exists():
        return []
    return path.read_text().split()


@pytest.mark.slow
def test_sigkill_mid_campaign_then_restart_replays_without_resimulating(
    tmp_path,
):
    cells = [micro_cell(seed=8000 + i) for i in range(8)]
    proc, client = _spawn_daemon(tmp_path, "first")
    try:
        r = client.submit(cells, tenant="alice")
        assert r.status == 202
        campaign = r.json()
        cid = campaign["id"]

        # Let part of the campaign complete, then pull the plug hard.
        deadline = time.monotonic() + 120
        while True:
            state = client.campaign(cid)
            done = state["counts"].get("ok", 0)
            if 2 <= done < len(cells):
                break
            assert not state["done"], "campaign finished before the kill"
            assert time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        _end(proc, signal.SIGKILL)

    completed_before = {
        c["key"] for c in state["cells"] if c["status"] == "ok"
    }
    assert completed_before
    bytes_before = {}
    # The daemon is dead; read the completed results straight from the
    # store layout (the same bytes the API serves).
    for key in completed_before:
        path = tmp_path / "store" / key[:2] / f"{key}.json"
        assert path.exists(), "completed cell has no durable store entry"
        bytes_before[key] = path.read_bytes()
    started_before = _sim_log_keys(tmp_path)
    assert set(started_before) >= completed_before

    # Restart against the same store: recovery must replay the spec.
    proc2, client2 = _spawn_daemon(tmp_path, "second")
    try:
        final = client2.wait(cid, timeout_s=180)
        assert final["done"]
        counts = final["counts"]
        assert counts.get("ok", 0) + counts.get("cached", 0) == len(cells)

        by_key = {c["key"]: c for c in final["cells"]}
        started_after = _sim_log_keys(tmp_path)
        new_starts = started_after[len(started_before):]
        for key in completed_before:
            # Completed keys came back as cache replays...
            assert by_key[key]["status"] == "cached"
            assert by_key[key]["replayed"] is True
            # ...served byte-identically over the API...
            assert client2.result_bytes(key) == bytes_before[key]
            # ...and were never simulated again.
            assert key not in new_starts

        # Zero duplicate simulations overall: every key that ever
        # completed was started exactly once across both incarnations.
        for key in completed_before:
            assert started_after.count(key) == 1
        # Interrupted cells re-ran: every cell key shows up in the
        # ledger at least once, and the campaign is fully served.
        assert set(started_after) == set(by_key)
    finally:
        assert _end(proc2, signal.SIGTERM) == 0


@pytest.mark.slow
def test_sigkill_before_any_manifest_recovers_from_the_specs_alone(tmp_path):
    """The journal line is a submission's only durable write: it must suffice."""
    camp_dir = tmp_path / "store" / "serve" / "campaigns"
    seen = [micro_cell(seed=8200 + i) for i in range(2)]
    fresh = [micro_cell(seed=8210 + i) for i in range(3)]
    proc, client = _spawn_daemon(tmp_path, "first", extra=("--jobs", "1"))
    try:
        warm = client.submit(seen).json()["id"]
        seen_keys = [c["key"] for c in client.wait(warm, timeout_s=120)["cells"]]
        seen_bytes = {k: client.result_bytes(k) for k in seen_keys}

        # The single worker is kept busy, so the next campaign only queues.
        assert client.submit([micro_cell(seed=8220)]).status == 202
        accepted, journaled = {}, {}
        for name, cells in (("cached", seen), ("queued", fresh)):
            r = client.submit(cells, tenant=name)
            assert r.status == 202
            cid = accepted[name] = r.json()["id"]
            # Durable by the time the 202 is out...
            spec = _journal_record(tmp_path, cid)
            assert len(spec["cells"]) == len(cells)
            journaled[name] = [c["key"] for c in spec["cells"]]
            # ...and that is all there is.
            assert not (camp_dir / f"{cid}.manifest.json").exists()
    finally:
        _end(proc, signal.SIGKILL)
    started_before = _sim_log_keys(tmp_path)
    stored_before = {
        p.stem for p in (tmp_path / "store").glob("??/*.json")
    }

    proc2, client2 = _spawn_daemon(tmp_path, "second", extra=("--jobs", "1"))
    try:
        cached = client2.wait(accepted["cached"], timeout_s=180)
        assert [c["key"] for c in cached["cells"]] == seen_keys
        assert journaled["cached"] == seen_keys
        for cell in cached["cells"]:
            assert (cell["status"], cell["replayed"]) == ("cached", True)
            assert client2.result_bytes(cell["key"]) == seen_bytes[cell["key"]]

        queued = client2.wait(accepted["queued"], timeout_s=180)
        assert [c["key"] for c in queued["cells"]] == journaled["queued"]
        counts = queued["counts"]
        assert counts.get("ok", 0) + counts.get("cached", 0) == len(fresh)
        started_after = _sim_log_keys(tmp_path)
        for key in seen_keys:
            assert started_after.count(key) == 1
        for cell in queued["cells"]:
            key = cell["key"]
            # Only a cell caught mid-execution by the kill runs twice.
            cut_short = key in started_before and key not in stored_before
            assert started_after.count(key) == 1 + cut_short, key
    finally:
        assert _end(proc2, signal.SIGTERM) == 0


@pytest.mark.slow
def test_sigterm_drains_checkpoints_and_exits_zero(tmp_path):
    proc, client = _spawn_daemon(tmp_path, "drain")
    r = client.submit([micro_cell(seed=8100 + i) for i in range(6)])
    assert r.status == 202
    cid = r.json()["id"]
    # Let at least one cell start executing, then ask for a drain.
    time.sleep(0.5)
    assert _end(proc, signal.SIGTERM) == 0

    # The journaled spec and a valid manifest checkpoint survived the drain.
    camp_dir = tmp_path / "store" / "serve" / "campaigns"
    spec = _journal_record(tmp_path, cid)
    assert [c["key"] for c in spec["cells"]]
    manifest = json.loads((camp_dir / f"{cid}.manifest.json").read_text())
    statuses = {c["status"] for c in manifest["cells"]}
    assert statuses <= {"ok", "cached", "interrupted", "failed"}

    # A restart finishes what the drain left behind.
    proc2, client2 = _spawn_daemon(tmp_path, "after-drain")
    try:
        final = client2.wait(cid, timeout_s=180)
        counts = final["counts"]
        assert counts.get("ok", 0) + counts.get("cached", 0) == 6
        # Drain + replay never duplicated a completed simulation.
        started = _sim_log_keys(tmp_path)
        for c in final["cells"]:
            assert started.count(c["key"]) == 1, c["key"]
    finally:
        assert _end(proc2, signal.SIGTERM) == 0
