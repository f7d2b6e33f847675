"""Chaos harness for the supervised persistent-worker runtime.

The acceptance bar for PR 8 mirrors how PR 7 proved speed: prove
robustness by *attacking* the runtime. A seeded, deterministic kill
schedule SIGKILLs workers mid-campaign and the campaign must still
complete with trace digests byte-identical to an unmolested ``jobs=1``
run; a cell that kills workers every time it runs must be quarantined
(``error_kind="poisoned"``) without aborting the campaign; resource
budgets must surface as structured ``oom``/``timeout`` records; and
SIGTERM must drain exactly like Ctrl-C.

Set ``REPRO_CHAOS_ARTIFACT_DIR`` to keep the chaos manifest and the
supervisor log (the CI ``worker-chaos-smoke`` job uploads them on
failure).
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections import deque

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import TracedRun, run_experiment
from repro.experiments.store import config_key
from repro.parallel import (
    ERROR_KINDS,
    ProgressReporter,
    RetryPolicy,
    RunManifest,
    run_campaign,
)
from repro.parallel.pool import CampaignInterrupted
from repro.parallel.supervisor import CellJob, Supervisor

from tests.conftest import MICRO_SCALE, descendants, wait_processes_gone

#: The seed of the deterministic kill schedule. Changing it changes
#: *which* cells get their worker killed, never whether the campaign
#: survives.
KILL_SEED = 1234


def micro_cfg(**kw):
    return ExperimentConfig(
        scale=MICRO_SCALE, seed=3, sim_time_ns=1e6, warmup_ns=3e5, **kw
    )


def micro_grid(n=4):
    return [micro_cfg(cc=False).with_(seed=s) for s in range(1, n + 1)]


def seeded_kill_keys(cells, k, seed=KILL_SEED):
    """The deterministic kill schedule: which cells lose their worker."""
    keys = [config_key(c) for c in cells]
    return set(random.Random(seed).sample(keys, k))


def artifact_dir(tmp_path):
    """Where the chaos manifest + supervisor log land (CI uploads it)."""
    out = os.environ.get("REPRO_CHAOS_ARTIFACT_DIR") or str(tmp_path)
    os.makedirs(out, exist_ok=True)
    return out


class ChaosSigkill:
    """Picklable run_fn that SIGKILLs its own worker on schedule.

    The first attempt of every cell in ``kill_keys`` kills the worker
    *before* simulating anything; a marker file records the attempt so
    the retried attempt runs clean. The kill therefore perturbs only
    the harness — the surviving attempt is the same pure function of
    the config, which is exactly why the digests must come out
    byte-identical to a serial run.
    """

    def __init__(self, kill_keys, marker_dir, inner=None):
        self.kill_keys = set(kill_keys)
        self.marker_dir = marker_dir
        self.inner = inner if inner is not None else TracedRun()

    def __call__(self, cfg):
        key = config_key(cfg)
        if key in self.kill_keys:
            marker = os.path.join(self.marker_dir, key)
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
        return self.inner(cfg)


class MixedChaos:
    """Picklable run_fn: some cells always crash, some never finish."""

    def __init__(self, poison_keys=(), slow_keys=()):
        self.poison_keys = set(poison_keys)
        self.slow_keys = set(slow_keys)

    def __call__(self, cfg):
        key = config_key(cfg)
        if key in self.poison_keys:
            os.kill(os.getpid(), signal.SIGKILL)
        if key in self.slow_keys:
            time.sleep(60)
        return run_experiment(cfg)


class Recorder:
    """run_fn that records which seeds actually get simulated."""

    def __init__(self):
        self.seeds = []

    def __call__(self, cfg):
        self.seeds.append(cfg.seed)
        return run_experiment(cfg)


def _sleep_forever(cfg):
    time.sleep(60)
    return cfg


def _hoard_memory(cfg):
    hoard = []
    for _ in range(4096):  # up to 4 GiB in 1 MiB chunks
        hoard.append(bytearray(1024 * 1024))
    return len(hoard)


def _vm_size_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# The acceptance test: seeded SIGKILL chaos at jobs=4, digests
# byte-identical to an unmolested jobs=1 run.


class TestSigkillChaosDigests:
    def test_chaos_campaign_matches_unmolested_serial_run(self, tmp_path):
        cells = micro_grid(8)
        serial = run_campaign(cells, jobs=1, run_fn=TracedRun())
        assert all(o.ok for o in serial.outcomes)

        out_dir = artifact_dir(tmp_path)
        marker_dir = os.path.join(str(tmp_path), "markers")
        os.makedirs(marker_dir, exist_ok=True)
        kill_keys = seeded_kill_keys(cells, k=3)
        manifest_path = os.path.join(out_dir, "chaos-manifest.json")
        log_path = os.path.join(out_dir, "chaos-supervisor.log")

        with open(log_path, "w") as log_fh:
            chaos = run_campaign(
                cells, jobs=4, oversubscribe=True,
                run_fn=ChaosSigkill(kill_keys, marker_dir),
                retry=RetryPolicy(max_attempts=3),
                progress=ProgressReporter(stream=log_fh),
                manifest_path=manifest_path,
            )

        # Every scheduled kill actually fired, each costing one worker.
        assert sorted(os.listdir(marker_dir)) == sorted(kill_keys)
        assert chaos.manifest.worker_restarts == len(kill_keys)
        # The campaign still completed every cell...
        assert all(o.ok for o in chaos.outcomes)
        assert chaos.manifest.failures == 0
        # ...and the results are byte-identical to the serial run.
        assert chaos.manifest.digests() == serial.manifest.digests()
        assert all(d is not None for d in chaos.manifest.digests().values())
        # The checkpointed manifest agrees with the in-memory one.
        saved = RunManifest.load(manifest_path)
        assert saved.digests() == serial.manifest.digests()
        assert saved.worker_restarts == len(kill_keys)
        # The supervisor log narrates the kills (the CI artifact).
        with open(log_path) as fh:
            log_text = fh.read()
        assert log_text.count("died (exit -9)") == len(kill_keys)

    def test_kill_schedule_is_deterministic(self):
        cells = micro_grid(8)
        assert seeded_kill_keys(cells, 3) == seeded_kill_keys(cells, 3)
        assert seeded_kill_keys(cells, 3) != seeded_kill_keys(
            cells, 3, seed=KILL_SEED + 1
        )


# ---------------------------------------------------------------------------
# Poisoned-cell circuit breaker


class TestPoisonQuarantine:
    def test_poisoned_cell_is_quarantined_without_aborting(self, tmp_path):
        cells = micro_grid(6)
        poison = {config_key(cells[2])}
        result = run_campaign(
            cells, jobs=4, oversubscribe=True,
            run_fn=MixedChaos(poison_keys=poison),
            retry=RetryPolicy(max_attempts=5),
        )
        # The campaign finished: five clean cells, one quarantined.
        assert [o.status for o in result.outcomes].count("ok") == 5
        (failed,) = result.failed
        assert failed.index == 2
        assert failed.error_kind == "poisoned"
        assert "killed 2 worker(s)" in failed.error
        # The breaker tripped at the threshold, not at max_attempts.
        assert failed.worker_restarts == 2
        assert failed.attempts == 2
        # Every failure record carries a taxonomy kind.
        for o in result.failed:
            assert o.error_kind in ERROR_KINDS
        rec = [c for c in result.manifest.cells if c.status == "failed"]
        assert [c.error_kind for c in rec] == ["poisoned"]
        assert rec[0].worker_restarts == 2

    def test_poison_threshold_is_tunable(self, tmp_path):
        cells = micro_grid(3)
        poison = {config_key(cells[0])}
        result = run_campaign(
            cells, jobs=2, oversubscribe=True,
            run_fn=MixedChaos(poison_keys=poison),
            retry=RetryPolicy(max_attempts=6),
            poison_threshold=3,
        )
        (failed,) = result.failed
        assert failed.error_kind == "poisoned"
        assert failed.worker_restarts == 3


# ---------------------------------------------------------------------------
# Resource budgets: wall clock and RSS


class TestResourceBudgets:
    def test_timeout_budget_surfaces_as_timeout_kind(self):
        result = run_campaign(
            [{"cell": 0}], jobs=2, oversubscribe=True,
            run_fn=_sleep_forever, timeout_s=0.5,
        )
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert outcome.error_kind == "timeout"
        assert "TimeoutError" in outcome.error
        assert outcome.worker_restarts == 1
        assert result.manifest.worker_restarts == 1

    def test_timeout_kills_do_not_trip_the_poison_breaker(self):
        # Two timeouts kill two workers, but timeout kills are
        # *expected* deaths: the cell must stay "timeout", never
        # escalate to "poisoned".
        result = run_campaign(
            [{"cell": 0}], jobs=2, oversubscribe=True,
            run_fn=_sleep_forever, timeout_s=0.4,
            retry=RetryPolicy(max_attempts=2),
        )
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert outcome.error_kind == "timeout"
        assert outcome.attempts == 2
        assert outcome.worker_restarts == 2

    @pytest.mark.skipif(
        sys.platform != "linux",
        reason="RLIMIT_AS enforcement is exercised on Linux",
    )
    def test_rss_budget_surfaces_as_oom_kind(self):
        # Budget = current address space + headroom, so the worker
        # boots fine but the 4 GiB hoard hits the limit and fails with
        # MemoryError *inside* the worker — which survives.
        budget = _vm_size_mb() + 512
        result = run_campaign(
            [{"cell": 0}], jobs=2, oversubscribe=True,
            run_fn=_hoard_memory, max_rss_mb=budget,
        )
        (outcome,) = result.outcomes
        assert outcome.status == "failed"
        assert outcome.error_kind == "oom"
        assert "MemoryError" in outcome.error
        # The worker classified its own failure; no worker was killed.
        assert result.manifest.worker_restarts == 0


# ---------------------------------------------------------------------------
# Resume × quarantine: failed records replay, --retry-failed re-runs


class TestResumeQuarantine:
    def _quarantined_manifest(self, tmp_path, cells):
        """Run a campaign leaving one poisoned and one timed-out cell."""
        cache_dir = str(tmp_path / "cache")
        manifest_path = str(tmp_path / "run.json")
        run_campaign(
            cells, jobs=4, oversubscribe=True, cache=cache_dir,
            manifest_path=manifest_path,
            run_fn=MixedChaos(
                poison_keys={config_key(cells[1])},
                slow_keys={config_key(cells[2])},
            ),
            timeout_s=0.6,
            retry=RetryPolicy(max_attempts=2),
        )
        saved = RunManifest.load(manifest_path)
        kinds = {c.key: c.error_kind for c in saved.failed_cells()}
        assert kinds == {
            config_key(cells[1]): "poisoned",
            config_key(cells[2]): "timeout",
        }
        return cache_dir, manifest_path

    def test_resume_replays_quarantine_records_without_rerunning(self, tmp_path):
        cells = micro_grid(4)
        cache_dir, manifest_path = self._quarantined_manifest(tmp_path, cells)
        recorder = Recorder()
        resumed = run_campaign(
            cells, jobs=1, cache=cache_dir,
            resume_from=manifest_path, run_fn=recorder,
        )
        # Nothing was simulated: completed cells came from the cache,
        # quarantined cells were replayed as failed records.
        assert recorder.seeds == []
        assert [o.status for o in resumed.outcomes] == [
            "cached", "failed", "failed", "cached",
        ]
        assert resumed.outcomes[1].error_kind == "poisoned"
        assert resumed.outcomes[2].error_kind == "timeout"
        assert "TimeoutError" in resumed.outcomes[2].error

    def test_retry_failed_reruns_exactly_the_failed_set(self, tmp_path):
        cells = micro_grid(4)
        cache_dir, manifest_path = self._quarantined_manifest(tmp_path, cells)
        recorder = Recorder()
        resumed = run_campaign(
            cells, jobs=1, cache=cache_dir,
            resume_from=manifest_path, retry_failed=True, run_fn=recorder,
        )
        # Exactly the two failed cells re-ran — this time cleanly.
        assert recorder.seeds == [cells[1].seed, cells[2].seed]
        assert [o.status for o in resumed.outcomes] == [
            "cached", "ok", "ok", "cached",
        ]
        assert resumed.manifest.failures == 0
        assert resumed.manifest.complete is True

    def test_old_manifest_without_error_kind_backfills_unknown(self, tmp_path):
        cells = micro_grid(2)
        manifest_path = str(tmp_path / "old.json")
        # A manifest from before the taxonomy existed: failed records
        # carry only the stringified error.
        with open(manifest_path, "w") as fh:
            json.dump({
                "jobs": 1, "total_cells": 2, "ok": 1, "cache_hits": 0,
                "failures": 1, "interrupted": 0, "retries": 0,
                "worker_seconds": 0.2, "elapsed_seconds": 0.2,
                "complete": True,
                "cells": [
                    {"index": 0, "key": config_key(cells[0]),
                     "name": "", "status": "ok", "attempts": 1,
                     "wall_seconds": 0.1},
                    {"index": 1, "key": config_key(cells[1]),
                     "name": "", "status": "failed", "attempts": 1,
                     "wall_seconds": 0.1, "error": "RuntimeError: boom"},
                ],
            }, fh)
        loaded = RunManifest.load(manifest_path)
        assert loaded.failed_cells()[0].error_kind == "unknown"
        assert loaded.worker_restarts == 0

        recorder = Recorder()
        resumed = run_campaign(
            cells, jobs=1, resume_from=manifest_path, run_fn=recorder,
        )
        # No cache here: the ok cell re-runs (cache miss), the failed
        # record replays with the backfilled kind.
        assert recorder.seeds == [cells[0].seed]
        assert resumed.outcomes[1].status == "failed"
        assert resumed.outcomes[1].error_kind == "unknown"
        assert resumed.outcomes[1].error == "RuntimeError: boom"


# ---------------------------------------------------------------------------
# SIGTERM drains the supervised pool exactly like Ctrl-C


_SIGTERM_CHILD = textwrap.dedent("""
    import sys, time
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {root!r})
    from repro.experiments.runner import run_experiment
    from repro.parallel import run_campaign
    from repro.parallel.pool import CampaignInterrupted
    from tests.test_supervisor_chaos import micro_grid

    def slow_run(cfg):
        time.sleep(0.4)   # widen the window a SIGTERM can land in
        return run_experiment(cfg)

    print("ready", flush=True)
    try:
        run_campaign(
            micro_grid({n_cells}), jobs=4, oversubscribe=True, cache={cache!r},
            manifest_path={manifest!r}, run_fn=slow_run,
        )
    except CampaignInterrupted:
        sys.exit(17)
    sys.exit(0)
""")


class TestSigtermDrain:
    def test_sigterm_drains_and_checkpoints_like_ctrl_c(self, tmp_path):
        # Four waves of four 0.4 s cells: when the first cell lands in
        # the checkpointed manifest, two waves are still queued, so the
        # drain has work to cancel however fast the host is.
        cells = micro_grid(16)
        cache_dir = str(tmp_path / "cache")
        manifest_path = str(tmp_path / "run.json")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = tmp_path / "child.py"
        script.write_text(_SIGTERM_CHILD.format(
            src=os.path.join(root, "src"), root=root,
            cache=cache_dir, manifest=manifest_path, n_cells=len(cells),
        ))
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        deadline = time.monotonic() + 60
        while True:
            try:
                if RunManifest.load(manifest_path).ok >= 1:
                    break
            except FileNotFoundError:
                pass  # the first checkpoint has not been written yet
            assert proc.poll() is None, "campaign ended before any checkpoint"
            assert time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 17

        saved = RunManifest.load(manifest_path)
        assert saved.complete is False
        assert saved.ok >= 1
        assert saved.interrupted >= 1, "the drain had nothing left to cancel"
        assert saved.ok + saved.interrupted == len(cells)
        assert saved.failures == 0

        # Drained cells are in the cache; resume completes the grid and
        # matches a fresh uninterrupted campaign.
        resumed = run_campaign(
            cells, jobs=1, cache=cache_dir, resume_from=manifest_path
        )
        expected = run_campaign(cells, jobs=1)
        for got, want in zip(resumed.results, expected.results):
            assert got.rates_gbps == want.rates_gbps
            assert got.events == want.events
        statuses = [o.status for o in resumed.outcomes]
        assert statuses.count("cached") >= saved.ok


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_between_pop_and_dispatch_counts_every_cell(
        self, monkeypatch, jobs
    ):
        # The SIGTERM handler raises KeyboardInterrupt at whatever
        # bytecode runs: here, right after the second cell left the
        # queue and before it was dispatched (jobs=2) or run (jobs=1).
        real = Supervisor._next_eligible
        popped = []

        def next_eligible(self, now):
            job = real(self, now)
            if job is not None:
                popped.append(job.index)
                if len(popped) == 2:
                    raise KeyboardInterrupt
            return job

        monkeypatch.setattr(Supervisor, "_next_eligible", next_eligible)
        cells = [{"cell": i} for i in range(5)]
        with pytest.raises(CampaignInterrupted) as exc:
            run_campaign(
                cells, jobs=jobs, oversubscribe=True, run_fn=_report_pid
            )
        manifest = exc.value.result.manifest
        assert manifest.total_cells == len(cells)
        assert (manifest.ok, manifest.interrupted) == (1, len(cells) - 1)
        assert [o.index for o in exc.value.result.outcomes] == list(range(5))


# ---------------------------------------------------------------------------
# Worker reuse: the whole point of persistence


class TestWorkerPersistence:
    def test_many_cells_run_on_few_workers(self, tmp_path):
        # 12 cells at jobs=2 must not spawn 12 processes: track worker
        # pids via the results themselves.
        result = run_campaign(
            [{"cell": i} for i in range(12)], jobs=2, oversubscribe=True,
            run_fn=_report_pid,
        )
        pids = {o.result for o in result.outcomes}
        assert all(o.ok for o in result.outcomes)
        assert len(pids) <= 2
        assert result.manifest.worker_restarts == 0


def _report_pid(cfg):
    return os.getpid()


# ---------------------------------------------------------------------------
# A SIGKILLed supervisor leaves no worker behind


_ORPHAN_CHILD = textwrap.dedent("""
    import os, sys, time
    sys.path.insert(0, {src!r})
    from repro.parallel import run_campaign

    def run(cfg):
        with open(os.path.join({pid_dir!r}, cfg["name"]), "w") as fh:
            fh.write(str(os.getpid()))
        if cfg["name"] == "busy":
            time.sleep(120)
        return cfg["name"]

    run_campaign(
        [{{"name": "idle"}}, {{"name": "busy"}}], jobs=2, oversubscribe=True,
        run_fn=run,
    )
""")


class TestNoOrphans:
    def test_sigkilled_supervisor_takes_idle_and_busy_workers_with_it(
        self, tmp_path
    ):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = tmp_path / "child.py"
        script.write_text(_ORPHAN_CHILD.format(
            src=os.path.join(root, "src"), pid_dir=str(pid_dir),
        ))
        proc = subprocess.Popen([sys.executable, str(script)])
        try:
            deadline = time.monotonic() + 60
            while len(list(pid_dir.iterdir())) < 2:
                assert proc.poll() is None
                assert time.monotonic() < deadline
                time.sleep(0.02)
            time.sleep(0.3)  # the "idle" cell is done: its worker waits
            workers = descendants(proc.pid)
            assert len(workers) == 2
            assert {int(f.read_text()) for f in pid_dir.iterdir()} == set(workers)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        # No "stop" was sent and, under fork, no EOF either: each worker
        # must notice by itself, within a few 0.25 s heartbeats.
        assert wait_processes_gone(workers, timeout_s=5.0) == []


# ---------------------------------------------------------------------------
# The wake channel is inert for a batch run


class _Recorder:
    retries = 0
    worker_restarts = 0

    def __init__(self):
        self.ok = []

    def note(self, line):
        pass

    def on_retry(self, index, attempt, error):
        self.retries += 1

    def on_worker_restart(self, worker_id, line):
        self.worker_restarts += 1

    def on_done(self, job, outcome):
        assert outcome.status == "ok", f"cell {job.index}: {outcome.error}"
        self.ok.append(job.index)


class TestWakeChannel:
    def test_batch_run_is_unaffected_by_a_storm_of_wakes(self):
        rec = _Recorder()
        sup = Supervisor(
            _report_pid, workers=2, retry=RetryPolicy(max_attempts=1),
            reporter=rec, on_done=rec.on_done,
        )
        # More wakes than a pipe buffer holds: wake() must never block.
        for _ in range(40_000):
            sup.wake()
        stop = threading.Event()

        def storm():
            while not stop.is_set():
                sup.wake()

        thread = threading.Thread(target=storm, daemon=True)
        thread.start()
        try:
            sup.run(deque(
                CellJob(index=i, config={"cell": i}, key=str(i))
                for i in range(12)
            ))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert sorted(rec.ok) == list(range(12))
        assert (rec.retries, rec.worker_restarts) == (0, 0)
