"""Tests for repro.parallel: the fault-tolerant campaign executor.

Worker callables handed to ``run_fn`` must be picklable, so every
injected behavior (crash, hang, flake) lives at module level; cross-
process state (e.g. "fail only the first attempt") goes through marker
files carried in ``ExperimentConfig.name``.
"""

from __future__ import annotations

import errno
import json
import os
import time

import pytest

from repro.experiments import ExperimentConfig, run_experiment, run_table2
from repro.experiments.config import ScaleProfile
from repro.experiments.sweep import sweep
from repro.experiments.store import ResultStore, config_key
from repro.parallel import (
    CampaignError,
    CellCache,
    ProgressReporter,
    RetryPolicy,
    RunManifest,
    derive_seed,
    run_campaign,
)

from tests.conftest import MICRO_SCALE

# A table2-capable profile small enough for per-test driver runs.
TINY_SCALE = ScaleProfile(
    name="tiny",
    radix=4,
    n_hotspots=2,
    sim_time_ns=1e6,
    warmup_ns=3e5,
    cct_slope=0.5,
    moving_sim_time_ns=1e6,
    moving_lifetimes_ns=(0.25e6,),
    marking_rate=3,
)


def micro_cfg(**kw):
    return ExperimentConfig(
        scale=MICRO_SCALE, seed=3, sim_time_ns=1e6, warmup_ns=3e5, **kw
    )


def micro_grid(seeds=(1, 2, 3, 4)):
    return [micro_cfg().with_(seed=s) for s in seeds]


# ---------------------------------------------------------------------------
# module-level run_fn implementations (picklable)

def payload_fn(cfg):
    """Cheap deterministic stand-in for run_experiment."""
    return f"ran:{cfg.name}:{cfg.seed}"


def always_fail(cfg):
    raise RuntimeError(f"boom {cfg.name}")


def fail_once_via_marker(cfg):
    """Fail the first attempt; the marker file makes retries succeed."""
    marker = cfg.name
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first attempt dies")
    return "recovered"


def fail_named_bad(cfg):
    if cfg.name == "bad":
        raise RuntimeError("boom bad")
    return run_experiment(cfg)


def sleepy(cfg):
    time.sleep(0.5)
    return "too late"


def forbidden(cfg):
    raise AssertionError("cell was simulated despite a warm cache")


# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_cells_and_bases(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_reseed_from_rewrites_cell_seeds(self):
        outcomes = run_campaign(
            [micro_cfg(), micro_cfg()], run_fn=payload_fn, reseed_from=42
        ).outcomes
        assert [o.config.seed for o in outcomes] == [
            derive_seed(42, 0),
            derive_seed(42, 1),
        ]


class TestRetryPolicy:
    def test_default_never_retries(self):
        assert not RetryPolicy().should_retry(1)

    def test_bounded(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=9, backoff_s=1.0, backoff_factor=2.0, max_backoff_s=5.0
        )
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 2.0
        assert policy.delay_s(5) == 5.0  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1)


class TestSerialIdentity:
    """jobs=1 must be byte-identical to the historical serial drivers."""

    def test_campaign_matches_direct_run_experiment(self):
        cfgs = micro_grid((1, 2))
        campaign = run_campaign(cfgs, jobs=1)
        for cfg, outcome in zip(cfgs, campaign.outcomes):
            direct = run_experiment(cfg)
            assert outcome.status == "ok"
            assert outcome.result.rates_gbps == direct.rates_gbps
            assert outcome.result.groups == direct.groups

    def test_sweep_jobs1_csv_byte_identical_to_manual_serial(self):
        base = micro_cfg()
        grid = {"threshold": [7, 15]}
        # Hand-rolled historical serial sweep.
        import csv as _csv
        import io as _io

        rows = []
        for t in grid["threshold"]:
            cfg = base.with_(
                cc_params=base.resolved_cc_params().with_(threshold=t)
            )
            res = run_experiment(cfg)
            row = {"threshold": t}
            row.update(
                non_hotspot=res.non_hotspot,
                hotspot=res.hotspot,
                all_nodes=res.all_nodes,
                total=res.total,
                fecn_marks=res.fecn_marks,
                becns=res.becns,
                fairness=res.fairness(),
                retx_packets=res.retx_packets,
                failed_flows=res.failed_flows,
                cc_mechanism=res.config.cc_mechanism,
            )
            rows.append(row)
        out = _io.StringIO()
        writer = _csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

        assert sweep(base, grid, jobs=1).to_csv() == out.getvalue()

    def test_table2_jobs1_matches_direct_phases(self):
        table = run_table2(TINY_SCALE, seed=5, jobs=1)
        base = ExperimentConfig(
            scale=TINY_SCALE, b_fraction=0.0, c_fraction_of_rest=0.8,
            seed=5, name="table2",
        )
        direct = run_experiment(base.with_(cc=True))
        assert table.hotspots_cc.rates_gbps == direct.rates_gbps
        assert table.rows()["hotspots_cc_non_hotspot_avg"] == direct.non_hotspot


class TestParallelEquality:
    """jobs>1 must produce exactly the jobs=1 cell results."""

    def test_pool_matches_serial_on_micro_grid(self):
        cfgs = micro_grid()
        serial = run_campaign(cfgs, jobs=1)
        pooled = run_campaign(cfgs, jobs=2)
        for a, b in zip(serial.outcomes, pooled.outcomes):
            assert b.status == "ok"
            assert a.result.rates_gbps == b.result.rates_gbps
            assert a.result.groups == b.result.groups
            assert a.result.fecn_marks == b.result.fecn_marks

    def test_sweep_jobs2_matches_jobs1(self):
        base = micro_cfg()
        grid = {"cc": [False, True]}
        assert sweep(base, grid, jobs=2).to_csv() == sweep(base, grid, jobs=1).to_csv()

    def test_outcomes_keep_submission_order(self):
        cfgs = [micro_cfg(name=f"cell{i}").with_(seed=i) for i in range(5)]
        outcomes = run_campaign(cfgs, jobs=2, run_fn=payload_fn).outcomes
        assert [o.index for o in outcomes] == list(range(5))
        assert [o.result for o in outcomes] == [f"ran:cell{i}:{i}" for i in range(5)]


class TestFaultTolerance:
    # oversubscribe: jobs=2 runs on two workers even on a one-core host,
    # so each case pins both the inline and the worker side.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_retried_then_recorded_not_raised(self, jobs):
        campaign = run_campaign(
            [micro_cfg(name="a"), micro_cfg(name="b")],
            jobs=jobs,
            run_fn=always_fail,
            retry=RetryPolicy(max_attempts=3),
            oversubscribe=True,
        )
        assert [o.status for o in campaign.outcomes] == ["failed", "failed"]
        assert all(o.attempts == 3 for o in campaign.outcomes)
        assert "RuntimeError: boom a" in campaign.outcomes[0].error
        # The manifest carries the per-cell error records.
        assert campaign.manifest.failures == 2
        assert campaign.manifest.retries == 4
        records = campaign.manifest.failed_cells()
        assert len(records) == 2 and records[0].error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_flaky_cell_recovers(self, tmp_path, jobs):
        markers = [str(tmp_path / "a"), str(tmp_path / "b")]
        campaign = run_campaign(
            [micro_cfg(name=m) for m in markers],
            jobs=jobs,
            run_fn=fail_once_via_marker,
            retry=RetryPolicy(max_attempts=3),
            oversubscribe=True,
        )
        assert [o.status for o in campaign.outcomes] == ["ok", "ok"]
        assert [o.attempts for o in campaign.outcomes] == [2, 2]
        assert [o.result for o in campaign.outcomes] == ["recovered"] * 2
        assert campaign.manifest.retries == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_store_write_is_a_failed_cell(
        self, tmp_path, monkeypatch, jobs
    ):
        def full_disk(store, result):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ResultStore, "save", full_disk)
        path = str(tmp_path / "run.json")
        campaign = run_campaign(
            micro_grid((1, 2)), jobs=jobs, cache=str(tmp_path / "store"),
            manifest_path=path, oversubscribe=True,
        )
        for outcome in campaign.outcomes:
            assert (outcome.status, outcome.error_kind) == ("failed", "sim")
            assert outcome.error.startswith("result could not be stored: ")
            assert "No space left on device" in outcome.error
        assert RunManifest.load(path).complete

    def test_timeout_surfaces_as_failed_record(self):
        campaign = run_campaign(
            [micro_cfg(name="hung")],
            jobs=2,
            run_fn=sleepy,
            timeout_s=0.1,
            retry=RetryPolicy(max_attempts=2),
        )
        (outcome,) = campaign.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "TimeoutError" in outcome.error
        assert campaign.manifest.failures == 1

    def test_failure_does_not_sink_healthy_cells(self, tmp_path):
        # One poisoned cell (marker never created => always raises) among
        # healthy ones: the healthy cells complete normally.
        cfgs = [
            micro_cfg(name=str(tmp_path / "ok1")),
            micro_cfg(name="___nonexistent_dir___/marker"),
            micro_cfg(name=str(tmp_path / "ok2")),
        ]
        campaign = run_campaign(
            cfgs, jobs=2, run_fn=fail_once_via_marker,
            retry=RetryPolicy(max_attempts=2),
        )
        statuses = [o.status for o in campaign.outcomes]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1] == "failed"

    def test_sweep_strict_raises_campaign_error(self, monkeypatch):
        # Force every cell to fail fast via an invalid topology radix.
        campaign = run_campaign(
            [micro_cfg()], jobs=1, run_fn=always_fail
        )
        assert campaign.failed
        with pytest.raises(CampaignError, match="cell 0"):
            campaign.raise_on_failure()


class TestCache:
    def test_second_invocation_runs_zero_simulations(self, tmp_path):
        cfgs = micro_grid((1, 2))
        first = run_campaign(cfgs, jobs=1, cache=str(tmp_path))
        assert [o.status for o in first.outcomes] == ["ok", "ok"]
        # Same campaign again: every cell must come from the cache — the
        # forbidden run_fn would blow up on any simulation attempt.
        second = run_campaign(cfgs, jobs=1, cache=str(tmp_path), run_fn=forbidden)
        assert [o.status for o in second.outcomes] == ["cached", "cached"]
        assert second.manifest.cache_hits == 2
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.result.rates_gbps == b.result.rates_gbps

    def test_partial_cache_only_runs_missing_cells(self, tmp_path):
        cfgs = micro_grid((1, 2))
        run_campaign([cfgs[0]], jobs=1, cache=str(tmp_path))
        campaign = run_campaign(cfgs, jobs=1, cache=str(tmp_path))
        assert [o.status for o in campaign.outcomes] == ["cached", "ok"]

    def test_cache_accepts_store_instance_and_counts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cache = CellCache(store)
        cfg = micro_cfg()
        run_campaign([cfg], jobs=1, cache=cache)
        assert cache.misses == 1 and cache.stores == 1
        assert cfg in store
        run_campaign([cfg], jobs=1, cache=cache, run_fn=forbidden)
        assert cache.hits == 1

    def test_corrupt_cache_entry_is_a_miss_not_a_crash(self, tmp_path):
        cfg = micro_cfg()
        first = run_campaign([cfg], jobs=1, cache=str(tmp_path))
        (entry,) = tmp_path.rglob("*.json")
        entry.write_text("garbage{")
        again = run_campaign([cfg], jobs=1, cache=str(tmp_path))
        assert again.outcomes[0].status == "ok"  # re-simulated, not crashed
        assert again.outcomes[0].result.rates_gbps == first.outcomes[0].result.rates_gbps
        # The fresh result overwrote the corrupt entry: next run hits.
        third = run_campaign([cfg], jobs=1, cache=str(tmp_path), run_fn=forbidden)
        assert third.outcomes[0].status == "cached"

    def test_pool_and_serial_share_the_cache(self, tmp_path):
        cfgs = micro_grid((1, 2, 3))
        run_campaign(cfgs, jobs=2, cache=str(tmp_path))
        second = run_campaign(cfgs, jobs=1, cache=str(tmp_path), run_fn=forbidden)
        assert [o.status for o in second.outcomes] == ["cached"] * 3


class TestManifestAndProgress:
    def test_manifest_written_and_round_trips(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        campaign = run_campaign(
            [micro_cfg(name="m1"), micro_cfg(name="m2")],
            run_fn=payload_fn,
            manifest_path=path,
        )
        data = json.loads(open(path).read())
        assert data["total_cells"] == 2 and data["ok"] == 2
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == campaign.manifest.to_dict()
        assert [c.key for c in loaded.cells] == [o.key for o in campaign.outcomes]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_records_peak_rss_of_the_process_that_ran_the_cell(
        self, tmp_path, jobs
    ):
        path = str(tmp_path / "manifest.json")
        cfgs = micro_grid((1, 2, 3))
        run_campaign(
            cfgs + [micro_cfg(name="bad")], jobs=jobs, cache=str(tmp_path),
            run_fn=fail_named_bad, manifest_path=path,
        )
        cells = RunManifest.load(path).cells
        assert [c.status for c in cells] == ["ok"] * 3 + ["failed"]
        # Stamped for failures too: an OOM'd cell is where it matters.
        assert all(c.peak_rss_mb > 5.0 for c in cells)
        if jobs == 1:  # one process ran them all: a high-water mark
            peaks = [c.peak_rss_mb for c in cells]
            assert peaks == sorted(peaks)
        # Nothing ran the second time, so there is nothing to report.
        run_campaign(cfgs, jobs=jobs, cache=str(tmp_path), manifest_path=path)
        cells = RunManifest.load(path).cells
        assert [(c.status, c.peak_rss_mb) for c in cells] == [("cached", None)] * 3

    def test_manifest_keys_match_config_key(self):
        cfg = micro_cfg()
        campaign = run_campaign([cfg], run_fn=payload_fn)
        assert campaign.outcomes[0].key == config_key(cfg)

    def test_progress_counters_and_render(self, tmp_path):
        reporter = ProgressReporter()
        cfgs = micro_grid((1, 2))
        run_campaign(cfgs, jobs=1, cache=str(tmp_path), progress=reporter)
        assert reporter.done == 2 and reporter.ok == 2 and reporter.cached == 0
        line = reporter.render()
        assert "cells 2/2" in line and "done in" in line

        reporter2 = ProgressReporter()
        run_campaign(cfgs, jobs=1, cache=str(tmp_path), progress=reporter2,
                     run_fn=forbidden)
        assert reporter2.cached == 2
        assert "2 cached" in reporter2.render()

    def test_progress_streams_lines(self, capsys):
        import sys

        reporter = ProgressReporter(stream=sys.stderr)
        run_campaign([micro_cfg(name="s")], run_fn=payload_fn, progress=reporter)
        err = capsys.readouterr().err
        assert "cells 1/1" in err

    def test_eta_uses_pool_width(self):
        clock = iter([0.0, 10.0, 20.0, 30.0]).__next__
        reporter = ProgressReporter(clock=lambda: 0.0)
        reporter.start(total=4, jobs=2)
        from repro.parallel import CellOutcome

        reporter.on_outcome(CellOutcome(
            index=0, config=None, key="k", status="ok",
            attempts=1, wall_seconds=10.0,
        ))
        # 3 cells left at 10s each over 2 workers.
        assert reporter.eta_seconds() == pytest.approx(15.0)


    def test_eta_divides_by_the_processes_that_run(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        reporter = ProgressReporter()
        run_campaign(
            [micro_cfg(name=f"c{i}").with_(seed=i) for i in range(3)],
            jobs=4, run_fn=payload_fn, progress=reporter,
        )
        assert reporter.jobs == 1


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign([micro_cfg()], jobs=0, run_fn=payload_fn)

    def test_empty_campaign(self):
        campaign = run_campaign([], jobs=1)
        assert campaign.outcomes == [] and campaign.manifest.total_cells == 0
