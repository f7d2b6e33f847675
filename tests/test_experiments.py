"""Tests for the experiment configuration and drivers (micro scale)."""

import pytest

from repro.core import CCParams
from repro.experiments import (
    SCALES,
    ArtifactOptions,
    ExperimentConfig,
    run_artifact,
    run_experiment,
)

from tests.conftest import MICRO_SCALE


class TestScaleProfiles:
    def test_registry_contents(self):
        assert set(SCALES) == {"quick", "default", "paper"}

    def test_paper_scale_is_sun_dcs(self):
        paper = SCALES["paper"]
        assert paper.radix == 36
        assert paper.n_hosts == 648
        assert paper.n_hotspots == 8

    def test_paper_scale_keeps_table1_marking_rate(self):
        assert SCALES["paper"].marking_rate == 0

    def test_quick_host_count(self):
        assert SCALES["quick"].n_hosts == 32


class TestExperimentConfig:
    def test_cc_params_resolution_uses_scale(self):
        cfg = ExperimentConfig(scale=MICRO_SCALE)
        params = cfg.resolved_cc_params()
        assert params.cct_slope == MICRO_SCALE.cct_slope
        assert params.marking_rate == MICRO_SCALE.marking_rate
        assert params.ccti_limit == 127  # Table I untouched

    def test_explicit_cc_params_win(self):
        custom = CCParams.paper_table1().with_(threshold=7)
        cfg = ExperimentConfig(scale=MICRO_SCALE, cc_params=custom)
        assert cfg.resolved_cc_params().threshold == 7

    def test_moving_runs_use_moving_sim_time(self):
        cfg = ExperimentConfig(scale=MICRO_SCALE, hotspot_lifetime_ns=1e6)
        assert cfg.resolved_sim_time() == MICRO_SCALE.moving_sim_time_ns

    def test_warmup_capped_at_fraction_of_sim(self):
        cfg = ExperimentConfig(scale=MICRO_SCALE, sim_time_ns=1e6)
        assert cfg.resolved_warmup() <= 0.4e6

    def test_with_copies(self):
        cfg = ExperimentConfig(scale=MICRO_SCALE)
        assert cfg.with_(cc=False).cc is False
        assert cfg.cc is True


class TestRunExperiment:
    def test_result_structure(self):
        res = run_experiment(ExperimentConfig(scale=MICRO_SCALE, seed=3))
        assert len(res.rates_gbps) == MICRO_SCALE.n_hosts
        assert len(res.hotspots) == MICRO_SCALE.n_hotspots
        assert res.total == pytest.approx(sum(res.rates_gbps))
        assert res.events > 0
        assert res.wall_seconds > 0

    def test_cc_off_has_no_marks(self):
        res = run_experiment(ExperimentConfig(scale=MICRO_SCALE, cc=False))
        assert res.fecn_marks == 0 and res.becns == 0

    def test_cc_on_marks_under_hotspots(self):
        res = run_experiment(
            ExperimentConfig(scale=MICRO_SCALE, b_fraction=0.0, cc=True)
        )
        assert res.fecn_marks > 0

    def test_contributors_silenced_baseline(self):
        res = run_experiment(
            ExperimentConfig(scale=MICRO_SCALE, contributors_active=False, cc=False)
        )
        # Only the V-share uniform load: every node receives roughly the
        # same modest rate; no saturation anywhere.
        assert max(res.rates_gbps) < 13.0

    def test_same_seed_same_result(self):
        cfg = ExperimentConfig(scale=MICRO_SCALE, seed=11)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.rates_gbps == b.rates_gbps

    def test_different_seed_different_result(self):
        a = run_experiment(ExperimentConfig(scale=MICRO_SCALE, seed=1))
        b = run_experiment(ExperimentConfig(scale=MICRO_SCALE, seed=2))
        assert a.rates_gbps != b.rates_gbps

    def test_fairness_accessor(self):
        res = run_experiment(ExperimentConfig(scale=MICRO_SCALE))
        assert 0.0 < res.fairness() <= 1.0


class TestTable2Driver:
    def test_rows_and_shape(self):
        t2, _ = run_artifact("table2", MICRO_SCALE, seed=3)
        rows = t2.rows()
        assert set(rows) == {
            "no_hotspots_no_cc_avg",
            "no_hotspots_cc_avg",
            "hotspots_no_cc_hotspot_avg",
            "hotspots_no_cc_non_hotspot_avg",
            "hotspots_cc_hotspot_avg",
            "hotspots_cc_non_hotspot_avg",
            "total_throughput_no_cc",
            "total_throughput_cc",
        }
        # The paper's qualitative shape at any scale:
        assert rows["hotspots_no_cc_non_hotspot_avg"] < rows["no_hotspots_no_cc_avg"]
        assert rows["hotspots_cc_non_hotspot_avg"] > rows["hotspots_no_cc_non_hotspot_avg"]
        assert t2.improvement > 1.0

    def test_format_is_printable(self):
        t2, _ = run_artifact("table2", MICRO_SCALE, seed=3)
        text = t2.format()
        assert "Table II" in text and "Improvement" in text


def fig8_point(p):
    """The one point of figure 8 (x = 100 %) swept at ``p`` alone."""
    fig, _ = run_artifact(
        "fig8", MICRO_SCALE, seed=3, opts=ArtifactOptions(p_values=(p,))
    )
    (pt,) = fig.points
    return pt


class TestWindyDriver:
    def test_point_structure(self):
        pt = fig8_point(0.6)
        assert pt.improvement > 0
        assert pt.tmax == pt.on.tmax

    def test_cc_wins_at_mid_p(self):
        pt = fig8_point(0.6)
        assert pt.on.non_hotspot > pt.off.non_hotspot


class TestMovingDriver:
    def test_point_and_figure(self):
        fig, _ = run_artifact("fig9a", MICRO_SCALE, seed=3)
        assert len(fig.points) == len(MICRO_SCALE.moving_lifetimes_ns)
        series = fig.series()
        assert len(series["lifetime_ms"]) == len(fig.points)
        assert "20% V / 80% C" in fig.format()

    def test_moving_hotspots_actually_move(self):
        fig, _ = run_artifact("fig9a", MICRO_SCALE, seed=3)
        (pt,) = fig.points
        assert pt.lifetime_ns == 0.5e6 == MICRO_SCALE.moving_lifetimes_ns[0]
        # With a 0.5 ms lifetime over a 2 ms run, several relocations
        # happened; the run completes and produces rates.
        assert pt.on.total > 0 and pt.off.total > 0
