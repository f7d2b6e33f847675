"""Tests for the windy/moving figure data structures and formatting."""

import pytest

from repro.experiments import ArtifactOptions, run_artifact
from repro.metrics import line_chart

from tests.conftest import MICRO_SCALE


@pytest.fixture(scope="module")
def windy_fig():
    opts = ArtifactOptions(p_values=(0.0, 0.6, 1.0))
    return run_artifact("fig8", MICRO_SCALE, seed=3, opts=opts)[0]


@pytest.fixture(scope="module")
def moving_fig():
    return run_artifact("fig10", MICRO_SCALE, seed=3)[0]


class TestWindyFigure:
    def test_series_alignment(self, windy_fig):
        series = windy_fig.series()
        lengths = {len(v) for v in series.values()}
        assert lengths == {3}
        assert series["p"] == [0.0, 60.0, 100.0]

    def test_tmax_decreasing_in_p(self, windy_fig):
        tmax = windy_fig.series()["tmax"]
        assert tmax == sorted(tmax, reverse=True)

    def test_peak_improvement_is_max(self, windy_fig):
        peak = windy_fig.peak_improvement()
        assert peak.improvement == max(pt.improvement for pt in windy_fig.points)

    def test_format_has_all_rows(self, windy_fig):
        text = windy_fig.format()
        assert "100% B nodes" in text
        assert len([l for l in text.splitlines() if l.strip() and l.lstrip()[0].isdigit()]) == 3

    def test_chartable(self, windy_fig):
        series = windy_fig.series()
        chart = line_chart(
            {"on": series["non_hotspot_on"], "off": series["non_hotspot_off"]},
            series["p"],
        )
        assert "on" in chart and "off" in chart

    def test_render_adds_the_peak_and_with_chart_two_panels(self, windy_fig):
        plain = windy_fig.render(ArtifactOptions())
        peak = windy_fig.peak_improvement()
        assert plain == windy_fig.format() + (
            f"\npeak improvement {peak.improvement:.1f}x at p={peak.p * 100:.0f}%"
        )
        charted = windy_fig.render(ArtifactOptions(chart=True))
        assert charted.startswith(plain + "\n\n")
        assert "p (%)" in charted and "CC throughput gain (x)" in charted


class TestMovingFigure:
    def test_series_alignment(self, moving_fig):
        series = moving_fig.series()
        n = len(MICRO_SCALE.moving_lifetimes_ns)
        assert all(len(v) == n for v in series.values())

    def test_lifetimes_in_ms(self, moving_fig):
        lifetimes = moving_fig.series()["lifetime_ms"]
        assert lifetimes == [lt / 1e6 for lt in MICRO_SCALE.moving_lifetimes_ns]

    def test_format(self, moving_fig):
        text = moving_fig.format()
        assert "Moving hotspots" in text and "improv" in text

    def test_render_is_the_table_and_with_chart_one_panel(self, moving_fig):
        assert moving_fig.render(ArtifactOptions()) == moving_fig.format()
        charted = moving_fig.render(ArtifactOptions(chart=True))
        assert charted.startswith(moving_fig.format() + "\n\n")
        assert "hotspot lifetime (ms)" in charted

    def test_label_names_the_mix(self, moving_fig):
        assert moving_fig.label == "100% B, p=60"

    def test_improvement_definition(self, moving_fig):
        pt = moving_fig.points[0]
        assert pt.improvement == pytest.approx(pt.on.all_nodes / pt.off.all_nodes)
