"""Figures 5-8: the windy forest of congestion trees.

Each figure fixes the fraction ``x`` of B nodes (25/50/75/100 %) and
sweeps the hotspot share ``p`` from 0 to 100 %, comparing CC on vs off
on three panels: (a) average non-hotspot receive rate with the
theoretical ``tmax``, (b) average hotspot receive rate, (c) total
network throughput improvement factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import ConfigError, ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult

DEFAULT_P_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class WindyPoint:
    """One p value of one windy figure: CC off vs CC on."""

    p: float
    off: ExperimentResult
    on: ExperimentResult

    @property
    def tmax(self) -> float:
        return self.on.tmax

    @property
    def improvement(self) -> float:
        return self.on.total / self.off.total


@dataclass
class WindyFigure:
    """A full panel set (a, b, c) for one B-node fraction."""

    b_fraction: float
    points: List[WindyPoint]

    @classmethod
    def from_results(cls, results: Sequence[ExperimentResult]) -> "WindyFigure":
        """The (off, on) pairs of :func:`windy_cells`, in order."""
        return cls(
            b_fraction=results[0].config.b_fraction,
            points=[WindyPoint(p=off.config.p, off=off, on=on)
                    for off, on in zip(results[::2], results[1::2])],
        )

    def series(self) -> Dict[str, List[float]]:
        """Column-oriented data matching the paper's three panels."""
        return {
            "p": [pt.p * 100 for pt in self.points],
            "non_hotspot_off": [pt.off.non_hotspot for pt in self.points],
            "non_hotspot_on": [pt.on.non_hotspot for pt in self.points],
            "tmax": [pt.tmax for pt in self.points],
            "hotspot_off": [pt.off.hotspot for pt in self.points],
            "hotspot_on": [pt.on.hotspot for pt in self.points],
            "improvement": [pt.improvement for pt in self.points],
        }

    def peak_improvement(self) -> WindyPoint:
        """The sweep point with the largest CC throughput gain."""
        return max(self.points, key=lambda pt: pt.improvement)

    def format(self) -> str:
        """Plain-text table of all three panels."""
        head = (
            f"Windy forest, {self.b_fraction * 100:.0f}% B nodes\n"
            f"{'p%':>4} {'nonhs off':>10} {'nonhs on':>10} {'tmax':>8} "
            f"{'hs off':>8} {'hs on':>8} {'improv':>8}"
        )
        rows = [
            f"{pt.p * 100:4.0f} {pt.off.non_hotspot:10.3f} {pt.on.non_hotspot:10.3f} "
            f"{pt.tmax:8.3f} {pt.off.hotspot:8.2f} {pt.on.hotspot:8.2f} "
            f"{pt.improvement:8.2f}"
            for pt in self.points
        ]
        return "\n".join([head, *rows])

    def render(self, opts) -> str:
        """What ``ibcc-repro fig5``..``fig8`` print: the table, the peak
        improvement and, with ``opts.chart``, panels (a) and (c)."""
        peak = self.peak_improvement()
        parts = [
            self.format(),
            f"peak improvement {peak.improvement:.1f}x at p={peak.p * 100:.0f}%",
        ]
        if opts.chart:
            from repro.metrics import line_chart

            series = self.series()
            parts += ["", line_chart(
                {"CC off": series["non_hotspot_off"],
                 "CC on": series["non_hotspot_on"],
                 "tmax": series["tmax"]},
                series["p"], x_label="p (%)", y_label="non-hotspot rcv (Gbit/s)",
            ), "", line_chart(
                {"improvement": series["improvement"]},
                series["p"], x_label="p (%)", y_label="CC throughput gain (x)",
            )]
        return "\n".join(parts)


def windy_cells(
    b_fraction: float, scale: ScaleProfile, seed: int, opts
) -> List[ExperimentConfig]:
    """CC off then on at each of ``opts.p_values``: figures 5 (x=.25) to 8 (x=1)."""
    if not opts.p_values:
        raise ConfigError("the p sweep is empty (--p-step must be > 0)")
    cells = []
    for p in opts.p_values:
        cfg = ExperimentConfig(
            scale=scale,
            b_fraction=b_fraction,
            p=p,
            c_fraction_of_rest=0.8,
            seed=seed,
            name=f"windy-x{b_fraction:.2f}-p{p:.2f}",
        )
        cells += [cfg.with_(cc=False), cfg.with_(cc=True)]
    return cells
