"""Figures 9-10: the stormy forest of moving congestion trees.

Hotspots relocate every *lifetime* (10 ms down to 1 ms); the reported
metric is the average receive rate over **all** nodes, CC on vs off.
Figure 9 moves silent trees with two C/V mixes; figure 10 moves windy
trees (100 % B nodes) at p = 30/60/90 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult


@dataclass
class MovingPoint:
    """One hotspot lifetime, CC off vs on."""

    lifetime_ns: float
    off: ExperimentResult
    on: ExperimentResult

    @property
    def improvement(self) -> float:
        return self.on.all_nodes / self.off.all_nodes


@dataclass
class MovingFigure:
    """One panel of figure 9 or 10: a lifetime sweep."""

    label: str
    points: List[MovingPoint]

    @classmethod
    def from_results(cls, results: Sequence[ExperimentResult]) -> "MovingFigure":
        """The (off, on) pairs of :func:`moving_cells`, in order."""
        cfg = results[0].config
        if cfg.b_fraction:
            label = f"{cfg.b_fraction:.0%} B, p={cfg.p * 100:.0f}"
        else:
            c = cfg.c_fraction_of_rest
            label = f"{1 - c:.0%} V / {c:.0%} C"
        return cls(label=label, points=[
            MovingPoint(lifetime_ns=off.config.hotspot_lifetime_ns, off=off, on=on)
            for off, on in zip(results[::2], results[1::2])
        ])

    def series(self) -> Dict[str, List[float]]:
        """Column-oriented data for the lifetime sweep panels."""
        return {
            "lifetime_ms": [pt.lifetime_ns / 1e6 for pt in self.points],
            "all_off": [pt.off.all_nodes for pt in self.points],
            "all_on": [pt.on.all_nodes for pt in self.points],
            "improvement": [pt.improvement for pt in self.points],
        }

    def format(self) -> str:
        """Plain-text table matching the paper panel."""
        head = (
            f"Moving hotspots: {self.label}\n"
            f"{'life ms':>8} {'all off':>9} {'all on':>9} {'improv':>8}"
        )
        rows = [
            f"{pt.lifetime_ns / 1e6:8.1f} {pt.off.all_nodes:9.3f} "
            f"{pt.on.all_nodes:9.3f} {pt.improvement:8.2f}"
            for pt in self.points
        ]
        return "\n".join([head, *rows])

    def render(self, opts) -> str:
        """What ``ibcc-repro fig9a``/``fig9b``/``fig10`` print: the table
        and, with ``opts.chart``, the all-node panel."""
        if not opts.chart:
            return self.format()
        from repro.metrics import line_chart

        series = self.series()
        return "\n".join([self.format(), "", line_chart(
            {"CC off": series["all_off"], "CC on": series["all_on"]},
            series["lifetime_ms"],
            x_label="hotspot lifetime (ms)",
            y_label="all-node rcv (Gbit/s)",
        )])


def moving_cells(
    scale: ScaleProfile, seed: int, opts, *,
    c_fraction_of_rest: float = 0.8, windy: bool = False,
) -> List[ExperimentConfig]:
    """CC off then on at each of the scale's hotspot lifetimes.

    * figure 9(a): ``c_fraction_of_rest=0.8`` (80 % C / 20 % V);
    * figure 9(b): ``c_fraction_of_rest=0.4`` (40 % C / 60 % V);
    * figure 10: ``windy=True`` — 100 % B nodes at ``opts.p``.
    """
    shape = {"b_fraction": 1.0, "p": opts.p} if windy else {}
    cells = []
    for lt in scale.moving_lifetimes_ns:
        cfg = ExperimentConfig(
            scale=scale,
            c_fraction_of_rest=c_fraction_of_rest,
            hotspot_lifetime_ns=lt,
            seed=seed,
            name=f"moving-life{lt / 1e6:.0f}ms",
            **shape,
        )
        cells += [cfg.with_(cc=False), cfg.with_(cc=True)]
    return cells
