"""Table II: performance numbers for the silent forest of congestion trees.

Four phases, as in the paper (section V-A):

1. no hotspots, CC off — only uniform (victim-class) traffic;
2. no hotspots, CC on — shows CC does no harm when idle;
3. hotspots, CC off — the congestion-tree collapse;
4. hotspots, CC on — the recovery.

plus the total-network-throughput comparison of the hotspot phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult


@dataclass
class Table2Result:
    """All rows of the paper's Table II (Gbit/s)."""

    baseline_no_cc: ExperimentResult
    baseline_cc: ExperimentResult
    hotspots_no_cc: ExperimentResult
    hotspots_cc: ExperimentResult

    def rows(self) -> Dict[str, float]:
        """The table's rows keyed like the EXPERIMENTS.md report."""
        return {
            "no_hotspots_no_cc_avg": self.baseline_no_cc.all_nodes,
            "no_hotspots_cc_avg": self.baseline_cc.all_nodes,
            "hotspots_no_cc_hotspot_avg": self.hotspots_no_cc.hotspot,
            "hotspots_no_cc_non_hotspot_avg": self.hotspots_no_cc.non_hotspot,
            "hotspots_cc_hotspot_avg": self.hotspots_cc.hotspot,
            "hotspots_cc_non_hotspot_avg": self.hotspots_cc.non_hotspot,
            "total_throughput_no_cc": self.hotspots_no_cc.total,
            "total_throughput_cc": self.hotspots_cc.total,
        }

    @classmethod
    def from_results(cls, results: Sequence[ExperimentResult]) -> "Table2Result":
        """The results of :func:`table2_cells`, in order."""
        return cls(*results)

    @property
    def improvement(self) -> float:
        return self.hotspots_cc.total / self.hotspots_no_cc.total

    def format(self) -> str:
        """Plain-text rendering in the paper's row order."""
        r = self.rows()
        lines = [
            "Table II -- silent congestion trees (Gbit/s)",
            f"  No hotspots, no CC   avg receive rate   {r['no_hotspots_no_cc_avg']:8.3f}",
            f"  No hotspots, CC on   avg receive rate   {r['no_hotspots_cc_avg']:8.3f}",
            f"  Hotspots, no CC      hotspots avg rcv   {r['hotspots_no_cc_hotspot_avg']:8.3f}",
            f"                       non-hotspots avg   {r['hotspots_no_cc_non_hotspot_avg']:8.3f}",
            f"  Hotspots, CC on      hotspots avg rcv   {r['hotspots_cc_hotspot_avg']:8.3f}",
            f"                       non-hotspots avg   {r['hotspots_cc_non_hotspot_avg']:8.3f}",
            f"  Total throughput     without CC         {r['total_throughput_no_cc']:8.3f}",
            f"                       with CC            {r['total_throughput_cc']:8.3f}",
            f"  Improvement by enabling CC: {self.improvement:.2f}x",
        ]
        return "\n".join(lines)

    def render(self, opts) -> str:
        """What ``ibcc-repro table2`` prints: the table."""
        return self.format()


def table2_cells(scale: ScaleProfile, seed: int, opts) -> List[ExperimentConfig]:
    """The four phases, in the paper's row order."""
    base = ExperimentConfig(
        scale=scale, b_fraction=0.0, c_fraction_of_rest=0.8, seed=seed, name="table2",
    )
    return [
        base.with_(cc=False, contributors_active=False),
        base.with_(cc=True, contributors_active=False),
        base.with_(cc=False),
        base.with_(cc=True),
    ]
