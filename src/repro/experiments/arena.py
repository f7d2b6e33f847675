"""The congestion-control arena: every mechanism against every scenario.

The paper's Table II measures one mechanism (IB CCT throttling) against
the *silent* congestion-tree scenario; its figures extend that to the
*windy* (partial hotspot share) and *moving* (finite-lifetime hotspot)
members of the taxonomy. The arena crosses the whole taxonomy with
every mechanism of :data:`repro.cc.MECHANISMS`: per scenario it runs one
shared no-CC baseline plus one CC-on cell per mechanism, and reports a
Table-II-style matrix — hotspot / non-hotspot / total receive rates,
fairness, and total-throughput improvement over the no-CC baseline.

Scenarios (section V's taxonomy):

* ``silent`` — static full-share hotspots from pure contributors
  (the Table II mix: 80 % C, 20 % V);
* ``windy``  — B nodes sending share ``p`` into the hotspot and the
  rest uniformly (x = 0.5, p = 0.6: mid-grid of figures 5–8);
* ``moving`` — hotspots relocate with a finite lifetime (figure 9(a)
  mix), the scenario where the paper finds CC reacts too slowly.

Run it as ``ibcc-repro arena`` (``--quick`` for a seconds-scale smoke
matrix, ``--out-dir`` to also write the matrix as CSV and JSON).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.cc
from repro.cc import CCConfig
from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class ArenaScenario:
    """One taxonomy member: a config shaper plus its display name."""

    name: str
    b_fraction: float = 0.0
    p: float = 0.5
    c_fraction_of_rest: float = 0.8
    moving: bool = False  # hotspots relocate (finite lifetime)

    def base_config(
        self, scale: ScaleProfile, *, seed: int, quick: bool
    ) -> ExperimentConfig:
        lifetime = None
        if self.moving:
            # The shortest of the scale's lifetimes: the regime where
            # the paper finds the CCT mechanism reacting too slowly.
            lifetime = min(scale.moving_lifetimes_ns)
        cfg = ExperimentConfig(
            scale=scale,
            b_fraction=self.b_fraction,
            p=self.p,
            c_fraction_of_rest=self.c_fraction_of_rest,
            hotspot_lifetime_ns=lifetime,
            seed=seed,
            name=f"arena-{self.name}",
        )
        if quick:
            # Seconds-scale smoke matrix: enough simulated time for
            # feedback loops to bite, not enough for paper numbers.
            sim = 4e6 if self.moving else 2e6
            cfg = cfg.with_(sim_time_ns=sim, warmup_ns=0.5e6)
            if self.moving:
                cfg = cfg.with_(hotspot_lifetime_ns=1e6)
        return cfg


#: The paper's scenario taxonomy, in presentation order.
SCENARIOS = (
    ArenaScenario(name="silent"),
    ArenaScenario(name="windy", b_fraction=0.5, p=0.6),
    ArenaScenario(name="moving", moving=True),
)


@dataclass
class ArenaCell:
    """One (scenario, mechanism) matrix entry."""

    scenario: str
    mechanism: str  # a repro.cc.MECHANISMS name, or "off" for the baseline
    result: ExperimentResult
    baseline: Optional[ExperimentResult] = None  # the scenario's no-CC run

    @property
    def improvement(self) -> float:
        """Total-throughput gain over the scenario's no-CC baseline."""
        if self.baseline is None or self.baseline.total == 0:
            return 1.0
        return self.result.total / self.baseline.total

    def row(self) -> Dict[str, object]:
        res = self.result
        return {
            "scenario": self.scenario,
            "cc_mechanism": self.mechanism,
            "hotspot": res.hotspot,
            "non_hotspot": res.non_hotspot,
            "all_nodes": res.all_nodes,
            "total": res.total,
            "fairness": res.fairness(),
            "fecn_marks": res.fecn_marks,
            "becns": res.becns,
            "improvement": self.improvement,
        }


@dataclass
class ArenaResult:
    """The full cross-mechanism matrix plus per-scenario baselines."""

    scale: str
    seed: int
    mechanisms: List[str]
    cells: List[ArenaCell] = field(default_factory=list)

    @classmethod
    def from_results(cls, results: Sequence[ExperimentResult]) -> "ArenaResult":
        """The results of :func:`arena_cells`, in order."""
        cfg = results[0].config
        names = [r.config.cc_mechanism for r in results if r.config.cc]
        arena = cls(scale=cfg.scale.name, seed=cfg.seed,
                    mechanisms=list(dict.fromkeys(names)))
        baseline = None
        for res in results:
            scenario = res.config.name[len("arena-"):]
            if not res.config.cc:
                baseline = res
                arena.cells.append(ArenaCell(scenario, "off", res))
            else:
                arena.cells.append(ArenaCell(
                    scenario, res.config.cc_mechanism, res, baseline=baseline))
        return arena

    def rows(self) -> List[Dict[str, object]]:
        """Every matrix row (baselines first per scenario) as dicts."""
        return [c.row() for c in self.cells]

    def to_csv(self) -> str:
        rows = self.rows()
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(
            {
                "scale": self.scale,
                "seed": self.seed,
                "mechanisms": self.mechanisms,
                "scenarios": sorted({c.scenario for c in self.cells}),
                "rows": self.rows(),
            },
            indent=indent,
        )

    def format(self) -> str:
        """Table-II-style text matrix, one block per scenario."""
        lines = [
            f"Congestion-control arena (scale={self.scale}, seed={self.seed})",
            "  receive rates in Gbit/s; improvement = total vs no-CC baseline",
        ]
        header = (
            f"  {'mechanism':<10} {'hotspot':>9} {'non-hot':>9} "
            f"{'total':>9} {'fairness':>9} {'improve':>8}"
        )
        for scenario in sorted({c.scenario for c in self.cells}):
            lines.append(f"{scenario} scenario:")
            lines.append(header)
            for cell in self.cells:
                if cell.scenario != scenario:
                    continue
                r = cell.row()
                lines.append(
                    f"  {r['cc_mechanism']:<10} {r['hotspot']:>9.3f} "
                    f"{r['non_hotspot']:>9.3f} {r['total']:>9.3f} "
                    f"{r['fairness']:>9.3f} {r['improvement']:>7.2f}x"
                )
        return "\n".join(lines)

    def render(self, opts) -> str:
        """What ``ibcc-repro arena`` prints: the matrix; with
        ``opts.out_dir`` it also writes ``arena.csv`` and ``arena.json``."""
        if opts.out_dir is not None:
            os.makedirs(opts.out_dir, exist_ok=True)
            csv_path = os.path.join(opts.out_dir, "arena.csv")
            json_path = os.path.join(opts.out_dir, "arena.json")
            with open(csv_path, "w") as fh:
                fh.write(self.to_csv())
            with open(json_path, "w") as fh:
                fh.write(self.to_json())
                fh.write("\n")
            print(f"matrix written to {csv_path} and {json_path}",
                  file=sys.stderr)
        return self.format()


def arena_cells(scale: ScaleProfile, seed: int, opts) -> List[ExperimentConfig]:
    """Per scenario, one no-CC baseline then one CC-on cell per mechanism.

    The mechanisms are every entry of :data:`repro.cc.MECHANISMS`, in
    its order, or only ``opts.cc_config`` when set. The baseline carries no
    ``cc_config``, so every per-mechanism campaign shares its cache
    entry. ``opts.quick`` shrinks simulated time to a smoke matrix.
    """
    if opts.cc_config is not None:
        mechanisms = [opts.cc_config.validate()]
    else:
        mechanisms = [CCConfig.make(m.name) for m in repro.cc.MECHANISMS]
    cells: List[ExperimentConfig] = []
    for scenario in SCENARIOS:
        base = scenario.base_config(scale, seed=seed, quick=opts.quick)
        cells.append(base.with_(cc=False))
        cells += [base.with_(cc=True, cc_config=cc) for cc in mechanisms]
    return cells
