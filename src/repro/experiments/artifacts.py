"""The paper's artifacts as data, and the one function that runs them.

Each :class:`Artifact` is a CLI choice, the cells it simulates, and the
reduction of their results into the artifact's result type. Every
artifact runs the same way (:func:`run_artifact`): build the cells,
apply the shared overrides, run one campaign, reduce::

    table, results = run_artifact("table2", "quick", seed=7, jobs=2)
    print(table.render(ArtifactOptions()))

The shared overrides (``--faults``/``--chaos``, ``--transport``,
``--cc``) are applied here and nowhere else. ``cc_config`` goes on the
CC-on cells only, so the CC-off cells of every mechanism share cache
entries; the ``faults`` artifact brings its own fault plans and the
``arena`` compares mechanisms on a clean, raw fabric, so they refuse the
overrides that would change what they measure (:attr:`Artifact.accepts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.cc import CCConfig
from repro.experiments.arena import ArenaResult, arena_cells
from repro.experiments.config import SCALES, ConfigError, ExperimentConfig, ScaleProfile
from repro.experiments.fault_scenarios import FaultScenarioTable, fault_cells
from repro.experiments.moving import MovingFigure, moving_cells
from repro.experiments.runner import ExperimentResult
from repro.experiments.table2 import Table2Result, table2_cells
from repro.experiments.windy import DEFAULT_P_VALUES, WindyFigure, windy_cells
from repro.faults.spec import FaultPlan
from repro.transport import TransportConfig


@dataclass(frozen=True)
class ArtifactOptions:
    """What one run of an artifact is asked for beyond scale and seed."""

    p_values: Tuple[float, ...] = DEFAULT_P_VALUES  # windy: the p sweep
    p: float = 0.6  # fig10: the B nodes' hotspot share
    quick: bool = False  # arena: a seconds-scale smoke matrix
    cc_config: Optional[CCConfig] = None  # CC-on cells (arena: the one mechanism)
    faults: Optional[FaultPlan] = None  # every cell
    transport: Optional[TransportConfig] = None  # every cell
    chart: bool = False  # figures: also print ASCII panels
    out_dir: Optional[str] = None  # arena: also write arena.csv / arena.json


#: Options only some artifacts take, with the flag that sets each.
RESTRICTED = {
    "faults": "--faults/--chaos",
    "transport": "--transport",
    "quick": "--quick",
    "out_dir": "--out-dir",
}


@dataclass(frozen=True)
class Artifact:
    """One table or figure: its cells and how their results reduce."""

    name: str
    cells: Callable[[ScaleProfile, int, ArtifactOptions], List[ExperimentConfig]]
    reduce: Callable[[Sequence[ExperimentResult]], Any]
    #: Which :data:`RESTRICTED` options the artifact takes.
    accepts: FrozenSet[str] = frozenset({"faults", "transport"})


ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact("table2", table2_cells, Table2Result.from_results),
    *(Artifact(f"fig{n}", partial(windy_cells, x), WindyFigure.from_results)
      for n, x in ((5, 0.25), (6, 0.50), (7, 0.75), (8, 1.00))),
    Artifact("fig9a", partial(moving_cells, c_fraction_of_rest=0.8),
             MovingFigure.from_results),
    Artifact("fig9b", partial(moving_cells, c_fraction_of_rest=0.4),
             MovingFigure.from_results),
    Artifact("fig10", partial(moving_cells, windy=True), MovingFigure.from_results),
    Artifact("faults", fault_cells, FaultScenarioTable.from_results,
             accepts=frozenset({"transport"})),
    Artifact("arena", arena_cells, ArenaResult.from_results,
             accepts=frozenset({"quick", "out_dir"})),
)


def run_artifact(
    name: str,
    scale: ScaleProfile | str = "default",
    *,
    seed: int = 7,
    opts: ArtifactOptions = ArtifactOptions(),
    **campaign,
) -> Tuple[Any, List[ExperimentResult]]:
    """Run artifact ``name``; returns its result and the cell results.

    ``campaign`` goes to :func:`repro.parallel.run_campaign` (``jobs``,
    ``cache``, ``run_fn``, ``manifest_path``, ``resume_from``, ...).
    Raises :class:`ConfigError` for an option the artifact refuses and
    :class:`~repro.parallel.pool.CampaignError` if a cell fails after
    its retries: every cell feeds the artifact.
    """
    from repro.parallel import run_campaign

    artifact = {a.name: a for a in ARTIFACTS}[name]
    for option, flag in RESTRICTED.items():
        if getattr(opts, option) not in (None, False) and option not in artifact.accepts:
            raise ConfigError(f"{flag} does not apply to the {name} artifact")
    if isinstance(scale, str):
        scale = SCALES[scale]
    shared = {"faults": opts.faults, "transport": opts.transport}
    shared = {k: v for k, v in shared.items() if v is not None}
    cells = [cfg.with_(**shared) for cfg in artifact.cells(scale, seed, opts)]
    if opts.cc_config is not None:
        cells = [cfg.with_(cc_config=opts.cc_config) if cfg.cc else cfg
                 for cfg in cells]
    results = run_campaign(cells, **campaign).raise_on_failure().results
    return artifact.reduce(results), results
