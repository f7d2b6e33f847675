"""Experiments: the paper's tables and figures, as data.

* :mod:`repro.experiments.config` — scenario + scale configuration;
* :mod:`repro.experiments.runner` — build a network from a config, run
  it, and collect an :class:`~repro.experiments.runner.ExperimentResult`;
* :mod:`repro.experiments.artifacts` — ``ARTIFACTS``, one
  :class:`~repro.experiments.artifacts.Artifact` per table/figure (its
  cells and their reduction), and ``run_artifact``, which runs any of
  them as one campaign;
* :mod:`repro.experiments.table2` — the silent-forest phases (Table II);
* :mod:`repro.experiments.windy` — the p-sweeps of figures 5–8;
* :mod:`repro.experiments.moving` — the hotspot-lifetime sweeps of
  figures 9–10;
* :mod:`repro.experiments.fault_scenarios` / :mod:`~repro.experiments.arena`
  — the fault-scenario table and the cross-mechanism CC matrix;
* :mod:`repro.experiments.cli` — ``python -m repro`` / ``ibcc-repro``.

Every artifact takes a *scale profile* (``quick``/``default``/``paper``)
that sets the fat-tree radix, hotspot count, simulated time and CCT
slope. ``paper`` is the full 648-node Sun DCS topology; see DESIGN.md
§3 for why the smaller profiles preserve the reported shapes.

``run_artifact`` and ``sweep`` execute their cells through
:mod:`repro.parallel` — a fault-tolerant process-pool executor with
read-through result caching, bounded retry, and a JSON run manifest.
``jobs=1`` (the default) runs the cells in order in-process; any
``jobs`` value gives the same results.
"""

import importlib

from repro.experiments.config import ExperimentConfig, ScaleProfile, SCALES
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.sweep import sweep, SweepResult
from repro.experiments.store import ResultStore

#: Loaded on first use, so the campaign daemon never imports the artifacts.
_LAZY = {
    "ARTIFACTS": "artifacts",
    "ArtifactOptions": "artifacts",
    "run_artifact": "artifacts",
    "generate_report": "report",
}

__all__ = [
    "ExperimentConfig",
    "ScaleProfile",
    "SCALES",
    "ExperimentResult",
    "run_experiment",
    "sweep",
    "SweepResult",
    "ResultStore",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
