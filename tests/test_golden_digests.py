"""Golden trace-digest regression suite.

Each golden fixture pins the full event stream of a quick-scale paper
scenario to a 16-hex digest (``tests/golden/digests.json``). A digest
mismatch means the simulator's packet-level behavior changed — either
a bug or an intentional dynamics change. For intentional changes,
refresh the fixtures::

    PYTHONPATH=src python -m pytest tests/test_golden_digests.py --update-golden

and commit the new ``digests.json`` together with the change that
explains it. On mismatch the failing cells are re-run with JSONL
tracing into ``test-artifacts/traces/`` so CI can upload the replayable
streams for diffing (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import TracedRun, config_slug, run_experiment
from repro.experiments.table2 import run_table2
from repro.experiments.windy import run_windy_figure
from repro.trace import TraceSpec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")
ARTIFACT_DIR = os.path.join("test-artifacts", "traces")


def _load_goldens() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _store_goldens(updates: dict) -> None:
    goldens = _load_goldens()
    goldens.update(updates)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_goldens(results, update_golden: bool) -> None:
    """Compare each traced result against its golden digest."""
    observed = {config_slug(r.config): r for r in results}
    assert len(observed) == len(results), "config slugs must be unique"
    for slug, res in observed.items():
        assert res.trace_violations == 0, (
            f"{slug}: trace auditor reported {res.trace_violations} "
            "invariant violation(s)"
        )
    if update_golden:
        _store_goldens(
            {slug: res.trace_digest for slug, res in observed.items()}
        )
        return
    goldens = _load_goldens()
    mismatched = []
    for slug, res in observed.items():
        want = goldens.get(slug)
        if want is None:
            mismatched.append(f"{slug}: no golden recorded (got {res.trace_digest})")
        elif res.trace_digest != want:
            mismatched.append(
                f"{slug}: digest {res.trace_digest} != golden {want}"
            )
    if mismatched:
        # Dump replayable JSONL traces of the failing cells so a CI run
        # can upload them as artifacts for offline diffing.
        spec = TraceSpec(jsonl_dir=ARTIFACT_DIR)
        for line in mismatched:
            slug = line.split(":", 1)[0]
            run_experiment(observed[slug].config, trace=spec)
        pytest.fail(
            "golden digest mismatch — behavior changed at the event level "
            "(JSONL traces dumped to {}; rerun with --update-golden if "
            "intentional):\n  {}".format(ARTIFACT_DIR, "\n  ".join(mismatched))
        )


@pytest.mark.slow
def test_table2_quick_golden(update_golden):
    table = run_table2("quick", seed=7, run_fn=TracedRun())
    _check_goldens(
        [
            table.baseline_no_cc,
            table.baseline_cc,
            table.hotspots_no_cc,
            table.hotspots_cc,
        ],
        update_golden,
    )


@pytest.mark.slow
def test_windy_quick_golden(update_golden):
    fig = run_windy_figure(
        1.0, "quick", p_values=[0.6], seed=7, run_fn=TracedRun()
    )
    point = fig.points[0]
    _check_goldens([point.off, point.on], update_golden)


# ----------------------------------------------------------------------
# Short kernel cells: three seconds-scale slices of the Table II CC-on
# cell, cheap enough to pin the event stream inside the regular suite.
# ----------------------------------------------------------------------

def _kernel_cell(**overrides) -> ExperimentConfig:
    """A seconds-scale slice of the Table II CC-on hotspot cell."""
    return ExperimentConfig(
        scale=SCALES["quick"], b_fraction=0.0, c_fraction_of_rest=0.8,
        seed=7, name="table2", cc=True, sim_time_ns=2e6, warmup_ns=0.5e6,
        **overrides,
    )


#: Scenario key -> config overrides. Keys double as golden-fixture ids.
KERNEL_CELLS = {
    "kernel-quick-hotspot-cc": {},
    "kernel-quick-silent-cc": {"contributors_active": False},
    "kernel-quick-moving-cc": {"hotspot_lifetime_ns": 1e6},
}


@pytest.mark.slow
def test_kernel_quick_goldens(update_golden):
    observed = {}
    for key, overrides in KERNEL_CELLS.items():
        res = run_experiment(_kernel_cell(**overrides), trace=True)
        assert res.trace_violations == 0, (
            f"{key}: {res.trace_violations} invariant violation(s)"
        )
        observed[key] = res.trace_digest
    if update_golden:
        _store_goldens(observed)
        return
    goldens = _load_goldens()
    mismatched = [
        f"{key}: digest {digest} != golden {goldens.get(key)}"
        for key, digest in observed.items()
        if digest != goldens.get(key)
    ]
    assert not mismatched, (
        "kernel cells moved the event stream:\n  " + "\n  ".join(mismatched)
    )
