"""CC-subsystem golden regression: the registry must not move the paper.

The :mod:`repro.cc` registry re-routes every CC install through a
mechanism factory. These tests pin the two invariants that refactor
must preserve:

* **byte-identity of the default** — an explicit ``CCConfig("ib")``,
  the implicit default (``cc_config=None``, the CLI path without
  ``--cc``), and the pinned golden digest of the pre-registry code all
  produce the *same event stream*;
* **store-key stability** — the explicit and implicit spellings of the
  paper's mechanism share one content key (no cache split), while any
  other mechanism or a tuned parameter set gets its own;
* **executor-independence of the new mechanisms** — a non-IB mechanism
  digests identically under ``jobs=1`` (in-process serial) and
  ``jobs=4`` (process pool), like every other cell.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cc import CCConfig
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import TracedRun, config_slug, run_experiment
from repro.experiments.store import config_key

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")

#: The pinned golden cell this file re-derives: Table II's hotspot
#: CC-on phase at quick scale (see test_golden_digests.py).
GOLDEN_SLUG = "table2-seed7-cc"


def _golden_digest() -> str:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[GOLDEN_SLUG]


def _table2_cc_config(**overrides) -> ExperimentConfig:
    """The exact config behind the ``table2-seed7-cc`` golden."""
    return ExperimentConfig(
        scale=SCALES["quick"], b_fraction=0.0, c_fraction_of_rest=0.8,
        seed=7, name="table2", cc=True, **overrides,
    )


def _quick_arena_config(cc: CCConfig) -> ExperimentConfig:
    """A seconds-scale cell for executor-equality checks."""
    return _table2_cc_config(cc_config=cc).with_(
        sim_time_ns=2e6, warmup_ns=0.5e6
    )


@pytest.mark.slow
def test_explicit_ib_mechanism_matches_pinned_golden():
    """``--cc ib`` is byte-identical to the pre-registry event stream."""
    cfg = _table2_cc_config(cc_config=CCConfig.make("ib"))
    assert config_slug(cfg) == GOLDEN_SLUG
    res = run_experiment(cfg, trace=True)
    assert res.trace_violations == 0
    assert res.trace_digest == _golden_digest()


@pytest.mark.slow
def test_cli_default_no_cc_config_matches_pinned_golden():
    """No ``cc_config`` at all (the CLI default) hits the same golden."""
    cfg = _table2_cc_config()  # cc_config=None -> CCConfig() inside
    assert cfg.cc_config is None
    assert config_slug(cfg) == GOLDEN_SLUG
    res = run_experiment(cfg, trace=True)
    assert res.trace_violations == 0
    assert res.trace_digest == _golden_digest()


def test_store_key_identical_for_implicit_and_explicit_ib():
    """Both spellings of the paper's mechanism share one cache entry."""
    implicit = _table2_cc_config()
    explicit = _table2_cc_config(cc_config=CCConfig.make("ib"))
    assert config_key(implicit) == config_key(explicit)


def test_store_key_distinct_for_other_mechanisms_and_tunings():
    keys = {
        config_key(_table2_cc_config()),
        config_key(_table2_cc_config(cc_config=CCConfig.make("dctcp"))),
        config_key(_table2_cc_config(cc_config=CCConfig.make("dcqcn"))),
        config_key(
            _table2_cc_config(cc_config=CCConfig.make("ib", ccti_limit=64))
        ),
    }
    assert len(keys) == 4


@pytest.mark.slow
@pytest.mark.parametrize("mech", ["ib", "dctcp", "reno", "dcqcn"])
def test_mechanism_audits_clean_on_traced_quick_cell(mech):
    """Every registered mechanism passes the online trace auditor.

    The CC feedback loops are the most timing-entangled consumers of
    the event queue (CCT timers, CNP scheduling, rate updates), so each
    mechanism gets its own traced seconds-scale cell.
    """
    res = run_experiment(_quick_arena_config(CCConfig.make(mech)), trace=True)
    assert res.trace_violations == 0
    assert res.trace_digest is not None


@pytest.mark.slow
def test_non_ib_mechanism_digest_identical_jobs1_vs_jobs4():
    """dcqcn cells digest the same in-process and across a pool."""
    from repro.parallel import run_campaign

    configs = [_quick_arena_config(CCConfig.make("dcqcn"))]
    serial = run_campaign(
        configs, jobs=1, run_fn=TracedRun()
    ).raise_on_failure()
    pooled = run_campaign(
        configs, jobs=4, run_fn=TracedRun()
    ).raise_on_failure()
    want = [r.trace_digest for r in serial.results]
    got = [r.trace_digest for r in pooled.results]
    assert want == got
    assert all(d is not None for d in want)
