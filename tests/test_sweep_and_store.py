"""Tests for parameter sweeps and the result store."""

import json
import math

import pytest

from repro.cc.config import CCConfig
from repro.core.parameters import CCParams
from repro.experiments import ExperimentConfig
from repro.experiments.config import SCALES
from repro.experiments.runner import run_experiment
from repro.experiments.store import (
    ResultStore,
    config_dict_key,
    config_key,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.sweep import METRIC_FIELDS, SweepCell, SweepResult, sweep
from repro.transport.config import TransportConfig

from tests.conftest import MICRO_SCALE


def micro_cfg(**kw):
    # A very small/short config so sweep tests stay fast.
    return ExperimentConfig(
        scale=MICRO_SCALE, seed=3, sim_time_ns=1e6, warmup_ns=3e5, **kw
    )


class TestSweep:
    def test_grid_cartesian_product(self):
        res = sweep(micro_cfg(), {"threshold": [7, 15], "marking_rate": [0, 3]})
        assert len(res.cells) == 4
        assignments = [tuple(c.assignment.values()) for c in res.cells]
        assert len(set(assignments)) == 4

    def test_cc_param_actually_applied(self):
        res = sweep(micro_cfg(), {"threshold": [0, 15]})
        by_thresh = {c.assignment["threshold"]: c for c in res.cells}
        assert by_thresh[0].result.fecn_marks == 0
        assert by_thresh[15].result.fecn_marks > 0

    def test_config_field_sweep(self):
        res = sweep(micro_cfg(), {"cc": [False, True]})
        by_cc = {c.assignment["cc"]: c for c in res.cells}
        assert by_cc[False].result.fecn_marks == 0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(micro_cfg(), {"bogus_knob": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            sweep(micro_cfg(), {"threshold": []})

    def test_best_by(self):
        res = sweep(micro_cfg(), {"threshold": [0, 15]})
        best = res.best_by("non_hotspot")
        assert best.row()["non_hotspot"] == max(
            c.row()["non_hotspot"] for c in res.cells
        )

    def test_csv_and_format(self):
        res = sweep(micro_cfg(), {"threshold": [15]})
        csv_text = res.to_csv()
        assert "threshold" in csv_text.splitlines()[0]
        assert "non_hotspot" in res.format()

    def test_progress_callback(self):
        seen = []
        sweep(
            micro_cfg(),
            {"threshold": [7, 15]},
            progress=lambda i, n, a: seen.append((i, n)),
        )
        assert seen == [(0, 2), (1, 2)]


class _FakeResult:
    """Result stub so metric-edge-case sweeps need no simulation."""

    def __init__(self, non_hotspot=1.0, fairness=1.0):
        self.non_hotspot = non_hotspot
        self.hotspot = 2.0
        self.all_nodes = 3.0
        self.total = 4.0
        self.fecn_marks = 0
        self.becns = 0
        self._fairness = fairness

    def fairness(self):
        return self._fairness


def _fake_cell(threshold, **kw):
    return SweepCell({"threshold": threshold}, _FakeResult(**kw))


NAN = float("nan")


class TestBestByNaN:
    def test_nan_cells_are_skipped(self):
        # NaN first: the historical max()-with-NaN-key bug returned it.
        res = SweepResult(cells=[
            _fake_cell(1, fairness=NAN),
            _fake_cell(2, fairness=0.5),
            _fake_cell(3, fairness=0.9),
        ])
        assert res.best_by("fairness").assignment["threshold"] == 3
        assert res.best_by("fairness", maximize=False).assignment["threshold"] == 2

    def test_nan_last_also_skipped(self):
        res = SweepResult(cells=[
            _fake_cell(1, fairness=0.4),
            _fake_cell(2, fairness=NAN),
        ])
        assert res.best_by("fairness").assignment["threshold"] == 1

    def test_all_nan_raises_clear_error(self):
        res = SweepResult(cells=[
            _fake_cell(1, fairness=NAN), _fake_cell(2, fairness=NAN)
        ])
        with pytest.raises(ValueError, match="NaN in all 2"):
            res.best_by("fairness")

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError, match="empty sweep"):
            SweepResult().best_by("fairness")


class TestEmptyCsv:
    def test_header_only_when_params_known(self):
        res = SweepResult(param_names=["threshold", "cc"])
        lines = res.to_csv().splitlines()
        assert len(lines) == 1
        header = lines[0].split(",")
        assert header[:2] == ["threshold", "cc"]
        assert header[2:] == list(METRIC_FIELDS)

    def test_error_explains_when_header_underivable(self):
        with pytest.raises(ValueError, match="no cells were run"):
            SweepResult().to_csv()

    def test_sweep_populates_param_names(self):
        res = sweep(micro_cfg(), {"threshold": [15]})
        assert res.param_names == ["threshold"]


class TestConfigKeyStability:
    def test_stable_across_kwarg_ordering(self):
        a = ExperimentConfig(scale=MICRO_SCALE, seed=3, cc=True, p=0.5)
        b = ExperimentConfig(p=0.5, cc=True, seed=3, scale=MICRO_SCALE)
        assert config_key(a) == config_key(b)

    def test_stable_across_equal_cc_params_instances(self):
        pa = CCParams.paper_table1().with_(threshold=9)
        pb = CCParams.paper_table1().with_(threshold=9)
        assert config_key(micro_cfg(cc_params=pa)) == config_key(micro_cfg(cc_params=pb))

    def test_cc_param_field_changes_key(self):
        pa = CCParams.paper_table1().with_(threshold=9)
        pb = CCParams.paper_table1().with_(threshold=10)
        assert config_key(micro_cfg(cc_params=pa)) != config_key(micro_cfg(cc_params=pb))


class TestConfigKeyPins:
    """Keys of stored results must never drift: an old store keeps hitting."""

    PINNED = {
        "046719ee4a5fc533": dict(seed=3),
        "55cb074277d8a87e": dict(seed=7, cc=False, p=0.5),
        "425819d5526563b6": dict(
            seed=3, cc_params=CCParams.paper_table1().with_(threshold=9)
        ),
        "6497d92379d68aab": dict(seed=3, transport=TransportConfig()),
        "6bc1a5f37e434906": dict(seed=3, cc_config=CCConfig(mechanism="dcqcn")),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_key_is_pinned(self, key):
        cfg = ExperimentConfig(scale=SCALES["quick"], **self.PINNED[key])
        assert config_key(cfg) == key
        assert config_dict_key(config_to_dict(cfg)) == key


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        cfg = micro_cfg()
        res = run_experiment(cfg)
        restored = result_from_dict(result_to_dict(res))
        assert restored.rates_gbps == res.rates_gbps
        assert restored.groups == res.groups
        assert restored.config.seed == cfg.seed

    def test_save_load(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cfg = micro_cfg()
        res = run_experiment(cfg)
        store.save(res)
        loaded = store.load(cfg)
        assert loaded is not None
        assert loaded.rates_gbps == res.rates_gbps
        assert len(store) == 1

    def test_missing_returns_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).load(micro_cfg()) is None

    def test_get_or_run_caches(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cfg = micro_cfg()
        first = store.get_or_run(cfg)
        second = store.get_or_run(cfg)
        assert second.rates_gbps == first.rates_gbps
        assert len(store) == 1

    def test_key_distinguishes_configs(self):
        assert config_key(micro_cfg()) != config_key(micro_cfg(cc=False))
        assert config_key(micro_cfg()) == config_key(micro_cfg())

    def test_roundtrip_through_json_text(self):
        res = run_experiment(micro_cfg())
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert restored.rates_gbps == res.rates_gbps
        assert restored.groups == res.groups
        assert restored.config == res.config
        assert math.isclose(restored.tmax, res.tmax)

    def test_contains(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cfg = micro_cfg()
        assert cfg not in store
        store.save(run_experiment(cfg))
        assert cfg in store
        assert micro_cfg(cc=False) not in store


class TestShardedLayout:
    """Fan-out subdirectories by key prefix + legacy flat read-through."""

    def test_save_lands_in_key_prefix_shard(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cfg = micro_cfg()
        path = store.save(run_experiment(cfg))
        key = config_key(cfg)
        assert path == str(tmp_path / key[:2] / f"{key}.json")
        assert (tmp_path / key[:2] / f"{key}.json").exists()
        # Nothing lands flat at the top level any more.
        assert not (tmp_path / f"{key}.json").exists()

    def test_legacy_flat_entry_reads_through(self, tmp_path):
        cfg = micro_cfg()
        res = run_experiment(cfg)
        key = config_key(cfg)
        # A store written before sharding existed: flat layout.
        (tmp_path / f"{key}.json").write_text(json.dumps(result_to_dict(res)))
        store = ResultStore(str(tmp_path))
        assert cfg in store
        assert store.contains_key(key)
        loaded = store.load(cfg)
        assert loaded is not None
        assert loaded.rates_gbps == res.rates_gbps
        assert len(store) == 1

    def test_len_and_keys_span_both_layouts_without_double_count(self, tmp_path):
        cfg_a, cfg_b = micro_cfg(), micro_cfg(cc=False)
        res_a, res_b = run_experiment(cfg_a), run_experiment(cfg_b)
        key_a = config_key(cfg_a)
        # key_a in the legacy flat layout AND sharded; key_b sharded only.
        (tmp_path / f"{key_a}.json").write_text(json.dumps(result_to_dict(res_a)))
        store = ResultStore(str(tmp_path))
        store.save(res_a)
        store.save(res_b)
        assert len(store) == 2
        assert store.keys() == sorted([key_a, config_key(cfg_b)])

    def test_corrupt_sharded_entry_quarantines_in_shard(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cfg = micro_cfg()
        path = store.save(run_experiment(cfg))
        with open(path, "w") as fh:
            fh.write("garbage{")
        assert store.load(cfg) is None
        from repro.experiments.store import find_quarantined, purge_quarantined

        assert find_quarantined(str(tmp_path)) == [path + ".corrupt"]
        assert purge_quarantined(str(tmp_path)) == [path + ".corrupt"]
        assert find_quarantined(str(tmp_path)) == []

    def test_same_key_save_is_last_writer_wins_and_never_torn(self, tmp_path):
        import threading

        store = ResultStore(str(tmp_path))
        res = run_experiment(micro_cfg())
        # Hammer the same key from several threads; every intermediate
        # and final read must be a complete, parseable entry.
        errors = []

        def writer():
            try:
                for _ in range(10):
                    store.save(res)
                    assert store.load(res.config) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 1
        assert store.load(res.config).rates_gbps == res.rates_gbps


class TestReadThroughLayer:
    """The repro.parallel cache over the store: hit/miss accounting."""

    def test_cache_hits_after_write_through(self, tmp_path):
        from repro.parallel import CellCache

        cache = CellCache(str(tmp_path))
        cfg = micro_cfg()
        assert cache.load(cfg) is None
        assert cache.misses == 1
        cache.save(run_experiment(cfg))
        assert cache.stores == 1
        hit = cache.load(cfg)
        assert hit is not None and cache.hits == 1
        assert hit.rates_gbps == run_experiment(cfg).rates_gbps

    def test_non_experiment_results_pass_through_uncached(self, tmp_path):
        from repro.parallel import CellCache

        cache = CellCache(str(tmp_path))
        cache.save("not an ExperimentResult")
        assert cache.stores == 0
        assert len(cache.store) == 0
