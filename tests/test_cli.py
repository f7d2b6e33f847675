"""Tests for the command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_artifacts_accepted(self):
        parser = build_parser()
        for art in ("table2", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10"):
            assert parser.parse_args([art]).artifact == art

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig11"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["table2", "--scale", "paper"])
        assert args.scale == "paper"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--scale", "huge"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.scale == "default"
        assert args.p == 60
        assert args.seed == 7
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.manifest is None

    def test_parallel_flags(self):
        args = build_parser().parse_args(
            ["table2", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache",
             "--manifest", "/tmp/m.json"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.manifest == "/tmp/m.json"

    def test_invalid_jobs_is_exit_code_2(self):
        assert main(["table2", "--jobs", "0"]) == 2

    def test_cache_dir_that_is_a_file_is_exit_code_2(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        assert main(["table2", "--cache-dir", str(not_a_dir)]) == 2

    def test_faults_artifact_accepted(self):
        assert build_parser().parse_args(["faults"]).artifact == "faults"

    def test_fault_flags(self):
        args = build_parser().parse_args(
            ["table2", "--faults", "spec.json", "--resume", "run.json"]
        )
        assert args.faults == "spec.json"
        assert args.resume == "run.json"

    def test_parse_chaos(self):
        from repro.experiments.cli import parse_chaos

        spec = parse_chaos("7")
        assert spec.seed == 7 and spec.link_flap == 0.05
        spec = parse_chaos("3:link_flap=0.1,cnp_drop=0.2")
        assert (spec.seed, spec.link_flap, spec.cnp_drop) == (3, 0.1, 0.2)
        assert spec.degrade == 0.0
        with pytest.raises(ValueError):
            parse_chaos("3:warp_core=0.1")
        with pytest.raises(ValueError):
            parse_chaos("notanint")

    def test_faults_and_chaos_are_exclusive(self):
        assert main(["table2", "--faults", "a.json", "--chaos", "7"]) == 2

    def test_missing_faults_file_is_exit_code_2(self, tmp_path):
        assert main(["table2", "--faults", str(tmp_path / "nope.json")]) == 2

    def test_bad_chaos_spec_is_exit_code_2(self):
        assert main(["table2", "--chaos", "7:warp_core=0.1"]) == 2

    def test_faults_artifact_rejects_fault_flags(self):
        assert main(["faults", "--chaos", "7"]) == 2

    def test_empty_p_sweep_is_exit_code_2(self):
        # A p step <= 0 sweeps nothing; it is refused before any cell runs.
        assert main(["fig5", "--scale", "quick", "--p-step", "0"]) == 2
        assert main(["fig8", "--scale", "quick", "--p-step", "-10"]) == 2


class TestMainSmoke:
    """End-to-end CLI runs at quick scale with a coarse sweep.

    These are the slowest tests in the suite (a few seconds each); they
    guarantee every artifact path actually executes.
    """

    def test_fig8_single_point_sweep(self, capsys):
        # p-step 100 -> only p=0 and p=100: cheapest windy run.
        assert main(["fig8", "--scale", "quick", "--p-step", "100", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Windy forest, 100% B nodes" in out
        assert "peak improvement" in out

    def test_fig8_parallel_cached_rerun_matches(self, capsys, tmp_path):
        # Same artifact with --jobs 2 and a cache: output identical, and
        # the second invocation is served entirely from the cache.
        argv = ["fig8", "--scale", "quick", "--p-step", "100", "--seed", "3",
                "--jobs", "2", "--cache-dir", str(tmp_path),
                "--manifest", str(tmp_path / "run.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "Windy forest, 100% B nodes" in first

        import json

        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["cache_hits"] == manifest["total_cells"] == 4


class TestTransportFlags:
    def test_transport_flag_parses(self):
        assert build_parser().parse_args(["faults"]).transport is False
        assert build_parser().parse_args(["faults", "--transport"]).transport
        args = build_parser().parse_args(
            ["faults", "--transport", "--no-transport"]
        )
        assert args.transport is False

    def test_recovery_stats_requires_transport(self):
        assert main(["faults", "--recovery-stats", "out.json"]) == 2

    def test_recovery_stats_payload(self, tmp_path):
        from repro.experiments.cli import _write_recovery_stats
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import ExperimentResult
        from repro.transport import TransportConfig

        import json

        res = ExperimentResult(
            config=ExperimentConfig(
                name="cell", transport=TransportConfig()
            ),
            rates_gbps=[], hotspots=[], groups={}, tmax=0.0,
            n_b=0, n_c=0, n_v=0, fecn_marks=0, becns=0, events=0,
            wall_seconds=0.0, retx_packets=5, retx_bytes=10240,
            transport_timeouts=2, failed_flows=1,
            flow_health=[{"src": 0, "dst": 3, "state": "failed"}],
        )
        path = tmp_path / "recovery.json"
        _write_recovery_stats(str(path), [res])
        data = json.loads(path.read_text())
        assert data["total_retx_packets"] == 5
        assert data["total_failed_flows"] == 1
        (cell,) = data["cells"].values()
        assert cell["transport_timeouts"] == 2
        assert cell["flow_health"][0]["dst"] == 3


class TestCcFlags:
    def test_arena_artifact_accepted(self):
        args = build_parser().parse_args(["arena", "--quick"])
        assert args.artifact == "arena"
        assert args.quick is True

    def test_parse_cc(self):
        from repro.experiments.cli import parse_cc

        cc = parse_cc("reno")
        assert cc.mechanism == "reno" and cc.params == ()
        cc = parse_cc("dctcp:gain=0.125,ai=0.1")
        assert cc.mechanism == "dctcp"
        assert cc.params_dict() == {"gain": 0.125, "ai": 0.1}
        with pytest.raises(ValueError):
            parse_cc("warp_drive")
        with pytest.raises(ValueError):
            parse_cc("reno:warp=1")

    def test_bad_cc_spec_is_exit_code_2(self):
        assert main(["table2", "--cc", "warp_drive"]) == 2
        assert main(["table2", "--cc", "reno:warp=1"]) == 2

    def test_quick_and_out_dir_are_arena_only(self, tmp_path):
        assert main(["table2", "--quick"]) == 2
        assert main(["table2", "--out-dir", str(tmp_path)]) == 2

    def test_arena_rejects_faults_chaos_and_transport(self):
        assert main(["arena", "--chaos", "7"]) == 2
        assert main(["arena", "--faults", "a.json"]) == 2
        assert main(["arena", "--transport"]) == 2

    def test_arena_quick_smoke(self, capsys, tmp_path):
        """The acceptance run: full quick matrix + CSV/JSON artifacts."""
        assert main(
            ["arena", "--quick", "--scale", "quick",
             "--out-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Congestion-control arena" in out
        for scenario in ("silent", "windy", "moving"):
            assert f"{scenario} scenario:" in out
        for mechanism in ("off", "ib", "dctcp", "reno", "dcqcn"):
            assert mechanism in out

        import csv as csv_mod
        import json

        with open(tmp_path / "arena.csv") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert {r["scenario"] for r in rows} == {"silent", "windy", "moving"}
        assert {r["cc_mechanism"] for r in rows} == {
            "off", "ib", "dctcp", "reno", "dcqcn"
        }
        data = json.loads((tmp_path / "arena.json").read_text())
        assert set(data["mechanisms"]) == {"ib", "dctcp", "reno", "dcqcn"}

    def test_single_mechanism_arena_via_cc_flag(self, capsys):
        assert main(
            ["arena", "--quick", "--scale", "quick", "--cc", "reno"]
        ) == 0
        out = capsys.readouterr().out
        assert "reno" in out
        assert "dctcp" not in out


class TestStoreGc:
    def test_gc_lists_then_purges(self, capsys, tmp_path):
        (tmp_path / "aaaa.json.corrupt").write_text("not json{")
        (tmp_path / "bbbb.json").write_text("{}")
        assert main(["store", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aaaa.json.corrupt" in out and "1 quarantined" in out
        assert (tmp_path / "aaaa.json.corrupt").exists()

        assert main(["store", "gc", str(tmp_path), "--purge"]) == 0
        out = capsys.readouterr().out
        assert "purged 1" in out
        assert not (tmp_path / "aaaa.json.corrupt").exists()
        assert (tmp_path / "bbbb.json").exists()  # real entries untouched

    def test_gc_missing_directory_is_exit_code_2(self, tmp_path):
        assert main(["store", "gc", str(tmp_path / "nope")]) == 2

    def test_gc_collects_a_real_quarantine(self, capsys, tmp_path):
        # End to end: a corrupt cache entry is quarantined by a load,
        # then collected by store gc.
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.store import ResultStore, config_key

        from tests.conftest import MICRO_SCALE

        cfg = ExperimentConfig(scale=MICRO_SCALE, seed=3)
        store = ResultStore(str(tmp_path))
        (tmp_path / f"{config_key(cfg)}.json").write_text("{trunca")
        assert store.load(cfg) is None  # quarantines the bad entry
        assert main(["store", "gc", str(tmp_path), "--purge"]) == 0
        assert "purged 1" in capsys.readouterr().out
