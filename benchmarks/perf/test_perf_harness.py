"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``. Everything
goes through a radix-4 micro workload, so the whole file takes seconds.
"""

import copy
import json
import re

import pytest

from benchmarks.perf import cli, hostspeed, suite, workloads
from benchmarks.perf.workloads import Workload, micro_sim

LEGAL_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MICRO = Workload("micro", "sim", "radix-4 cell: exercises the harness only", micro_sim)


@pytest.fixture
def env(tmp_path):
    return suite.child_env(str(tmp_path)), str(tmp_path)


@pytest.fixture
def micro(monkeypatch):
    monkeypatch.setitem(workloads.BY_NAME, "micro", MICRO)


def test_plain_and_attribution_passes_agree_and_books_close(env, tmp_path):
    child_env, tmp = env
    run = suite.WorkloadRun(MICRO, 7, expected={})
    run.plain_round(child_env, tmp, trace=True)
    run.attribution_pass(child_env, tmp, str(tmp_path / "spans.jsonl"))

    assert run.failed == 0, run.problems
    assert run.attempted == 2
    assert run.unresolved == []
    layer = run.per_layer(None)
    # Σ span self time + the loop's own accounts for Simulator.run.
    assert layer["bench.closure"] == pytest.approx(1.0, abs=suite.CLOSURE_TOLERANCE)
    assert layer["bench.other_event_frac"] < 0.02
    assert layer["network.pkt_hops"] == layer["network.ports.tx_done.n"] > 0
    assert layer["core.switch_cc.n"] > 0 and layer["trace.hook.n"] == 0
    assert layer["bench.attribution_overhead_ratio"] > 0

    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert 0 < len(spans) <= 10_000
    assert {"id", "span", "name", "start_ns", "end_ns", "parent"} <= set(spans[0])
    nested = [s for s in spans if isinstance(s["parent"], int)]
    assert nested, "entry-point calls inside events must be child spans"
    parent = spans[nested[0]["parent"]]
    assert parent["start_ns"] <= nested[0]["start_ns"] <= nested[0]["end_ns"] <= parent["end_ns"]


def test_planted_wrong_expectation_fails(env):
    child_env, tmp = env
    good = suite.WorkloadRun(MICRO, 7, expected={})
    good.plain_round(child_env, tmp, trace=False)
    assert good.failed == 0

    planted = copy.deepcopy(good.rounds[0]["stats"])
    planted[0]["gated"]["fecn_marks"] += 1
    bad = suite.WorkloadRun(MICRO, 7, expected={"micro": {"7": planted}})
    bad.plain_round(child_env, tmp, trace=False)
    assert bad.failed == 1 and bad.attempted == 1
    assert any("fecn_marks" in p for p in bad.problems)
    # The recorded-but-ungated fingerprints may differ without failing.
    planted = copy.deepcopy(good.rounds[0]["stats"])
    planted[0]["events"] += 1
    ok = suite.WorkloadRun(MICRO, 7, expected={"micro": {"7": planted}})
    ok.plain_round(child_env, tmp, trace=False)
    assert ok.failed == 0


def test_declared_names_are_legal_and_match_the_code():
    spec = cli.declared()
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(LEGAL_NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace", [0, 1])
def test_one_workload_form_prints_every_declared_metric(micro, capsys, trace):
    code = cli.main(["--workload", "micro", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    answer = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and answer["correct"] and answer["failed"] == 0
    assert set(answer) == {"correct", "attempted", "failed", "metrics"}
    spec = cli.declared()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(answer["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert answer["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in answer["metrics"].values())
        assert answer["attempted"] >= suite.MIN_ROUNDS


def _run_s_bound() -> float:
    return next(m["bound"] for m in cli.declared()["end_to_end"] if m["name"] == "run_s")


def _result(run_s: float) -> dict:
    def stat(median, unit, bound):
        return {"median": median, "min": median * 0.99, "max": median * 1.01,
                "n": 3, "unit": unit, "bound": bound}
    return {
        "host": {"noisy_host": False, "loadavg_1m": 0.1},
        "workloads": {"quick_uniform_nocc": {
            "end_to_end": {
                "run_s": stat(run_s, "s", _run_s_bound()),
                "setup_s": stat(0.3, "s", 0.25),
                "peak_rss_mb": stat(53.0, "MB", 0.1),
                "fail_frac": {"median": 0.0, "n": 3, "unit": "1", "bound": 0.0},
            },
            "per_layer": {"engine.events": 1000},
        }},
    }


def test_compare_flags_a_regression_and_passes_noise(tmp_path, capsys):
    def write(name, run_s):
        path = tmp_path / name
        path.write_text(json.dumps(_result(run_s)))
        return str(path)

    bound = _run_s_bound()
    base = write("a.json", 2.0)
    assert cli.compare(base, write("b.json", 2.0 * 1.03)) == 0
    assert "within bound" in capsys.readouterr().out
    assert cli.compare(base, write("c.json", 2.0 * (1 + bound + 0.1))) == 1
    assert "worse" in capsys.readouterr().out
    assert cli.compare(base, write("d.json", 2.0 * 0.80)) == 0
    assert "better" in capsys.readouterr().out


def test_gated_times_are_scaled_by_the_host_speed_beside_the_round(env):
    # Half as fast as the reference host: a 2 s round reads as 1 s.
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.HostSpeed.factor(slow, slow) == pytest.approx(0.5)
    assert suite.gated({"run_s": 2.0, "host_speed": 0.5}, "run_s") == 1.0

    speed = hostspeed.HostSpeed()
    assert speed.sample() == speed.sample()  # a fresh sample is handed out twice
    child_env, tmp = env
    run = suite.WorkloadRun(MICRO, 7, expected={}, speed=speed)
    r = run.plain_round(child_env, tmp, trace=False)
    assert 0.2 < r["host_speed"] < 5
    assert run.end_to_end()["run_s"]["median"] == pytest.approx(r["run_s"] * r["host_speed"])
    assert run.per_layer(None)["bench.host_speed"] == r["host_speed"]


def test_every_end_to_end_metric_carries_unit_bound_and_n(env):
    child_env, tmp = env
    run = suite.WorkloadRun(MICRO, 7, expected={})
    run.plain_round(child_env, tmp, trace=False)
    result = cli.workload_result(run, {}, cli.declared(), with_layers=False)
    assert set(result["end_to_end"]) == {"run_s", "setup_s", "peak_rss_mb", "fail_frac"}
    for stats in result["end_to_end"].values():
        assert {"median", "unit", "bound", "n"} <= set(stats)
