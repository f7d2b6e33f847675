"""Command line of the benchmark.

* ``python -m benchmarks.perf`` — the full suite: every workload,
  ``--rounds`` interleaved rounds, one attribution pass per simulation
  workload; prints every metric by name with its unit and writes the
  result JSON (``--out``, default ``benchmarks/perf/out/result.json``).
* ``... --workload NAME --seed N --seconds S --trace 0|1`` — the form
  ``BENCHMARK.json`` declares: one workload, rounds for ``S`` seconds,
  one JSON object as the last line of stdout.
* ``... compare A.json B.json`` — judge B against A with the bounds
  ``BENCHMARK.json`` fixes; exits 1 on any "worse".
* ``... --update-expected`` — deliberately re-pin ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.perf import suite
from benchmarks.perf.attribution import BUILD_CALLS
from benchmarks.perf.workloads import BY_NAME, WORKLOADS

#: Counts a deterministic program repeats exactly from run to run.
EXACT_COUNTS = (
    "engine.events", "network.pkt_hops", "core.fecn_marks", "trace.records",
    "serve.simulations_started",
)
NOISY_LOAD = 1.0


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are fixed."""
    return json.loads(suite.BENCHMARK_JSON.read_text())


def host_fingerprint() -> dict:
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=suite.ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # an exported checkout is not a git repository
    load = os.getloadavg()[0]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "loadavg_1m": load,
        "noisy_host": load > NOISY_LOAD,
    }


def workload_result(run: suite.WorkloadRun, runs: Dict[str, suite.WorkloadRun],
                    spec: dict, with_layers: bool) -> dict:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    end_to_end = {
        name: dict(stats, unit=bounds[name]["unit"], bound=bounds[name]["bound"])
        for name, stats in run.end_to_end().items()
    }
    end_to_end["fail_frac"] = {
        "median": run.failed / max(1, run.attempted),
        "n": run.attempted, "unit": "1", "bound": 0.0,
    }
    out = {
        "why": run.workload.why,
        "correct": run.failed == 0 and bool(run.rounds),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "problems": run.problems[:20],
        "unresolved": sorted(set(run.unresolved)),
        "end_to_end": end_to_end,
    }
    if with_layers:
        base = runs.get(run.workload.ratio_base or "")
        out["per_layer"] = run.per_layer(base)
    return out


def print_table(name: str, result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {name}: {'ok' if result['correct'] else 'FAILED'} "
          f"({result['failed']}/{result['attempted']} failed)")
    for metric, s in result["end_to_end"].items():
        spread = f"  [{s['min']:.6g} .. {s['max']:.6g}]" if "min" in s else ""
        print(f"  {metric:<34} {s['median']:>14.6g} {s['unit']:<6} n={s['n']}{spread}")
    for metric, value in sorted(result.get("per_layer", {}).items()):
        print(f"  {metric:<34} {value:>14.6g} {units.get(metric, '')}")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    for target in result["unresolved"]:
        print(f"  ? unresolved: {target}")


def hot_set_diff(runs: Dict[str, suite.WorkloadRun], env: Dict[str, str]) -> Optional[dict]:
    """Observed callbacks and entry points against simlint's static hot
    set. Informational; None when that API is gone."""
    try:
        hot = suite.run_child({"kind": "hot_set"}, env).get("hot")
    except (RuntimeError, ValueError, subprocess.TimeoutExpired):
        return None
    if hot is None:
        return None
    observed = {
        target.replace(":", ".")
        for run in runs.values() if run.attributed
        for target in run.attributed["observed"]
        if target not in BUILD_CALLS  # run once per experiment: not hot
    }
    return {
        "observed_not_hot": sorted(observed - set(hot)),
        "hot_never_observed": sorted(set(hot) - observed),
    }


def full_run(args: argparse.Namespace) -> int:
    spec = declared()
    host = host_fingerprint()
    names = [w.name for w in WORKLOADS]
    runs = suite.run_suite(
        names, args.seed, trace=True, rounds=args.rounds,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    result = {
        "schema": 1,
        "host": host,
        "seed": args.seed,
        "rounds": args.rounds,
        "workloads": {
            n: workload_result(runs[n], runs, spec, with_layers=True) for n in names
        },
        "hot_set_diff": hot_set_diff(runs, suite.child_env(str(suite.OUT))),
    }
    for name in names:
        print_table(name, result["workloads"][name], spec)
    print(f"\nhost: {json.dumps(host)}")
    out = args.out or str(suite.OUT / "result.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"result written to {out}; spans in {suite.OUT / 'spans.jsonl'}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def one_workload(args: argparse.Namespace) -> int:
    """The driver's form: the last stdout line is the whole answer."""
    spec = declared()
    trace = bool(args.trace)
    print(f"host: {json.dumps(host_fingerprint())}", file=sys.stderr)
    runs = suite.run_suite(
        [args.workload], args.seed, trace=trace, seconds=args.seconds,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    result = workload_result(runs[args.workload], runs, spec, with_layers=trace)
    if trace:
        layer = result["per_layer"]
        metrics = {
            m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["median"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"] if m["name"] in result["end_to_end"]
        }
    for problem in result["problems"]:
        print(f"! {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# -- compare -----------------------------------------------------------------

def judge(a: dict, b: dict, better: str, bound: float) -> str:
    """One (workload, metric) pair of B against A.

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: either side's own spread, (max - min) / median, is
    wider than the bound — unless every B run beats every A run.
    ``better``: B's median beats A's by more than A's own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = a["median"]
    if base == 0:
        return "worse" if sign * b["median"] > 0 else "within bound"
    change = sign * (b["median"] - base) / abs(base)
    if change > bound:
        return "worse"

    def spread(s: dict) -> float:
        return (s["max"] - s["min"]) / abs(s["median"]) if "min" in s and s["median"] else 0.0

    if max(spread(a), spread(b)) > bound:
        clean_win = (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"])
        return "better" if "min" in b and clean_win else "unresolved"
    return "better" if change < -spread(a) and change < 0 else "within bound"


def compare(path_a: str, path_b: str) -> int:
    spec = declared()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    gates = {m["name"]: m for m in spec["end_to_end"]}
    gates["fail_frac"] = {"better": "lower", "bound": 0.0, "unit": "1"}
    verdicts: List[str] = []
    print(f"{'workload':<24} {'metric':<12} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, gate in gates.items():
            sa, sb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if sa is None or sb is None:
                continue
            verdict = judge(sa, sb, gate["better"], gate["bound"])
            verdicts.append(verdict)
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            print(f"{name:<24} {metric:<12} {sa['median']:>12.5g} "
                  f"{sb['median']:>12.5g} {change:>+8.1%}  {verdict}")
        for count in EXACT_COUNTS:
            ca = wa.get("per_layer", {}).get(count)
            cb = wb.get("per_layer", {}).get(count)
            if ca is not None and cb is not None and ca != cb:
                print(f"{name:<24} {count}: exact count changed {ca} -> {cb}")
    for host in (a["host"], b["host"]):
        if host.get("noisy_host"):
            print(f"note: a run started at load {host['loadavg_1m']:.2f} (noisy host)")
    return 1 if "worse" in verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: measurement budget in host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=3,
                        help="full suite: rounds per workload")
    parser.add_argument("--out", help="full suite: where the result JSON goes")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin expected.json from this tree, deliberately")
    args = parser.parse_args(argv)
    if args.update_expected:
        suite.update_expected()
        print(f"pinned {suite.EXPECTED}")
        return 0
    if args.workload:
        return one_workload(args)
    return full_run(args)
