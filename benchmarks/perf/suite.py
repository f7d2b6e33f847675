"""Run workloads round by round and turn rounds into metrics.

Workloads never run concurrently. Rounds are interleaved across the
requested workloads (w1..wn, w1..wn, ...) so host drift hits all alike.
End-to-end numbers always come from plain rounds; with tracing on, one
extra *attribution pass* per simulation workload supplies the span
metrics, and its cost is reported as ``bench.attribution_overhead_ratio``.
All times are host time; simulated time is named where it appears. The
two gated times are scaled by the host speed sampled beside each round
(:mod:`benchmarks.perf.hostspeed`); layer metrics are as measured.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from benchmarks.perf import serve_load
from benchmarks.perf.hostspeed import HostSpeed
from benchmarks.perf.workloads import BY_NAME, PINNED_SEEDS, Workload, micro_sim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

CHILD_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
MAX_ROUNDS = 25
#: Span self times plus the loop's must add up to ``Simulator.run`` this well.
CLOSURE_TOLERANCE = 0.02


def child_env(tmp: str) -> Dict[str, str]:
    """The environment of every process the benchmark starts: this tree
    on the import path, temp files inside the checkout, none of the
    program's tuning knobs, and a bytecode cache of the benchmark's own.

    The cache makes ``setup_s`` the warm import a user pays, whatever the
    caller's ``PYTHONDONTWRITEBYTECODE`` or the state of ``__pycache__``
    in a fresh checkout; the discarded warm-up child fills it."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = f"{ROOT}{os.pathsep}{SRC}"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["TMPDIR"] = tmp
    return env


def run_child(spec: dict, env: Dict[str, str]) -> dict:
    """Run one spec in a fresh interpreter; adds ``total_s`` (spawn to
    exit) and ``spawned_at``. Raises on a non-zero exit."""
    spawned_at = time.time()
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(spec)],
        env=env, cwd=ROOT, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        serve_load.kill_group(proc)
    total_s = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out.update(total_s=total_s, spawned_at=spawned_at)
    return out


# -- correctness ---------------------------------------------------------

def load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {}


def stat_problems(stats: Optional[dict], reference: Optional[dict], traced: bool) -> List[str]:
    """Why one simulation's statistics are wrong (empty list: they are right).

    ``reference`` is the pinned entry, or the first round's statistics
    for an unpinned seed. Only the ``gated`` part must agree: the event
    count and trace digest are recorded, not gated, so that a later
    change may restructure events with a deliberate re-pin.
    """
    if stats is None:
        return ["no result"]
    gated = stats["gated"]
    # A congested retransmission timer may fire spuriously on some seeds,
    # so retx/timeout counts are compared, not required to be zero; a
    # FAILED flow or an auditor violation is wrong on any seed.
    problems = [
        f"{key} = {gated[key]}, must be 0"
        for key in ("failed_flows", "trace_violations")
        if gated[key] != 0
    ]
    if traced and stats["trace_records"] <= 0:
        problems.append("traced run emitted no records")
    if reference is not None:
        problems += [
            f"{key}: got {gated[key]!r}, expected {want!r}"
            for key, want in reference["gated"].items()
            if gated.get(key) != want
        ]
    return problems


# -- one round of each kind ------------------------------------------------

def sim_round(spec: dict, env: Dict[str, str], workdir: str) -> dict:
    child = run_child(spec, env)
    events, run_s = child["stats"]["events"], child["run_s"]
    return {
        "run_s": run_s,
        "setup_s": child["total_s"] - run_s,
        "rss_mb": child["rss_mb"],
        "attempted": 1,
        "stats": [child["stats"]],
        "attribution": child.get("attribution"),
        "layer": {
            "engine.events": events,
            "engine.events_per_s": events / run_s,
            "engine.ns_per_event": run_s / events * 1e9,
            "core.fecn_marks": child["stats"]["gated"]["fecn_marks"],
            "core.becns": child["stats"]["gated"]["becns"],
            "trace.records": child["stats"]["trace_records"],
            "transport.retx_packets": child["stats"]["gated"]["retx_packets"],
            "setup.import_s": child["import_s"],
        },
    }


def campaign_round(spec: dict, env: Dict[str, str], workdir: str) -> dict:
    spec = dict(
        spec, store=os.path.join(workdir, "store"),
        manifest=os.path.join(workdir, "manifest.json"),
    )
    child = run_child(spec, env)
    cells, warm = child["cells"], child["warm_cells"]
    problems = [
        f"cell {i}: status {c['status']!r}" for i, c in enumerate(cells)
        if c["status"] != "ok"
    ] + [
        f"warm cell {i}: status {w['status']!r} or changed result"
        for i, (c, w) in enumerate(zip(cells, warm))
        if w["status"] != "cached" or w["stats"] != c["stats"]
    ]
    cell_wall = sum(c["wall_s"] for c in cells)
    overhead = child["run_s"] - cell_wall / child["workers"]
    layer = {
        "parallel.cell_wall_sum_s": cell_wall,
        "parallel.overhead_s": overhead,
        "parallel.overhead_frac": overhead / child["run_s"],
        "parallel.warm_rerun_ms": child["warm_s"] * 1e3,
        "parallel.workers": child["workers"],
        "parallel.retries": child["retries"],
        "parallel.worker_restarts": child["worker_restarts"],
    }
    for key, value in child.get("store", {}).items():
        if key != "unresolved":
            layer["store." + key] = value
    return {
        "run_s": child["run_s"],
        "setup_s": child["entered_at"] - child["spawned_at"],
        "rss_mb": child["rss_mb"],
        "attempted": len(cells),
        "stats": [c["stats"] for c in cells],
        "problems": problems,
        "unresolved": child.get("store", {}).get("unresolved", []),
        "layer": layer,
    }


def serve_round(spec: dict, env: Dict[str, str], workdir: str) -> dict:
    out = serve_load.run_round(spec, workdir, env)
    out["problems"] = out.pop("failures")
    out["layer"] = dict(out.pop("counts"))
    return out


ROUND_FNS: Dict[str, Callable[[dict, Dict[str, str], str], dict]] = {
    "sim": sim_round, "campaign": campaign_round, "serve": serve_round,
}


# -- aggregation -----------------------------------------------------------

def gated(r: dict, key: str) -> float:
    """A round's ``run_s`` or ``setup_s`` in reference-host seconds."""
    return r[key] * r["host_speed"]


def summary(values: List[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values), "max": max(values), "n": len(values),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def serve_layer(rounds: List[dict]) -> dict:
    """Latency metrics over the pooled requests of every round."""
    pool: Dict[str, List[float]] = {}
    for r in rounds:
        for name, values in r["samples"].items():
            pool.setdefault(name, []).extend(values)
    hits = sum(r["hits"] for r in rounds)
    return {
        "serve.req_per_s": hits / sum(r["hit_s"] for r in rounds),
        "serve.hit_p50_ms": percentile(pool["hit"], 50),
        "serve.hit_p95_ms": percentile(pool["hit"], 95),
        "serve.hit_p99_ms": percentile(pool["hit"], 99),
        "serve.miss_p50_ms": percentile(pool["miss"], 50),
        "serve.admit_ms": percentile(pool["admit"], 50),
        "serve.complete_hit_ms": percentile(pool["complete_hit"], 50),
        "serve.complete_miss_ms": percentile(pool["complete_miss"], 50),
        "serve.fetch_ms": percentile(pool["fetch"], 50),
        "serve.miss_overhead_ms": percentile(pool["miss_overhead"], 50),
        "serve.daemon_cpu_ms_per_hit":
            sum(r["daemon_cpu_s"] for r in rounds) * 1e3 / max(1, hits),
        "serve.hit_samples": len(pool["hit"]),
    }


def attribution_layer(report: dict, plain: dict, attributed: dict) -> dict:
    """Span metrics from one attribution pass (``plain``: a plain round's
    layer numbers, for the counts the recorder does not see)."""
    spans = report["spans"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    layer = {}
    for name in spans:
        if name.startswith("setup."):
            layer[name + "_s"] = span(name, "total_s")
        else:
            layer[name + ".n"] = span(name, "n")
            layer[name + ".self_s"] = span(name, "self_s")
    events = report["events"]
    hops = span("network.ports.tx_done", "n")
    polls = span("traffic.next_packet", "n")
    marks_at = span("core.switch_cc", "n")
    records = plain["trace.records"]
    layer.update({
        "engine.loop_self_s": report["loop_self_s"],
        "engine.loop_share": report["loop_self_s"] / report["run_s"],
        "engine.schedule_calls": report["schedule_calls"],
        "engine.pending_peak": report["pending_peak"],
        "engine.pending_mean": report["pending_mean"],
        "engine.cancelled_frac":
            report["cancels"] / max(1, events + report["cancels"]),
        "engine.events_per_pkt_hop": events / hops if hops else 0.0,
        "network.pkt_hops": hops,
        "core.mark_frac": plain["core.fecn_marks"] / marks_at if marks_at else 0.0,
        "traffic.idle_frac": report["idle_polls"] / polls if polls else 0.0,
        "trace.ns_per_record":
            span("trace.hook", "total_s") / records * 1e9 if records else 0.0,
        "setup.collect_s": report["collect_s"],
        "bench.other_event_frac": report["other_events"] / max(1, events),
        "engine.post_run_s": attributed["run_s"] - report["run_s"],
        "bench.closure":
            (report["span_self_in_run_s"] + report["loop_self_s"]) / report["run_s"],
    })
    return layer


class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, workload: Workload, seed: int, expected: dict,
                 speed: Optional[HostSpeed] = None) -> None:
        self.workload = workload
        self.speed = speed or HostSpeed()
        self.spec = workload.make(seed)
        self.pinned = expected.get(workload.name, {}).get(str(seed))
        self.rounds: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.unresolved: List[str] = []
        self.attributed: Optional[dict] = None

    def reference(self) -> Optional[List[dict]]:
        """Pinned statistics, else the first good round's (exact-agreement
        fallback for an unpinned seed)."""
        if self.pinned is not None:
            return self.pinned
        for r in self.rounds:
            if r.get("stats") and all(r["stats"]):
                return r["stats"]
        return None

    def add_round(self, env: Dict[str, str], tmp: str, extra: Optional[dict] = None) -> dict:
        """Run one round, check it, count it; returns the round."""
        workdir = tempfile.mkdtemp(dir=tmp)
        spec = dict(self.spec, **(extra or {}))
        before_s = self.speed.sample() if self.workload.host_scaled else None
        try:
            r = ROUND_FNS[self.workload.kind](spec, env, workdir)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            r = {"attempted": 1, "failed": 1, "problems": [f"round raised: {exc}"],
                 "crashed": True}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        r["host_speed"] = (
            1.0 if before_s is None
            else HostSpeed.factor(before_s, self.speed.sample())
        )
        problems = list(r.get("problems", []))
        if "stats" in r:
            reference = self.reference() or r["stats"]
            for i, stats in enumerate(r["stats"]):
                ref = reference[i] if i < len(reference) else None
                problems += [
                    f"result {i}: {p}"
                    for p in stat_problems(stats, ref, bool(spec.get("trace")))
                ]
        r.setdefault("failed", min(r["attempted"], len(problems)))
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        self.problems += problems
        self.unresolved += r.get("unresolved", [])
        return r

    def plain_round(self, env: Dict[str, str], tmp: str, trace: bool) -> dict:
        """One timed round, kept unless it crashed."""
        extra = {"store_bench": True} if trace and self.workload.kind == "campaign" else None
        r = self.add_round(env, tmp, extra)
        if not r.get("crashed"):
            self.rounds.append(r)
        return r

    def attribution_pass(self, env: Dict[str, str], tmp: str, spans_path: str) -> None:
        r = self.add_round(env, tmp, {
            "attribution": True, "spans_path": spans_path,
            "span_id": f"{self.workload.name}/attribution",
        })
        if r.get("crashed") or not self.rounds:
            return
        report = r["attribution"]
        self.attributed = attribution_layer(report, self.rounds[0]["layer"], r)
        self.attributed["bench.attribution_overhead_ratio"] = (
            gated(r, "run_s") / statistics.median(gated(x, "run_s") for x in self.rounds)
        )
        self.attributed["observed"] = report["observed"]
        self.unresolved += report["unresolved"]
        problems = []
        if r["layer"]["engine.events"] != self.rounds[0]["layer"]["engine.events"]:
            problems.append("attribution pass changed the event count")
        if abs(self.attributed["bench.closure"] - 1.0) > CLOSURE_TOLERANCE:
            problems.append(
                f"attribution books do not close: {self.attributed['bench.closure']:.4f}"
            )
        if problems:
            self.failed = min(self.attempted, self.failed + 1)
            self.problems += problems

    # -- metrics -----------------------------------------------------------
    def end_to_end(self) -> Dict[str, dict]:
        if not self.rounds:
            return {}
        return {
            "run_s": summary([gated(r, "run_s") for r in self.rounds]),
            "setup_s": summary([gated(r, "setup_s") for r in self.rounds]),
            "peak_rss_mb": summary([r["rss_mb"] for r in self.rounds]),
        }

    def per_layer(self, base: Optional["WorkloadRun"]) -> Dict[str, float]:
        """Layer metrics: medians over plain rounds, the attribution pass,
        and on/off ratios against ``base`` (the same config, layer off)."""
        layer: Dict[str, float] = {}
        if not self.rounds:
            return layer
        for key in self.rounds[0]["layer"]:
            layer[key] = statistics.median(r["layer"][key] for r in self.rounds)
        if self.workload.kind == "serve":
            layer.update(serve_layer(self.rounds))
        if self.attributed:
            layer.update(
                (k, v) for k, v in self.attributed.items() if k != "observed"
            )
        run_s = [gated(r, "run_s") for r in self.rounds]
        med = statistics.median(run_s)
        layer["bench.run_s_spread"] = (max(run_s) - min(run_s)) / med
        layer["bench.host_speed"] = statistics.median(r["host_speed"] for r in self.rounds)
        layer["bench.fail_frac"] = self.failed / max(1, self.attempted)
        if base is not None and base.rounds:
            base_s = statistics.median(gated(r, "run_s") for r in base.rounds)
            base_events = base.rounds[0]["layer"]["engine.events"]
            ratio = med / base_s
            if self.spec["trace"]:
                layer["trace.on_off_ratio"] = ratio
            if self.spec["transport"]:
                layer["transport.on_off_ratio"] = ratio
                layer["transport.extra_event_frac"] = (
                    layer["engine.events"] / base_events - 1.0
                )
        return layer


def run_suite(
    names: Iterable[str],
    seed: int,
    *,
    trace: bool,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    expected: Optional[dict] = None,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, WorkloadRun]:
    """Measure ``names``: ``rounds`` interleaved rounds each, or — given
    ``seconds`` — as many rounds as fit that budget per workload (never
    fewer than :data:`MIN_ROUNDS`). With ``trace``, on/off base workloads
    are measured too and every simulation gets an attribution pass."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    expected = load_expected() if expected is None else expected
    wanted = list(names)
    if trace:
        for name in list(wanted):
            base = BY_NAME[name].ratio_base
            if base and base not in wanted:
                wanted.append(base)
    speed = HostSpeed()
    runs = {name: WorkloadRun(BY_NAME[name], seed, expected, speed) for name in wanted}

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    env = child_env(tmp)
    spans_path = str(OUT / "spans.jsonl")
    if trace and os.path.exists(spans_path):
        os.remove(spans_path)
    try:
        # Warm-up, discarded: every layer on, so that page cache and
        # bytecode cache hold all of the simulator before a round is timed.
        run_child(micro_sim(seed, trace=True, transport=True), env)
        spent = {name: 0.0 for name in runs}
        for i in range(rounds or MAX_ROUNDS):
            busy = False
            for name, run in runs.items():
                done = len(run.rounds)
                if seconds is not None and done >= MIN_ROUNDS and (
                    spent[name] + spent[name] / done > seconds
                ):
                    continue
                busy = True
                t0 = perf_counter()
                r = run.plain_round(env, tmp, trace)
                spent[name] += perf_counter() - t0
                log(f"round {i + 1} {name}: " + (
                    "failed" if r.get("crashed") else
                    f"run_s={r['run_s']:.3f} host_speed={r['host_speed']:.3f}"
                ))
            if not busy:
                break
        if trace:
            for name, run in runs.items():
                if run.workload.kind == "sim":
                    run.attribution_pass(env, tmp, spans_path)
                    log(f"attribution {name}: done")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return runs


def update_expected(seeds: Iterable[int] = PINNED_SEEDS) -> dict:
    """Regenerate ``expected.json``: one plain round per pinned seed of
    every workload that yields simulated statistics."""
    expected: dict = {}
    for seed in seeds:
        names = [n for n, w in BY_NAME.items() if w.kind != "serve"]
        runs = run_suite(names, seed, trace=False, rounds=1, expected={})
        for name, run in runs.items():
            if not run.rounds or run.failed:
                raise SystemExit(f"cannot pin {name} seed {seed}: {run.problems}")
            expected.setdefault(name, {})[str(seed)] = run.rounds[0]["stats"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return expected
