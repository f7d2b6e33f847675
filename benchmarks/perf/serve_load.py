"""The ``serve_mixed`` workload: ``repro serve`` driven over HTTP.

One round spawns the daemon on an empty store, then runs two phases
from ``clients`` closed-loop threads (a client sends its next request
only after the previous one completed; one connection per request, as
the daemon closes every connection):

* **miss** — each unique cell once: admit, queue, worker dispatch,
  simulate, store write, respond;
* **hit** — the same cells again, many times: parse, ``config_key``,
  store lookup, spec/manifest checkpoint, respond.

A request is POST submit -> poll the campaign until done -> GET the
result bytes. The daemon is reached only through its CLI and HTTP API;
the cell dicts are the benchmark's own.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional, Tuple

READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
#: Pause between two polls of a campaign that is not done yet.
POLL_S = 0.005
OK_STATES = ("ok", "cached")


class Api:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def call(self, method: str, path: str, payload=None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)


def one_request(api: Api, cell: dict) -> dict:
    """Submit one cell and see it through; never raises."""
    out = {"ok": False, "key": None, "body": None, "error": None}
    try:
        t0 = perf_counter()
        status, body = api.call("POST", "/v1/campaigns", {"cells": [cell]})
        t_admitted = perf_counter()
        if status != 202:
            out["error"] = f"submit answered {status}"
            return out
        campaign_id = json.loads(body)["id"]
        deadline = t_admitted + REQUEST_TIMEOUT_S
        while True:
            status, body = api.call("GET", f"/v1/campaigns/{campaign_id}")
            state = json.loads(body)
            if status != 200 or state["done"]:
                break
            if perf_counter() > deadline:
                out["error"] = "timeout waiting for the campaign"
                return out
            time.sleep(POLL_S)
        t_done = perf_counter()
        cell_state = state["cells"][0] if status == 200 else {}
        if cell_state.get("status") not in OK_STATES:
            out["error"] = f"terminal state {cell_state.get('status')!r}"
            return out
        status, result = api.call("GET", f"/v1/results/{cell_state['key']}")
        t_fetched = perf_counter()
        if status != 200:
            out["error"] = f"result fetch answered {status}"
            return out
        out.update(
            ok=True, key=cell_state["key"], body=result,
            admit_ms=(t_admitted - t0) * 1e3,
            complete_ms=(t_done - t_admitted) * 1e3,
            fetch_ms=(t_fetched - t_done) * 1e3,
            total_ms=(t_fetched - t0) * 1e3,
        )
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        out["error"] = repr(exc)
    return out


def closed_loop(api: Api, cells: List[dict], clients: int) -> Tuple[List[dict], float]:
    """Run ``cells`` through ``clients`` closed-loop threads, in order."""
    results: List[Optional[dict]] = [None] * len(cells)
    cursor = iter(range(len(cells)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            results[i] = one_request(api, cells[i])

    threads = [threading.Thread(target=client) for _ in range(clients)]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, perf_counter() - t0  # type: ignore[return-value]


def kill_group(proc: subprocess.Popen) -> None:
    """End ``proc`` (started with its own session) and every process it
    left behind, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants, from ``/proc``."""
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        found.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return found


def tree_cpu_s(pids: List[int]) -> float:
    """utime + stime of the given processes, in seconds."""
    ticks = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            pass
    return ticks / os.sysconf("SC_CLK_TCK")


def tree_peak_rss_mb(pids: List[int]) -> float:
    """Sum of the processes' peak resident sizes (``VmHWM``)."""
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError):
            pass
    return total_kb / 1024.0


def run_round(spec: dict, workdir: str, env: Dict[str, str]) -> dict:
    """One daemon lifetime: spawn, miss phase, hit phase, drain."""
    store = os.path.join(workdir, "store")
    ready = os.path.join(workdir, "ready")
    log_path = os.path.join(workdir, "daemon.log")
    spawned = perf_counter()
    with open(log_path, "wb") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store,
             "--jobs", str(spec["jobs"]), "--port", "0", "--ready-file", ready,
             "--log-level", "WARNING"],
            env=env, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,  # so a stuck tree can be killed whole
        )
    try:
        while not os.path.exists(ready):
            if daemon.poll() is not None or perf_counter() - spawned > READY_TIMEOUT_S:
                with open(log_path, errors="replace") as fh:
                    raise RuntimeError("daemon did not come up: " + fh.read()[-2000:])
            time.sleep(0.002)
        setup_s = perf_counter() - spawned
        with open(ready) as fh:
            host, port = fh.read().split()
        api = Api(host, int(port))
        cells = spec["cells"]
        before = api.stats()

        miss, miss_s = closed_loop(api, cells, spec["clients"])
        pids = process_tree(daemon.pid)
        cpu_before = tree_cpu_s(pids)
        hit_cells = [cells[i] for i in spec["hit_order"]]
        hit, hit_s = closed_loop(api, hit_cells, spec["clients"])
        cpu_s = tree_cpu_s(pids) - cpu_before

        after = api.stats()
        rss_mb = tree_peak_rss_mb(process_tree(daemon.pid))
        daemon.send_signal(signal.SIGTERM)
        try:
            exit_code: Optional[int] = daemon.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            exit_code = None
    finally:
        kill_group(daemon)

    # Bytes served for one key must never change: first fetch is the reference.
    first: Dict[str, bytes] = {}
    failures = []
    for phase, rows in (("miss", miss), ("hit", hit)):
        for i, row in enumerate(rows):
            if row["ok"] and first.setdefault(row["key"], row["body"]) != row["body"]:
                row["ok"], row["error"] = False, "result bytes changed"
            if not row["ok"]:
                failures.append(f"{phase}[{i}]: {row['error']}")
    if exit_code != 0:
        failures.append(f"SIGTERM drain exited {exit_code}")

    ok_miss = [r for r in miss if r["ok"]]
    ok_hit = [r for r in hit if r["ok"]]
    sim_wall_ms = [json.loads(r["body"])["wall_seconds"] * 1e3 for r in ok_miss]

    def col(rows: List[dict], name: str) -> List[float]:
        return [r[name] for r in rows]

    def delta(name: str) -> int:
        return after[name] - before[name]

    attempted = len(miss) + len(hit) + 1  # every request, and the drain
    return {
        "setup_s": setup_s,
        "run_s": miss_s + hit_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:10],
        "miss_s": miss_s,
        "hit_s": hit_s,
        "hits": len(ok_hit),
        "daemon_cpu_s": cpu_s,
        #: Client-side latencies in ms, pooled over rounds by the caller.
        "samples": {
            "hit": col(ok_hit, "total_ms"),
            "miss": col(ok_miss, "total_ms"),
            "admit": col(ok_miss + ok_hit, "admit_ms"),
            "complete_hit": col(ok_hit, "complete_ms"),
            "complete_miss": col(ok_miss, "complete_ms"),
            "fetch": col(ok_miss + ok_hit, "fetch_ms"),
            "miss_overhead": [
                r["complete_ms"] - w for r, w in zip(ok_miss, sim_wall_ms)
            ],
        },
        "counts": {
            "serve.cache_hits": delta("cache_hits"),
            "serve.simulations_started": delta("simulations_started"),
            "serve.dedup_joins": delta("dedup_joins"),
            "serve.shed": after["shed"]["total"] - before["shed"]["total"],
            "serve.worker_restarts": delta("worker_restarts"),
        },
    }
