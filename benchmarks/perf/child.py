"""One round of a simulation or campaign workload, in a fresh process.

``python -m benchmarks.perf.child '<spec json>'`` runs the spec through
the program's public entry points and prints one JSON object as the
last line of stdout. A fresh interpreter per round gives each round a
clean ``ru_maxrss``, clean imports and the ``gc`` state of a real CLI
call; the parent times the process from spawn to exit.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from time import perf_counter
from typing import Any, Dict, List


def build_config(spec: dict) -> Any:
    from repro.experiments.config import SCALES, ExperimentConfig
    from repro.transport.config import TransportConfig

    scale = SCALES[spec["scale"]]
    if spec.get("scale_override"):
        scale = replace(scale, **spec["scale_override"])
    return ExperimentConfig(
        scale=scale,
        transport=TransportConfig() if spec["transport"] else None,
        **spec["fields"],
    )


def simulated_stats(result: Any) -> dict:
    """What a deterministic simulator must repeat exactly, plus the two
    recorded-but-ungated structure fingerprints (events, digest)."""
    rates = json.dumps(result.rates_gbps)
    return {
        "gated": {
            "rates_sha256": hashlib.sha256(rates.encode()).hexdigest(),
            "rates_sum_gbps": sum(result.rates_gbps),
            "hotspots": list(result.hotspots),
            "fecn_marks": result.fecn_marks,
            "becns": result.becns,
            "retx_packets": result.retx_packets,
            "transport_timeouts": result.transport_timeouts,
            "failed_flows": result.failed_flows,
            "trace_violations": result.trace_violations,
        },
        "events": result.events,
        "trace_records": result.trace_records,
        "trace_digest": result.trace_digest,
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_sim(spec: dict) -> dict:
    t0 = perf_counter()
    from repro.experiments.runner import run_experiment

    cfg = build_config(spec)
    import_s = perf_counter() - t0

    recorder = None
    if spec.get("attribution"):
        from benchmarks.perf import attribution

        recorder = attribution.install()
    t_call = perf_counter()
    result = run_experiment(cfg, trace=spec["trace"])
    t_ret = perf_counter()

    out = {
        "run_s": result.wall_seconds,
        "experiment_s": t_ret - t_call,
        "import_s": import_s,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "stats": simulated_stats(result),
    }
    if recorder is not None:
        recorder.uninstall()
        report = recorder.report()
        # perf_counter and perf_counter_ns share one clock.
        report["build_s"] = recorder.run_start_ns / 1e9 - t_call
        report["collect_s"] = t_ret - recorder.run_end_ns / 1e9
        out["attribution"] = report
        if spec.get("spans_path"):
            recorder.write_spans(spec["spans_path"], spec.get("span_id", ""))
    return out


def run_campaign_round(spec: dict) -> dict:
    from repro.parallel import run_campaign

    configs = [build_config(cell) for cell in spec["cells"]]
    kwargs = dict(
        jobs=spec["jobs"], cache=spec["store"], manifest_path=spec["manifest"],
    )
    entered = time.time()
    t0 = perf_counter()
    cold = run_campaign(configs, **kwargs)
    cold_s = perf_counter() - t0
    t0 = perf_counter()
    warm = run_campaign(configs, **kwargs)
    warm_s = perf_counter() - t0

    out = {
        "run_s": cold_s,
        "warm_s": warm_s,
        "entered_at": entered,
        "rss_mb": _rss_mb(resource.RUSAGE_SELF) + _rss_mb(resource.RUSAGE_CHILDREN),
        "workers": cold.manifest.jobs,
        "retries": cold.manifest.retries,
        "worker_restarts": cold.manifest.worker_restarts,
        "cells": [
            {
                "status": o.status,
                "wall_s": o.wall_seconds,
                "stats": simulated_stats(o.result) if o.result is not None else None,
            }
            for o in cold.outcomes
        ],
        "warm_cells": [
            {
                "status": o.status,
                "stats": simulated_stats(o.result) if o.result is not None else None,
            }
            for o in warm.outcomes
        ],
    }
    if spec.get("store_bench"):
        out["store"] = store_bench(cold.outcomes[0].result)
    return out


def store_bench(result: Any, calls: int = 50) -> dict:
    """Median cost of the store's three operations on one real result."""
    from benchmarks.perf.attribution import resolve

    try:
        _, _, config_key = resolve("repro.experiments.store:config_key")
        _, _, result_store = resolve("repro.experiments.store:ResultStore")
    except (ImportError, AttributeError) as exc:
        return {"unresolved": [str(exc)]}

    def median_s(fn) -> float:
        samples = []
        for _ in range(calls):
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        return statistics.median(samples)

    with tempfile.TemporaryDirectory() as tmp:
        store = result_store(tmp)
        return {
            "key_us": median_s(lambda: config_key(result.config)) * 1e6,
            "save_ms": median_s(lambda: store.save(result)) * 1e3,
            "load_ms": median_s(lambda: store.load(result.config)) * 1e3,
        }


def hot_set_names() -> dict:
    """simlint's static hot set, for the observed-vs-hot diff.

    Informational: any failure (the API moved, the tree does not parse)
    yields an empty answer, never an error.
    """
    try:
        import repro
        from repro.lint.callgraph import hot_set
        from repro.lint.engine import _load_file, _walk_with_roots
        from repro.lint.project import Project

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        files = [_load_file(p, r) for p, r in _walk_with_roots([src])]
        project = Project(files=files)
        return {"hot": sorted(hot_set(project, project.callgraph()))}
    except Exception as exc:  # informational extra: never fatal
        return {"hot": None, "skipped": repr(exc)}


KINDS = {
    "sim": run_sim,
    "campaign": run_campaign_round,
    "hot_set": lambda spec: hot_set_names(),
}


def main(argv: List[str]) -> int:
    spec: Dict[str, Any] = json.loads(argv[1])
    out = KINDS[spec["kind"]](spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
