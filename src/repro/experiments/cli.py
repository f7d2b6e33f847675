"""Command-line entry point: regenerate any paper artifact.

Examples::

    ibcc-repro table2 --scale quick
    ibcc-repro fig5 --scale default
    ibcc-repro fig9a --scale quick
    ibcc-repro fig10 --p 60
    ibcc-repro fig5 --jobs 4 --cache-dir .ibcc-cache   # parallel + cached
    ibcc-repro table2 --jobs 4 --timeout-s 600 --max-rss-mb 2048  # budgets
    ibcc-repro fig5 --resume run.json --retry-failed   # re-run failures
    ibcc-repro faults --scale quick             # fault-scenario table
    ibcc-repro table2 --chaos 7                 # seeded random faults
    ibcc-repro table2 --faults flap.json        # explicit fault schedule
    ibcc-repro faults --transport --trace       # reliable-delivery runs
    ibcc-repro table2 --cc dctcp                # swap the CC mechanism
    ibcc-repro arena --quick                    # cross-mechanism matrix
    ibcc-repro store gc .ibcc-cache --purge     # drop quarantine sidecars
    ibcc-repro lint src/                        # simlint static analysis
    ibcc-repro serve --store .ibcc-cache --jobs 4   # campaign daemon
    python -m repro table2 --scale paper        # full 648-node run
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.config import SCALES, ConfigError
from repro.experiments.fault_scenarios import run_fault_scenarios
from repro.experiments.moving import run_moving_figure
from repro.experiments.table2 import run_table2
from repro.experiments.windy import run_windy_figure

_WINDY_X = {"fig5": 0.25, "fig6": 0.50, "fig7": 0.75, "fig8": 1.00}

_CHAOS_RATES = ("link_flap", "degrade", "cnp_drop", "timer_freeze", "switch_pause")
_CHAOS_DEFAULT_RATE = 0.05


def parse_chaos(text: str):
    """Parse ``--chaos SEED[:kind=rate,...]`` into a :class:`ChaosSpec`.

    Rates are expected faults per simulated millisecond. With no rates
    given, every fault class runs at 0.05 per ms::

        --chaos 7
        --chaos 7:link_flap=0.1,cnp_drop=0.2

    Raises ``ValueError`` on malformed input.
    """
    from repro.faults import ChaosSpec

    seed_part, _, rates_part = text.partition(":")
    seed = int(seed_part)
    if not rates_part:
        return ChaosSpec(seed=seed, **{k: _CHAOS_DEFAULT_RATE for k in _CHAOS_RATES})
    rates = {}
    for item in rates_part.split(","):
        key, eq, val = item.partition("=")
        if not eq or key not in _CHAOS_RATES:
            raise ValueError(
                f"bad chaos rate {item!r}; expected kind=rate with kind in "
                f"{', '.join(_CHAOS_RATES)}"
            )
        rates[key] = float(val)
    return ChaosSpec(seed=seed, **rates)


def parse_cc(text: str):
    """Parse ``--cc MECH[:key=value,...]`` into a :class:`CCConfig`.

    Values parse as int, then float, then stay strings::

        --cc reno
        --cc dctcp:gain=0.125,ai=0.1

    Raises ``ValueError`` on malformed input, unknown mechanisms, and
    unknown option names (via :meth:`CCConfig.validate`).
    """
    from repro.cc import CCConfig

    mech, _, params_part = text.partition(":")
    params = {}
    if params_part:
        for item in params_part.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key:
                raise ValueError(
                    f"bad CC parameter {item!r}; expected key=value"
                )
            for cast in (int, float):
                try:
                    val = cast(val)
                    break
                except ValueError:
                    continue
            params[key] = val
    return CCConfig.make(mech, **params).validate()


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``ibcc-repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="ibcc-repro",
        description=(
            "Reproduce tables/figures of 'Exploring the Scope of the "
            "InfiniBand Congestion Control Mechanism' (IPDPS 2012)"
        ),
    )
    parser.add_argument(
        "artifact",
        choices=["table2", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b",
                 "fig10", "faults", "arena"],
        help=(
            "which artifact to regenerate (faults = the fault-scenario "
            "robustness table; arena = the cross-mechanism CC matrix)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="scale profile (paper = full 648-node Sun DCS topology)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--p",
        type=float,
        default=60,
        help="fig10 only: hotspot share in percent (30/60/90 in the paper)",
    )
    parser.add_argument(
        "--p-step",
        type=float,
        default=10,
        help="windy figures: p sweep step in percent",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render the figure panels as ASCII charts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the experiment cells "
            "(1 = serial, byte-identical to historical runs)"
        ),
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget (runs cells on a worker process "
            "even at --jobs 1); the supervisor "
            "preempts the worker of a cell that exceeds it and records "
            "the cell failed with error_kind=timeout"
        ),
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "per-worker address-space budget "
            "(RLIMIT_AS); a cell that allocates past it fails in place "
            "with error_kind=oom instead of inviting the kernel OOM "
            "killer"
        ),
    )
    parser.add_argument(
        "--retry-failed",
        action="store_true",
        help=(
            "with --resume: re-run the cells the prior manifest "
            "recorded as failed (by default their quarantine records — "
            "poisoned cells, timeouts — are replayed without burning "
            "workers on them again)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "cache completed cells as JSON under DIR; re-runs and resumed "
            "campaigns skip cells already present"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching even if --cache-dir is given",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the JSON run manifest (per-cell status/retries/timing)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC.json",
        help=(
            "inject a fault schedule (FaultSchedule JSON, see "
            "repro.faults) into every cell of the artifact"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SEED[:kind=rate,...]",
        help=(
            "inject seeded random faults into every cell; rates are "
            "faults per simulated ms (default 0.05 for every class: "
            "link_flap, degrade, cnp_drop, timer_freeze, switch_pause)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help=(
            "resume an interrupted campaign from its checkpointed run "
            "manifest; completed cells are replayed from --cache-dir"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace every cell (repro.trace): compute per-cell digests "
            "(recorded in the --manifest file and printed to stderr) and "
            "audit CC/flow-control invariants online"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="with --trace: also write each cell's replayable JSONL trace under DIR",
    )
    parser.add_argument(
        "--transport",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "run every cell on the reliable-delivery transport "
            "(repro.transport): PSN sequencing, acks, timeout/retransmit "
            "with backoff; faulted runs recover lost bytes or report "
            "explicitly FAILED flows instead of silently losing data "
            "(default: off, keeping the raw lossless fabric)"
        ),
    )
    parser.add_argument(
        "--cc",
        default=None,
        metavar="MECH[:key=value,...]",
        help=(
            "congestion-control mechanism for the CC-on cells "
            "(registered repro.cc name — ib, dctcp, reno, dcqcn — with "
            "optional option overrides, e.g. dctcp:gain=0.125); for the "
            "arena artifact this restricts the matrix to one mechanism. "
            "Default: ib, the paper's mechanism, byte-identical to "
            "omitting the flag"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "arena only: shrink simulated time to a seconds-scale "
            "smoke matrix"
        ),
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help=(
            "arena only: also write the matrix as arena.csv and "
            "arena.json under DIR"
        ),
    )
    parser.add_argument(
        "--recovery-stats",
        default=None,
        metavar="PATH",
        help=(
            "with --transport: write per-cell recovery statistics "
            "(retransmissions, timeouts, failed flows, degraded flow "
            "health) as JSON to PATH"
        ),
    )
    return parser


def store_main(argv) -> int:
    """The ``store`` maintenance subcommands (``ibcc-repro store ...``).

    ``store gc DIR`` lists the ``.corrupt`` quarantine sidecars that
    corrupt-cache recovery left behind; ``--purge`` deletes them.
    """
    parser = argparse.ArgumentParser(
        prog="ibcc-repro store",
        description="maintain a --cache-dir result store",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gc = sub.add_parser(
        "gc",
        help="list (and with --purge, delete) quarantined .corrupt sidecars",
    )
    gc.add_argument("directory", help="the result-store directory")
    gc.add_argument(
        "--purge",
        action="store_true",
        help="delete the sidecars instead of only listing them",
    )
    args = parser.parse_args(argv)
    from repro.experiments.store import find_quarantined, purge_quarantined

    if not os.path.isdir(args.directory):
        print(f"store gc: {args.directory!r} is not a directory",
              file=sys.stderr)
        return 2
    if args.purge:
        removed = purge_quarantined(args.directory)
        for path in removed:
            print(f"removed {path}")
        print(f"purged {len(removed)} quarantined sidecar(s)")
    else:
        sidecars = find_quarantined(args.directory)
        for path in sidecars:
            print(path)
        print(
            f"{len(sidecars)} quarantined sidecar(s)"
            + (" (use --purge to delete)" if sidecars else "")
        )
    return 0


def _write_recovery_stats(path: str, results) -> None:
    """Dump per-cell transport recovery statistics as JSON to ``path``."""
    from repro.experiments.runner import config_slug
    from repro.experiments.store import atomic_write_json

    cells = {}
    for res in results:
        cells[config_slug(res.config)] = {
            "retx_packets": res.retx_packets,
            "retx_bytes": res.retx_bytes,
            "transport_timeouts": res.transport_timeouts,
            "failed_flows": res.failed_flows,
            "recovery_ns_total": res.recovery_ns_total,
            "flow_health": res.flow_health or [],
        }
    atomic_write_json(path, {
        "total_retx_packets": sum(c["retx_packets"] for c in cells.values()),
        "total_timeouts": sum(c["transport_timeouts"] for c in cells.values()),
        "total_failed_flows": sum(c["failed_flows"] for c in cells.values()),
        "cells": cells,
    })


def _trace_report(results, stream) -> int:
    """Print per-cell digests; returns the total violation count."""
    from repro.experiments.runner import config_slug

    violations = 0
    for res in results:
        print(
            f"trace {config_slug(res.config)}: digest {res.trace_digest} "
            f"({res.trace_records} records, "
            f"{res.trace_violations} violations)",
            file=stream,
        )
        violations += res.trace_violations
    return violations


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.parallel import ProgressReporter

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    scale = SCALES[args.scale]
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.retry_failed and args.resume is None:
        print("--retry-failed requires --resume", file=sys.stderr)
        return 2
    if args.timeout_s is not None and args.timeout_s <= 0:
        print("--timeout-s must be > 0", file=sys.stderr)
        return 2
    if args.max_rss_mb is not None and args.max_rss_mb <= 0:
        print("--max-rss-mb must be > 0", file=sys.stderr)
        return 2
    if args.trace_dir is not None and not args.trace:
        print("--trace-dir requires --trace", file=sys.stderr)
        return 2
    if args.recovery_stats is not None and not args.transport:
        print("--recovery-stats requires --transport", file=sys.stderr)
        return 2
    if args.quick and args.artifact != "arena":
        print("--quick applies only to the arena artifact", file=sys.stderr)
        return 2
    if args.transport and args.artifact == "arena":
        print("the arena compares mechanisms on the raw lossless fabric; "
              "--transport applies to the other artifacts", file=sys.stderr)
        return 2
    if args.out_dir is not None and args.artifact != "arena":
        print("--out-dir applies only to the arena artifact", file=sys.stderr)
        return 2
    cc_config = None
    if args.cc is not None:
        try:
            cc_config = parse_cc(args.cc)
        except ValueError as exc:
            print(f"--cc {args.cc!r}: {exc}", file=sys.stderr)
            return 2
    transport = None
    if args.transport:
        from repro.transport import TransportConfig

        transport = TransportConfig()
    cache = None if args.no_cache else args.cache_dir
    if cache is not None and os.path.exists(cache) and not os.path.isdir(cache):
        print(f"--cache-dir {cache!r} exists and is not a directory", file=sys.stderr)
        return 2
    if args.faults is not None and args.chaos is not None:
        print("--faults and --chaos are mutually exclusive", file=sys.stderr)
        return 2
    faults = None
    if args.faults is not None:
        from repro.faults import FaultSchedule

        try:
            faults = FaultSchedule.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"--faults {args.faults!r}: {exc}", file=sys.stderr)
            return 2
    elif args.chaos is not None:
        try:
            faults = parse_chaos(args.chaos)
        except ValueError as exc:
            print(f"--chaos {args.chaos!r}: {exc}", file=sys.stderr)
            return 2
    if args.artifact == "faults" and faults is not None:
        print("the faults artifact has built-in scenarios; "
              "--faults/--chaos apply to the other artifacts", file=sys.stderr)
        return 2
    if args.artifact == "arena" and faults is not None:
        print("the arena compares mechanisms on a clean fabric; "
              "--faults/--chaos apply to the other artifacts", file=sys.stderr)
        return 2
    run_fn = None
    if args.trace:
        from repro.experiments.runner import TracedRun
        from repro.trace import TraceSpec

        run_fn = TracedRun(TraceSpec(jsonl_dir=args.trace_dir))
    # Live progress goes to stderr so stdout stays a clean table/figure.
    reporter = ProgressReporter(stream=sys.stderr) if args.jobs > 1 else None
    campaign_kw = dict(
        jobs=args.jobs,
        cache=cache,
        timeout_s=args.timeout_s,
        max_rss_mb=args.max_rss_mb,
        reporter=reporter,
        manifest_path=args.manifest,
        run_fn=run_fn,
        resume_from=args.resume,
        retry_failed=args.retry_failed,
        transport=transport,
    )
    if args.artifact not in ("faults", "arena"):
        campaign_kw["faults"] = faults
    if args.artifact == "arena":
        # The arena sweeps mechanisms itself; --cc restricts its matrix.
        campaign_kw.pop("transport")
        campaign_kw["quick"] = args.quick
        if cc_config is not None:
            campaign_kw["mechanisms"] = [cc_config]
    else:
        campaign_kw["cc_config"] = cc_config

    try:
        traced_results = _run_artifact(args, scale, campaign_kw)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.recovery_stats is not None:
        _write_recovery_stats(args.recovery_stats, traced_results)
        print(f"recovery stats written to {args.recovery_stats}",
              file=sys.stderr)
    if args.trace and traced_results:
        if _trace_report(traced_results, sys.stderr):
            print("trace audit FAILED: invariant violations detected",
                  file=sys.stderr)
            return 1
    return 0


def _run_artifact(args, scale, campaign_kw) -> list:
    """Run the selected artifact, print it, return its cell results."""
    traced_results = []
    if args.artifact == "table2":
        table = run_table2(scale, seed=args.seed, **campaign_kw)
        traced_results = [
            table.baseline_no_cc, table.baseline_cc,
            table.hotspots_no_cc, table.hotspots_cc,
        ]
        print(table.format())
    elif args.artifact in _WINDY_X:
        step = args.p_step / 100.0
        p_values = []
        p = 0.0
        while p < 1.0 + 1e-9:
            p_values.append(round(p, 6))
            p += step
        fig = run_windy_figure(
            _WINDY_X[args.artifact], scale, p_values=p_values, seed=args.seed,
            **campaign_kw,
        )
        traced_results = [r for pt in fig.points for r in (pt.off, pt.on)]
        print(fig.format())
        peak = fig.peak_improvement()
        print(f"peak improvement {peak.improvement:.1f}x at p={peak.p * 100:.0f}%")
        if args.chart:
            from repro.metrics import line_chart

            series = fig.series()
            print()
            print(line_chart(
                {"CC off": series["non_hotspot_off"],
                 "CC on": series["non_hotspot_on"],
                 "tmax": series["tmax"]},
                series["p"], x_label="p (%)", y_label="non-hotspot rcv (Gbit/s)",
            ))
            print()
            print(line_chart(
                {"improvement": series["improvement"]},
                series["p"], x_label="p (%)", y_label="CC throughput gain (x)",
            ))
    elif args.artifact in ("fig9a", "fig9b", "fig10"):
        if args.artifact == "fig9a":
            fig = run_moving_figure(scale, c_fraction_of_rest=0.8,
                                    label="20% V / 80% C", seed=args.seed,
                                    **campaign_kw)
        elif args.artifact == "fig9b":
            fig = run_moving_figure(scale, c_fraction_of_rest=0.4,
                                    label="60% V / 40% C", seed=args.seed,
                                    **campaign_kw)
        else:
            fig = run_moving_figure(scale, b_fraction=1.0, p=args.p / 100.0,
                                    label=f"100% B, p={args.p:.0f}", seed=args.seed,
                                    **campaign_kw)
        traced_results = [r for pt in fig.points for r in (pt.off, pt.on)]
        print(fig.format())
        if args.chart:
            from repro.metrics import line_chart

            series = fig.series()
            print()
            print(line_chart(
                {"CC off": series["all_off"], "CC on": series["all_on"]},
                series["lifetime_ms"],
                x_label="hotspot lifetime (ms)",
                y_label="all-node rcv (Gbit/s)",
            ))
    elif args.artifact == "faults":
        table = run_fault_scenarios(scale, seed=args.seed, **campaign_kw)
        traced_results = [r for row in table.rows for r in (row.off, row.on)]
        print(table.format())
    elif args.artifact == "arena":
        from repro.experiments.arena import run_arena

        arena = run_arena(scale, seed=args.seed, **campaign_kw)
        traced_results = [c.result for c in arena.cells]
        print(arena.format())
        if args.out_dir is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            csv_path = os.path.join(args.out_dir, "arena.csv")
            json_path = os.path.join(args.out_dir, "arena.json")
            with open(csv_path, "w") as fh:
                fh.write(arena.to_csv())
            with open(json_path, "w") as fh:
                fh.write(arena.to_json())
                fh.write("\n")
            print(f"matrix written to {csv_path} and {json_path}",
                  file=sys.stderr)
    return traced_results


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
