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


def p_sweep(step: float) -> tuple:
    """The hotspot shares 0, ``step``, 2·``step``, ... up to 1 (none
    for ``step <= 0``)."""
    p_values = []
    p = 0.0
    while step > 0 and p < 1.0 + 1e-9:
        p_values.append(round(p, 6))
        p += step
    return tuple(p_values)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``ibcc-repro`` CLI."""
    from repro.experiments.artifacts import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="ibcc-repro",
        description=(
            "Reproduce tables/figures of 'Exploring the Scope of the "
            "InfiniBand Congestion Control Mechanism' (IPDPS 2012)"
        ),
    )
    parser.add_argument(
        "artifact",
        choices=[a.name for a in ARTIFACTS],
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
        default=None,
        help=(
            "fig10 only: hotspot share in percent (30/60/90 in the paper; "
            "default 60)"
        ),
    )
    parser.add_argument(
        "--p-step",
        type=float,
        default=None,
        help="fig5-fig8 only: p sweep step in percent (default 10)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="fig5-fig10 only: render the figure panels as ASCII charts",
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
    from repro.experiments.artifacts import ArtifactOptions, run_artifact
    from repro.experiments.runner import TracedRun
    from repro.faults import FaultSchedule
    from repro.parallel import ProgressReporter
    from repro.trace import TraceSpec
    from repro.transport import TransportConfig

    args = build_parser().parse_args(argv)
    cache = None if args.no_cache else args.cache_dir
    for bad, problem in (
        (args.jobs < 1, "--jobs must be >= 1"),
        (args.retry_failed and args.resume is None,
         "--retry-failed requires --resume"),
        (args.timeout_s is not None and args.timeout_s <= 0,
         "--timeout-s must be > 0"),
        (args.max_rss_mb is not None and args.max_rss_mb <= 0,
         "--max-rss-mb must be > 0"),
        (args.trace_dir is not None and not args.trace,
         "--trace-dir requires --trace"),
        (args.recovery_stats is not None and not args.transport,
         "--recovery-stats requires --transport"),
        (cache is not None and os.path.exists(cache) and not os.path.isdir(cache),
         f"--cache-dir {cache!r} exists and is not a directory"),
        (args.faults is not None and args.chaos is not None,
         "--faults and --chaos are mutually exclusive"),
    ):
        if bad:
            print(problem, file=sys.stderr)
            return 2
    parsed = {}
    for flag, text, parse in (("--cc", args.cc, parse_cc),
                              ("--faults", args.faults, FaultSchedule.load),
                              ("--chaos", args.chaos, parse_chaos)):
        if text is not None:
            try:
                parsed[flag] = parse(text)
            except (OSError, ValueError) as exc:
                print(f"{flag} {text!r}: {exc}", file=sys.stderr)
                return 2
    opts = ArtifactOptions(
        p_values=None if args.p_step is None else p_sweep(args.p_step / 100.0),
        p=None if args.p is None else args.p / 100.0,
        quick=args.quick,
        cc_config=parsed.get("--cc"),
        faults=parsed.get("--faults", parsed.get("--chaos")),
        transport=TransportConfig() if args.transport else None,
        chart=args.chart,
        out_dir=args.out_dir,
    )
    try:
        result, results = run_artifact(
            args.artifact, SCALES[args.scale], seed=args.seed, opts=opts,
            jobs=args.jobs,
            cache=cache,
            timeout_s=args.timeout_s,
            max_rss_mb=args.max_rss_mb,
            # Live progress goes to stderr so stdout stays a clean table.
            progress=ProgressReporter(stream=sys.stderr) if args.jobs > 1 else None,
            manifest_path=args.manifest,
            run_fn=TracedRun(TraceSpec(jsonl_dir=args.trace_dir)) if args.trace else None,
            resume_from=args.resume,
            retry_failed=args.retry_failed,
        )
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(result.render(opts))
    if args.recovery_stats is not None:
        _write_recovery_stats(args.recovery_stats, results)
        print(f"recovery stats written to {args.recovery_stats}",
              file=sys.stderr)
    if args.trace and _trace_report(results, sys.stderr):
        print("trace audit FAILED: invariant violations detected",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
