"""simlint (repro.lint): fixture-driven rule tests + integration.

Every rule gets a triggering snippet, a clean snippet, and a pragma
suppression; the cross-reference rules (KEY001/TRC001) additionally
get sandbox copies of the *real* source files with a seeded defect, so
the acceptance property — "deleting a field from the config_key chain
makes KEY001 fail" — is demonstrated against the shipped code, not a
toy fixture.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main
from repro.lint import (
    RULES,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    all_rule_ids,
    run_lint,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def lint_tree(tmp_path, files, rules=None):
    """Write fixture ``{relpath: source}`` under tmp_path and lint it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], rules=rules)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# registry


def test_registry_has_the_documented_rules():
    assert set(all_rule_ids()) >= {
        "DET001", "DET002", "DET003", "DET004", "KEY001", "TRC001", "IMP001",
        "ERR001",
    }
    for rule in RULES.values():
        assert rule.summary
        assert rule.severity in (SEV_ERROR, SEV_WARNING, SEV_INFO)


def test_unknown_rule_selection_raises():
    with pytest.raises(KeyError):
        run_lint([str(SRC)], rules=["NOPE999"])


# ---------------------------------------------------------------------------
# DET001 — raw randomness


def test_det001_fires_on_stdlib_random(tmp_path):
    report = lint_tree(tmp_path, {
        "engine/gen.py": """\
            import random

            def jitter():
                return random.random()
            """,
    }, rules=["DET001"])
    assert rule_ids(report) == ["DET001"]
    assert report.findings[0].severity == SEV_ERROR
    assert "random.random" in report.findings[0].message


def test_det001_fires_on_numpy_convenience_and_generator(tmp_path):
    report = lint_tree(tmp_path, {
        "network/noise.py": """\
            import numpy as np

            def draw():
                gen = np.random.Generator(np.random.PCG64(1))
                return np.random.uniform(), gen
            """,
    }, rules=["DET001"])
    msgs = [f.message for f in report.findings]
    assert len(msgs) == 2
    assert any("numpy.random.Generator" in m for m in msgs)
    assert any("numpy.random.uniform" in m for m in msgs)


def test_det001_clean_on_seed_machinery_and_registry_streams(tmp_path):
    report = lint_tree(tmp_path, {
        "core/ok.py": """\
            import numpy as np

            def seeds(master):
                return np.random.SeedSequence([master, 1])

            def draw(registry, node):
                return registry.stream("gen", node).random()
            """,
    }, rules=["DET001"])
    assert report.findings == []


def test_det001_ignores_non_sim_critical_packages(tmp_path):
    report = lint_tree(tmp_path, {
        "tools/gen.py": "import random\n\nX = random.random()\n",
    }, rules=["DET001"])
    assert report.findings == []


def test_det001_line_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "engine/gen.py": """\
            import random

            def jitter():
                # Seeded upstream; documented exception.
                return random.random()  # simlint: disable=DET001
            """,
    }, rules=["DET001"])
    assert report.findings == []


def test_det001_aliased_import_is_still_caught(tmp_path):
    report = lint_tree(tmp_path, {
        "faults/sneaky.py": """\
            from random import random as totally_deterministic

            def f():
                return totally_deterministic()
            """,
    }, rules=["DET001"])
    assert rule_ids(report) == ["DET001"]


# ---------------------------------------------------------------------------
# DET002 — wall clock


def test_det002_fires_on_event_path_clock_reads(tmp_path):
    report = lint_tree(tmp_path, {
        "network/slow.py": """\
            import time
            from time import perf_counter as clock

            def handle(ev):
                started = clock()
                ev.t = time.time()
                return started
            """,
    }, rules=["DET002"])
    msgs = [f.message for f in report.findings]
    assert len(msgs) == 2
    assert any("time.perf_counter" in m for m in msgs)
    assert any("time.time" in m for m in msgs)


def test_det002_allows_telemetry_packages(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/telemetry.py": """\
            import time

            def stamp():
                return time.perf_counter()
            """,
    }, rules=["DET002"])
    assert report.findings == []


def test_det002_file_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "core/bench.py": """\
            # In-module microbenchmark harness, never on the event path.
            # simlint: disable-file=DET002
            import time

            def bench(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
            """,
    }, rules=["DET002"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# DET003 — unordered iteration


def test_det003_fires_on_set_and_keys_iteration(tmp_path):
    report = lint_tree(tmp_path, {
        "core/handlers.py": """\
            def drain(pending, tbl):
                for p in set(pending):
                    p.fire()
                for k in tbl.keys():
                    tbl[k] += 1
            """,
    }, rules=["DET003"])
    assert rule_ids(report) == ["DET003", "DET003"]
    assert all(f.severity == SEV_WARNING for f in report.findings)


def test_det003_fires_on_set_valued_names_and_comprehensions(tmp_path):
    report = lint_tree(tmp_path, {
        "traffic/pick.py": """\
            def pick(items):
                live = set(items)
                out = [x for x in live]
                return out
            """,
    }, rules=["DET003"])
    assert rule_ids(report) == ["DET003"]
    assert "live" in report.findings[0].message


def test_det003_clean_when_sorted_pins_the_order(tmp_path):
    report = lint_tree(tmp_path, {
        "core/handlers.py": """\
            def drain(pending, tbl):
                for p in sorted(set(pending)):
                    p.fire()
                for k in sorted(tbl.keys()):
                    tbl[k] += 1
                for k, v in tbl.items():
                    pass
                for lit in {"a": 1}.keys():
                    pass
            """,
    }, rules=["DET003"])
    assert report.findings == []


def test_det003_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "core/handlers.py": """\
            def drain(pending):
                for p in set(pending):  # simlint: disable=DET003
                    p.fire()
            """,
    }, rules=["DET003"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# DET004 — unordered float accumulation


def test_det004_fires_on_sum_over_sets(tmp_path):
    report = lint_tree(tmp_path, {
        "metrics/agg.py": """\
            def total(samples):
                return sum(set(samples))

            def weighted(samples):
                return sum(v * 0.5 for v in set(samples))
            """,
    }, rules=["DET004"])
    assert rule_ids(report) == ["DET004", "DET004"]


def test_det004_clean_on_ordered_iterables(tmp_path):
    report = lint_tree(tmp_path, {
        "metrics/agg.py": """\
            def total(samples):
                return sum(sorted(set(samples)))

            def plain(values):
                return sum(values) + sum(v * 2 for v in values)
            """,
    }, rules=["DET004"])
    assert report.findings == []


def test_det004_only_applies_to_metrics_and_core(tmp_path):
    report = lint_tree(tmp_path, {
        "experiments/agg.py": "def f(xs):\n    return sum(set(xs))\n",
    }, rules=["DET004"])
    assert report.findings == []


def test_det004_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "metrics/agg.py": """\
            def total(samples):
                return sum(set(samples))  # simlint: disable=DET004
            """,
    }, rules=["DET004"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# KEY001 — store-key drift


def test_key001_fires_on_handwritten_serializer_missing_a_field(tmp_path):
    report = lint_tree(tmp_path, {
        "config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TransportConfig:
                window_packets: int = 32
                jitter_frac: float = 0.1
            """,
        "store.py": """\
            def transport_to_dict(cfg):
                return {"window_packets": cfg.window_packets}
            """,
    }, rules=["KEY001"])
    assert rule_ids(report) == ["KEY001"]
    assert "TransportConfig.jitter_frac" in report.findings[0].message


def test_key001_fires_on_asdict_pop_without_readd(tmp_path):
    report = lint_tree(tmp_path, {
        "config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ExperimentConfig:
                cc: bool = True
                seed: int = 7
            """,
        "store.py": """\
            import dataclasses

            def config_to_dict(cfg):
                out = dataclasses.asdict(cfg)
                out.pop("seed", None)
                return out

            def config_key(cfg):
                import hashlib, json
                blob = json.dumps(config_to_dict(cfg), sort_keys=True)
                return hashlib.sha256(blob.encode()).hexdigest()[:16]
            """,
    }, rules=["KEY001"])
    assert rule_ids(report) == ["KEY001"]
    assert "ExperimentConfig.seed" in report.findings[0].message


def test_key001_fires_when_config_key_skips_config_to_dict(tmp_path):
    report = lint_tree(tmp_path, {
        "store.py": """\
            def config_to_dict(cfg):
                import dataclasses
                return dataclasses.asdict(cfg)

            def config_key(cfg):
                return str(hash(cfg))
            """,
    }, rules=["KEY001"])
    assert rule_ids(report) == ["KEY001"]
    assert "config_key" in report.findings[0].message


def test_key001_clean_on_complete_serializers(tmp_path):
    report = lint_tree(tmp_path, {
        "config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TransportConfig:
                window_packets: int = 32
                jitter_frac: float = 0.1
            """,
        "store.py": """\
            def transport_to_dict(cfg):
                return {
                    "window_packets": cfg.window_packets,
                    "jitter_frac": cfg.jitter_frac,
                }
            """,
    }, rules=["KEY001"])
    assert report.findings == []


def test_key001_fires_on_cc_config_missing_params(tmp_path):
    report = lint_tree(tmp_path, {
        "cc/config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CCConfig:
                mechanism: str = "ib"
                params: tuple = ()

            def cc_config_to_dict(cc):
                return {"mechanism": cc.mechanism}
            """,
    }, rules=["KEY001"])
    assert rule_ids(report) == ["KEY001"]
    assert "CCConfig.params" in report.findings[0].message


def test_key001_clean_on_complete_cc_config_serializer(tmp_path):
    report = lint_tree(tmp_path, {
        "cc/config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CCConfig:
                mechanism: str = "ib"
                params: tuple = ()

            def cc_config_to_dict(cc):
                return {
                    "mechanism": cc.mechanism,
                    "params": dict(cc.params),
                }
            """,
    }, rules=["KEY001"])
    assert report.findings == []


def test_key001_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TransportConfig:
                window_packets: int = 32
                debug_label: str = ""
            """,
        "store.py": """\
            def transport_to_dict(cfg):  # simlint: disable=KEY001
                # debug_label is display-only, deliberately keyless.
                return {"window_packets": cfg.window_packets}
            """,
    }, rules=["KEY001"])
    assert report.findings == []


# -- the acceptance property, against the real shipped sources ---------


REAL_KEY_FILES = (
    "repro/experiments/config.py",
    "repro/experiments/store.py",
    "repro/faults/spec.py",
    "repro/transport/config.py",
    "repro/cc/config.py",
)


def _copy_real(tmp_path, rels):
    for rel in rels:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(SRC / rel, dst)
    return tmp_path


def test_key001_clean_on_shipped_store_chain(tmp_path):
    sandbox = _copy_real(tmp_path, REAL_KEY_FILES)
    report = run_lint([str(sandbox)], rules=["KEY001"])
    assert report.findings == []


def test_key001_catches_field_deleted_from_real_config_key(tmp_path):
    """Dropping a field from the config_key chain must fail the lint."""
    sandbox = _copy_real(tmp_path, REAL_KEY_FILES)
    store = sandbox / "repro/experiments/store.py"
    text = store.read_text()
    marker = 'out.pop("faults", None)'
    assert marker in text
    store.write_text(
        text.replace(marker, marker + '\n    out.pop("seed", None)')
    )
    report = run_lint([str(sandbox)], rules=["KEY001"])
    assert [f.rule for f in report.findings] == ["KEY001"]
    assert "ExperimentConfig.seed" in report.findings[0].message


def test_key001_catches_new_unserialized_transport_field(tmp_path):
    """A new dataclass field that never reaches the serializer fails."""
    sandbox = _copy_real(tmp_path, REAL_KEY_FILES)
    cfg = sandbox / "repro/transport/config.py"
    text = cfg.read_text()
    marker = "    jitter_frac: float = 0.1"
    assert marker in text
    cfg.write_text(
        text.replace(marker, marker + "\n    brand_new_knob: int = 0")
    )
    report = run_lint([str(sandbox)], rules=["KEY001"])
    assert [f.rule for f in report.findings] == ["KEY001"]
    assert "TransportConfig.brand_new_knob" in report.findings[0].message


# ---------------------------------------------------------------------------
# TRC001 — trace-event coverage


TRC_FIXTURE = {
    "records.py": """\
        EV_A = "a"
        EV_B = "b"

        ALL_EVENTS = (EV_A, EV_B)
        """,
    "tracer.py": """\
        from records import EV_A, EV_B

        class Tracer:
            def a(self, t):
                self.emit((EV_A, t))

            def b(self, t):
                self.emit((EV_B, t))
        """,
    "auditor.py": """\
        from records import EV_A, EV_B

        class TraceAuditor:
            def observe(self, rec):
                if rec[0] == EV_A:
                    pass
                elif rec[0] == EV_B:
                    pass
        """,
}


def test_trc001_clean_on_fully_wired_events(tmp_path):
    report = lint_tree(tmp_path, dict(TRC_FIXTURE), rules=["TRC001"])
    assert report.findings == []


def test_trc001_fires_on_each_coverage_hole(tmp_path):
    fixture = dict(TRC_FIXTURE)
    fixture["records.py"] = """\
        EV_A = "a"
        EV_B = "b"
        EV_C = "c"

        ALL_EVENTS = (EV_A, EV_B)
        """
    report = lint_tree(tmp_path, fixture, rules=["TRC001"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 3
    assert any("not listed in ALL_EVENTS" in m and "EV_C" in m for m in messages)
    assert any("no Tracer hook" in m and "EV_C" in m for m in messages)
    assert any("no handler" in m and "EV_C" in m for m in messages)


def test_trc001_catches_handler_removed_from_real_auditor(tmp_path):
    """Un-wiring EV_TIMER from the shipped auditor must fail the lint."""
    rels = ("repro/trace/records.py", "repro/trace/tracer.py",
            "repro/trace/auditor.py")
    sandbox = _copy_real(tmp_path, rels)
    auditor = sandbox / "repro/trace/auditor.py"
    text = auditor.read_text()
    marker = "(EV_CNP, EV_FECN, EV_TIMER, EV_END)"
    assert marker in text
    auditor.write_text(text.replace(marker, "(EV_CNP, EV_FECN, EV_END)"))
    report = run_lint([str(sandbox)], rules=["TRC001"])
    assert [f.rule for f in report.findings] == ["TRC001"]
    assert "EV_TIMER" in report.findings[0].message


def test_trc001_real_trace_package_is_clean():
    report = run_lint([str(SRC / "repro/trace")], rules=["TRC001"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# IMP001 — unused imports


def test_imp001_fires_on_unused_imports(tmp_path):
    report = lint_tree(tmp_path, {
        "experiments/driver.py": """\
            import os
            from typing import List, Optional

            def f(x: Optional[int]):
                return x
            """,
    }, rules=["IMP001"])
    assert rule_ids(report) == ["IMP001", "IMP001"]
    assert all(f.severity == SEV_INFO for f in report.findings)
    messages = " ".join(f.message for f in report.findings)
    assert "os" in messages and "List" in messages


def test_imp001_skips_init_reexports_and_future(tmp_path):
    report = lint_tree(tmp_path, {
        "pkg/__init__.py": "from pkg.mod import thing\n",
        "pkg/mod.py": "from __future__ import annotations\n\nthing = 1\n",
    }, rules=["IMP001"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# ERR001 — swallowed exceptions


def test_err001_fires_on_bare_except_and_broad_pass(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/runtime.py": """\
            def f():
                try:
                    risky()
                except:
                    cleanup()
                try:
                    risky()
                except Exception:
                    pass
                try:
                    risky()
                except (ValueError, BaseException):
                    ...
            """,
    }, rules=["ERR001"])
    assert rule_ids(report) == ["ERR001", "ERR001", "ERR001"]
    assert all(f.severity == SEV_ERROR for f in report.findings)


def test_err001_clean_on_specific_and_handled_exceptions(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/runtime.py": """\
            def f(log):
                try:
                    risky()
                except OSError:
                    pass
                try:
                    risky()
                except Exception as exc:
                    log.warning("cell failed: %s", exc)
                    raise
                try:
                    risky()
                except Exception:
                    return None
            """,
    }, rules=["ERR001"])
    assert report.findings == []


def test_err001_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/runtime.py": """\
            def f():
                try:
                    risky()
                # last-ditch teardown guard:
                except Exception:  # simlint: disable=ERR001
                    pass
            """,
    }, rules=["ERR001"])
    assert report.findings == []


def test_err001_shipped_tree_is_clean():
    report = run_lint([str(SRC / "repro")], rules=["ERR001"])
    assert report.findings == [], report.format()


# ---------------------------------------------------------------------------
# ERR002 — dropped asyncio task handles (serve packages)


def test_err002_fires_on_dropped_create_task(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import asyncio

            async def f(loop):
                asyncio.create_task(pump())
                loop.create_task(pump())
                asyncio.ensure_future(pump())
            """,
    }, rules=["ERR002"])
    assert rule_ids(report) == ["ERR002", "ERR002", "ERR002"]
    assert all(f.severity == SEV_ERROR for f in report.findings)


def test_err002_clean_on_kept_awaited_or_collected_handles(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import asyncio

            async def f(tasks):
                t = asyncio.create_task(pump())
                tasks.append(asyncio.create_task(pump()))
                await asyncio.create_task(pump())
                return t
            """,
    }, rules=["ERR002"])
    assert report.findings == []


def test_err002_only_scopes_async_packages(tmp_path):
    # Outside the serve packages the rule stays silent — batch drivers
    # have no event loop whose weak references could drop a task.
    report = lint_tree(tmp_path, {
        "parallel/driver.py": """\
            import asyncio

            async def f():
                asyncio.create_task(pump())
            """,
    }, rules=["ERR002"])
    assert report.findings == []


def test_err002_pragma_suppresses(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import asyncio

            async def f():
                # deliberate fire-and-forget: loop lifetime exceeds task
                asyncio.create_task(pump())  # simlint: disable=ERR002
            """,
    }, rules=["ERR002"])
    assert report.findings == []


def test_err002_shipped_serve_tree_is_clean():
    report = run_lint([str(SRC / "repro" / "serve")], rules=["ERR002"])
    assert report.findings == [], report.format()


# ---------------------------------------------------------------------------
# engine behavior


def test_parse_error_is_a_finding_not_a_crash(tmp_path):
    report = lint_tree(tmp_path, {"engine/broken.py": "def f(:\n    pass\n"})
    assert [f.rule for f in report.findings] == ["PARSE001"]
    assert report.exit_code() == 1


def test_exit_code_policy(tmp_path):
    warn_only = lint_tree(tmp_path, {
        "core/handlers.py": "def f(s):\n    for x in set(s):\n        pass\n",
    }, rules=["DET003"])
    assert warn_only.exit_code() == 0
    assert warn_only.exit_code(strict=True) == 1


def test_json_report_schema(tmp_path):
    report = lint_tree(tmp_path, {
        "engine/gen.py": "import random\nX = random.random()\n",
    }, rules=["DET001"])
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["version"] == 2
    assert data["files_checked"] == 1
    assert data["rules_run"] == ["DET001"]
    assert data["summary"] == {
        "errors": 1, "warnings": 0, "info": 0,
        "baselined": 0, "out_of_scope": 0,
    }
    (finding,) = data["findings"]
    assert set(finding) == {
        "rule", "severity", "path", "line", "col", "message", "fingerprint",
    }
    assert finding["fingerprint"]
    assert finding["rule"] == "DET001"
    assert finding["line"] == 2


def test_findings_are_sorted_and_deterministic(tmp_path):
    files = {
        "engine/b.py": "import random\nX = random.random()\nY = random.random()\n",
        "engine/a.py": "import random\nZ = random.random()\n",
    }
    first = lint_tree(tmp_path / "one", dict(files))
    second = lint_tree(tmp_path / "two", dict(files))
    assert [f.sort_key[1:] for f in first.findings] == \
        [f.sort_key[1:] for f in second.findings]
    paths = [f.path for f in first.findings]
    assert paths == sorted(paths)


# ---------------------------------------------------------------------------
# CLI + integration


def test_cli_lint_shipped_tree_is_clean(capsys):
    assert cli_main(["lint", str(SRC), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_cli_lint_fails_on_seeded_defect(tmp_path, capsys):
    bad = tmp_path / "engine" / "gen.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nX = random.random()\n")
    assert cli_main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_cli_lint_json_and_artifact(tmp_path, capsys):
    out_file = tmp_path / "findings.json"
    code = cli_main([
        "lint", str(SRC / "repro" / "lint"), "--json",
        "--json-out", str(out_file),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["summary"]["errors"] == 0
    assert json.loads(out_file.read_text())["version"] == 2


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("DET001", "DET002", "DET003", "DET004", "KEY001", "TRC001"):
        assert rid in out


def test_cli_lint_rejects_unknown_rule_and_missing_path(tmp_path, capsys):
    assert cli_main(["lint", "--rule", "NOPE999", str(SRC)]) == 2
    assert cli_main(["lint", str(tmp_path / "missing")]) == 2


@pytest.mark.slow
def test_module_entrypoint_lint_runs_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC)],
        capture_output=True, text=True,
        cwd=str(SRC.parent),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
