"""simlint whole-program analysis: call graph, taint, concurrency.

A ``time.time()`` helper *outside* the sim-critical zone, imported and
called from ``engine``, is caught (DET102) — including when the
injection is made into a sandboxed copy of the real shipped tree — and
the shipped tree lints clean with no baseline of accepted findings.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main
from repro.lint import (
    LintPathError,
    all_rule_ids,
    iter_python_files,
    run_lint,
)
from repro.lint.callgraph import (
    KIND_CALL,
    KIND_REF,
    KIND_SCHEDULED,
    build_callgraph,
)
from repro.lint.engine import _load_file, _walk_with_roots
from repro.lint.project import Project

SRC = Path(__file__).resolve().parent.parent / "src"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def project_of(tmp_path, files):
    """Build a Project (and nothing else) from a fixture tree."""
    write_tree(tmp_path, files)
    pairs = _walk_with_roots([str(tmp_path)])
    return Project(files=[_load_file(p, r) for p, r in pairs])


def lint_tree(tmp_path, files, rules=None, **kwargs):
    write_tree(tmp_path, files)
    return run_lint([str(tmp_path)], rules=rules, **kwargs)


def rule_ids(report):
    return [f.rule for f in report.findings]


def edges(graph, qual, kind=KIND_CALL):
    return [s.callee for s in graph.calls.get(qual, ()) if s.kind == kind]


# ---------------------------------------------------------------------------
# call graph: symbol resolution


def test_callgraph_resolves_from_import(tmp_path):
    project = project_of(tmp_path, {
        "engine/util.py": "def helper():\n    return 1\n",
        "engine/sim.py": """\
            from engine.util import helper

            def go():
                return helper()
            """,
    })
    graph = build_callgraph(project)
    assert edges(graph, "engine.sim.go") == ["engine.util.helper"]


def test_callgraph_resolves_aliased_module_import(tmp_path):
    project = project_of(tmp_path, {
        "engine/util.py": "def helper():\n    return 1\n",
        "engine/sim.py": """\
            import engine.util as u

            def go():
                return u.helper()
            """,
    })
    graph = build_callgraph(project)
    assert edges(graph, "engine.sim.go") == ["engine.util.helper"]


def test_callgraph_resolves_module_level_alias(tmp_path):
    project = project_of(tmp_path, {
        "engine/util.py": "def helper():\n    return 1\n",
        "engine/sim.py": """\
            from engine.util import helper as h

            fast = h

            def go():
                return fast()
            """,
    })
    graph = build_callgraph(project)
    assert edges(graph, "engine.sim.go") == ["engine.util.helper"]


def test_callgraph_resolves_self_methods_and_inheritance(tmp_path):
    project = project_of(tmp_path, {
        "engine/sim.py": """\
            class Base:
                def helper(self):
                    return 1

            class Sim(Base):
                def run(self):
                    return self.helper()
            """,
    })
    graph = build_callgraph(project)
    assert edges(graph, "engine.sim.Sim.run") == ["engine.sim.Base.helper"]


def test_callgraph_cycles_terminate(tmp_path):
    project = project_of(tmp_path, {
        "engine/sim.py": """\
            def a(n):
                return b(n - 1)

            def b(n):
                return a(n - 1) if n else 0
            """,
    })
    graph = build_callgraph(project)
    reach = graph.reachable({"engine.sim.a"})
    assert reach == {"engine.sim.a", "engine.sim.b"}
    assert graph.chain("engine.sim.a", {"engine.sim.b"}) == [
        "engine.sim.a", "engine.sim.b",
    ]


def test_callgraph_records_scheduled_refs(tmp_path):
    project = project_of(tmp_path, {
        "engine/sim.py": """\
            class Hca:
                def arm(self, sim):
                    sim.schedule(10, self._on_event)

                def _on_event(self):
                    pass
            """,
    })
    graph = build_callgraph(project)
    assert edges(graph, "engine.sim.Hca.arm", KIND_SCHEDULED) == [
        "engine.sim.Hca._on_event",
    ]


# ---------------------------------------------------------------------------
# DET1xx interprocedural taint


def test_det102_catches_cross_file_wallclock_helper(tmp_path):
    """The DET002 blind spot: the read lives outside the sim zone."""
    report = lint_tree(tmp_path, {
        "util/clock.py": """\
            import time

            def now_ms():
                return int(time.time() * 1000)
            """,
        "engine/core.py": """\
            from util.clock import now_ms

            def stamp(ev):
                ev.t = now_ms()
            """,
    }, rules=["DET002", "DET102"])
    assert rule_ids(report) == ["DET102"]
    finding = report.findings[0]
    assert finding.path.endswith("core.py")  # flagged at the boundary
    assert "util.clock.now_ms" in finding.message
    assert "time.time" in finding.message


def test_det101_transitive_random_chain(tmp_path):
    report = lint_tree(tmp_path, {
        "util/a.py": """\
            from util.b import draw

            def pick():
                return draw()
            """,
        "util/b.py": """\
            import random

            def draw():
                return random.random()
            """,
        "engine/core.py": """\
            from util.a import pick

            def choose():
                return pick()
            """,
    }, rules=["DET101"])
    assert rule_ids(report) == ["DET101"]
    msg = report.findings[0].message
    assert "util.a.pick" in msg and "util.b.draw" in msg


def test_taint_clean_helper_is_silent(tmp_path):
    report = lint_tree(tmp_path, {
        "util/math.py": "def double(x):\n    return 2 * x\n",
        "engine/core.py": """\
            from util.math import double

            def go():
                return double(3)
            """,
    }, rules=["DET101", "DET102", "DET103"])
    assert rule_ids(report) == []


def test_det102_exempt_in_wallclock_allowed_package(tmp_path):
    report = lint_tree(tmp_path, {
        "util/clock.py": "import time\n\ndef now():\n    return time.time()\n",
        "parallel/driver.py": """\
            from util.clock import now

            def stamp():
                return now()
            """,
    }, rules=["DET102"])
    assert rule_ids(report) == []


def test_det101_taints_scheduled_callbacks(tmp_path):
    report = lint_tree(tmp_path, {
        "util/jitter.py": """\
            import random

            def wobble():
                return random.random()
            """,
        "engine/core.py": """\
            from util.jitter import wobble

            def arm(sim):
                sim.schedule(5, wobble)
            """,
    }, rules=["DET101"])
    assert rule_ids(report) == ["DET101"]


def test_det103_direct_env_read_and_next_line_pragma(tmp_path):
    dirty = lint_tree(tmp_path / "a", {
        "engine/knobs.py": """\
            import os

            def load():
                return os.environ.get("X", "")
            """,
    }, rules=["DET103"])
    assert rule_ids(dirty) == ["DET103"]
    clean = lint_tree(tmp_path / "b", {
        "engine/knobs.py": """\
            import os

            def load():
                # simlint: disable-next-line=DET103
                return os.environ.get("X", "")
            """,
    }, rules=["DET103"])
    assert rule_ids(clean) == []


def test_injected_cross_file_taint_caught_on_real_tree(tmp_path):
    """Acceptance: inject a wall-clock helper into the shipped tree."""
    sandbox = tmp_path / "src"
    shutil.copytree(SRC / "repro", sandbox / "repro")
    baseline = run_lint([str(sandbox)])
    assert not any(f.rule == "DET102" for f in baseline.findings)

    (sandbox / "repro" / "wallutil.py").write_text(textwrap.dedent("""\
        import time


        def now_ms():
            return int(time.time() * 1000)
        """))
    sim = sandbox / "repro" / "engine" / "simulator.py"
    sim.write_text(sim.read_text() + textwrap.dedent("""\


        from repro.wallutil import now_ms


        def _injected_probe():
            return now_ms()
        """))
    report = run_lint([str(sandbox)])
    hits = [f for f in report.findings if f.rule == "DET102"]
    assert len(hits) == 1
    assert hits[0].path.endswith("engine/simulator.py")
    assert "time.time" in hits[0].message


# ---------------------------------------------------------------------------
# CON0xx concurrency


def test_con001_direct_blocking_in_async(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import time

            async def handler():
                time.sleep(0.1)
                with open("/tmp/x") as fh:
                    return fh.read()
            """,
    }, rules=["CON001"])
    assert rule_ids(report) == ["CON001", "CON001"]
    assert "time.sleep" in report.findings[0].message
    assert "open" in report.findings[1].message


def test_con001_blocking_through_sync_helper(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import time

            def pause():
                time.sleep(0.1)

            async def handler():
                pause()
            """,
    }, rules=["CON001"])
    assert rule_ids(report) == ["CON001"]
    assert "serve.app.pause" in report.findings[0].message


def test_con001_executor_offload_is_sanctioned(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/app.py": """\
            import time

            def pause():
                time.sleep(0.1)

            async def handler(loop):
                await loop.run_in_executor(None, pause)
            """,
    }, rules=["CON001"])
    assert rule_ids(report) == []


def test_con002_worker_mutating_module_global(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/worker.py": """\
            CACHE = {}

            def worker_main(queue):
                CACHE["warm"] = True
                record({"i": 1})

            def record(item):
                CACHE.update(item)
            """,
    }, rules=["CON002"])
    assert rule_ids(report) == ["CON002", "CON002"]
    assert all("CACHE" in f.message for f in report.findings)


def test_con002_local_state_is_fine(tmp_path):
    report = lint_tree(tmp_path, {
        "parallel/worker.py": """\
            def worker_main(queue):
                cache = {}
                cache["warm"] = True
                return cache
            """,
    }, rules=["CON002"])
    assert rule_ids(report) == []


def test_con003_off_loop_write_to_loop_owned_state(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/exec.py": """\
            import threading

            class Service:
                async def pump(self):
                    self.jobs = 1

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self.jobs = 2
            """,
    }, rules=["CON003"])
    assert rule_ids(report) == ["CON003"]
    assert "_run" in report.findings[0].message


def test_con003_call_soon_threadsafe_is_exempt(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/exec.py": """\
            import threading

            class Service:
                async def pump(self):
                    self.jobs = 1

                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self.loop.call_soon_threadsafe(self._apply)

                def _apply(self):
                    self.jobs = 2
            """,
    }, rules=["CON003"])
    assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# path handling (iter_python_files hard errors)


def test_iter_python_files_raises_on_missing_path(tmp_path):
    with pytest.raises(LintPathError):
        iter_python_files([str(tmp_path / "nope.py")])


def test_iter_python_files_raises_on_non_py_file(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("# not python\n")
    with pytest.raises(LintPathError):
        iter_python_files([str(readme)])


def test_iter_python_files_walks_directories(tmp_path):
    write_tree(tmp_path, {"pkg/mod.py": "X = 1\n", "pkg/notes.txt": "hi\n"})
    found = iter_python_files([str(tmp_path)])
    assert [Path(p).name for p in found] == ["mod.py"]


def test_cli_exits_2_on_non_py_explicit_file(tmp_path, capsys):
    readme = tmp_path / "README.md"
    readme.write_text("# not python\n")
    assert cli_main(["lint", str(readme)]) == 2
    assert "not a Python file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the shipped-tree gate


#: The committed rule set: adding or dropping a rule is a reviewed diff.
RULE_IDS = [
    "CON001", "CON002", "CON003",
    "DET001", "DET002", "DET003", "DET004",
    "DET101", "DET102", "DET103",
    "ERR001", "ERR002",
    "IMP001", "KEY001", "TRC001",
]


def test_rule_ids_are_pinned():
    assert all_rule_ids() == RULE_IDS


def test_shipped_tree_gate_without_baseline():
    """``repro lint src/`` is clean outright: a pragma at the flagged
    line is the only way to silence a finding."""
    report = run_lint([str(SRC)])
    assert report.findings == []
    assert report.exit_code(strict=True) == 0


@pytest.mark.parametrize("flag", [
    ["--baseline", "x.json"], ["--no-baseline"], ["--update-baseline"],
    ["--changed-only", "main"],
])
def test_cli_has_no_baseline_or_changed_only_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint", *flag, str(SRC)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
