"""Determinism checked by running it: sentinel, differential, mutants.

The checks and the mutant table live in ``tests/determinism.py``;
EXPERIMENTS.md "The determinism contract" prints the table.
"""

from __future__ import annotations

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Simulator
from repro.experiments.runner import run_experiment
from repro.lint import run_lint
from repro.lint.project import DEFAULT_CONFIG
from repro.parallel import run_campaign
from tests.determinism import (
    CELLS,
    CLOCKS,
    KILLS,
    MUTANTS,
    RANDOM_DRAWS,
    HostStateRead,
    apply_mutant,
    patch_tree,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ---------------------------------------------------------------------------
# (a) the sentinel


# Lambdas: the module attributes are looked up when the event fires,
# after the session fixture installed the guards.
@pytest.mark.parametrize("read", [
    lambda: time.time(), lambda: time.monotonic(),
    lambda: time.perf_counter_ns(), lambda: random.random(),
    lambda: os.environ.get("HOME"), lambda: os.getenv("HOME"),
    lambda: "HOME" in os.environ,
], ids=["time", "monotonic", "perf_counter_ns", "random", "environ.get",
        "getenv", "in-environ"])
def test_host_state_read_inside_run_raises(sim, read):
    sim.schedule(1.0, read)
    with pytest.raises(HostStateRead):
        sim.run()
    time.time()
    os.environ.get("HOME")  # outside the run: allowed again


def test_other_threads_keep_their_clocks(sim):
    seen = []

    def off_thread():
        worker = threading.Thread(target=lambda: seen.append(time.monotonic()))
        worker.start()
        worker.join()

    sim.schedule(1.0, off_thread)
    sim.run()
    assert len(seen) == 1


def _clock_in_run(cfg):
    sim = Simulator()
    sim.schedule(1.0, time.time)
    sim.run()
    return cfg


def test_forked_workers_run_under_the_sentinel():
    result = run_campaign(
        [{"cell": i} for i in range(2)], jobs=2, oversubscribe=True,
        run_fn=_clock_in_run,
    )
    assert [o.status for o in result.outcomes] == ["failed", "failed"]
    assert all("HostStateRead" in o.error for o in result.outcomes)


def test_simulated_packages_bind_no_host_state_names():
    """``from time import time`` would dodge the sentinel's patching;
    the simulated packages (simlint's sim-critical zone) must reach
    host clocks and stdlib ``random`` through their modules."""
    banned = {"time": set(CLOCKS), "random": set(RANDOM_DRAWS)}
    bound = []
    for pkg in sorted(DEFAULT_CONFIG.sim_critical):
        for path in sorted((SRC / "repro" / pkg).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in banned:
                    bound += [
                        f"{path.relative_to(SRC)}:{node.lineno} {a.name}"
                        for a in node.names
                        if a.name in banned[node.module] or a.name == "*"
                    ]
    assert bound == []


# ---------------------------------------------------------------------------
# (b) the hash-seed differential


@pytest.fixture(scope="module")
def hashseed_digests():
    """Digests of CELLS, clean and under every mutant, per hash seed.

    The two interpreters run concurrently; object addresses differ
    between them too, so id()-keyed order shows as well.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-m", "tests.determinism",
             *(m.name for m in MUTANTS)],
            cwd=ROOT, env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    }
    out = {}
    for seed, proc in procs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        out[seed] = json.loads(stdout)
    return out


def test_hash_seed_differential(hashseed_digests):
    clean = [hashseed_digests[seed]["clean"] for seed in ("0", "1")]
    assert clean[0] == clean[1]
    assert not any(d.startswith("raised") for d in clean[0].values())


# ---------------------------------------------------------------------------
# (c) the mutant table


def test_every_mutant_is_killed():
    assert sorted(KILLS) == sorted(m.name for m in MUTANTS)
    survivors = [name for name, (rules, sentinel, differential)
                 in KILLS.items() if not (rules or sentinel or differential)]
    assert survivors == []


def test_mutant_table_sentinel_column():
    cell = CELLS["chaos-rc"]  # runs every mutated function
    killed = {}
    for m in MUTANTS:
        with pytest.MonkeyPatch.context() as mp:
            apply_mutant(m, mp)
            try:
                run_experiment(cell)
                killed[m.name] = False
            except HostStateRead:
                killed[m.name] = True
    assert killed == {name: row[1] for name, row in KILLS.items()}


def test_mutant_table_differential_column(hashseed_digests):
    runs = hashseed_digests
    expected = {name: row[2] for name, row in KILLS.items()
                if row[2] is not None}
    killed = {name: runs["0"][name] != runs["1"][name] for name in expected}
    assert killed == expected


def test_mutant_table_simlint_column(tmp_path):
    """Every mutant patched into one copy of ``src/``, one lint run."""
    shutil.copytree(SRC / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spans = patch_tree(tmp_path / "src")
    report = run_lint([str(tmp_path / "src")])
    killed = {name: set() for name in spans}
    for finding in report.findings:
        owners = [name for name, where in spans.items()
                  if any(finding.path == path and finding.line in lines
                         for path, lines in where)]
        assert owners, f"finding outside every mutant: {finding.format()}"
        for name in owners:
            killed[name].add(finding.rule)
    assert killed == {name: set(row[0]) for name, row in KILLS.items()}
