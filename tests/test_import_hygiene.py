"""What ``import repro`` may load.

Every campaign worker, every CLI call and every benchmark child pays
``import repro`` before its first event, so the heavy optional
libraries must stay out of it. Each case runs in a fresh interpreter:
``sys.modules`` of the test process proves nothing.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
HEAVY = ("numpy", "networkx", "scipy", "matplotlib")

REPORT = (
    "import sys; "
    f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
)


# ``python -m repro serve --help``; it exits through SystemExit after
# argparse printed.
SERVE_HELP = (
    "import contextlib, io, runpy, sys\n"
    "sys.argv = ['repro', 'serve', '--help']\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.suppress(SystemExit):\n"
    "    runpy.run_module('repro', run_name='__main__')"
)


def run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *args], env=env, text=True,
        capture_output=True, timeout=120, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("statement", [
    "import repro",
    "from repro.experiments.runner import run_experiment",
    SERVE_HELP,
])
def test_heavy_libraries_stay_unloaded(statement):
    out = run_python("-c", statement + "\n" + REPORT)
    assert out.strip().splitlines()[-1] == "[]"


ARTIFACT_MODULES = tuple(
    f"repro.experiments.{name}"
    for name in ("table2", "windy", "moving", "fault_scenarios", "arena")
)


def test_serve_loads_no_artifact_module():
    # The daemon and its workers simulate cells, not paper artifacts:
    # the CLI hands ``serve`` off before it imports any of them.
    out = run_python("-c", (
        SERVE_HELP + "\n"
        f"print(sorted(m for m in {ARTIFACT_MODULES!r} if m in sys.modules))"
    ))
    assert out.strip().splitlines()[-1] == "[]"


def test_a_traced_cc_transport_run_leaves_numpy_unloaded():
    # RNG streams are pure Python: seeding, traffic, hotspot moves,
    # transport jitter and the trace layer draw without numpy.
    out = run_python("-c", (
        "import sys\n"
        "from repro.experiments.config import ExperimentConfig, ScaleProfile\n"
        "from repro.experiments.runner import run_experiment\n"
        "from repro.transport.config import TransportConfig\n"
        "scale = ScaleProfile(name='micro', radix=4, n_hotspots=2,\n"
        "    sim_time_ns=1e6, warmup_ns=0.5e6, cct_slope=0.5,\n"
        "    moving_sim_time_ns=1e6, moving_lifetimes_ns=(0.25e6,),\n"
        "    marking_rate=3)\n"
        "cfg = ExperimentConfig(scale=scale, cc=True, b_fraction=0.5,\n"
        "    hotspot_lifetime_ns=0.25e6, transport=TransportConfig())\n"
        "res = run_experiment(cfg, trace=True)\n"
        "assert res.trace_records > 0 and not res.trace_violations\n"
        + REPORT
    ))
    assert out.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("use", [
    "from repro.traffic.bursty import BurstySource\n"
    "BurstySource(0, 4, 0.0, RngRegistry(1).stream('g'))\n",
    "from repro.faults import ChaosSpec, chaos_schedule\n"
    "from repro.topology import three_stage_fat_tree\n"
    "chaos_schedule(ChaosSpec(seed=3, link_flap=1.0),\n"
    "               topology=three_stage_fat_tree(4), sim_time_ns=4e6)\n",
])
def test_handed_off_draws_load_numpy_on_first_use(use):
    # Exponential and Poisson draws go through numpy's Generator.
    out = run_python("-c", (
        "import sys\n"
        "from repro.engine import RngRegistry\n"
        "assert 'numpy' not in sys.modules\n"
        + use +
        "print('numpy' in sys.modules)\n"
    ))
    assert out.strip() == "True"


def test_topology_from_graph_loads_networkx_on_first_use():
    out = run_python("-c", (
        "import sys, repro\n"
        "assert 'networkx' not in sys.modules\n"
        "import networkx as nx\n"
        "g = nx.Graph()\n"
        "g.add_edge(('h', 0), ('s', 0))\n"
        "g.add_edge(('s', 0), ('s', 1))\n"
        "g.add_edge(('s', 1), ('h', 1))\n"
        "t = repro.topology_from_graph(g)\n"
        "assert 'networkx' in sys.modules\n"
        "print(t.n_hosts, t.name, t.lfts,\n"
        "      [(s.switch_id, s.n_ports) for s in t.switches],\n"
        "      [(h.host_id, h.switch_id, h.switch_port) for h in t.host_links],\n"
        "      [(l.switch_a, l.port_a, l.switch_b, l.port_b)\n"
        "       for l in t.switch_links])\n"
    ))
    # h0 - s0 - s1 - h1, as converted before the import moved.
    assert out.strip() == (
        "2 graph [[0, 1], [1, 0]] [(0, 2), (1, 2)] "
        "[(0, 0, 0), (1, 1, 0)] [(0, 1, 1, 1)]"
    )
