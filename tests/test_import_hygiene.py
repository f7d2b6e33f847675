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
HEAVY = ("networkx", "scipy", "matplotlib")

REPORT = (
    "import sys; "
    f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
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
    # ``serve --help`` exits through SystemExit after argparse printed.
    "import contextlib, io, runpy, sys\n"
    "sys.argv = ['repro', 'serve', '--help']\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.suppress(SystemExit):\n"
    "    runpy.run_module('repro', run_name='__main__')",
])
def test_heavy_libraries_stay_unloaded(statement):
    out = run_python("-c", statement + "\n" + REPORT)
    assert out.strip().splitlines()[-1] == "[]"


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
