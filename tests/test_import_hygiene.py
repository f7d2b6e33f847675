"""What ``import repro`` may load.

Every campaign worker, every CLI call and every benchmark child pays
``import repro`` before its first event, so the heavy optional
libraries must stay out of it. Each case runs in a fresh interpreter:
``sys.modules`` of the test process proves nothing.
"""

import os
import subprocess
import sys

import numpy as np
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
    # CCManager looks mechanisms up in repro.cc, which imports HcaCC
    # from repro.core: either package imported first must resolve.
    "import repro.core",
    "import repro.cc",
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


def test_the_runtime_runs_with_numpy_and_networkx_blocked():
    # A None in sys.modules makes ``import numpy`` raise: a chaos cell
    # with CC, transport and trace, and the latency reductions, must
    # not need either library.
    samples = {0: [3.0, 1.0, 2.0], 1: [10.0, 7.5]}
    out = run_python("-c", (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['networkx'] = None\n"
        "from repro.experiments.config import ExperimentConfig, ScaleProfile\n"
        "from repro.experiments.runner import run_experiment\n"
        "from repro.faults import ChaosSpec\n"
        "from repro.metrics import LatencyTracker\n"
        "from repro.transport.config import TransportConfig\n"
        "scale = ScaleProfile(name='micro', radix=4, n_hotspots=2,\n"
        "    sim_time_ns=1e6, warmup_ns=0.5e6, cct_slope=0.5,\n"
        "    moving_sim_time_ns=1e6, moving_lifetimes_ns=(0.25e6,),\n"
        "    marking_rate=3)\n"
        "chaos = ChaosSpec(seed=7, link_flap=3.0, degrade=2.0, cnp_drop=3.0,\n"
        "    timer_freeze=2.0, switch_pause=1.0)\n"
        "cfg = ExperimentConfig(scale=scale, cc=True, b_fraction=0.5,\n"
        "    transport=TransportConfig(), faults=chaos)\n"
        "res = run_experiment(cfg, trace=True)\n"
        "assert res.fault_onsets > 0 and res.trace_records > 0\n"
        "assert not res.trace_violations\n"
        "tracker = LatencyTracker(None)\n"
        f"tracker.samples_ns = {samples!r}\n"
        "print(sorted(tracker.percentiles(qs=(0.0, 50.0, 99.0)).values()),\n"
        "      tracker.mean_ns())\n"
    ))
    pooled = [v for pool in samples.values() for v in pool]
    expected = [float(np.percentile(pooled, q)) for q in (0.0, 50.0, 99.0)]
    assert out.strip() == f"{expected} {float(np.mean(pooled))}"
