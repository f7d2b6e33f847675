"""Determinism checked by running it, and the mutants that judge it.

Three checks keep host state out of a simulation's results:

* **the sentinel** (installed for every test by ``tests/conftest.py``):
  while ``Simulator.run`` executes, host clocks, the stdlib ``random``
  module's shared generator and ``os.environ`` / ``os.getenv`` reads
  raise :class:`HostStateRead` on the simulating thread — inline and
  in forked campaign workers;
* **the hash-seed differential**: :data:`CELLS` run in two fresh
  interpreters under ``PYTHONHASHSEED=0`` and ``=1`` must give equal
  digests, which a dependence on ``str`` hash order breaks;
* **simlint's DET rules** (``python -m repro lint src/``).

:data:`MUTANTS` are seeded determinism faults. Each is one source edit
that :func:`patch_tree` applies to a copy of ``src/`` (for simlint) and
:func:`apply_mutant` applies to the live modules through
``monkeypatch`` (for the sentinel and the differential).
:data:`KILLS` records which check kills each one;
``tests/test_determinism.py`` re-measures every entry.

Run as a module it prints one JSON object mapping ``"clean"`` and each
mutant named on the command line to the digests of :data:`CELLS`::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.determinism A E
"""

from __future__ import annotations

import __future__
import hashlib
import importlib
import inspect
import json
import os
import random
import sys
import textwrap
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.engine import Simulator
from repro.experiments.config import SCALES, ExperimentConfig, ScaleProfile
from repro.experiments.runner import run_experiment
from repro.faults import ChaosSpec
from repro.transport.config import TransportConfig

# ---------------------------------------------------------------------------
# the sentinel


class HostStateRead(BaseException):
    """A simulation read a host clock, stdlib ``random`` or the environment.

    A ``BaseException``, so no ``except Exception`` on the event path or
    in the campaign runner can turn it into an ordinary cell failure.
    """


#: ``time`` functions that read a host clock.
CLOCKS = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time",
)
#: The stdlib ``random`` module's functions: bound methods of its one
#: process-wide generator, seeded from the OS unless a caller seeds it.
RANDOM_DRAWS = tuple(sorted(
    name for name, fn in vars(random).items()
    if getattr(fn, "__self__", None) is random._inst
))

#: Idents of the threads inside ``Simulator.run``.
_simulating: set = set()


def _check(what: str) -> None:
    if _simulating and threading.get_ident() in _simulating:
        raise HostStateRead(
            f"{what} on the simulating thread: a simulation reads only "
            "its config, its seeded RngRegistry streams and sim.now"
        )


def _guarded(real, what: str):
    def guard(*args, **kwargs):
        _check(what)
        return real(*args, **kwargs)

    return guard


class _GuardedEnviron(type(os.environ)):  # type: ignore[misc]
    """``os.environ``'s class while the sentinel is installed."""

    def __getitem__(self, key):
        _check("os.environ read")
        return super().__getitem__(key)

    def __iter__(self):
        _check("os.environ read")
        return super().__iter__()


def install_sentinel(mp: pytest.MonkeyPatch) -> None:
    """Guard host state for the duration of every ``Simulator.run``.

    Only the module attributes are replaced: a name bound at import
    (``from time import time``) keeps the real function, which is why
    ``tests/test_determinism.py`` forbids such imports in the simulated
    packages. ``os.environ`` keeps its identity (``from os import
    environ`` binds the same object); only its class changes.
    """
    real_run = Simulator.run

    def run(self, until=None):
        ident = threading.get_ident()
        if ident in _simulating:  # a run inside a run must not unguard it
            return real_run(self, until)
        _simulating.add(ident)
        try:
            return real_run(self, until)
        finally:
            _simulating.discard(ident)

    mp.setattr(Simulator, "run", run)
    for name in CLOCKS:
        mp.setattr(time, name, _guarded(getattr(time, name), f"time.{name}()"))
    for name in RANDOM_DRAWS:
        mp.setattr(
            random, name, _guarded(getattr(random, name), f"random.{name}()")
        )
    mp.setattr(os.environ, "__class__", _GuardedEnviron)


# ---------------------------------------------------------------------------
# the differential's cells

_MICRO = ScaleProfile(
    name="micro", radix=4, n_hotspots=2, sim_time_ns=1e6, warmup_ns=0.5e6,
    cct_slope=0.5, moving_sim_time_ns=1e6, moving_lifetimes_ns=(0.25e6,),
    marking_rate=3,
)

#: A traced CC-on moving cell (the golden ``kernel-quick-moving-cc``)
#: and a chaos cell with the reliable transport on.
CELLS: Dict[str, ExperimentConfig] = {
    "moving-cc": ExperimentConfig(
        scale=SCALES["quick"], b_fraction=0.0, c_fraction_of_rest=0.8,
        seed=7, name="table2", cc=True, sim_time_ns=2e6, warmup_ns=0.5e6,
        hotspot_lifetime_ns=1e6,
    ),
    "chaos-rc": ExperimentConfig(
        scale=_MICRO, cc=True, b_fraction=0.5, hotspot_lifetime_ns=0.25e6,
        transport=TransportConfig(),
        faults=ChaosSpec(seed=7, link_flap=3.0, degrade=2.0, cnp_drop=3.0,
                         timer_freeze=2.0, switch_pause=1.0),
    ),
}


def cell_digest(cfg: ExperimentConfig) -> str:
    """Trace digest, event count and every reported rate of one run."""
    try:
        res = run_experiment(cfg, trace=True)
    except Exception as exc:
        return f"raised {type(exc).__name__}"
    summary = (res.trace_digest, res.events, res.rates_gbps,
               sorted(res.groups.items()))
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the mutants

#: Module a mutant's ``helper`` source becomes: outside every simulated
#: package, so only a whole-program rule could follow a call into it.
HELPER_MODULE = "repro.hostclock"


@dataclass(frozen=True)
class Mutant:
    """One seeded determinism fault: ``old`` → ``new`` in ``target``."""

    name: str
    what: str
    #: ``"module:Qualified.name"`` of the function the edit lands in.
    target: str
    old: str
    new: str
    #: Module-level statements the edit needs (appended to the module).
    imports: str = ""
    #: Source of :data:`HELPER_MODULE`, for a fault outside the zone.
    helper: str = ""

    @property
    def module(self) -> str:
        return self.target.split(":")[0]


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "A", "a wall-clock test gates rx_bytes in Collector.record_rx",
        "repro.metrics.collector:Collector.record_rx",
        "        if now < self.warmup_ns:\n            return\n"
        "        self.rx_bytes[node]",
        "        if now < self.warmup_ns or time.time() > 4e9:\n"
        "            return\n        self.rx_bytes[node]",
        imports="import time",
    ),
    Mutant(
        "B", "the same test in a helper outside the simulated packages "
        "that hca.py imports and calls",
        "repro.network.hca:Hca.on_packet_received",
        "        if self.metrics is not None:\n"
        "            self.metrics.record_rx(",
        "        if self.metrics is not None and host_seconds() < 4e9:\n"
        "            self.metrics.record_rx(",
        imports=f"from {HELPER_MODULE} import host_seconds",
        helper="import time\n\n\ndef host_seconds():\n    return time.time()\n",
    ),
    Mutant(
        "C", "stdlib random draws a uniform destination",
        "repro.traffic.generators:BNodeSource._draw_uniform_dst",
        "d = int(self.rng.integers(self.n_nodes - 1))",
        "d = random.randrange(self.n_nodes - 1)",
        imports="import random",
    ),
    Mutant(
        "D", "an os.environ read overrides CC option defaults",
        "repro.cc.config:CCConfig.resolved_options",
        "        options.update(self.params_dict())\n",
        "        options.update(json.loads(os.environ.get(\"REPRO_CC_DEFAULTS\", "
        "\"{}\")))\n"
        "        options.update(self.params_dict())\n",
        imports="import json\nimport os",
    ),
    Mutant(
        "E", "routing picks the up-port from a set[str] of spine names",
        "repro.topology.fattree:folded_clos",
        "lft.append(hosts_per_leaf + (d % n_spines))",
        "lft.append(hosts_per_leaf + [\n"
        "                    int(s[5:]) for s in {f\"spine{k}\" for k in "
        "range(n_spines)}\n"
        "                ][d % n_spines])",
    ),
    Mutant(
        "F", "the arbiter keeps each VL's rotation in an id()-ordered dict",
        "repro.network.arbiter:VLArbiter.on_packet_queued",
        "            self._active[vl].append(in_port)\n",
        "            ring = {id(self._inputs[i]): i\n"
        "                    for i in (*self._active[vl], in_port)}\n"
        "            self._active[vl] = deque(ring[k] for k in sorted(ring))\n",
    ),
    Mutant(
        "G", "a float sum over a set in the group-rate reduction",
        "repro.metrics.analysis:mean_rate_gbps",
        "sum(rates[n] for n in nodes)",
        "sum(rates[n] for n in set(nodes))",
    ),
)

#: Which check kills each mutant: simlint rules (one run of ``repro
#: lint`` over a patched copy of ``src/``), the sentinel, and the
#: hash-seed differential. ``tests/test_determinism.py`` measures all
#: three columns and compares them with this table. ``None`` marks a
#: kill that depends on where the two interpreters place objects: F's
#: id()-ordered rotation gave different digests in 3 of 4 pairs of
#: runs, so the differential does not count as killing it.
KILLS: Dict[str, Tuple[Tuple[str, ...], bool, Optional[bool]]] = {
    "A": (("DET002",), True, False),
    "B": ((), True, False),
    "C": (("DET001",), True, True),
    "D": (("DET103",), False, False),
    "E": (("DET003",), False, True),
    "F": (("DET103",), False, None),
    "G": (("DET003", "DET004"), False, False),
}

MUTANT_BY_NAME = {m.name: m for m in MUTANTS}


def apply_mutant(m: Mutant, mp: pytest.MonkeyPatch) -> None:
    """Swap the mutated function into the live module through ``mp``."""
    if m.helper:
        helper = types.ModuleType(HELPER_MODULE)
        exec(m.helper, helper.__dict__)
        mp.setitem(sys.modules, HELPER_MODULE, helper)
    module = importlib.import_module(m.module)
    *path, attr = m.target.split(":")[1].split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    source = inspect.getsource(getattr(owner, attr))
    assert source.count(m.old) == 1, f"mutant {m.name}: edit site moved"
    namespace = dict(vars(module))
    exec(m.imports, namespace)
    exec(compile(
        textwrap.dedent(source.replace(m.old, m.new)), module.__file__,
        "exec", flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    ), namespace)
    mp.setattr(owner, attr, namespace[attr])


def patch_tree(src: Path) -> Dict[str, List[Tuple[str, range]]]:
    """Apply every mutant as a source edit to the tree under ``src``.

    Returns, per mutant, the ``(path, lines)`` spans its edit wrote, so
    a lint finding can be traced back to the mutant that caused it.
    """
    spans: Dict[str, List[Tuple[str, range]]] = {}
    for m in MUTANTS:
        path = src / (m.module.replace(".", "/") + ".py")
        text = path.read_text()
        assert text.count(m.old) == 1, f"mutant {m.name}: edit site moved"
        first = text.count("\n", 0, text.index(m.old)) + 1
        text = text.replace(m.old, m.new)
        out = [(str(path), range(first, first + m.new.count("\n") + 1))]
        if m.imports:
            text = text.rstrip("\n") + "\n\n"
            first = text.count("\n") + 1
            text += m.imports + "\n"
            out.append((str(path), range(first, first + m.imports.count("\n") + 1)))
        path.write_text(text)
        if m.helper:
            helper = src / (HELPER_MODULE.replace(".", "/") + ".py")
            helper.write_text(m.helper)
            out.append((str(helper), range(1, m.helper.count("\n") + 1)))
        spans[m.name] = out
    return spans


def variant_digests(names: List[str]) -> Dict[str, Dict[str, str]]:
    """Digests of :data:`CELLS`, clean and under each named mutant."""
    out = {"clean": {k: cell_digest(cfg) for k, cfg in CELLS.items()}}
    for name in names:
        with pytest.MonkeyPatch.context() as mp:
            apply_mutant(MUTANT_BY_NAME[name], mp)
            out[name] = {k: cell_digest(cfg) for k, cfg in CELLS.items()}
    return out


if __name__ == "__main__":
    print(json.dumps(variant_digests(sys.argv[1:]), sort_keys=True))
