"""Discrete-event simulation kernel.

The kernel is deliberately small and dependency-free: one binary-heap
event queue keyed by ``(time, sequence)`` with callable handlers, so
simultaneous events run in scheduling order, plus deterministic
random-number stream management built on
:class:`numpy.random.SeedSequence`.

Time is measured in **nanoseconds** (floats). All network components
convert rates (Gbit/s) into byte-times once at construction so the hot
path performs only additions and comparisons.
"""

from repro.engine.simulator import Simulator, SimulationError
from repro.engine.rng import RngRegistry

__all__ = [
    "Simulator",
    "SimulationError",
    "RngRegistry",
]
