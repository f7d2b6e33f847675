"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/perf/run.py``.

Equivalent to ``PYTHONPATH=src python -m benchmarks.perf`` from the
root of the checkout; it only puts the checkout and ``src/`` on the
import path first, so the command needs no environment.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
