"""Trace sinks: where emitted records go.

Every sink implements ``write(rec)`` and ``close()``. The digest is
not a sink: the :class:`~repro.trace.tracer.Tracer` feeds it itself
(:mod:`repro.trace.digest`). This module holds the storage sinks:

* :class:`RingBufferSink` — the last N records in memory, for
  interactive debugging and tests that inspect recent events;
* :class:`JsonlSink` — one JSON array per line, the replayable on-disk
  form (``digest_of_jsonl`` recomputes the run digest from it).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, List, Optional, Protocol, TextIO

from repro.trace.records import TraceRecord


class TraceSink(Protocol):
    """The structural protocol every sink implements.

    The :class:`~repro.trace.tracer.Tracer` only ever calls these two
    methods; any object providing them (including test doubles) is a
    valid sink.
    """

    def write(self, rec: TraceRecord) -> None:
        """Consume one record."""

    def close(self) -> None:
        """Release resources; must be idempotent."""


class RingBufferSink:
    """Keep the most recent ``maxlen`` records in memory."""

    __slots__ = ("_buf",)

    def __init__(self, maxlen: int = 10_000) -> None:
        if maxlen <= 0:
            raise ValueError("ring buffer size must be positive")
        self._buf: Deque[TraceRecord] = deque(maxlen=maxlen)

    def write(self, rec: TraceRecord) -> None:
        self._buf.append(rec)

    def close(self) -> None:
        """Nothing to release; the buffer stays readable after close."""

    @property
    def records(self) -> List[TraceRecord]:
        """The buffered records, oldest first."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class JsonlSink:
    """Stream records to a JSONL file (one JSON array per record)."""

    __slots__ = ("path", "_fh", "records_written")

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[TextIO] = open(path, "w", buffering=1 << 16)
        self.records_written = 0

    def write(self, rec: TraceRecord) -> None:
        if self._fh is None:
            raise ValueError("sink is closed")
        self._fh.write(json.dumps(rec, separators=(",", ":")))
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
