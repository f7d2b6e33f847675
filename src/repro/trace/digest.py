"""Streaming trace digests.

The digest of a trace is the SHA-256 of its records in the encoding
:mod:`repro.trace.records` defines, truncated to 16 hex characters —
long enough that an accidental collision across a test suite's worth
of runs is implausible, short enough to read in a manifest diff.

Two runs have equal digests iff they emitted the identical record
stream, making the digest the strongest practical equality check for
"same seed, same behavior" regressions: end metrics can agree by
accident; half a million interleaved packet events cannot.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Iterable, List

from repro.trace.records import TraceRecord

DIGEST_HEX_CHARS = 16

#: Records per hashed chunk; part of the encoding.
CHUNK_RECORDS = 1024


def _encode(chunk: List[TraceRecord]) -> memoryview:
    """A protocol-5 pickle of the chunk, memo off: values only, no ids."""
    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5)
    pickler.fast = True
    pickler.dump(chunk)
    return out.getbuffer()


class DigestSink:
    """Incrementally hash a record stream, one full chunk at a time.

    The :class:`~repro.trace.tracer.Tracer` appends to :attr:`buf` and
    calls :meth:`fold` itself; :meth:`write` does both for other callers.
    """

    __slots__ = ("_hash", "_chunks", "buf")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._chunks = 0
        self.buf: List[TraceRecord] = []

    def write(self, rec: TraceRecord) -> None:
        """Fold one record into the digest (buffered)."""
        self.buf.append(rec)
        if len(self.buf) >= CHUNK_RECORDS:
            self.fold()

    def fold(self) -> None:
        """Hash the full chunk in :attr:`buf` and empty it."""
        self._hash.update(_encode(self.buf))
        self.buf.clear()
        self._chunks += 1

    @property
    def records_hashed(self) -> int:
        return self._chunks * CHUNK_RECORDS + len(self.buf)

    def hexdigest(self) -> str:
        """Digest of everything written so far; more may follow."""
        h = self._hash.copy()
        if self.buf:
            h.update(_encode(self.buf))
        return h.hexdigest()[:DIGEST_HEX_CHARS]


def digest_of_records(records: Iterable[TraceRecord]) -> str:
    """Digest an in-memory record stream (e.g. a ring buffer's)."""
    sink = DigestSink()
    for rec in records:
        sink.write(rec)
    return sink.hexdigest()


def digest_of_jsonl(path: str) -> str:
    """Recompute a run's digest from its JSONL trace file.

    The JSONL array form round-trips losslessly to the record tuples
    (ints stay ints, floats reparse to the identical value), so this
    reproduces exactly the digest the original run reported — letting
    a saved trace be verified independently of the simulator.
    """
    sink = DigestSink()
    with open(path) as fh:
        for line in fh:
            if line.strip():
                sink.write(tuple(json.loads(line)))
    return sink.hexdigest()
