"""Unit tests for repro.trace: records, sinks, digests, auditor, session."""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.engine import RngRegistry, Simulator
from repro.trace import (
    ALL_EVENTS,
    DigestSink,
    JsonlSink,
    RingBufferSink,
    TraceAuditor,
    TraceSession,
    TraceViolation,
    Tracer,
    canonical_line,
    digest_of_jsonl,
)
from repro.trace.auditor import MAX_STORED_VIOLATIONS
from repro.trace.digest import CHUNK_RECORDS, _encode

from tests.conftest import attach_hotspot_contributors, build_network


# ---------------------------------------------------------------- records

def test_canonical_line_is_tuple_repr():
    rec = ("tx", 125.0, "s", 3, 1, 0, 7, 2, 2304, 0, 7936.0)
    assert canonical_line(rec) == repr(rec)


def test_event_tags_unique():
    assert len(set(ALL_EVENTS)) == len(ALL_EVENTS)


# ---------------------------------------------------------------- digests

def digest_of_records(records) -> str:
    """Digest an in-memory record stream through the run's own sink."""
    sink = DigestSink()
    for rec in records:
        sink.write(rec)
    return sink.hexdigest()


RECORDS = [
    ("inj", 0.0, 1, 0, 0, 2048),
    ("tx", 10.0, "h", 1, 0, 0, 1, 0, 2304, 0, 7936.0),
    ("rx", 125.5, 0, 1, 0, 0, 2048, 0, 0, 0),
    ("end", 125.5, 3),
]


def test_digest_deterministic_and_order_sensitive():
    d1 = digest_of_records(RECORDS)
    d2 = digest_of_records(RECORDS)
    assert d1 == d2
    assert len(d1) == 16
    assert d1 != digest_of_records(list(reversed(RECORDS)))
    assert d1 != digest_of_records(RECORDS[:-1])


def test_digest_sink_streaming_matches_batch():
    sink = DigestSink()
    for rec in RECORDS:
        sink.write(rec)
    assert sink.hexdigest() == digest_of_records(RECORDS)
    assert sink.records_hashed == len(RECORDS)


def test_jsonl_round_trips_to_same_digest(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    for rec in RECORDS:
        sink.write(rec)
    sink.close()
    assert sink.records_written == len(RECORDS)
    # Every line is a JSON array whose reparse equals the original tuple.
    with open(path) as fh:
        reread = [tuple(json.loads(line)) for line in fh]
    assert reread == [tuple(r) for r in RECORDS]
    assert digest_of_jsonl(path) == digest_of_records(RECORDS)


def _one_record_per_schema():
    """One genuine record of every schema, built by the typed hooks."""
    ring = RingBufferSink(maxlen=100)
    tr = Tracer([ring])
    tr.inject(1.0, 5, 0, 0, 2048)
    tr.tx(2.0, "s", 9, 1, 0, 5, 0, 2304, 1, 512.0)
    tr.rx(3.0, 0, 5, 0, 0, 2048, 1, 0, 0)
    tr.fecn_mark(2.0, 9, 1, 0, 5, 0, 9216)
    tr.cnp(3.5, 0, 5)
    tr.becn(4.0, 5, 5, 0, 0)
    tr.ccti_change(4.0, 5, 5, 0, 0, 4)
    tr.rate_change(4.5, 5, 5, 0, 1.0, 0.5)
    tr.timer_fire(6.0, 5, 1)
    tr.fault(7.0, "link_down", "s", 9, 1, -0.0)
    tr.drop(7.5, "s", 9, 1, 0, 5, 0, 2048, 0, "link")
    tr.retx(8.0, 5, 0, 17, 1, 2048, 7.9)
    tr.ack(9.0, 0, 5, 17)
    tr.flow_failed(10.0, 5, 0, 16, 2048, 3)
    tr.flow_summary(11.0, 5, 0, "failed", 16, 18, 2048, 1, 3)
    tr.end(12.0, 2**40)
    return ring.records


#: The encoding's tripwire: a Python upgrade or a refactor that changes
#: the hashed bytes of any schema, or the chunking, fails here.
PINNED_SCHEMA_DIGESTS = {
    "inj": "fcbb121a8ca8ff0d",
    "tx": "799dbfded5ed07f5",
    "rx": "58e988543e5e1fb9",
    "fecn": "ec6264fa26532e71",
    "cnp": "aa1090873e3779f9",
    "becn": "f7dd0e214d154ac8",
    "ccti": "7b542deb8d61c681",
    "rate": "91302b1a77d7e206",
    "timer": "8c94026d3e35c1e9",
    "fault": "29b3d6df913cf5d5",
    "drop": "987a565740e325d3",
    "retx": "5f35c8fafc343707",
    "ack": "84cb5cd5c6f86a1e",
    "flowfail": "c646566a31f29734",
    "flowsum": "642466e271d6e863",
    "end": "1edeb7d747fc8a81",
}
PINNED_CHUNK_BOUNDARY_DIGEST = "c6676be10d465445"


def test_pinned_schemas_cover_every_event():
    assert [rec[0] for rec in _one_record_per_schema()] == [
        "inj", "tx", "rx", "fecn", "cnp", "becn", "ccti", "rate", "timer",
        "fault", "drop", "retx", "ack", "flowfail", "flowsum", "end",
    ]
    assert set(PINNED_SCHEMA_DIGESTS) == set(ALL_EVENTS)


@pytest.mark.parametrize("tag", sorted(PINNED_SCHEMA_DIGESTS))
def test_encoding_pinned_per_schema(tag):
    (rec,) = [r for r in _one_record_per_schema() if r[0] == tag]
    assert digest_of_records([rec]) == PINNED_SCHEMA_DIGESTS[tag]


def test_encoding_pinned_across_a_chunk_boundary():
    schemas = _one_record_per_schema()
    stream = [schemas[i % len(schemas)] for i in range(CHUNK_RECORDS + 1)]
    assert digest_of_records(stream) == PINNED_CHUNK_BOUNDARY_DIGEST


# --------------------------------------------------- encoding properties

_FIELD = {
    int: st.integers(min_value=-(2**80), max_value=2**80),
    float: st.floats(allow_nan=False),
    str: st.sampled_from(["h", "s", "", "link", "dup", "link_down", "failed"]),
}
#: Schema-shaped records: the tag, then a value of the type the typed
#: hook put in each field.
records = st.one_of(*(
    st.tuples(st.just(rec[0]), *(_FIELD[type(v)] for v in rec[1:]))
    for rec in _one_record_per_schema()
))


def _chunked_digest(stream):
    """The encoding's definition, applied to the whole stream at once."""
    h = hashlib.sha256()
    for i in range(0, len(stream), CHUNK_RECORDS):
        h.update(_encode(stream[i:i + CHUNK_RECORDS]))
    return h.hexdigest()[:16]


@given(stream=st.lists(records, max_size=20))
@example(stream=[
    ("fault", -0.0, "degrade", "s", 3, 1, float("inf")),
    ("drop", 1.0, "h", -(2**70), 0, 0, 2, 1, 2**64, 0, "link"),
    ("rate", 2.0, 1, 2, 3, 3.0, float("-inf")),
    ("rate", 2.0, 1, 2, 3.0, 3, -0.0),
])
def test_jsonl_round_trip_keeps_the_digest(stream, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("jsonl") / "trace.jsonl")
    sink = JsonlSink(path)
    for rec in stream:
        sink.write(rec)
    sink.close()
    assert digest_of_jsonl(path) == digest_of_records(stream)


@given(rec=records, data=st.data())
def test_int_and_integral_float_digest_apart(rec, data):
    ints = [i for i, v in enumerate(rec) if type(v) is int and abs(v) <= 2**53]
    assume(ints)
    i = data.draw(st.sampled_from(ints))
    retyped = rec[:i] + (float(rec[i]),) + rec[i + 1:]
    assert retyped == rec  # equal as values ...
    assert digest_of_records([retyped]) != digest_of_records([rec])  # ... not as records


@given(stream=st.lists(records, min_size=1, max_size=20))
def test_equal_strings_digest_alike_whatever_their_identity(stream):
    rebuilt = [
        tuple("".join(list(v)) if isinstance(v, str) else v for v in rec)
        for rec in stream
    ]
    assert rebuilt[0][0] is not stream[0][0]
    assert digest_of_records(rebuilt) == digest_of_records(stream)


@given(
    base=st.lists(records, min_size=1, max_size=8),
    n=st.sampled_from([CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1]),
    probe=st.integers(min_value=0, max_value=CHUNK_RECORDS + 1),
)
def test_streaming_equals_batch_around_a_chunk(base, n, probe):
    stream = [base[i % len(base)] for i in range(n)]
    tr = Tracer()
    for i, rec in enumerate(stream):
        if i == probe:
            tr.digest.hexdigest()  # reading mid-stream must not re-chunk
        tr.emit(rec)
    assert tr.records_emitted == n
    assert tr.digest.hexdigest() == _chunked_digest(stream)
    assert digest_of_records(stream) == _chunked_digest(stream)


@given(
    stream=st.lists(records, min_size=2, max_size=12, unique_by=repr),
    data=st.data(),
)
def test_reordering_or_dropping_a_record_moves_the_digest(stream, data):
    digest = digest_of_records(stream)
    order = data.draw(st.permutations(range(len(stream))))
    assume(order != list(range(len(stream))))
    assert digest_of_records([stream[i] for i in order]) != digest
    drop = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    assert digest_of_records(stream[:drop] + stream[drop + 1:]) != digest


@given(
    clean=st.integers(min_value=0, max_value=30),
    after_a_chunk=st.booleans(),
)
def test_strict_auditor_raises_inside_emit_of_the_violating_record(
    clean, after_a_chunk
):
    prefix = (CHUNK_RECORDS - 1 if after_a_chunk else 0) + clean
    tr = Tracer(auditor=TraceAuditor(strict=True))
    for i in range(prefix):
        tr.emit(("cnp", float(i), 1, 0))
    with pytest.raises(TraceViolation, match="negative credit"):
        tr.emit(("tx", float(prefix), "s", 9, 0, 0, 1, 0, 2304, 0, -64.0))
    assert tr.records_emitted == prefix + 1


# ------------------------------------------------------------------ sinks

def test_ring_buffer_keeps_most_recent():
    ring = RingBufferSink(maxlen=2)
    for rec in RECORDS:
        ring.write(rec)
    assert ring.records == RECORDS[-2:]
    assert len(ring) == 2


def test_ring_buffer_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        RingBufferSink(maxlen=0)


# ----------------------------------------------------------------- tracer

def test_typed_hooks_build_schema_tuples():
    ring = RingBufferSink(maxlen=100)
    tr = Tracer([ring])
    tr.inject(1.0, 5, 0, 0, 2048)
    tr.tx(2.0, "s", 9, 1, 0, 5, 0, 2304, 1, 512.0)
    tr.rx(3.0, 0, 5, 0, 0, 2048, 1, 0, 0)
    tr.fecn_mark(2.0, 9, 1, 0, 5, 0, 9216)
    tr.cnp(3.5, 0, 5)
    tr.becn(4.0, 5, 5, 0, 0)
    tr.ccti_change(4.0, 5, 5, 0, 0, 4)
    tr.timer_fire(6.0, 5, 1)
    tr.end(6.0, 42)
    tags = [rec[0] for rec in ring.records]
    assert tags == ["inj", "tx", "rx", "fecn", "cnp", "becn", "ccti", "timer", "end"]
    assert tr.records_emitted == 9
    assert ring.records[1] == ("tx", 2.0, "s", 9, 1, 0, 5, 0, 2304, 1, 512.0)
    assert ring.records[6] == ("ccti", 4.0, 5, 5, 0, 0, 4)


# ---------------------------------------------------------------- auditor

def _clean_auditor():
    a = TraceAuditor(ccti_limit=127)
    a.observe(("inj", 0.0, 1, 0, 0, 2048))
    return a


def test_auditor_accepts_clean_stream():
    a = _clean_auditor()
    a.observe(("tx", 10.0, "h", 1, 0, 0, 1, 0, 2304, 0, 7936.0))
    a.observe(("rx", 125.5, 0, 1, 0, 0, 2048, 0, 0, 0))
    a.observe(("rx", 126.0, 1, 0, 1, 0, 0, 0, 1, 1))  # a CNP: ctrl+becn
    a.observe(("ccti", 126.0, 1, 1, 0, 0, 127))
    assert a.ok
    assert a.summary() == ""


def test_auditor_flags_time_reversal():
    a = _clean_auditor()
    a.observe(("cnp", 100.0, 1, 0))
    a.observe(("cnp", 99.0, 1, 0))
    assert not a.ok
    assert "time went backwards" in a.violations[0]


def test_auditor_flags_negative_credit():
    a = _clean_auditor()
    a.observe(("tx", 1.0, "s", 9, 0, 0, 1, 0, 2304, 0, -64.0))
    assert "negative credit" in a.violations[0]


def test_auditor_flags_misdelivery():
    a = _clean_auditor()
    a.observe(("rx", 1.0, 3, 1, 0, 0, 2048, 0, 0, 0))
    assert "misdelivery" in a.violations[0]


@pytest.mark.parametrize(
    "fecn,becn,ctrl,expect",
    [
        (1, 1, 1, "control packet carries FECN"),
        (0, 0, 1, "control packet without BECN"),
        (0, 1, 0, "BECN on a data packet"),
    ],
)
def test_auditor_flags_inconsistent_flags(fecn, becn, ctrl, expect):
    a = _clean_auditor()
    a.observe(("rx", 1.0, 0, 1, 0, 0, 2048, fecn, becn, ctrl))
    assert any(expect in v for v in a.violations)


def test_auditor_flags_byte_fabrication():
    a = TraceAuditor()
    a.observe(("inj", 0.0, 1, 0, 0, 2048))
    a.observe(("rx", 10.0, 0, 1, 0, 0, 2048, 0, 0, 0))
    assert a.ok  # delivered == injected is fine
    a.observe(("rx", 20.0, 0, 1, 0, 0, 2048, 0, 0, 0))
    assert not a.ok
    assert "byte conservation" in a.violations[0]


def test_auditor_flags_ccti_out_of_bounds():
    a = TraceAuditor(ccti_limit=127)
    a.observe(("ccti", 1.0, 1, 1, 0, 127, 128))
    a.observe(("ccti", 2.0, 1, 1, 0, 0, -1))
    assert a.violation_count == 2
    assert all("outside [0, 127]" in v for v in a.violations)


def test_auditor_flags_becn_at_non_source():
    a = TraceAuditor()
    a.observe(("becn", 1.0, 2, 1, 0, 0))
    assert "non-source" in a.violations[0]


def test_auditor_strict_raises():
    a = TraceAuditor(strict=True)
    with pytest.raises(TraceViolation):
        a.observe(("rx", 1.0, 3, 1, 0, 0, 2048, 0, 0, 0))


def test_auditor_bounds_stored_violations():
    a = TraceAuditor()
    for i in range(MAX_STORED_VIOLATIONS + 50):
        a.observe(("becn", float(i), 2, 1, 0, 0))
    assert a.violation_count == MAX_STORED_VIOLATIONS + 50
    assert len(a.violations) == MAX_STORED_VIOLATIONS
    assert "more" in a.summary().splitlines()[-1]


# ---------------------------------------------------------------- session

def _run_traced(tmp_path, **session_kw):
    sim = Simulator()
    rng = RngRegistry(7)
    net, collector, manager = build_network(sim, cc=True)
    session = TraceSession(**session_kw).install(sim, net, manager)
    attach_hotspot_contributors(net, rng, 0, [1, 2, 3])
    net.run(until=3e5)
    session.close()
    return sim, net, manager, session


def test_session_traces_live_run(tmp_path):
    path = str(tmp_path / "run.jsonl")
    sim, net, manager, session = _run_traced(
        tmp_path, jsonl_path=path, ring=50
    )
    assert session.records_emitted > 100
    assert session.violation_count == 0
    # CC was active, so the trace saw the full event vocabulary.
    with open(path) as fh:
        tags = {json.loads(line)[0] for line in fh}
    assert {"inj", "tx", "rx", "fecn", "cnp", "becn", "ccti"} <= tags
    # Digest recomputes from the JSONL file.
    assert digest_of_jsonl(path) == session.digest
    # The ring holds the tail, ending with the end record.
    assert session.records[-1] == ("end", sim.now, sim.events_executed)


def test_session_close_uninstalls_hooks(tmp_path):
    sim, net, manager, session = _run_traced(tmp_path, ring=10)
    assert sim.trace is None
    assert all(h.trace is None and h.obuf.trace is None for h in net.hcas)
    assert all(
        out.trace is None for sw in net.switches for out in sw.output_ports
    )
    assert all(scc.trace is None for scc in manager.switch_cc)
    assert all(hcc.trace is None for hcc in manager.hca_cc)
    # close() is idempotent: the end record is emitted exactly once.
    emitted = session.records_emitted
    session.close()
    assert session.records_emitted == emitted


def test_session_ring_inspection_with_digest(tmp_path):
    sim, _, _, session = _run_traced(tmp_path, ring=10)
    assert len(session.records) == 10
    assert session.records[-1] == ("end", sim.now, sim.events_executed)
    assert len(session.digest) == 16


def test_untraced_components_default_to_null_hooks(sim):
    net, _, manager = build_network(sim, cc=True)
    assert sim.trace is None
    assert all(h.trace is None for h in net.hcas)
    assert all(hcc.trace is None for hcc in manager.hca_cc)
