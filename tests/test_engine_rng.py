"""Unit tests for deterministic RNG stream management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RngRegistry
from repro.engine.rng import RngStream


def draws(stream, n):
    """``n`` scalar ``random()`` draws."""
    return [stream.random() for _ in range(n)]


class TestRngRegistry:
    def test_same_key_returns_same_stream(self):
        reg = RngRegistry(7)
        assert reg.stream("gen", 3) is reg.stream("gen", 3)

    def test_different_keys_differ(self):
        reg = RngRegistry(7)
        a = draws(reg.stream("gen", 0), 100)
        b = draws(reg.stream("gen", 1), 100)
        assert all(x != y for x, y in zip(a, b))

    def test_reproducible_across_registries(self):
        a = draws(RngRegistry(42).stream("x", 1), 50)
        b = draws(RngRegistry(42).stream("x", 1), 50)
        assert a == b

    def test_master_seed_changes_streams(self):
        a = draws(RngRegistry(1).stream("x"), 50)
        b = draws(RngRegistry(2).stream("x"), 50)
        assert a != b

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(5)
        _ = draws(reg1.stream("a"), 10)
        after = draws(reg1.stream("a"), 10)

        reg2 = RngRegistry(5)
        _ = draws(reg2.stream("a"), 10)
        _ = reg2.stream("b")  # new consumer interposed
        after2 = draws(reg2.stream("a"), 10)
        assert after == after2

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(0).stream()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry(7.0)  # type: ignore[arg-type]

    def test_numpy_and_bool_seeds_accepted(self):
        assert RngRegistry(np.int64(7)).master_seed == 7
        assert RngRegistry(True).master_seed == 1
        assert (RngRegistry(np.int64(1)).stream("x").state
                == RngRegistry(True).stream("x").state)

    def test_len_counts_streams(self):
        reg = RngRegistry(0)
        reg.stream("a")
        reg.stream("b", 1)
        reg.stream("a")  # cached, not new
        assert len(reg) == 2

    def test_master_seed_property(self):
        assert RngRegistry(99).master_seed == 99


# -- parity with numpy ---------------------------------------------------


def numpy_stream(master_seed, *key):
    """The stream built the way the registry built it on top of numpy."""
    digest = 0
    for part in key:
        for ch in str(part):
            digest = (digest * 1000003 + ord(ch)) & 0xFFFFFFFFFFFFFFFF
    seq = np.random.SeedSequence([master_seed, digest])
    return np.random.Generator(np.random.PCG64(seq))


def plain(value):
    """numpy scalars and arrays as the Python values they hold."""
    return np.asarray(value).tolist()


# Ranges of the integers() path and its edges (2**32 - 1 and 2**32
# take the unbounded 32-bit draw and the Lemire draw).
RANGES = (1, 2, 31, 2**31, 2**32 - 1, 2**32)

# Every draw a stream has.
CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.sampled_from(RANGES)),
    st.tuples(st.just("integers_lo"), st.integers(-1000, 1000),
              st.sampled_from(RANGES)),
    st.tuples(st.just("uniform"), st.floats(-5, 5), st.floats(0, 10)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    # Floyd's sample up to n = 10 000, numpy's tail shuffle above.
    st.tuples(st.just("choice"), st.integers(1, 12_000), st.integers(0, 40)),
    # Multiplication below lam = 10, PTRS from 10 on.
    st.tuples(st.just("poisson"),
              st.floats(0, 20) | st.sampled_from([10.0, 250.0, 1e4])),
)


def call(gen, op):
    kind, *args = op
    if kind == "random":
        return gen.random()
    if kind == "integers":
        return gen.integers(args[0])
    if kind == "integers_lo":
        lo, n = args
        return gen.integers(lo, lo + n)
    if kind == "uniform":
        lo, span = args
        return gen.uniform(lo, lo + span)
    if kind == "permutation":
        return gen.permutation(args[0])
    if kind == "choice":
        n, k = args
        return gen.choice(n, size=min(n, k), replace=False)
    assert kind == "poisson"
    return gen.poisson(args[0])


@settings(max_examples=300)
@given(
    master=st.integers(0, 2**64),
    key=st.tuples(st.sampled_from(["gen", "hotspots", "mix", "transport"]),
                  st.integers(0, 700)),
    program=st.lists(CALLS, max_size=40),
)
def test_streams_match_numpy_draw_for_draw(master, key, program):
    ours = RngRegistry(master).stream(*key)
    ref = numpy_stream(master, *key)
    assert ours.state == ref.bit_generator.state
    for op in program:
        assert plain(call(ours, op)) == plain(call(ref, op)), op
    assert ours.state == ref.bit_generator.state


def test_buffered_half_survives_a_64_bit_draw():
    ours, ref = RngStream([11, 3]), np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([11, 3])))
    for gen in (ours, ref):
        gen.integers(31)  # draws 64 bits, keeps the high half
        gen.random()  # a fresh 64-bit draw leaves the half alone
    assert ours.state["has_uint32"] == 1
    assert ours.state == ref.bit_generator.state
    assert ours.integers(2**31) == ref.integers(2**31)
    assert ours.state == ref.bit_generator.state


def test_choice_at_the_algorithm_edge_matches_numpy():
    for n, k in ((10_000, 10_000), (10_000, 201), (10_001, 300), (5, 0)):
        ours, ref = RngStream([n, k]), np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([n, k])))
        assert plain(ours.choice(n, size=k, replace=False)) == plain(
            ref.choice(n, size=k, replace=False))
        assert ours.state == ref.bit_generator.state


def test_invalid_arguments_raise_as_numpy_does():
    stream = RngStream([1])
    with pytest.raises(ValueError):
        stream.integers(0)
    with pytest.raises(ValueError):
        stream.uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        stream.choice(3, size=4, replace=False)
    for lam in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            stream.poisson(lam)
    with pytest.raises(ValueError):
        RngStream([-1])


def test_calls_that_are_not_ported_raise():
    stream = RngStream([1])
    state = stream.state
    with pytest.raises(TypeError):
        stream.random(size=3)
    with pytest.raises(AttributeError):
        stream.exponential(1.0)
    with pytest.raises(ValueError):
        stream.integers(2**40)
    with pytest.raises(ValueError):
        stream.choice(5, size=2)  # with replacement
    assert stream.state == state  # nothing was drawn
