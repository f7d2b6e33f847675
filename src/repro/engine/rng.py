"""Deterministic random-number stream management.

Every component that needs randomness gets its own independent
:class:`RngStream`, derived from a single master seed and keyed by an
arbitrary hashable name (e.g. ``("gen", node_id)``), so adding a new
consumer never perturbs the draws seen by existing components — runs
stay reproducible across code evolution.

A stream is a bit-exact, pure-Python port of numpy's
``Generator(PCG64(SeedSequence(entropy)))``, so ``import repro`` never
loads numpy. Ported step for step: seeding, scalar ``random()`` and
``uniform()``, ``integers()`` over ranges up to 2**32, ``permutation(n)``
and ``choice(n, k, replace=False)`` for n <= 10 000. Every other call
(``size=``, ``poisson``, ``exponential``, wider ranges, ``p=``) is
handed to numpy on the stream's exact PCG64 state, which is read back
after. ``tests/test_engine_rng.py`` pins both paths against numpy.

**This module is the enforced randomness contract.** simlint rule
DET001 (:mod:`repro.lint`) statically rejects any other source of
randomness in the sim-critical packages (``engine``, ``network``,
``core``, ``traffic``, ``faults``, ``transport``, ``trace``,
``topology``): no stdlib ``random.*`` calls, no ``numpy.random``
draws or generators. Event-path code must take a :class:`RngRegistry`
(or a stream from one) as an argument; config-time expansion that runs
before any registry exists builds a private :class:`RngStream` from
its own seed (see :func:`repro.faults.chaos.chaos_schedule`).
``repro lint src/`` enforces this in CI before the test matrix runs.
"""

from __future__ import annotations

import numbers
from functools import partial
from typing import Any, Callable, Dict, Hashable, Iterable, Tuple

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PORTED_N = 10_000  # numpy's choice tail-shuffles above this population


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: a hash constant carried across calls."""
    def hashmix(v: int) -> int:
        nonlocal h
        v, h = v ^ h, (h * mult) & _M32
        v = (v * h) & _M32
        return v ^ (v >> 16)
    return hashmix


def _seed_words(entropy: Iterable[int]) -> Tuple[int, ...]:
    """``SeedSequence(entropy).generate_state(4, numpy.uint64)``."""
    words: list[int] = []
    for n in map(int, entropy):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words += [n >> i & _M32 for i in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    # Cross-mix the pool, then fold in the words beyond the fourth.
    for src in range(max(4, len(words))):
        for dst in range(4):
            if src != dst:
                v = hashmix(pool[src] if src < 4 else words[src])
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * v) & _M32
                pool[dst] = r ^ (r >> 16)
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return tuple(out[i] | out[i + 1] << 32 for i in range(0, 8, 2))


class RngStream:
    """One PCG64 stream; draws exactly what numpy's ``Generator`` would."""

    __slots__ = ("_state", "_inc", "_has32", "_u32")

    def __init__(self, entropy: Iterable[int]) -> None:
        w0, w1, w2, w3 = _seed_words(entropy)
        self._inc = inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        self._has32 = self._u32 = 0

    @property
    def state(self) -> dict:
        """The stream's state in ``numpy.random.PCG64.state`` form."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has32, "uinteger": self._u32}

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        v = self._next64()
        self._has32, self._u32 = 1, v >> 32
        return v & _M32

    def _bounded(self, r: int) -> int:
        """Uniform on ``[0, r]`` for ``r < 2**32``: Lemire's method."""
        if r == 0:
            return 0
        if r == _M32:
            return self._next32()
        excl = r + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - r) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def random(self, size: Any = None, **kwargs: Any) -> Any:
        if size is not None or kwargs:
            return self._numpy("random", size, **kwargs)
        return (self._next64() >> 11) * 2.0 ** -53

    def uniform(self, low: Any = 0.0, high: Any = 1.0, size: Any = None) -> Any:
        if size is None and {type(low), type(high)} <= {int, float}:
            span = float(high) - float(low)
            if 0.0 <= span < float("inf"):
                return float(low) + span * self.random()
        return self._numpy("uniform", low, high, size)

    def integers(self, low: Any, high: Any = None, size: Any = None,
                 **kwargs: Any) -> Any:
        lo, hi = (0, low) if high is None else (low, high)
        if (size is None and not kwargs and type(lo) is int and type(hi) is int
                and -(1 << 63) <= lo < hi <= 1 << 63 and hi - lo <= 1 << 32):
            return lo + self._bounded(hi - 1 - lo)
        return self._numpy("integers", low, high, size, **kwargs)

    def permutation(self, x: Any) -> Any:
        if type(x) is not int or not 0 <= x <= _PORTED_N:
            return self._numpy("permutation", x)
        perm = list(range(x))
        for i in range(x - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def choice(self, a: Any, size: Any = None, replace: bool = True,
               p: Any = None, **kwargs: Any) -> Any:
        if (replace is not False or p is not None or kwargs or type(a) is not int
                or type(size) is not int or not 0 <= size <= a <= _PORTED_N):
            return self._numpy("choice", a, size, replace, p, **kwargs)
        # Floyd's sample, then a Fisher-Yates shuffle of the picks.
        picks: list[int] = []
        seen: set[int] = set()
        for j in range(a - size, a):
            v = self._bounded(j)
            picks.append(j if v in seen else v)
            seen.add(picks[-1])
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def _numpy(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one numpy ``Generator`` call on this stream's exact state."""
        import numpy as np
        bitgen = np.random.PCG64(0)
        bitgen.state = self.state
        try:
            return getattr(np.random.Generator(bitgen), method)(*args, **kwargs)
        finally:
            st = bitgen.state
            self._state, self._inc = st["state"]["state"], st["state"]["inc"]
            self._has32, self._u32 = st["has_uint32"], st["uinteger"]

    def __getattr__(self, name: str) -> Any:
        # Every Generator method not ported above goes through numpy.
        if name.startswith("_"):
            raise AttributeError(name)
        return partial(self._numpy, name)


class RngRegistry:
    """Factory for named, independent random streams.

    Examples
    --------
    >>> reg = RngRegistry(1234)
    >>> a = reg.stream("gen", 0)
    >>> b = reg.stream("gen", 1)
    >>> a is reg.stream("gen", 0)   # streams are cached by key
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    __slots__ = ("_master_seed", "_streams")

    def __init__(self, master_seed: int = 0) -> None:
        if not isinstance(master_seed, numbers.Integral):
            raise TypeError("master_seed must be an integer")
        self._master_seed = int(master_seed)
        self._streams: Dict[Tuple[Hashable, ...], RngStream] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, *key: Hashable) -> RngStream:
        """Return the (cached) stream for ``key``.

        The key is folded into the seed material, so the same
        ``(master_seed, key)`` always yields the same stream and
        distinct keys yield statistically independent streams.
        """
        if not key:
            raise ValueError("stream key must be non-empty")
        cached = self._streams.get(key)
        if cached is not None:
            return cached
        # Fold the key deterministically into integer entropy. str() of
        # the key pieces is stable across runs for ints/strings, which
        # is all we use as keys.
        digest = 0
        for part in key:
            for ch in str(part):
                digest = (digest * 1000003 + ord(ch)) & 0xFFFFFFFFFFFFFFFF
        gen = RngStream((self._master_seed, digest))
        self._streams[key] = gen
        return gen

    def __len__(self) -> int:
        return len(self._streams)
