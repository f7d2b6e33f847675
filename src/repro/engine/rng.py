"""Deterministic random-number stream management.

Every component that needs randomness gets its own independent
:class:`RngStream`, derived from a single master seed and keyed by an
arbitrary hashable name (e.g. ``("gen", node_id)``), so adding a new
consumer never perturbs the draws seen by existing components — runs
stay reproducible across code evolution.

A stream is a bit-exact, pure-Python port of numpy's
``Generator(PCG64(SeedSequence(entropy)))``: the runtime needs no
numpy. Ported step for step, and the only draws a stream has: scalar
``random()`` and ``uniform()``, ``integers()`` over ranges of up to
2**32 values, ``permutation(n)``, ``choice(n, k, replace=False)`` and
``poisson(lam)``. Anything else (``size=``, ``exponential``, 64-bit
ranges, ``p=``) raises rather than drawing something numpy would not.
``tests/test_engine_rng.py`` pins every draw and the final state
against numpy.

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

import math
import numbers
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INF = float("inf")
_POISSON_LAM_MAX = 9.223372006484771e18  # numpy refuses a larger lam
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03,
             7.936507936507937e-04, -5.952380952380952e-04,
             8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02,
             1.796443723688307e-01, -1.39243221690590e+00)


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

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        span = float(high) - float(low)
        if not 0.0 <= span < _INF:
            raise ValueError(f"uniform({low}, {high}): high - low must be "
                             "finite and non-negative")
        return float(low) + span * self.random()

    def integers(self, low: int, high: Optional[int] = None) -> int:
        lo, hi = (0, low) if high is None else (low, high)
        if not 0 < hi - lo <= 1 << 32:
            raise ValueError(f"integers({low}, {high}): the range must hold "
                             "1 to 2**32 values")
        return lo + self._bounded(hi - 1 - lo)

    def permutation(self, n: int) -> List[int]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def choice(self, a: int, size: int, replace: bool = True) -> List[int]:
        """``size`` distinct values of ``range(a)``: only ``replace=False``."""
        if replace is not False or not 0 <= size <= a <= 1 << 32:
            raise ValueError(f"choice({a}, size={size}, replace={replace}): "
                             "only 0 <= size <= a <= 2**32 without "
                             "replacement is supported")
        if a > 10_000 and size > a // 50:
            # numpy shuffles the tail of range(a) and keeps it.
            picks = list(range(a))
            for i in range(a - 1, max(a - size, 1) - 1, -1):
                j = self._bounded(i)
                picks[i], picks[j] = picks[j], picks[i]
            return picks[a - size:]
        # Floyd's sample, then a Fisher-Yates shuffle of the picks.
        picks = []
        seen: Set[int] = set()
        for j in range(a - size, a):
            v = self._bounded(j)
            picks.append(j if v in seen else v)
            seen.add(picks[-1])
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def poisson(self, lam: float) -> int:
        """numpy's ``random_poisson``: multiplication below 10, else PTRS."""
        lam = float(lam)
        if not 0.0 <= lam <= _POISSON_LAM_MAX:
            raise ValueError(f"poisson({lam}): lam must be finite and >= 0")
        if lam == 0.0:
            return 0
        if lam < 10.0:
            enlam, k, prod = math.exp(-lam), 0, 1.0
            while True:
                prod *= self.random()
                if prod <= enlam:
                    return k
                k += 1
        # Hoermann's transformed rejection (PTRS).
        slam, loglam = math.sqrt(lam), math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0.0:  # numpy's k is then negative: rejected
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # At v == 0 numpy's log(v) is -inf, which always accepts.
            if v == 0.0 or (
                    math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(k + 1)):
                return k


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: log Gamma(x) by its Stirling series."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 = gl0 * x2 + _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


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
