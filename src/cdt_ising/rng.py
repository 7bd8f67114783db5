"""Seeded, splittable random streams.

All Monte Carlo drivers derive one stream per (master seed, trial index)
so results do not depend on how trials are chunked across workers.
``stream`` builds a ``SeedSequence`` and a ``Philox`` per call, about
17 us.  Philox is counter-based, so a stream is fixed by its key alone:
``TrialKeys`` takes the seed's pool from numpy's ``SeedSequence`` once and,
per trial index, mixes in only that index and re-keys one generator, which
then yields exactly the draws of ``stream(seed, i)``.

``_below`` draws bounded integers straight from a generator's bit
generator: numpy's ``Generator.integers`` spends most of a scalar draw on
its per-call cost, and the reconstruction walk's attempts make a few small
draws each.  It runs numpy's own bounded draw, Lemire's multiply-and-reject
(ACM TOMACS 29 (2019) 3), on the bit generator's ``next_uint32`` (or
``next_uint64`` past 2^32), so its draws and the generator state it leaves
are those of ``integers``.
"""

from __future__ import annotations

from operator import index
from typing import Callable

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the RNG stream identified by ``seed`` and an integer key path.

    The seed and each key are integers >= 0 (numpy integers too); anything
    else raises ValueError.
    """
    key = tuple(_checked_int(k, "stream key", 0) for k in key)
    ss = np.random.SeedSequence(_checked_int(seed, "seed", 0), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32 words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(n: int) -> list[int]:
    """The uint32 words of n >= 0, least significant first; [0] for 0."""
    words = [n & _MASK]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK)
    return words


def _steps(h: int, mult: int) -> tuple[tuple[int, int], ...]:
    """The hash constant before and after each of ``_POOL`` steps from h:
    the pairs a run of ``hashmix`` calls xors with and multiplies by."""
    pairs = []
    for _ in range(_POOL):
        pairs.append((h, h := h * mult & _MASK))
    return tuple(pairs)


# the four output hashes of ``generate_state``, which start from _INIT_B
_OUT_STEPS = _steps(_INIT_B, _MULT_B)


def _absorb(pool: list[int], h: int, words: list[int]) -> tuple[list[int], int]:
    """Mix each word into every pool word, as ``SeedSequence`` does with a
    spawn key's words; returns the pool and hash constant.  numpy's
    ``hashmix`` (xor with the hash constant, step it, multiply) and ``mix``
    are written out inline, here and in ``TrialKeys.key``, and nowhere else."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL):
            v = (w ^ h) * (h := h * _MULT_A & _MASK) & _MASK
            r = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK
            pool[dst] = r ^ r >> 16
    return pool, h


class TrialKeys:
    """The Philox keys of ``stream(seed, i)`` for any trial index i.

    ``SeedSequence(seed, spawn_key=(i,))`` hashes the seed's words (padded
    to the pool size), then i's words, into a four-word pool, and Philox
    takes its key from the pool.  The seed's part is ``SeedSequence(seed)``'s
    pool, after a hash constant that depends on the seed's word count alone;
    each key mixes in i's words only, and for a one-word i (below 2^32) the
    hash constants it meets are precomputed too, so only its mixing is left.
    """

    def __init__(self, seed: int) -> None:
        seed = _checked_int(seed, "seed", 0)
        seq = np.random.SeedSequence(seed)
        self._pool = seq.pool.tolist()
        steps = _POOL * max(_POOL, len(_words(seed)))
        self._hash = _INIT_A * pow(_MULT_A, steps, _MASK + 1) & _MASK
        # per pool word: the word, and the hash constants that a one-word
        # index and then the output meet there, whatever the index
        self._one_word = tuple((p, *hm, *out) for p, hm, out in
                               zip(self._pool, _steps(self._hash, _MULT_A), _OUT_STEPS))
        self._bits = np.random.Philox(seq)  # ``keyed`` sets its key before every use
        self.generator = np.random.Generator(self._bits)

    def key(self, i: int) -> tuple[int, int]:
        """``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)``."""
        i, out = _checked_int(i, "trial index", 0), []
        if i >> 32:
            pool, _ = _absorb(self._pool, self._hash, _words(i))
            for w, (h, m) in zip(pool, _OUT_STEPS):
                v = (w ^ h) * m & _MASK
                out.append(v ^ v >> 16)
        else:  # ``_absorb`` of one word and the output hash, word by word
            for p, h, m, h_out, m_out in self._one_word:
                v = (i ^ h) * m & _MASK
                r = (_MIX_L * p - _MIX_R * (v ^ v >> 16)) & _MASK
                v = (r ^ r >> 16 ^ h_out) * m_out & _MASK
                out.append(v ^ v >> 16)
        # four uint32 words, two little-endian uint64s
        return out[0] | out[1] << 32, out[2] | out[3] << 32

    def stream(self, i: int, skip: int = 0) -> np.random.Generator:
        """``self.generator`` re-keyed to ``stream(seed, i)``, its first
        ``skip`` draws (one per double) passed over."""
        return self.keyed(self.key(i), skip)

    def keyed(self, key: tuple[int, int], skip: int = 0) -> np.random.Generator:
        """``self.generator`` set to the Philox ``key`` of a trial (see
        ``key``), its first ``skip`` draws passed over.

        The generator is shared: re-keying it for another trial restarts it.
        Philox draws four 64-bit words per counter step, so passing over
        costs one step count and at most three draws.
        """
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (skip // 4, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if skip % 4:
            self._bits.random_raw(skip % 4)
        return self.generator


_U32 = 1 << 32
_U63 = 1 << 63
_U64 = 1 << 64


def _below(rng: np.random.Generator) -> Callable[[int], int]:
    """``below(n)``, which draws ``int(rng.integers(0, n))`` for an int
    1 <= n <= 2^63, draw for draw, and leaves ``rng`` in the same state;
    for n > 2^63 it raises ValueError and draws nothing, as ``integers`` does.

    As numpy does, a draw multiplies one word of the bit generator (32 bits
    for n <= 2^32, else 64) by n and keeps the product's high word; it draws
    again while the low word falls below 2^32 mod n (2^64 mod n), and a
    range of one draws nothing.  ``below`` holds the bit generator, whose
    state it calls into, and takes no lock: a caller that shares ``rng``
    across threads holds ``rng.bit_generator.lock`` while it draws.
    """
    bits = rng.bit_generator.ctypes
    next32, next64, state = bits.next_uint32, bits.next_uint64, bits.state

    def below(n: int) -> int:
        if n <= _U32:
            if n == 1:
                return 0
            m = next32(state) * n
            if m & _MASK < n:  # may be biased: reject low words below 2^32 mod n
                low = _U32 % n
                while m & _MASK < low:
                    m = next32(state) * n
            return m >> 32
        if n > _U63:
            raise ValueError(f"range {n} is out of bounds for int64 draws")
        m = next64(state) * n
        if m % _U64 < n:
            low = _U64 % n
            while m % _U64 < low:
                m = next64(state) * n
        return m >> 64

    below.bit_generator = rng.bit_generator  # owns the memory ``state`` points to
    return below


def _checked_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an int >= ``least`` (any int when None); ValueError for
    anything else."""
    try:  # index() takes numpy ints, refuses what int() would truncate or parse
        value = index(value)
    except TypeError as exc:
        raise ValueError(f"{what} must be an integer: {exc}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _checked_ints(values, what: str, depth: int = 1) -> tuple:
    """``values`` as a tuple of ints, or with ``depth`` > 1 as tuples nested
    that deep; ValueError for anything else, a non-sequence included."""
    try:
        if depth == 1:
            return tuple(map(index, values))
        return tuple(_checked_ints(v, what, depth - 1) for v in values)
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None
