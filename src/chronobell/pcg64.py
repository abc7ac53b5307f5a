"""numpy's ``PCG64(seed)`` words at chosen places, by jump-ahead, without ``numpy.random``.

One PCG64 step is the affine map s -> M*s + inc (mod 2**128), so n steps are
s -> A_n*s + C_n (F. B. Brown, "Random number generation with arbitrary
strides", Trans. Am. Nucl. Soc. 71, 202 (1994)). Word k of the stream is the
XSL-RR 128/64 output of the state after k + 1 steps (M. E. O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for random
number generation", HMC-CS-2014-0905 (2014)).

`reader` reads any n rows of `block` words, from row `first` on, as a `Chunk`
that makes a word only when it is read: word j of a row is the output of
A_{j+1}*s + C_{j+1}, s the row's start state. Every column's (A, C) and the
start states of rows 0..n-1 are orbits of one map, built by doubling; one jump
of first*block steps maps those to rows first.., so no chunk needs another.
A chunk is indexed as the array of its words is, and each consumer's key says
what it reads: covariance the first columns of every row, flash windows of
waiting-time words, then the words of each hit. A jump costs several times the
step to the next word, so readers of every word (``gen-lambda``) keep
``random_raw``. The arithmetic is on uint64 lo/hi arrays: numpy has no 128-bit
type, so the high word of the low 64x64 product goes through 32-bit limbs
(H. S. Warren, "Hacker's Delight", section 8-2, mulhu). Only array arithmetic
wraps here: numpy warns when uint64 scalars overflow.

Seeding is numpy's ``SeedSequence(seed)`` -> ``PCG64`` path in Python ints: the
hashmix pool, ``generate_state(4)`` and ``pcg_setseq_128_srandom_r``. The tests
pin the state and every word to ``numpy.random.PCG64``.
"""

from __future__ import annotations

import numpy as np

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_32, _58, _63, _64, _LOW32 = map(np.uint64, (32, 58, 63, 64, MASK32))


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix of `value`, and the hash constant it leaves."""
    next_const = const * 0x931E8875 & MASK32
    value = (value ^ const) * next_const & MASK32
    return value ^ value >> 16, next_const


def seed_state(seed: int) -> tuple[int, int]:
    """(state, inc) of ``numpy.random.PCG64(seed)`` for a seed in [0, 2**64)."""
    # the seed's 32-bit words, low first: 1 or 2 of them, never more than the pool's 4
    entropy = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool, const = [], 0x43B0D7E5
    for i in range(4):
        value, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & MASK32
                pool[dst] = mixed ^ mixed >> 16
    words, const = [], 0x8B51F9DD  # generate_state(4, uint64): 8 words, paired low first
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & MASK32
        value = value * const & MASK32
        words.append(value ^ value >> 16)
    init_state, init_seq = (words[i + 1] << 96 | words[i] << 64 | words[i + 3] << 32 | words[i + 2]
                            for i in (0, 4))
    inc = (init_seq << 1 | 1) & MASK128
    return ((inc + init_state) * MULTIPLIER + inc) & MASK128, inc


def reader(seed: int, block: int, rows: int):
    """read(first, n): blocks first..first+n-1 (n <= `rows`) of ``PCG64(seed)``, as a `Chunk`."""
    state, inc = seed_state(seed)
    # column j's (A, C): j + 1 steps, from a row's start state to the state of its word j
    jumps = np.concatenate([_orbit(MULTIPLIER, block, MULTIPLIER, 0),
                            _orbit(inc, block, MULTIPLIER, inc)])
    starts = _orbit(state, rows, *_power(MULTIPLIER, inc, block))  # of blocks 0..rows-1

    def read(first: int, n: int) -> Chunk:
        a, c = map(_words, _power(MULTIPLIER, inc, first * block))
        return Chunk(jumps, np.array(_affine(a, starts[:, :n], c)))

    return read


class Chunk:
    """Rows of `block` words of the stream, indexed as the (rows, block) uint64 array of
    them is, by integer arrays of rows and columns that broadcast or by two slices; it
    makes exactly the words indexed, each when it is read."""

    def __init__(self, jumps: np.ndarray, starts: np.ndarray) -> None:
        self._jumps, self._starts = jumps, starts
        self.shape = (starts.shape[1], jumps.shape[1])

    def __getitem__(self, key) -> np.ndarray:
        rows, columns = key
        if isinstance(rows, slice):  # column by column along the rows, then transposed
            jumps = self._jumps[:, columns, None]
            return _output(*_affine(jumps[:2], self._starts[:, rows], jumps[2:])).T
        jumps = np.take(self._jumps, columns, axis=1)  # the fast gather along an axis
        return _output(*_affine(jumps[:2], np.take(self._starts, rows, axis=1), jumps[2:]))


def _words(x: int) -> np.ndarray:
    """The 128-bit `x` as a (2, 1) array: its low and its high uint64 word."""
    return np.array([[x & MASK64], [x >> 64]], np.uint64)


def _power(a: int, c: int, n: int) -> tuple[int, int]:
    """(A, C) of n steps of s -> a*s + c (mod 2**128), by squaring."""
    big_a, big_c = 1, 0
    while n:
        if n & 1:
            big_a, big_c = a * big_a & MASK128, (a * big_c + c) & MASK128
        a, c = a * a & MASK128, (a * c + c) & MASK128
        n >>= 1
    return big_a, big_c


def _orbit(x: int, n: int, a: int, c: int) -> np.ndarray:
    """x_0 = x, ..., x_{n-1} with x_{k+1} = a*x_k + c (mod 2**128), as a (2, n) lo/hi array;
    each round maps the k entries so far k steps on, doubling them."""
    orbit = _words(x)
    while orbit.shape[1] < n:
        big_a, big_c = _power(a, c, orbit.shape[1])
        orbit = np.concatenate([orbit, _affine(_words(big_a), orbit, _words(big_c))], axis=1)
    return orbit[:, :n]


def _affine(a, s, c) -> tuple:
    """a*s + c (mod 2**128) per entry, each a (lo, hi) pair of uint64 arrays that broadcast."""
    (a_lo, a_hi), (s_lo, s_hi), (c_lo, c_hi) = a, s, c
    a0, a1, s0, s1 = a_lo & _LOW32, a_lo >> _32, s_lo & _LOW32, s_lo >> _32
    t = a1 * s0 + (a0 * s0 >> _32)
    w = (t & _LOW32) + a0 * s1
    hi = a1 * s1 + (t >> _32) + (w >> _32)  # the high word of a_lo * s_lo
    hi += a_hi * s_lo + a_lo * s_hi + c_hi
    lo = a_lo * s_lo + c_lo
    hi += lo < c_lo  # the carry out of the low word
    return lo, hi


def _output(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """XSL-RR output of each state (lo, hi)."""
    x, rot = hi ^ lo, hi >> _58
    return (x >> rot) | (x << ((_64 - rot) & _63))
