"""numpy's ``PCG64(seed)`` words at chosen offsets, by jump-ahead, without ``numpy.random``.

One PCG64 step is the affine map s -> M*s + inc (mod 2**128), so n steps are
s -> A_n*s + C_n (F. B. Brown, "Random number generation with arbitrary
strides", Trans. Am. Nucl. Soc. 71, 202 (1994)). Word k of the stream is the
XSL-RR 128/64 output of the state after k + 1 steps (M. E. O'Neill, "PCG: a
family of simple fast space-efficient statistically good algorithms for random
number generation", HMC-CS-2014-0905 (2014)).

`prefix_chunks` builds the (A_n, C_n) of every word a chunk reads once, in
Python ints, and then maps each chunk's start state through them at once, on
uint64 hi/lo arrays. numpy has no 128-bit type, so the high word of the low
64x64 product goes through 32-bit limbs (H. S. Warren, "Hacker's Delight",
section 8-2, mulhu). Only array arithmetic wraps here: numpy warns when uint64
scalars overflow.

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


def prefix_chunks(seed: int, n_blocks: int, block: int, prefix: int, rows: int):
    """Words [0, prefix) of blocks 0..n_blocks-1 of `block` words of ``PCG64(seed)``,
    as (rows, prefix) uint64 chunks; the last may be shorter."""
    state, inc = seed_state(seed)
    steps = [(1, 0)]  # (A_n, C_n) for n = 0..block
    for _ in range(block):
        a, c = steps[-1]
        steps.append((a * MULTIPLIER & MASK128, (c * MULTIPLIER + inc) & MASK128))
    step_a, step_c = steps[block]
    table_a, table_c = [], []  # row r's word j is n = block*r + j + 1 steps into the chunk
    a, c = 1, 0
    for _ in range(min(rows, n_blocks)):
        for word_a, word_c in steps[1 : prefix + 1]:
            table_a.append(word_a * a & MASK128)
            table_c.append((word_a * c + word_c) & MASK128)
        a, c = step_a * a & MASK128, (step_a * c + step_c) & MASK128
    chunk_a, chunk_c = a, c
    a_lo, c_lo, a_hi, c_hi = (np.array([x >> shift & MASK64 for x in values], dtype=np.uint64)
                              for shift in (0, 64) for values in (table_a, table_c))
    table = (a_lo, a_lo & _LOW32, a_lo >> _32, a_hi, c_lo, c_hi)
    for lo in range(0, n_blocks, rows):
        n = min(rows, n_blocks - lo) * prefix
        yield _outputs(*(t[:n] for t in table), state).reshape(-1, prefix)
        state = (chunk_a * state + chunk_c) & MASK128


def _outputs(a_lo, a0, a1, a_hi, c_lo, c_hi, state: int) -> np.ndarray:
    """XSL-RR outputs of the states A*state + C (mod 2**128), one per table entry;
    a0 and a1 are the 32-bit limbs of A's low word."""
    s_lo, s_hi = np.uint64(state & MASK64), np.uint64(state >> 64)
    s0, s1 = np.uint64(state & MASK32), np.uint64(state >> 32 & MASK32)
    t = a1 * s0 + (a0 * s0 >> _32)
    w = (t & _LOW32) + a0 * s1
    hi = a1 * s1 + (t >> _32) + (w >> _32)  # the high word of a_lo * s_lo
    hi += a_hi * s_lo + a_lo * s_hi + c_hi
    lo = a_lo * s_lo + c_lo
    hi += lo < c_lo  # the carry out of the low word
    x, rot = hi ^ lo, hi >> _58
    return (x >> rot) | (x << ((_64 - rot) & _63))
