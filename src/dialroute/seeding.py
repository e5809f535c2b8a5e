"""Deterministic seed derivation.

All randomness in a run flows from one master seed. Components that need their
own stream derive a sub-seed from (master seed, label) so that adding or
reordering consumers never perturbs another component's stream.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


def subseed(seed: int, label: str) -> int:
    """Derive a stable 63-bit sub-seed from a master seed and a stream label."""
    payload = f"{seed}:{label}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


# numpy's SeedSequence constants (pool size 4, 32-bit words) and PCG64's multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# Seeding steps the state twice from (0, seed): state = (seed + inc)·M² + inc·(M + 1).
_PCG_MULT2 = _PCG_MULT * _PCG_MULT & _MASK128


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed below
    2⁶⁴ at once, as four uint64 arrays. A seed is one or two 32-bit entropy
    words; a missing high word mixes in as 0, as SeedSequence pads it."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    low = (seeds & np.uint64(_MASK32)).astype(u32)
    high = (seeds >> np.uint64(32)).astype(u32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state.append((value ^ (value >> u32(16))).astype(np.uint64))
    return [state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def pcg64_first_draws(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each seed in [0, 2⁶⁴), what ``np.random.default_rng(seed)`` gives:
    its first ``random()`` double, then the PCG64 ``state`` after that draw and
    the stream ``inc``, the last two as rows of (high, low) uint64 words.

    This reproduces numpy's SeedSequence entropy mixing and ``generate_state``,
    PCG64's 128-bit seeding and XSL-RR output, and ``Generator.random``'s
    53-bit double, bit for bit; a tier-1 test (``tests/test_seeding.py``)
    pins it against numpy itself. The mixing runs on uint32 arrays for all
    seeds at once and the two 128-bit steps on Python ints: ~1.7 µs a seed in
    all, against ~20 µs for building a fresh Generator (one core of a 2-vCPU
    VM, 20,000 seeds). A Generator whose ``bit_generator.state`` is set to
    the returned state and inc, with ``has_uint32`` 0, continues exactly as
    the seeded one would after its first ``random()``.
    """
    high, low, inc_high, inc_low = _seed_sequence_words(
        np.asarray(seeds, dtype=np.uint64).reshape(-1)
    )
    one = np.uint64(1)
    incs = np.stack([(inc_high << one) | (inc_low >> np.uint64(63)), (inc_low << one) | one], 1)
    state_high: list[int] = []
    state_low: list[int] = []
    for s_hi, s_lo, i_hi, i_lo in zip(high.tolist(), low.tolist(), *incs.T.tolist()):
        inc = i_hi << 64 | i_lo
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT2 + inc * (_PCG_MULT + 1) & _MASK128
        state_high.append(state >> 64)
        state_low.append(state & _MASK64)
    states = np.array([state_high, state_low], dtype=np.uint64).T
    rotated = states[:, 0] ^ states[:, 1]
    rotation = states[:, 0] >> np.uint64(58)
    output = (rotated >> rotation) | (rotated << (-rotation & np.uint64(63)))
    draws = (output >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return draws, states, incs
