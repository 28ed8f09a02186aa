"""Deterministic random streams.

All randomness flows through numpy's Philox bit generator, which is
counter-based: a master stream is keyed by the user's 64-bit seed, and
per-task streams start at disjoint counters. Results are therefore
independent of how candidate evaluations are scheduled or batched.
"""

from __future__ import annotations

import numpy as np

_SEED_MAX = 2**64
_WORD = 2**64 - 1


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def master_rng(seed: int) -> np.random.Generator:
    """Main stream for a run with the given seed."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


def task_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for sub-task `index` of a run, disjoint from the master stream.

    The Philox counter starts at (index + 1) * 2^128, the state that
    `.jumped(index + 1)` reaches from the master stream, set directly in the
    counter's two high words. Task i's stream is therefore the same no
    matter which worker or batch evaluates it.
    """
    if index < 0:
        raise ValueError("task index must be nonnegative")
    jumps = index + 1
    counter = np.array([0, 0, jumps & _WORD, (jumps >> 64) & _WORD], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_check_seed(seed), counter=counter))
