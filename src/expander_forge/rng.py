"""Deterministic random streams.

All randomness flows through Philox4x64-10, numpy's counter-based bit
generator: a master stream is keyed by the user's 64-bit seed, and per-task
streams start at disjoint counters. Results are therefore independent of
how candidate evaluations are scheduled or batched.

Uniform rows (the search's and the tail experiment's vectors) come from the
task streams evaluated in numpy arithmetic (`philox.TaskIntegers`), bit for
bit what `Generator.integers` draws from `task_rng`; normal draws
(`kazhdan`) still come through `numpy.random` here.
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


def task_counter(index: int) -> np.ndarray:
    """Philox counter at which sub-task `index`'s stream starts:
    (index + 1) * 2^128, the state that `.jumped(index + 1)` reaches from the
    master stream, set directly in the counter's two high words."""
    if index < 0:
        raise ValueError("task index must be nonnegative")
    jumps = index + 1
    return np.array([0, 0, jumps & _WORD, (jumps >> 64) & _WORD], dtype=np.uint64)


def task_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for sub-task `index` of a run, disjoint from the master stream,
    starting at `task_counter(index)`. Task i's stream is therefore the same
    no matter which worker or batch evaluates it.
    """
    counter = task_counter(index)
    return np.random.Generator(np.random.Philox(key=_check_seed(seed), counter=counter))
