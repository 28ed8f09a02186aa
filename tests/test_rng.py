"""Deterministic random streams."""

import numpy as np
import pytest

from expander_forge.rng import task_rng


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("index", [0, 1, 999, 2**40, 2**64 - 2, 2**64 - 1, 2**64 + 5])
def test_task_stream_is_the_jumped_master_stream(index):
    """The counter set directly is the state `.jumped(index + 1)` reaches;
    the last two indices carry into the counter's top word."""
    for seed in (0, 7, 2**64 - 1):
        jumped = np.random.Philox(key=seed).jumped(index + 1)
        stream = task_rng(seed, index)
        assert _same_state(stream.bit_generator.state, jumped.state)
        assert np.array_equal(stream.standard_normal(8),
                              np.random.Generator(jumped).standard_normal(8))

