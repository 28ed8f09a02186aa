"""Deterministic random streams: numpy's Philox streams, and the uniform
rows drawn from them in numpy arithmetic (`philox`) against numpy's own
draws as the oracle."""

import tracemalloc

import numpy as np
import pytest

from expander_forge import philox
from expander_forge.philox import TaskIntegers, fill_bytes
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



def _numpy_rows(seed, lo, rows, p, size):
    """The oracle: each row drawn by numpy's `Generator.integers` from a
    fresh task stream."""
    return np.array([task_rng(seed, i).integers(0, p, size=size, dtype=np.int64)
                     for i in range(lo, lo + rows)]).reshape(rows, size)


def _arithmetic_rows(seed, lo, rows, p, size, draws=None):
    """`TaskIntegers.fill` into a wider array, whose last column it must
    leave alone."""
    out = np.full((rows, size + 1), -1, dtype=np.int64)
    (draws or TaskIntegers(seed, p)).fill(lo, out, size)
    assert (out[:, -1] == -1).all()
    return out[:, :-1]


@pytest.mark.parametrize("p", [2, 3, 101, 10007, 1000003, 1073741827, 2147483647])
def test_arithmetic_rows_are_numpys_draws(p):
    """The Philox4x64-10 stream and the Lemire rule in numpy arithmetic draw
    bit for bit what numpy's `Generator.integers` draws, at seeds 0, 7 and
    2^64 - 1 and trial indices 0, 999, 2^64 - 2 and 2^64 - 1 (the last two
    carry into the counter's top word, which the Philox must read), for
    n = 2 (one draw), for n longer than one pass of `_WORDS` words, and for
    a batch that starts at lo > 0. At p = 1073741827 about a quarter of the
    words are rejected."""
    assert 1 << 16 == philox._WORDS
    for seed in (0, 7, 2**64 - 1):
        for lo, rows, size in [(0, 1, 1), (2**64 - 2, 2, 1), (999, 4, 15), (2**64 - 2, 2, 63),
                               (0, 2, 70000)]:
            expected = _numpy_rows(seed, lo, rows, p, size)
            assert np.array_equal(_arithmetic_rows(seed, lo, rows, p, size), expected), \
                (seed, lo, rows, size)


@pytest.mark.parametrize("p", [3, 10007, 1073741827])
def test_arithmetic_rows_across_short_passes(p, monkeypatch):
    """With passes of 64 words, rows are split over passes and rows short
    of draws after rejections continue at different places: still numpy's
    rows, and so are the rows of later, differently sized fills of the
    same object, whose buffers were sized by the first."""
    monkeypatch.setattr(philox, "_WORDS", 64)
    draws = TaskIntegers(5, p)
    lo = 0
    for rows, size in [(40, 15), (3, 200), (1, 1), (70, 2), (2, 63)]:
        assert np.array_equal(_arithmetic_rows(5, lo, rows, p, size, draws),
                              _numpy_rows(5, lo, rows, p, size)), (rows, size)
        lo += rows


def test_fill_refuses_an_array_it_cannot_write_in_place():
    """Rows are written through a flat view of `out`, so a strided `out`,
    whose flat copy would take the writes, is refused."""
    with pytest.raises(ValueError, match="C-contiguous"):
        TaskIntegers(0, 5).fill(0, np.zeros((3, 8), dtype=np.int64)[:, ::2], 2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_refused_as_by_numpy_streams(seed):
    """A seed outside [0, 2^64) raises the same ValueError from the
    arithmetic stream as from `task_rng`."""
    with pytest.raises(ValueError) as numpy_error:
        task_rng(seed, 0)
    with pytest.raises(ValueError) as arithmetic_error:
        TaskIntegers(seed, 5)
    assert str(arithmetic_error.value) == str(numpy_error.value)


def test_fill_bytes_covers_the_traced_peak():
    """`fill_bytes` is at least the traced peak of a fill it describes, its
    kept buffers included: a pass of `_WORDS` words with rejected words
    (p = 1073741827) and without (p = 101), rows of one draw, and a small
    batch whose pass is far from full."""
    for rows, size, p in [(65, 999, 1073741827), (65, 999, 101), (1, 70000, 1073741827),
                          (1024, 1, 1073741827), (64, 15, 10007), (1, 2, 2)]:
        out = np.empty((rows, size), dtype=np.int64)
        draws = TaskIntegers(3, p)
        tracemalloc.start()
        try:
            draws.fill(0, out, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fill_bytes(rows, size, p), (rows, size, p, peak)
