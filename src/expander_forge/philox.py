"""Uniform draws on the task streams in numpy integer arithmetic.

The search's and the tail experiment's vectors have i.i.d. uniform entries
from [0, p), row i from the stream `rng.task_rng(seed, i)`. `TaskIntegers`
draws every row of a batch in one pass of numpy arithmetic: the
Philox4x64-10 blocks (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) and numpy's 32-bit Lemire rule (Lemire, "Fast random
integer generation in an interval", ACM TOMACS 2019), bit for bit what
numpy's `Generator.integers` draws from those streams, with no per-trial
state reset and without importing `numpy.random`, which loads `hashlib` and
OpenSSL's libcrypto. `tests/test_rng.py` compares the two.

A module of its own, imported only where vectors are drawn, so that
commands that never draw (`verify` imports `expsum` for the switching
audit) do not compile it.
"""

from __future__ import annotations

import numpy as np

from .rng import _check_seed

_WORD = 2**64 - 1
_HALF = np.uint64(2**32 - 1)
_SHIFT = np.uint64(32)
# Philox4x64's round multipliers of counter words 0 and 2, as a column
# that multiplies both words at once, with their high and low 32-bit limbs
_MULTIPLIER = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LIMBS = (_MULTIPLIER, _MULTIPLIER >> _SHIFT, _MULTIPLIER & _HALF)
# Weyl increments of the key's two words
_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10
_WORDS = 1 << 16  # most 32-bit words per pass of `TaskIntegers.fill`, expsum's _BLOCK
# bytes per word of a pass at its peak: the Philox's six (2, m) arrays,
# whose memory then holds the accepted words' places (12), the output words
# (4), the words times p (8), the mask of accepted words and its temporary
# (2), and the places and values of the accepted words when some word was
# rejected (16)
_PASS_BYTES_PER_WORD = 42


def _mulhilo(a, limbs, hi, t1, t2, t3) -> None:
    """a * m for the 64-bit multipliers m of `limbs` (m and its high and low
    32-bit limbs), in place: a becomes the low 64-bit word of the product
    and `hi` the high one, the latter from 32-bit limbs whose products fit
    uint64. t1, t2 and t3 are scratch."""
    m, mh, ml = limbs
    np.bitwise_and(a, _HALF, out=t1)
    np.right_shift(a, _SHIFT, out=hi)
    np.multiply(a, m, out=a)
    np.multiply(t1, ml, out=t2)
    t2 >>= _SHIFT  # high half of lo(a) lo(m)
    np.multiply(hi, ml, out=t3)
    t3 += t2  # hi(a) lo(m) plus that carry, below 2^64
    t1 *= mh
    np.bitwise_and(t3, _HALF, out=t2)
    t1 += t2  # lo(a) hi(m) plus the middle word's low half, below 2^64
    t1 >>= _SHIFT
    t3 >>= _SHIFT
    hi *= mh
    hi += t3
    hi += t1


def _philox(state: np.ndarray, key: int) -> tuple:
    """Philox4x64-10 under the key (key, 0), as numpy's `philox4x64_R`
    computes it, in place on state, six (2, m) uint64 arrays: state[0] holds
    counter words 0 and 2 on entry and state[1] words 1 and 3, the rest is
    scratch. Returns the four output words.

    A round maps the counter (x0, x1, x2, x3) to (hi(x2 M1) ^ x1 ^ k0,
    lo(x2 M1), hi(x0 M0) ^ x3 ^ k1, lo(x0 M0)): with a = (x0, x2) and
    b = (x1, x3), one product of a by (M0, M1), then a <- hi reversed ^ b ^ k
    and b <- lo reversed, row reversal being a view."""
    a, b, hi, t1, t2, t3 = state
    k = np.array([[key], [0]], dtype=np.uint64)
    for _ in range(_ROUNDS):
        _mulhilo(a, _LIMBS, hi, t1, t2, t3)
        np.bitwise_xor(b, hi[::-1], out=b)
        b ^= k
        a, b = b, a[::-1]
        k += _BUMP
    return a[0], b[0], a[1], b[1]


def _threshold(p: int) -> int:
    """numpy's Lemire rejection threshold for draws from [0, p)."""
    return (2**32 - p) % p


def _blocks_for(entries: int, threshold: int) -> int:
    """Blocks whose words hold `entries` accepted draws on average."""
    return -(-entries * 2**32 // (2**32 - threshold) // 8)


def fill_bytes(rows: int, size: int, p: int) -> int:
    """Estimated peak memory of `TaskIntegers.fill` for `rows` rows of
    `size` draws from [0, p), besides `out`: its kept buffers and a pass's
    temporaries at `_PASS_BYTES_PER_WORD` per word of its largest pass, 64
    bytes a row for the rows' counters and progress, and a flat 8 KiB."""
    words = min(_WORDS, 8 * rows * _blocks_for(size, _threshold(p)))
    return _PASS_BYTES_PER_WORD * words + 64 * rows + (1 << 13)


class TaskIntegers:
    """Uniform draws from [0, p), 2 <= p < 2^32, on the task streams of one
    seed, in numpy integer arithmetic: `fill(lo, out, size)` makes the first
    `size` entries of row r of `out` bit for bit the row that
    `rng.task_rng(seed, lo + r).integers(0, p, size=size, dtype=np.int64)`
    draws.

    Row r's stream is Philox4x64-10 under the key seed at the counters
    (b, 0) + `rng.task_counter(lo + r)`, b = 1, 2, ... (numpy increments its
    counter before each block). A block's four 64-bit outputs give eight
    32-bit words, each output's low half and then its high half, the order
    of numpy's `next_uint32`. numpy's 32-bit Lemire rule (Lemire, "Fast
    random integer generation in an interval", ACM TOMACS 2019) maps a word
    w to (w p) >> 32 and rejects it when (w p) mod 2^32 < (2^32 - p) mod p;
    a row takes its first accepted words.

    A pass evaluates the blocks that the pending rows need, at most
    `_WORDS` words of them; a row left short by rejected words, or longer
    than one pass, continues in the next pass from its next block. The
    pass buffers (`fill_bytes`) are kept from one `fill` to the
    next and grow to the largest pass asked for, so a loop of equal batches
    allocates them once.
    """

    def __init__(self, seed: int, p: int) -> None:
        self.key = _check_seed(seed)
        self.p = p
        self.threshold = _threshold(p)
        self.cap = 0  # blocks the buffers hold

    def fill(self, lo: int, out: np.ndarray, size: int) -> None:
        """Draw trials lo, lo + 1, ... into the first `size` columns of the
        rows of `out`, a C-contiguous int64 array; other columns are left
        alone."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        rows, width = out.shape
        p, threshold = np.uint64(self.p), np.uint64(self.threshold)
        base = lo + 1
        c2_row = np.arange(rows, dtype=np.uint64)
        c2_row += np.uint64(base & _WORD)
        c3_row = (c2_row < np.uint64(base & _WORD)).astype(np.uint64)  # carry into the top word
        c3_row += np.uint64((base >> 64) & _WORD)
        blocks_used = np.zeros(rows, dtype=np.uint64)
        filled = np.zeros(rows, dtype=np.int64)
        cap = min(_WORDS // 8, rows * _blocks_for(size, self.threshold))
        if cap > self.cap:
            self.cap = cap
            self.state = np.empty((6, 2, cap), dtype=np.uint64)
            self.words = np.empty((cap, 4), dtype="<u8")  # so its '<u4' view is lo, hi
            self.scaled = np.empty((cap, 8), dtype=np.uint64)
        pending = np.arange(rows)
        while pending.size:
            k = min(_blocks_for(size - int(filled[pending].min()), self.threshold), cap)
            take = pending[: max(1, cap // k)]
            s, m = take.size, take.size * k
            x = self.state[:, :, :m]
            np.add(blocks_used[take, None], np.arange(1, k + 1, dtype=np.uint64),
                   out=x[0, 0].reshape(s, k))
            x[0, 1].reshape(s, k)[...] = c2_row[take, None]
            x[1, 0] = 0
            x[1, 1].reshape(s, k)[...] = c3_row[take, None]
            words = self.words[:m]
            for j, word in enumerate(_philox(x, self.key)):
                words[:, j] = word
            prod = np.multiply(words.view("<u4"), p, out=self.scaled[:m]).reshape(s, 8 * k)
            # the Philox state's memory is free until the next pass
            spare = self.state.reshape(-1)[: 8 * m].reshape(s, 8 * k)
            ok = np.bitwise_and(prod, _HALF, out=spare) >= threshold
            prod >>= _SHIFT
            f = filled[take]
            blocks_used[take] += np.uint64(k)
            if ok.all() and (f == f[0]).all():
                c = min(8 * k, size - int(f[0]))
                out[take, f[0] : f[0] + c] = prod[:, :c]
                filled[take] += c
            else:
                at = np.cumsum(ok, axis=1, out=spare.view(np.int64))
                filled[take] = np.minimum(f + at[:, -1], size)
                at += (take * width + f - 1)[:, None]  # where in out each accepted word goes
                ok &= at < (take * width + size)[:, None]
                out.reshape(-1)[at[ok]] = prod[ok]
            pending = pending[filled[pending] < size]
