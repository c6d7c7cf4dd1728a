"""Small numeric helpers used by several modules: comparisons, frozen
arrays and norm bounds, the grid rules (``validate_grid``, ``uniform_runs``)
and the package's one random source, the streams of numpy's ``Philox``
computed without importing ``numpy.random`` (``_Streams``)."""

from __future__ import annotations

import numpy as np

from .errors import InvalidModelError

#: Magnitude below which comparisons fall back from relative to absolute.
SMALL = 1e-8
#: How far from its run's line t_b + k h a row may lie, relative to the run's
#: last time: 4 machine epsilons (2**-52), where the rows of a linspace grid
#: deviate by at most 1.5 (20,000 random grids of 2 to 3,000 rows).
RUN_TOL = 8 * 2.0**-53


def close(a, b, tol: float) -> bool:
    """Compare relatively, or absolutely when the reference is tiny."""
    a = complex(a)
    b = complex(b)
    ref = max(abs(a), abs(b))
    if ref < SMALL:
        return abs(a - b) <= tol
    return abs(a - b) <= tol * ref


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous copy with the writeable flag cleared.

    Domain objects hold array payloads; marking them read-only makes the
    share-nothing concurrency contract enforceable instead of advisory.
    """
    out = np.array(a, copy=True, order="C")
    out.flags.writeable = False
    return out


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    scale = max(1.0, float(np.abs(a).max()))
    return float(np.abs(a - a.conj().T).max()) <= tol * scale


def operator_norm_bound(a: np.ndarray) -> float:
    """Cheap upper bound on the spectral norm.

    min(Frobenius, sqrt(norm_1 * norm_inf)) is a true upper bound for any
    matrix and stays O(d^2), which matters once spaces get large.  A bound
    that overflows is inf, without a warning: callers refuse it.
    """
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(a))
        one = float(np.abs(a).sum(axis=0).max(initial=0.0))
        inf = float(np.abs(a).sum(axis=1).max(initial=0.0))
    return min(fro, np.sqrt(one * inf))


def validate_grid(t_grid) -> np.ndarray:
    """A time grid as a float array: 1-d, non-empty, from 0, strictly increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise InvalidModelError("time grid must be a non-empty 1-d array")
    if abs(t[0]) > 1e-12:
        raise InvalidModelError(f"time grid must start at 0, got {t[0]}")
    if t.size > 1 and not (t[1:] > t[:-1]).all():
        raise InvalidModelError("time grid must be strictly increasing")
    return t


def uniform_runs(t: np.ndarray) -> list[int]:
    """Row indices 0 = b_0 < b_1 < ... < b_m = len(t) - 1 that split the grid
    ``t`` into uniform runs: the rows b_j ... b_(j+1) lie on t[b_j] + k h,
    with h = (t[b_(j+1)] - t[b_j]) / (b_(j+1) - b_j) the run's mean span, to
    within RUN_TOL times the run's last time.

    Three rows within RUN_TOL t of one line have a second difference of at
    most 4 RUN_TOL t, t the last of their times, so a row whose second
    difference is larger ends a run.  Each stretch between such rows is one
    run if all its rows fit their line, and runs of one row if not: a
    linspace grid is one run, and a grid whose spans really differ is runs
    of one row."""
    last = t.size - 1
    if last == 0:
        return [0]
    span = t[1:] - t[:-1]
    bends = 1 + np.flatnonzero(np.abs(span[1:] - span[:-1]) > 4 * RUN_TOL * t[2:])
    bounds = [0]
    for e in bends.tolist() + [last]:
        b = bounds[-1]
        if e - b > 1:
            line = t[b] + np.arange(e - b + 1) * ((t[e] - t[b]) / (e - b))
            if not np.abs(t[b:e + 1] - line).max() <= RUN_TOL * t[e]:
                bounds += range(b + 1, e)
        bounds.append(e)
    return bounds


# numpy's SeedSequence hash constants (numpy.random.bit_generator) and the
# Philox4x64 round constants (Salmon, Moraes, Dror and Shaw, SC'11).
_M32 = 2**32 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _stream_keys(seed: int, n: int) -> np.ndarray:
    """(2, n) uint64: the Philox key that numpy's ``Philox`` takes from
    ``SeedSequence(seed, spawn_key=(idx,))`` for idx = 0 ... n - 1 (n <= 2**32),
    its ``generate_state(2, np.uint64)``, from the ``generate_state(4,
    np.uint32)`` words w_0 ... w_3 as w_0 | w_1 << 32 and w_2 | w_3 << 32.

    The entropy is seed's uint32 words, least significant first, padded with
    zeros to the pool size 4, then idx.  The seed's words are hashed once as
    ints, masked to 32 bits as numpy's C wraps them; idx's word is mixed into
    the four pool words side by side, as (4, n) uint32 arrays whose products
    wrap by themselves."""
    seed = int(seed)
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    h = _INIT_A

    def step(mult):
        """The hash constant and its successor under ``mult``, advancing it."""
        nonlocal h
        h_in, h = h, h * mult & _M32
        return h_in, h

    def hashmix(v):
        h_in, h_out = step(_MULT_A)
        v = (v ^ h_in) * h_out & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    u32 = np.uint32
    h_pairs = np.array([step(_MULT_A) for _ in range(4)], dtype=u32)
    v = (np.arange(n, dtype=u32) ^ h_pairs[:, :1]) * h_pairs[:, 1:]
    v ^= v >> u32(16)
    pool = np.array([_MIX_L * x & _M32 for x in pool], dtype=u32)[:, None] - _MIX_R * v
    pool ^= pool >> u32(16)
    h = _INIT_B
    h_pairs = np.array([step(_MULT_B) for _ in range(4)], dtype=u32)
    state = (pool ^ h_pairs[:, :1]) * h_pairs[:, 1:]
    state ^= state >> u32(16)
    w = state.astype(np.uint64)
    return w[0::2] | w[1::2] << np.uint64(32)


def _philox(keys: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """(4, n) uint64: Philox4x64-10 of the counters (counter, 0, 0, 0) under
    the (2, n) ``keys``.  Words 0 and 2 are multiplied side by side, the high
    half of each 128-bit product formed from 32-bit halves x = x_h 2**32 +
    x_l and m = m_h 2**32 + m_l: with c = x_l m_h + (x_l m_l >> 32) and
    c' = x_h m_l + (c mod 2**32), neither beyond 64 bits, it is x_h m_h +
    (c >> 32) + (c' >> 32)."""
    u64 = np.uint64
    lo32, s32 = u64(2**32 - 1), u64(32)
    m = np.array(_PHILOX_M, dtype=u64)[:, None]
    m_hi, m_lo = m >> s32, m & lo32
    # the key of round r is keys + r w, all ten formed at once (mod 2**64)
    w = np.array(_PHILOX_W, dtype=u64)[:, None]
    round_keys = keys + np.arange(10, dtype=u64)[:, None, None] * w
    even = np.stack([counter.astype(u64), np.zeros_like(counter, dtype=u64)])
    odd = np.zeros_like(even)
    for key in round_keys:
        x_hi, x_lo = even >> s32, even & lo32
        c = x_lo * m_hi + ((x_lo * m_lo) >> s32)
        hi = x_hi * m_hi + (c >> s32) + ((x_hi * m_lo + (c & lo32)) >> s32)
        even, odd = hi[::-1] ^ odd ^ key, (m * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


class _Streams:
    """The random streams 0 ... n - 1 under ``seed``: stream idx is
    ``Generator(Philox(SeedSequence(seed, spawn_key=(idx,))))``, computed
    without building one.  Its draw j is word j % 4 of ``_philox`` at
    counter 1 + j // 4, shifted right by 11 and scaled by 2**-53, the
    ``random()`` of that Generator.  Block 1, draws 0 ... 3 of every stream,
    is formed at once and kept: it holds a trajectory's first threshold and
    the draws of its first jump, and a pair of ``validate``'s lags."""

    def __init__(self, seed: int, n: int):
        self.keys = _stream_keys(seed, n)
        self.head = _philox(self.keys, np.ones(n, dtype=np.uint64))

    def draw(self, idx: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Draw j[k] of stream idx[k], for each k."""
        j = np.asarray(j, dtype=np.uint64)
        four = np.uint64(4)
        words = self.head[(j % four).astype(np.intp), idx]
        late = np.flatnonzero(j >= four)
        if late.size:
            block = _philox(self.keys[:, idx[late]], np.uint64(1) + j[late] // four)
            words[late] = block[(j[late] % four).astype(np.intp), np.arange(late.size)]
        return (words >> np.uint64(11)) * 2.0**-53
