"""Small numeric helpers used by several modules."""

from __future__ import annotations

import numpy as np

from .errors import InvalidModelError

#: Magnitude below which comparisons fall back from relative to absolute.
SMALL = 1e-8


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
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise InvalidModelError("time grid must be strictly increasing")
    return t


# numpy's SeedSequence hash constants (numpy.random.bit_generator) and the
# PCG64 multiplier (O'Neill, PCG, 2014).
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(seed: int, n_words: int, spawn: np.ndarray | None = None) -> list:
    """numpy's ``SeedSequence(seed).generate_state(n_words, np.uint32)`` as a
    list of ints; with ``spawn``, a uint32 array of indices, the words of
    ``SeedSequence(seed, spawn_key=(idx,))`` for each idx, as uint32 arrays.

    The entropy is seed's uint32 words, least significant first, padded with
    zeros to the pool size 4, then idx.  The seed's words are hashed once as
    ints, masked to 32 bits as numpy's C wraps them; only idx's word on runs
    on arrays, whose uint32 products wrap by themselves."""
    seed = int(seed)
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    if spawn is not None:
        words.append(spawn)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
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
    h, state = _INIT_B, []
    for i in range(n_words):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        state.append(v ^ v >> 16)
    return state


def uniform_draws(seed: int, high: float, n: int) -> list[float]:
    """The n numbers of numpy's ``default_rng(seed).uniform(0.0, high, n)``,
    bit for bit, without importing ``numpy.random``.

    ``PCG64`` takes seed and increment from ``generate_state(4, np.uint64)``
    (high word first), steps the 128-bit LCG before each output, and returns
    the XSL-RR 64-bit output; a draw is (x >> 11) 2**-53, scaled by high."""
    w = seed_words(seed, 8)
    s = [w[k] | w[k + 1] << 32 for k in range(0, 8, 2)]
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
    # Seeding steps from state 0 (to inc), adds the seed, and steps once more.
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(0.0 + high * ((x >> 11) * 2.0**-53))
    return out
