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
