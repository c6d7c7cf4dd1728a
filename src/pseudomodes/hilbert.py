"""Composite Hilbert space plumbing: system, truncated modes, embeddings.

The total space is system (x) mode_1 (x) ... (x) mode_N with each mode
truncated at a caller-chosen Fock level.  Everything here is dense numpy;
problem sizes are meant for a workstation, and the integrators upstream are
written against plain matrices.

The system side is specified by its bare energies and, per environment
coupling channel j, a Hermitian operator O_j together with a positive
transition frequency w_j.  The lowering part of O_j on the w_j gap,

    c_j = sum_{e_m - e_n = w_j} P(e_n) O_j P(e_m),

satisfies [H_S0, c_j] = -w_j c_j and is the operator the modes couple to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_complex_matrix, frozen, is_hermitian
from .errors import InvalidModelError

#: Energy gaps must match transition frequencies this tightly (scale aware).
GAP_TOL = 1e-12


@dataclass(frozen=True)
class SystemSpec:
    """Bare system energies plus the coupling channels into the environment.

    energies: bare levels e_n in increasing order of index (not required to be
        sorted, but degeneracies are honored exactly).
    observables: one Hermitian matrix O_j per channel.
    frequencies: the transition frequency w_j > 0 each channel addresses; every
        w_j must match some energy difference e_m - e_n.
    strengths: overall coupling strength W_j >= 0 of the channel (the same
        numbers the mode construction was fed).
    drive: optional extra Hamiltonian term H(t) added on top of the bare
        energies, supplied as a callable returning a Hermitian matrix.
    """

    energies: tuple[float, ...]
    observables: tuple[np.ndarray, ...]
    frequencies: tuple[float, ...]
    strengths: tuple[float, ...]
    drive: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        d = len(self.energies)
        if d < 2:
            raise InvalidModelError("system needs at least two levels")
        if not (len(self.observables) == len(self.frequencies) == len(self.strengths)):
            raise InvalidModelError(
                "observables, frequencies and strengths must have equal length"
            )
        if not self.observables:
            raise InvalidModelError("at least one coupling channel is required")
        frozen_obs = []
        for j, o in enumerate(self.observables):
            mat = as_complex_matrix(o, f"observable {j}")
            if mat.shape != (d, d):
                raise InvalidModelError(
                    f"observable {j} has shape {mat.shape}, expected {(d, d)}"
                )
            if not is_hermitian(mat):
                raise InvalidModelError(f"observable {j} is not Hermitian")
            frozen_obs.append(frozen(mat))
        object.__setattr__(self, "observables", tuple(frozen_obs))
        scale = max(1.0, max(abs(e) for e in self.energies))
        gaps = [em - en for em in self.energies for en in self.energies]
        for j, w in enumerate(self.frequencies):
            if not w > 0.0:
                raise InvalidModelError(
                    f"transition frequency {j} must be positive, got {w}"
                )
            if not any(abs(gap - w) <= GAP_TOL * scale for gap in gaps):
                raise InvalidModelError(
                    f"transition frequency {w} matches no energy difference"
                )
        for j, s in enumerate(self.strengths):
            if not (np.isfinite(s) and s >= 0.0):
                raise InvalidModelError(f"strength {j} must be finite and >= 0")

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def n_channels(self) -> int:
        return len(self.observables)

    @property
    def bare_hamiltonian(self) -> np.ndarray:
        return np.diag(np.asarray(self.energies, dtype=complex))


@dataclass(frozen=True)
class SpaceLayout:
    """Shape of the composite space: system dimension and per-mode Fock cutoffs.

    fock_levels[l] = n_max of mode l, meaning levels 0..n_max are kept and the
    factor dimension is n_max + 1.
    """

    system_dim: int
    fock_levels: tuple[int, ...]

    def __post_init__(self):
        if self.system_dim < 2:
            raise InvalidModelError("system dimension must be at least 2")
        for n in self.fock_levels:
            if n < 1:
                raise InvalidModelError(
                    f"each mode needs n_max >= 1, got {n}"
                )

    @property
    def n_modes(self) -> int:
        return len(self.fock_levels)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.system_dim,) + tuple(n + 1 for n in self.fock_levels)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def eigenoperator(system: SystemSpec, j: int) -> np.ndarray:
    """Lowering eigenoperator of channel j on the system factor.

    Keeps exactly the matrix elements of O_j between level pairs whose gap
    equals w_j; degenerate levels contribute all their pairs.  Raises if the
    result is identically zero (the observable has no weight on that gap).
    """
    if not 0 <= j < system.n_channels:
        raise ValueError(f"channel index {j} out of range")
    w = system.frequencies[j]
    o = system.observables[j]
    e = system.energies
    scale = max(1.0, max(abs(x) for x in e))
    c = np.zeros((system.dim, system.dim), dtype=complex)
    for n in range(system.dim):
        for m in range(system.dim):
            if abs((e[m] - e[n]) - w) <= GAP_TOL * scale:
                c[n, m] = o[n, m]
    if float(np.abs(c).max()) == 0.0:
        raise InvalidModelError(
            f"channel {j}: observable has no matrix element across gap {w}"
        )
    return c


def destroy(levels: int) -> np.ndarray:
    """Truncated annihilation operator on levels 0..n_max (dimension n_max+1)."""
    d = levels + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    return a


def embed(layout: SpaceLayout, factor: int, op: np.ndarray) -> np.ndarray:
    """Lift an operator on one tensor factor to the full space.

    factor 0 is the system; factor 1 + l is mode l.
    """
    dims = layout.dims
    if not 0 <= factor < len(dims):
        raise ValueError(f"factor {factor} out of range for {len(dims)} factors")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[factor], dims[factor]):
        raise InvalidModelError(
            f"operator shape {op.shape} does not match factor dimension {dims[factor]}"
        )
    left = math.prod(dims[:factor])
    right = math.prod(dims[factor + 1:])
    # I_left (x) op (x) I_right in one broadcast product: entry
    # (a, i, b; a', j, b') is delta_aa' delta_bb' op_ij.
    ident = np.eye(left * right).reshape(left, 1, right, left, 1, right)
    return (ident * op[:, None, None, :, None]).reshape(layout.dim, layout.dim)


def embed_system(layout: SpaceLayout, op: np.ndarray) -> np.ndarray:
    return embed(layout, 0, op)


def mode_ops(layout: SpaceLayout, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Embedded (annihilation, creation) pair for mode l."""
    if not 0 <= l < layout.n_modes:
        raise ValueError(f"mode index {l} out of range")
    a = embed(layout, 1 + l, destroy(layout.fock_levels[l]))
    return a, a.conj().T


def partial_trace_modes(rho: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Trace out every mode, returning the reduced system matrix."""
    d_s = layout.system_dim
    d_m = layout.dim // d_s
    r = np.asarray(rho).reshape(d_s, d_m, d_s, d_m)
    return np.einsum("ambm->ab", r)


def top_fock_populations(rho: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Population of the highest kept Fock level, one entry per mode.

    Only diagonal data is touched, so this is cheap enough to run at every
    snapshot as the truncation guard.
    """
    diag = np.real(np.diagonal(rho)).reshape(layout.dims)
    out = np.empty(layout.n_modes)
    for l in range(layout.n_modes):
        out[l] = diag.take(indices=layout.fock_levels[l], axis=1 + l).sum()
    return out


def basis_state(layout: SpaceLayout, system_level: int, fock=None) -> np.ndarray:
    """Unit vector |system_level> (x) |n_1 ... n_N> (vacuum by default)."""
    if fock is None:
        fock = (0,) * layout.n_modes
    fock = tuple(int(n) for n in fock)
    if len(fock) != layout.n_modes:
        raise InvalidModelError("one Fock index per mode is required")
    idx = (int(system_level),) + fock
    for i, (v, d) in enumerate(zip(idx, layout.dims)):
        if not 0 <= v < d:
            raise InvalidModelError(f"index {v} out of range for factor {i} (dim {d})")
    vec = np.zeros(layout.dim, dtype=complex)
    vec[np.ravel_multi_index(idx, layout.dims)] = 1.0
    return vec


def vacuum_embedding(layout: SpaceLayout, rho_system: np.ndarray) -> np.ndarray:
    """Extend a system density matrix with every mode in its ground state."""
    rho_system = as_complex_matrix(rho_system, "system state")
    if rho_system.shape != (layout.system_dim, layout.system_dim):
        raise InvalidModelError(
            f"system state has shape {rho_system.shape}, expected "
            f"{(layout.system_dim, layout.system_dim)}"
        )
    out = rho_system
    for n in layout.fock_levels:
        vac = np.zeros((n + 1, n + 1), dtype=complex)
        vac[0, 0] = 1.0
        out = np.kron(out, vac)
    return out


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(op rho) without forming the product matrix."""
    return complex(np.sum(np.asarray(op) * np.asarray(rho).T))
