"""Composite Hilbert space plumbing: system, truncated modes, sectors.

The total space is system (x) mode_1 (x) ... (x) mode_N with each mode
truncated at a caller-chosen Fock level.  Operators and states live on a
``Sector``, a set S of product-basis states: a term of the model, a tensor
product of factor operators, is read off the sector's labels as the index
map of its nonzeros (``move``), scattered into a dense S x S block where one
is needed, so no array ever has the size of the whole space unless S is all
of it, and a ladder move (``LADDER``) has no array of a mode's cutoff size.

The system side is specified by its bare energies and, per environment
coupling channel j, a Hermitian operator O_j together with a positive
transition frequency w_j.  The lowering part of O_j on the w_j gap,

    c_j = sum_{e_m - e_n = w_j} P(e_n) O_j P(e_m),

satisfies [H_S0, c_j] = -w_j c_j and is the operator the modes couple to.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import as_complex_matrix, frozen, is_hermitian
from .errors import InvalidModelError

#: Energy gaps must match transition frequencies this tightly (scale aware).
GAP_TOL = 1e-12
#: The moves a mode factor may name: level n goes to n + shift with the entry
#: of ``destroy`` or its product, sqrt(n), sqrt(n + 1) or sqrt(n) sqrt(n).
#: The entry takes the square root to use, numpy's for arrays of levels.
LADDER = {"b": (-1, lambda n, sqrt=np.sqrt: sqrt(n)),
          "b^dag": (1, lambda n, sqrt=np.sqrt: sqrt(n + 1)),
          "b^dag b": (0, lambda n, sqrt=np.sqrt: sqrt(n) * sqrt(n))}


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
    """

    energies: tuple[float, ...]
    observables: tuple[np.ndarray, ...]
    frequencies: tuple[float, ...]
    strengths: tuple[float, ...]

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

    @functools.cached_property
    def _sectors(self) -> list:
        """The sectors ``Sector.closure`` found on this layout: generators
        built on it that reach the same labels share one."""
        return []

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.system_dim,) + tuple(n + 1 for n in self.fock_levels)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


class Sector:
    """A set S of product-basis states of ``layout``: the basis a generator is
    built, propagated and recorded in.

    Each state is a label (level, n_1 ... n_N).  ``labels`` holds them as an
    (|S|, 1 + N) array in increasing order of their index ``support`` in the
    product space, and the sector of every label is the whole space.
    ``closure`` grows a sector through the terms of a model, ``moves`` reads
    a term's nonzeros on S off the labels (``move``), and ``operator``
    scatters them into the S x S block.  A state whose entries outside S x S
    are 0 is read from its S x S block alone: ``reduced`` traces the modes
    out, as one product for a block or for an (n, |S|, |S|) stack of them,
    and ``reduced_kets`` does the same for a state given as weighted ket
    pairs; ``top_fock`` reads each mode's top-level population off the
    populations of S.
    """

    def __init__(self, layout: SpaceLayout, labels):
        rows = _basis_labels(layout, labels)
        dims = layout.dims
        self.layout = layout
        self.labels = frozen(np.array(rows, dtype=np.intp))
        # in Python integers: a product space beyond the int64 range still indexes S
        strides = [math.prod(dims[f + 1:]) for f in range(len(dims))]
        self.support = np.array([sum(v * n for v, n in zip(label, strides)) for label in rows])
        self._position = {label: i for i, label in enumerate(rows)}
        # the partial trace sums each entry (a, b) whose modes agree into
        # (level of a, level of b): one 0/1 map on those entries
        a, b = np.nonzero((self.labels[:, None, 1:] == self.labels[None, :, 1:]).all(axis=2))
        self._pairs = a, b
        into = self.labels[a, 0] * layout.system_dim + self.labels[b, 0]
        self._trace_map = np.eye(layout.system_dim**2, dtype=complex)[into]
        self._top = (self.labels[:, 1:] == np.array(layout.fock_levels, dtype=np.intp)).T.astype(
            float, order="C")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def position(self, label) -> int:
        """The index in S of the basis state ``label``."""
        key = tuple(int(v) for v in label)
        if key not in self._position:
            raise InvalidModelError(f"basis state {key} is not in the sector")
        return self._position[key]

    @classmethod
    def closure(cls, layout: SpaceLayout, start, terms) -> tuple[Sector, list[tuple]]:
        """The sector of the labels that ``terms``, each (coefficient, factors)
        with factors as ``moves`` takes them, reach from the labels ``start``,
        and each term's ``moves`` on it.  A term with a nonzero coefficient
        that moves a level (a ladder shift other than 0, a matrix with a
        nonzero off its diagonal) is walked through ``move`` from each label
        once, until none reaches a new label, and keeps the moves it made;
        a term that moves no level takes each label at most to itself.
        Generators built on one layout that reach the same labels share one
        sector."""
        def shifts(op) -> bool:
            if isinstance(op, str):
                return LADDER[op][0] != 0
            return np.count_nonzero(op) > np.count_nonzero(np.diagonal(op))

        dims = layout.dims
        moving = [any(map(shifts, factors.values())) for _, factors in terms]
        # At most `few` labels are moved one at a time without array calls
        # (_step_moves), where move's calls cost more than the moves: on
        # band_gap.yaml about 9 us a call against 2 us a label.
        few = 4
        compiled = {}

        def steps(i: int) -> list:
            if i not in compiled:
                compiled[i] = _steps(terms[i][1], dims)
            return compiled[i]

        # labels in the order the walk finds them, as the keys of index, as
        # the list order and as the rows of found, and each walked term's moves
        index = {label: i for i, label in enumerate(_basis_labels(layout, start))}
        order = list(index)
        found = np.array(order)
        walked = {i: ([], [], []) for i, (coefficient, _) in enumerate(terms)
                  if coefficient != 0 and moving[i]}
        done = dict.fromkeys(walked, 0)
        while min(done.values(), default=len(order)) < len(order):
            for i, (rows, cols, values) in walked.items():
                lo, done[i] = done[i], len(order)
                if lo == len(order):
                    continue
                if len(order) - lo <= few:
                    source, moved, entries = _step_moves(order[lo:], steps(i))
                    source = [lo + k for k in source]
                else:
                    if len(found) < len(order):
                        found = np.vstack([found, *order[len(found):]])
                    source, moved, entries = move(found[lo:], terms[i][1], dims)
                    source, moved, entries = ((lo + source).tolist(), map(tuple, moved.tolist()),
                                              entries.tolist())
                rows += [index.setdefault(label, len(index)) for label in moved]
                cols += source
                values += entries
                if len(order) < len(index):
                    order += itertools.islice(index, len(order), None)
        # a sector of the same labels found before on this layout is shared
        for sector in layout._sectors:
            if (type(sector) is cls and sector.dim == len(index)
                    and all(label in sector._position for label in index)):
                break
        else:
            sector = cls(layout, index)
            layout._sectors.append(sector)
        at = np.array([sector._position[label] for label in index])
        moves = []
        for i, (_, factors) in enumerate(terms):
            if i in walked:
                rows, cols, values = walked[i]
                moves.append((at[rows], at[cols], np.array(values, dtype=complex)))
            elif moving[i]:
                moves.append(sector.moves(factors))
            elif sector.dim <= few:
                cols, _, values = _step_moves(list(sector._position), steps(i))
                cols = np.array(cols, dtype=np.intp)
                moves.append((cols, cols, np.array(values, dtype=complex)))
            else:
                cols, _, values = move(sector.labels, factors, dims)
                moves.append((cols, cols, values))
        return sector, moves

    def moves(self, factors, name: str = "operator") -> tuple[np.ndarray, np.ndarray,
                                                             np.ndarray]:
        """The nonzeros on S of a tensor product of factor operators, as
        (rows, cols, values): the entry (rows[k], cols[k]) is values[k].

        ``factors`` maps a factor index (0 the system, 1 + l mode l) to a
        matrix on that factor, or on a mode to a ``LADDER`` move; every
        other factor is the identity.  A bare matrix is an operator on the
        system factor.  Each label of S is taken through them by ``move``,
        and a move that leaves S is dropped.
        """
        if not isinstance(factors, dict):
            factors = {0: factors}
        cols, moved, values = move(self.labels, factors, self.layout.dims, name)
        rows = np.array([self._position.get(label, -1) for label in map(tuple, moved.tolist())],
                        dtype=np.intp)
        inside = rows >= 0
        return rows[inside], cols[inside], values[inside]

    def operator(self, factors, name: str = "operator") -> np.ndarray:
        """The S x S block of a tensor product of factor operators: its
        ``moves`` in a zero block."""
        rows, cols, values = self.moves(factors, name)
        block = np.zeros((self.dim,) * 2, dtype=complex)
        block[rows, cols] = values
        return block

    def reduced(self, block: np.ndarray) -> np.ndarray:
        """The system state of the block, or of each block of a stack: every
        mode traced out."""
        return self._traced(block[..., self._pairs[0], self._pairs[1]])

    def reduced_kets(self, left: np.ndarray, right: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
        """The system state of sum_k weights[k] |left[k]><right[k]|, for (K, |S|)
        kets, or of each such sum for an (n, K, |S|) stack of them."""
        rows, cols = self._pairs
        return self._traced(np.einsum("k,...ki,...ki->...i", weights, left[..., rows],
                                      right[..., cols].conj()))

    def _traced(self, entries: np.ndarray) -> np.ndarray:
        """The partial trace of the entries at ``_pairs``, one row per state."""
        lead = entries.shape[:-1]
        return (entries @ self._trace_map).reshape(lead + (self.layout.system_dim,) * 2)

    def top_fock(self, populations: np.ndarray) -> np.ndarray:
        """Population of the highest kept Fock level, one entry per mode, from
        the populations of S (a state's real diagonal), or one row of them per
        row of a stack."""
        return populations @ self._top.T


def _basis_labels(layout: SpaceLayout, labels) -> list[tuple[int, ...]]:
    """The distinct basis states ``labels`` of ``layout``, sorted, as tuples."""
    rows = sorted({tuple(int(v) for v in label) for label in labels})
    dims = layout.dims
    for label in rows:
        if len(label) != len(dims) or not all(0 <= v < d for v, d in zip(label, dims)):
            raise InvalidModelError(
                f"{label} is no basis state of a space with factor dimensions {dims}")
    if not rows:
        raise InvalidModelError("a sector needs at least one basis state")
    return rows


def move(labels: np.ndarray, factors: dict, dims, name: str = "operator"):
    """The labels of the (n, 1 + N) array ``labels`` taken through a term's
    factors, as ``Sector.moves`` takes them: a ``LADDER`` move takes level n
    to n + shift with its entry at n, a matrix takes n to each m with a
    nonzero (m, n), and a move with an entry of 0 or past the cutoff is
    dropped.  Returns (source, moved, values): each move's index in
    ``labels``, its label and its entries multiplied from 1 in factor order."""
    source = np.arange(len(labels))
    moved = labels
    values = np.ones(len(labels), dtype=complex)
    for f in sorted(factors):
        op = factors[f]
        ladder = isinstance(op, str) and op in LADDER and f in range(1, len(dims))
        if not (ladder or f in range(len(dims)) and np.shape(op) == (dims[f],) * 2):
            raise InvalidModelError(f"{name} of shape {np.shape(op)} is no operator on "
                                    f"factor {f} of a space with factor dimensions {dims}")
        level = moved[:, f]
        if ladder:
            shift, entry = LADDER[op]
            entries = entry(level)
            # only a raise can pass the cutoff, and its entry sqrt(n + 1) is never 0
            (k,) = (level < dims[f] - shift).nonzero() if shift > 0 else entries.nonzero()
            to, entries = level[k] + shift, entries[k]
        else:
            op = np.asarray(op, dtype=complex)
            k, to = op.T[level].nonzero()
            entries = op[to, level[k]]
        source, values, moved = source[k], values[k] * entries, moved.take(k, axis=0)
        moved[:, f] = to
    return source, moved, values


def _steps(factors: dict, dims) -> list[tuple[int, str | list[list[complex]], int]]:
    """A term's factors in factor order as ``_step_moves`` takes them, each
    (factor, operator, factor dimension), the operator a ``LADDER`` name or
    a matrix as the list of its columns.  A factor that ``move`` refuses is
    refused alike."""
    steps = []
    for f in sorted(factors):
        op = factors[f]
        if not (isinstance(op, str) and op in LADDER and f in range(1, len(dims))):
            if not (f in range(len(dims)) and np.shape(op) == (dims[f],) * 2):
                move(np.empty((0, len(dims)), dtype=np.intp), factors, dims)
            op = np.asarray(op, dtype=complex).T.tolist()
        steps.append((f, op, dims[f]))
    return steps


def _step_moves(labels: Sequence[tuple[int, ...]], steps) -> tuple[list[int], list[tuple], list]:
    """``move`` of the labels ``labels`` through a term's ``_steps``, as
    lists, one label at a time: the same moves in the same order, with the
    same entries, since the model's terms have at most one matrix factor, so
    each product is exact but for one factor with a nonzero imaginary part,
    which Python and numpy round alike."""
    source, moved, values = [], [], []
    for k, label in enumerate(labels):
        moves = [(label, 1 + 0j)]
        for f, op, size in steps:
            if isinstance(op, str):
                shift, entry = LADDER[op]
                moves = [(m[:f] + (m[f] + shift,) + m[f + 1:], v * e)
                         for m, v in moves
                         for e in [entry(m[f], math.sqrt)]
                         if (m[f] < size - shift if shift > 0 else e != 0.0)]
            else:
                moves = [(m[:f] + (to,) + m[f + 1:], v * e)
                         for m, v in moves for to, e in enumerate(op[m[f]]) if e != 0]
        for m, v in moves:
            source.append(k)
            moved.append(m)
            values.append(v)
    return source, moved, values


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


def basis_state(sector: Sector, system_level: int, fock=None) -> np.ndarray:
    """Unit ket |system_level> (x) |n_1 ... n_N> (vacuum by default) on ``sector``."""
    if fock is None:
        fock = (0,) * sector.layout.n_modes
    vec = np.zeros(sector.dim, dtype=complex)
    vec[sector.position((system_level, *fock))] = 1.0
    return vec


def vacuum_embedding(sector: Sector, rho_system: np.ndarray) -> np.ndarray:
    """A system density matrix with every mode in its ground state, on ``sector``."""
    rho_system = as_complex_matrix(rho_system, "system state")
    d = sector.layout.system_dim
    if rho_system.shape != (d, d):
        raise InvalidModelError(
            f"system state has shape {rho_system.shape}, expected {(d, d)}")
    vacuum = np.flatnonzero(~sector.labels[:, 1:].any(axis=1))
    levels = sector.labels[vacuum, 0]
    nonzero = rho_system != 0
    occupied = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    missing = sorted(set(occupied.tolist()) - set(levels.tolist()))
    if missing:
        raise InvalidModelError(
            f"system levels {missing} with every mode in vacuum are not in the sector")
    out = np.zeros((sector.dim,) * 2, dtype=complex)
    out[vacuum[:, None], vacuum] = rho_system[levels[:, None], levels]
    return out


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(op rho) without forming the product matrix."""
    return complex(np.sum(np.asarray(op) * np.asarray(rho).T))
