"""Master equation generator for the enlarged system+modes model.

The auxiliary configuration has one master equation,

    L[rho] = -i (D_l rho - rho D_r) + sum_k J_k rho J_k^dag,
    D_l = A - i K,   D_r = A + i K,

with K = sum_k rate_k b_k^dag b_k Hermitian, J_k = sqrt(2 rate_k) b_k, and
one coupling convention: A holds sum_jl g_jl (c_j^dag b_l + b_l^dag c_j),
the same g on both pieces.  ``build_generator`` reads everything from the
mode set (Z = H - i*Gamma, g): A also holds sum_lm H_lm b_l^dag b_m, and the
rates are the diagonal of Gamma.  The kind follows from the set:

* ``lindblad_direct``: real couplings and no hopping.  A is then Hermitian
  and L is a valid completely positive Lindblad form.
* ``pathological``: complex couplings.  A is not Hermitian; trace is
  conserved but Hermiticity of rho is not, while the reduced system state is
  still exact, which is what makes this form a useful oracle.
* ``lindblad_regularized``: real couplings with a real intermode hopping,
  the rotated two-mode form.  Valid Lindblad form.

Every generator is built, and every state recorded, in the Schrodinger
picture, and every generator is time independent, as the auxiliary model is.

Every generator is built on the sector S of its start: the product labels
(level, n_1 ... n_N) within the cutoffs that the terms of L (``_terms``)
reach from the labels ``start`` (``Sector.closure``): A and K are summed
from the index maps of the same terms into S x S blocks, and each jump is
kept as its map.  Because S is closed, L maps the S x S block into itself
and every entry outside it stays exactly 0.0, so the propagation is exact.
One excitation with every mode in vacuum stays in the one-excitation sector
plus the ground state (Garraway, PRA 55, 2290 (1997)): 4 of the 18 basis states
of a two-mode band gap, and 5 of 1,458 for three modes at Fock cutoff 8.
The full space is the sector of every label.  The initial state is handed
over on the generator's sector, and every recorded quantity is read from the
block through the same ``hilbert.Sector``.

Every generator is propagated exactly, one output row at a time.  Where
every jump lands in one label g (``Generator.one_excitation_ground``), as
for one excitation with every mode in vacuum, the jumps only refill |g><g|
with the trace the drift removes, so from rho0 = sum_k p_k v_k v_k^dag

    rho(t) = sum_k p_k a_k b_k^dag + (tr rho0 - sum_k p_k b_k^dag a_k) |g><g|,
    a_k(t) = exp(-i t D_l) v_k,   b_k(t) = exp(-i t D_r^dag) v_k,

with b = a for the Lindblad kinds, where D_r^dag = D_l.  ``evolve`` carries
the kets, one for a pure start, and advances them by ``no_jump_history``:
one exponential per uniform run of the grid (``uniform_runs``: a linspace
grid is one), formed by ``exponential``, and the run's rows by doubling, a
block of n rows times U^n giving the next n, so a run of n rows costs
about log2(n) block products; ``mcwf_run``'s ground route advances its
no-jump ket the same way.
Any other sector, such as two excitations or the whole space, advances each
row's state by a truncated Taylor series that only applies L to |S| x |S|
blocks (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
``taylor_plan`` holds the one row-length rule: a row whose plan would need
more than MAX_TAYLOR_INTERVALS sub-intervals is refused, naming the longest
row that fits.  ``evolve`` reads every record of a ket row off its kets,
and records the Taylor rows in blocks of at most BLOCK_ENTRIES complex
numbers, each read by stacked numpy calls: trace, truncation guard,
Hermiticity, positivity, reduced state and observables.
A truncation guard aborts the run as soon as the top Fock level of any mode
accumulates population beyond 1e-6; the trajectory ensemble applies the
same ``truncation_guard`` to its mean density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import (as_complex_matrix, is_hermitian, operator_norm_bound, uniform_runs,
                    validate_grid)
from .errors import (
    InvalidModelError,
    StepUnderflowError,
    TruncationGuardError,
)
from .hilbert import (
    Sector,
    SpaceLayout,
    SystemSpec,
    eigenoperator,
    vacuum_embedding,
)
from .mapping import ModeSet

KINDS = ("lindblad_direct", "pathological", "lindblad_regularized")

#: Snapshot population of any top Fock level beyond this aborts the run.
TRUNCATION_LIMIT = 1e-6
#: Snapshot invariant tolerances.
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
POSITIVITY_TOL = -1e-8
#: Taylor degrees m with the largest ||h L|| each one evaluates to double
#: precision (unit roundoff 2**-53): Al-Mohy and Higham (2011), Table 3.1.
TAYLOR_THETA = (
    (5, 2.4e-3), (10, 1.4e-1), (15, 6.4e-1), (20, 1.4), (25, 2.4), (30, 3.5),
    (35, 4.7), (40, 6.0), (45, 7.2), (50, 8.5), (55, 9.9),
)
UNIT_ROUNDOFF = 2.0**-53
#: Rows needing more Taylor sub-intervals than this indicate a runaway norm
#: estimate or time span.
MAX_TAYLOR_INTERVALS = 1_000_000
#: Complex entries of the row block ``evolve``'s Taylor route records at once,
#: 1 MiB: the whole grid of a small sector, one row at a time from |S| = 256 on.
BLOCK_ENTRIES = 2**16


class InvariantViolationError(InvalidModelError):
    """A snapshot broke trace, Hermiticity or positivity beyond tolerance."""


class Generator:
    """Concrete generator: matrices for A and K plus jump channels as index maps.

    Instances are immutable by convention; every array is kept internally and
    never handed out for mutation.  A and K are S x S blocks on ``sector``,
    so d below is |S|, and each channel is (rate, (rows, cols, values)), the
    nonzeros of its b_k, at most one per row and per column.  ``apply`` is
    matrix-free in the superoperator sense: d x d products and one gather
    per jump, so a density costs O(d**2) memory where the superoperator would
    cost O(d**4).  ``one_excitation_ground`` tells ``evolve`` whether its
    rows are read off kets instead, and ``mcwf_run`` whether a jumped
    trajectory is the ground ket for good.
    """

    def __init__(
        self,
        kind: str,
        sector: Sector,
        static_both: np.ndarray,
        damping: np.ndarray,
        channels: tuple[tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]], ...],
    ):
        if kind not in KINDS:
            raise InvalidModelError(f"unknown generator kind {kind!r}")
        self.kind = kind
        self.sector = sector
        self.static_both = as_complex_matrix(static_both, "static part")
        self.damping = as_complex_matrix(damping, "damping part")
        d = sector.dim
        if self.static_both.shape != (d, d) or self.damping.shape != (d, d):
            raise InvalidModelError(f"generator matrices must be {d} x {d}, one row per state")
        if not is_hermitian(self.damping, 1e-12):
            raise InvalidModelError("damping part K must be Hermitian")
        if kind != "pathological" and not is_hermitian(self.static_both, 1e-12):
            raise InvalidModelError(f"static part A must be Hermitian for {kind}")
        self.channels = tuple((float(r), _index_map(jump, d)) for r, jump in channels)
        for rate, _ in self.channels:
            if rate < 0.0:
                raise InvalidModelError(f"negative jump rate {rate}")
        # the maps of J_k = sqrt(2 rate_k) b_k
        self._jumps = tuple((rows, cols, np.sqrt(2.0 * rate) * values)
                            for rate, (rows, cols, values) in self.channels if rate > 0.0)
        self._left = self.static_both - 1j * self.damping
        self._right = self.static_both + 1j * self.damping

    @property
    def dim(self) -> int:
        return self.static_both.shape[0]

    def drift(self) -> np.ndarray:
        """Non-Hermitian drift A - iK governing no-jump evolution."""
        return self._left

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate L[rho]: each jump J = (rows, cols, v) adds
        v_a (rho[c_a, c_b] conj(v_b)) at (r_a, r_b), the product J (rho J^dag)."""
        out = -1j * (self._left @ rho - rho @ self._right)
        for rows, cols, v in self._jumps:
            out[np.ix_(rows, rows)] += v[:, None] * (rho[np.ix_(cols, cols)] * v.conj())
        return out

    def norm_estimate(self) -> float:
        """Upper bound on the superoperator norm induced by the Frobenius norm.

        It plans the Taylor series of the exact action.  A jump, with one
        entry per row and per column, has the spectral norm max|v|.
        """
        est = operator_norm_bound(self._left) + operator_norm_bound(self._right)
        for _, _, v in self._jumps:
            est += float(np.abs(v).max(initial=0.0)) ** 2
        return est

    def one_excitation_ground(self) -> int | None:
        """The label g that takes every jump, or None, found once per generator.

        It holds when every jump's rows lie in {g} and its column g is
        empty, D_l and D_r neither enter nor leave g, and sum_k J_k^dag J_k =
        i (D_l - D_r) to roundoff: each jump term is then a multiple of
        |g><g| that returns the trace the drift removes.  One excitation
        with every mode in vacuum has this structure for every kind.
        ``evolve`` then reads each row off the no-jump kets, and ``mcwf_run``
        records a trajectory that has jumped as |g>, whose norm the drift
        keeps and which no jump leaves.
        """
        if not hasattr(self, "_ground"):
            self._ground = self._find_ground()
        return self._ground

    def _find_ground(self) -> int | None:
        hit = set().union(*(rows.tolist() for rows, _, _ in self._jumps))
        if len(hit) != 1:
            return None
        (g,) = hit
        # Each jump is nonzero in row g alone, so sum_k J_k^dag J_k is one
        # product of those rows, and a jump's column g is its entry (g, g).
        reach = np.zeros((len(self._jumps), self.dim), dtype=complex)
        for k, (rows, cols, v) in enumerate(self._jumps):
            reach[k, cols] = v
        loss = reach.conj().T @ reach
        gain = 1j * (self._left - self._right)
        closed = not (reach[:, g].any()
                      or any(np.count_nonzero(op[g]) + np.count_nonzero(op[:, g])
                             > 2 * (op[g, g] != 0) for op in (self._left, self._right))
                      or np.abs(loss - gain).max()
                      > 1e-12 * max(np.abs(gain).max(), np.abs(loss).max()))
        return g if closed else None


def _index_map(jump, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jump map (rows, cols, values) on d states, refused unless it has a
    row and a column per value, each distinct and in [0, d): the gathers of
    ``apply`` and ``mcwf_run`` and the bound of ``norm_estimate`` assume so."""
    rows, cols, values = (np.asarray(a) for a in jump)
    for name, index in (("row", rows), ("column", cols)):
        seen = set(index.tolist())
        if len(index) != len(values):
            raise InvalidModelError(f"a jump map has {len(index)} {name}s for {len(values)} values")
        if len(seen) < len(index) or seen and not 0 <= min(seen) <= max(seen) < d:
            raise InvalidModelError(f"a jump map's {name}s must be distinct indices in [0, {d})")
    return rows, cols, values.astype(complex)


def _check_consistency(system: SystemSpec, modes: ModeSet, layout: SpaceLayout) -> None:
    if not isinstance(modes, ModeSet):
        raise InvalidModelError(f"cannot build a generator from a {type(modes).__name__}")
    strengths, n_modes = modes.strengths, len(modes)
    if layout.system_dim != system.dim:
        raise InvalidModelError("layout system dimension disagrees with the system")
    if layout.n_modes != n_modes:
        raise InvalidModelError(
            f"layout has {layout.n_modes} modes, model has {n_modes}"
        )
    if len(strengths) != system.n_channels:
        raise InvalidModelError(
            "mode set and system disagree on the number of coupling channels"
        )
    for a, b in zip(strengths, system.strengths):
        if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
            raise InvalidModelError(
                f"mode set strength {a} disagrees with system strength {b}"
            )


def _terms(system: SystemSpec, modes: ModeSet, couplings) -> list[list[tuple]]:
    """The terms of the auxiliary model, group by group: A's three (H_S,
    sum_lm Re Z_lm b_l^dag b_m and the couplings sum_jl g_jl (c_j^dag b_l +
    c_j b_l^dag), the same g on both pieces), then K = sum_lm -Im Z_lm
    b_l^dag b_m, then one jump b_l at rate Gamma_ll per mode, zero rates
    included.  Each term is (coefficient, factors) for ``Sector.operator``,
    a system matrix and ``LADDER`` moves, one per nonzero entry of Z and g.
    """
    z = modes.frequency_matrix

    def bilinear(m):
        return [(m[l, k], {1 + l: "b^dag b"} if l == k else {1 + l: "b^dag", 1 + k: "b"})
                for l, k in zip(*np.nonzero(m))]

    coupling = []
    for j in range(system.n_channels):
        c = eigenoperator(system, j)
        for l in np.flatnonzero(couplings[j]):
            g = complex(couplings[j][l])
            coupling += [(g, {0: c.conj().T, 1 + l: "b"}), (g, {0: c, 1 + l: "b^dag"})]
    return ([[(1.0, {0: system.bare_hamiltonian})], bilinear(z.real), coupling,
             bilinear(-z.imag)]
            + [[(rate, {1 + l: "b"})] for l, rate in enumerate(modes.rates)])


def build_generator(
    system: SystemSpec,
    modes: ModeSet,
    layout: SpaceLayout,
    start,
) -> Generator:
    """Generator of the auxiliary master equation on the sector of ``start``;
    its kind follows from ``modes``.

    ``start`` lists the product labels (level, n_1 ... n_N) the initial state
    occupies; the generator's ``sector`` is what the terms of ``_terms``
    reach from them within the cutoffs of ``layout`` (``Sector.closure``),
    A and K are the S x S blocks of their groups' index maps, and each jump
    is its map (``ModeSet`` keeps Gamma diagonal, so K holds the rates).
    Complex couplings give ``pathological``; real ones give
    ``lindblad_regularized`` with a hopping (an off-diagonal Re Z) and
    ``lindblad_direct`` without.
    """
    _check_consistency(system, modes, layout)
    z = modes.frequency_matrix
    g = modes.coupling_matrix
    if not modes.is_all_real:
        kind = "pathological"
    else:
        hopping = np.any(z.real[~np.eye(len(modes), dtype=bool)] != 0.0)
        kind = "lindblad_regularized" if hopping else "lindblad_direct"
        g = g.real
    groups = _terms(system, modes, g)
    sector, moves = Sector.closure(layout, start, [term for group in groups for term in group])
    moves = iter(moves)  # one map per term, in the order of the terms

    def block(group) -> np.ndarray:
        out = np.zeros((sector.dim,) * 2, dtype=complex)
        for (coefficient, _), (rows, cols, values) in zip(group, moves):
            out[rows, cols] += coefficient * values
        return out

    bare, bilinear, coupling, damping, *jumps = groups
    return Generator(
        kind=kind,
        sector=sector,
        static_both=block(bare) + block(bilinear) + block(coupling),
        damping=block(damping),
        channels=tuple((float(rate), next(moves)) for [(rate, _)] in jumps),
    )


@dataclass
class EvolutionResult:
    """Densities and derived quantities on the requested time grid; ``states``
    (None without ``store_states``) holds their (n_t, |S|, |S|) blocks on the
    generator's sector, whose indices in the product space are ``support``;
    every entry outside the block is 0."""

    times: np.ndarray
    support: np.ndarray
    states: np.ndarray | None
    system_states: np.ndarray
    observables: dict[str, np.ndarray]
    top_fock: np.ndarray
    trace_error: np.ndarray
    kind: str


def truncation_guard(top: np.ndarray, t: float, partial: Callable[[], object]) -> float:
    """The worst of the top Fock populations ``top``, one per mode
    (``Sector.top_fock``).

    Raises TruncationGuardError when it exceeds TRUNCATION_LIMIT at time t,
    carrying ``partial()``: the clean prefix of the result, the rows before t.
    """
    worst = float(top.max())
    if worst > TRUNCATION_LIMIT:
        raise TruncationGuardError(
            f"top Fock population {worst:.3e} exceeded {TRUNCATION_LIMIT:g} "
            f"at t={t:g}; raise the cutoffs", time=t, population=worst, partial=partial())
    return worst


def evolve(
    gen: Generator,
    rho0: np.ndarray,
    t_grid,
    observables: dict[str, np.ndarray] | None = None,
    store_states: bool = True,
) -> EvolutionResult:
    """Propagate d rho / dt = L[rho] over the grid.

    ``rho0`` is the initial state on ``gen.sector`` (``vacuum_embedding``
    gives one).  When ``gen.one_excitation_ground()`` names a label g, rho0
    is carried as its eigenkets v_k of nonzero weight p_k (one for a pure
    start), and each row, sum_k p_k a_k b_k^dag + f |g><g| as the module
    docstring sets out, is read off their ``no_jump_history``: one history
    for the Lindblad kinds, where A is Hermitian, so b = a and every row is
    Hermitian by construction, and two for ``pathological``.  The record
    takes the populations from a o conj(b) plus f on g, positivity from the
    (K + 1) x (K + 1) Gram-weighted matrix of [a_1 ... a_K, |g>], the
    reduced state through the sector's pair map (``Sector.reduced_kets``)
    and each observable as sum_k p_k b_k^dag O a_k + f O_gg; ``states`` is
    formed only when stored.  Any other sector advances each row's state by
    a Taylor series planned on ``gen.norm_estimate()``, into blocks of
    max(1, BLOCK_ENTRIES // |S|**2) states, views of ``states`` when they
    are stored, each recorded by stacked numpy calls.
    ``observables`` maps names to operators, each a matrix on the system
    factor or a mapping of factor operators, formed on the sector once
    (``Sector.operator``).
    Snapshot invariants are always enforced: trace for every kind,
    Hermiticity and positivity for the completely positive kinds.  A row
    too long for its Taylor plan raises StepUnderflowError (``taylor_plan``).
    The first row to fail raises what a row-by-row record would, after
    every earlier row: the truncation guard, then trace, Hermiticity and
    positivity.

    Raises TruncationGuardError as soon as any mode's top Fock population
    exceeds 1e-6 at a snapshot; the exception carries the clean prefix of the
    result.
    """
    t = validate_grid(t_grid)
    d = gen.dim
    rho = as_complex_matrix(rho0, "initial state")
    if rho.shape != (d, d):
        raise InvalidModelError(
            f"initial state has shape {rho.shape}, generator needs {(d, d)}"
        )
    if abs(complex(rho.trace()) - 1.0) > 1e-10:
        raise InvalidModelError("initial state must have unit trace")
    if not is_hermitian(rho, 1e-10):
        raise InvalidModelError("initial state must be Hermitian")

    sector = gen.sector
    obs = {name: sector.operator(op, f"observable {name}")
           for name, op in (observables or {}).items()}

    n_t = t.size
    states = np.empty((n_t, d, d), dtype=complex) if store_states else None
    system_states = np.empty((n_t,) + (sector.layout.system_dim,) * 2, dtype=complex)
    top_fock = np.empty(n_t)
    trace_error = np.empty(n_t)
    obs_out = {name: np.empty(n_t, dtype=complex) for name in obs}

    def finalize(upto: int) -> EvolutionResult:
        # the arrays of this call are handed out as they are; the grid may
        # be the caller's
        return EvolutionResult(
            times=t[:upto].copy(),
            support=sector.support,
            states=states[:upto] if store_states else None,
            system_states=system_states[:upto],
            observables={k: v[:upto] for k, v in obs_out.items()},
            top_fock=top_fock[:upto],
            trace_error=trace_error[:upto],
            kind=gen.kind,
        )

    checked = gen.kind != "pathological"

    def record(i0: int, trace, populations, herm, lowest, write) -> None:
        """Record the rows i0, i0 + 1, ... up to the first that fails, and
        raise for that one.  ``trace`` holds each row's |tr - 1| and
        ``populations`` its diagonal; ``herm`` is None, or each row's largest
        entry of |rho - rho^dag| and its scale; ``lowest(n)`` gives the
        lowest eigenvalue of each of the first n rows, asked for the rows
        that pass the other checks; ``write(i0, n)`` stores the rest of the
        first n rows."""
        top = sector.top_fock(populations)
        worst = top.max(axis=1)
        fails = (worst > TRUNCATION_LIMIT) | (trace > TRACE_TOL)
        if herm is not None:
            herm, scale = herm
            fails |= herm > HERMITICITY_TOL * scale
        ok = int(np.argmax(fails)) if fails.any() else len(trace)
        if checked:  # positivity only for the rows that passed the other checks
            low = lowest(ok)
            negative = (low < POSITIVITY_TOL).nonzero()[0]
            ok = int(negative[0]) if negative.size else ok
        trace_error[i0:i0 + ok] = trace[:ok]
        top_fock[i0:i0 + ok] = worst[:ok]
        write(i0, ok)
        if ok == len(trace):
            return
        at = float(t[i0 + ok])
        truncation_guard(top[ok], at, lambda: finalize(i0 + ok))
        if trace[ok] > TRACE_TOL:
            raise InvariantViolationError(f"trace deviated by {trace[ok]:.3e} at t={at:g}")
        if herm is not None and herm[ok] > HERMITICITY_TOL * scale[ok]:
            raise InvariantViolationError(f"Hermiticity violated by {herm[ok]:.3e} at t={at:g}")
        raise InvariantViolationError(f"negative population {low[ok]:.3e} at t={at:g}")

    g = gen.one_excitation_ground()
    if g is None:
        per_block = min(n_t, max(1, BLOCK_ENTRIES // (d * d)))
        work = states if states is not None else np.empty((per_block, d, d), dtype=complex)
        est = gen.norm_estimate()

        def record_block(i0: int, block: np.ndarray) -> None:
            """Record the rows i0, i0 + 1, ... held by ``block``."""
            herm = adjoint = None
            if checked:
                adjoint = block.conj().transpose(0, 2, 1)
                herm = (np.abs(block - adjoint).max(axis=(1, 2)),
                        np.maximum(1.0, np.abs(block).max(axis=(1, 2))))

            def lowest(upto: int) -> np.ndarray:
                return np.linalg.eigvalsh(0.5 * (block[:upto] + adjoint[:upto])).min(axis=1)

            def write(i0: int, upto: int) -> None:
                good = block[:upto]
                system_states[i0:i0 + upto] = sector.reduced(good)
                for name, mat in obs.items():
                    obs_out[name][i0:i0 + upto] = np.einsum("nij,ji->n", good, mat)

            record(i0, np.abs(np.trace(block, axis1=1, axis2=2) - 1.0),
                   np.real(np.diagonal(block, axis1=1, axis2=2)), herm, lowest, write)

        for i0 in range(0, n_t, per_block):
            block = work[i0:i0 + per_block] if states is not None else work[:n_t - i0]
            for k, i in enumerate(range(i0, i0 + len(block))):
                try:
                    if i:
                        rho = _taylor_interval(gen.apply, rho, float(t[i] - t[i - 1]), est)
                except StepUnderflowError:  # the rows before it fail first
                    record_block(i0, block[:k])
                    raise
                block[k] = rho
            record_block(i0, block)
        return finalize(n_t)

    # rho0 on its support, as eigenkets of nonzero weight; on one state the
    # eigenproblem is LAPACK's 1 x 1 case, the entry's real part and 1
    occupied = (rho.any(axis=0) | rho.any(axis=1)).nonzero()[0]
    if occupied.size == 1:
        weights, vecs = rho[occupied, occupied].real, np.ones((1, 1), dtype=complex)
    else:
        weights, vecs = np.linalg.eigh(rho[np.ix_(occupied, occupied)])
    keep = weights != 0.0
    weights, kets = weights[keep], np.zeros((np.count_nonzero(keep), d), dtype=complex)
    kets[:, occupied] = vecs[:, keep].T
    refused = None
    try:
        a = no_jump_history(exponential(-1j * gen.drift()), kets, t)
    except StepUnderflowError as exc:  # the rows before it are recorded first
        refused, a = exc, exc.partial
    b = a
    if not checked:
        try:
            b = no_jump_history(exponential(-1j * gen._right.conj().T), kets, t[:len(a)])
        except StepUnderflowError as exc:
            refused, b = exc, exc.partial
            a = a[:len(b)]
    n = len(a)
    populations = np.einsum("k,nki,nki->ni", weights, a, b.conj())
    fill = rho.trace() - populations.sum(axis=1)
    populations[:, g] += fill

    def lowest(upto: int) -> np.ndarray:
        # rho = W P W^dag with W = [a_1 ... a_K, |g>] and P = diag(p, f): its
        # nonzero eigenvalues are those of G^(1/2) P G^(1/2), G = W^dag W.
        k = weights.size
        w = np.zeros((upto, k + 1, d), dtype=complex)
        w[:, :k] = a[:upto]
        w[:, k, g] = 1.0
        lam, q = np.linalg.eigh(w.conj() @ w.transpose(0, 2, 1))
        p = np.empty((upto, k + 1))
        p[:, :k] = weights
        p[:, k] = fill[:upto].real
        root = np.sqrt(np.maximum(lam, 0.0))
        m = q.conj().transpose(0, 2, 1) @ (p[:, :, None] * q)
        return np.linalg.eigvalsh(root[:, :, None] * m * root[:, None, :]).min(axis=1)

    level = sector.labels[g, 0]

    def write(_: int, upto: int) -> None:
        left, right = a[:upto], b[:upto]
        system_states[:upto] = sector.reduced_kets(left, right, weights)
        system_states[:upto, level, level] += fill[:upto]
        bra = right.conj()
        for name, mat in obs.items():
            obs_out[name][:upto] = (np.einsum("k,nki,nki->n", weights, bra, left @ mat.T)
                                    + fill[:upto] * mat[g, g])
        if store_states:
            states[:upto] = np.einsum("k,nki,nkj->nij", weights, left, bra)
            states[:upto, g, g] += fill[:upto]

    record(0, np.abs(populations.sum(axis=1) - 1.0), populations.real, None, lowest, write)
    if refused is not None:
        raise refused
    return finalize(n)


def no_jump_history(exp: Callable[[float], np.ndarray], psi0: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """Kets advanced over the grid ``t`` by the no-jump exponential ``exp``
    (h -> exp(-i h D)), into one (n_t,) + psi0.shape array with psi[0] =
    psi0.  ``psi0`` is a ket or a (K, |S|) stack of them.

    Each of the ``uniform_runs`` of the grid, base row b and mean span h,
    forms one exponential U = exp(h) and fills its rows by doubling: psi[b +
    1] = psi[b] @ U.T, the product of a row of its own, and then the rows
    b ... b + n - 1 times U^n give the next n, U^n squared between blocks:
    ceil(log2(n_run + 1)) products for n_run rows.  A run of one row is
    exactly the per-row product psi[i - 1] @ exp(t[i] - t[i - 1]).T.  A span
    that ``exp`` refuses raises its StepUnderflowError, carrying the rows
    before its run as ``partial``."""
    psi = np.empty((t.size,) + np.shape(psi0), dtype=complex)
    psi[0] = psi0
    bounds = uniform_runs(t)
    for b, e in zip(bounds, bounds[1:]):
        try:
            u = exp((float(t[e]) - float(t[b])) / (e - b))
        except StepUnderflowError as exc:
            exc.partial = psi[:b + 1]
            raise
        psi[b].dot(u.T, out=psi[b + 1])  # psi[b] @ u.T, by ndarray.dot's one BLAS call
        n = 1  # the rows b ... b + 2n - 1 are filled, and u is U^n
        while b + 2 * n <= e:
            u = u.dot(u)
            n *= 2
            m = min(n, e - b - n + 1)
            np.matmul(psi[b:b + m], u.T, out=psi[b + n:b + n + m])
    return psi


def taylor_plan(norm_rate: float, span: float) -> tuple[int, int]:
    """Taylor degree m and sub-interval count s for exp(span L) b, ||L|| <= norm_rate.

    m and s minimise the number of applications of L, m * s, subject to
    norm_rate * span / s <= theta_m (``TAYLOR_THETA``); ties go to the lower
    degree.  This is the one row-length rule of the package: a non-finite
    norm bound, or a span longer than MAX_TAYLOR_INTERVALS sub-intervals of
    the top degree, raises StepUnderflowError, the latter naming the longest
    span that fits (rounded down to three digits).
    """
    if not 0.0 <= norm_rate < math.inf:
        raise StepUnderflowError(f"unusable norm bound {norm_rate:g}")
    norm = norm_rate * span
    if norm == 0.0:
        return 0, 1
    longest = MAX_TAYLOR_INTERVALS * TAYLOR_THETA[-1][1] / norm_rate
    if not span <= longest:
        from decimal import ROUND_FLOOR, Context  # only a refusal pays its 3 ms import
        fits = float(Context(prec=3, rounding=ROUND_FLOOR).create_decimal(longest))
        raise StepUnderflowError(
            f"a row of {span:.6g} time units is too long for the norm bound "
            f"{norm_rate:.6g}; rows of at most {fits:.3g} time units fit")
    best = None
    for m, theta in TAYLOR_THETA:
        s = math.ceil(norm / theta)
        if best is None or m * s < best[0] * best[1]:
            best = m, s
    return best


def _taylor_interval(apply, rho: np.ndarray, span: float, norm_rate: float) -> np.ndarray:
    """exp(span L) rho for a time-independent L with ||L|| <= norm_rate.

    Algorithm 3.2 of Al-Mohy and Higham (2011) without shift or balancing:
    s sub-intervals, each a Taylor series of degree at most m that stops once
    two successive terms fall below the unit roundoff relative to the partial
    sum.  Norms are Frobenius norms, the ones ``Generator.norm_estimate``
    bounds the superoperator in.  The partial sum's norm is formed only once
    the stopping test could pass: ``bound``, the norm of the last partial sum
    formed plus those of the terms since, with a relative margin of 2**-20
    per term for the roundoff of the sums and norms, is at least the norm
    the test would read, so below it the test fails as it would.
    """
    m, s = taylor_plan(norm_rate, span)
    h = span / s
    for _ in range(s):
        term = rho
        c1 = bound = _frobenius(term)
        for k in range(1, m + 1):
            term = (h / k) * apply(term)
            c2 = _frobenius(term)
            rho = rho + term
            bound = (bound + c2) * (1.0 + 2.0**-20)
            if c1 + c2 <= UNIT_ROUNDOFF * bound:
                bound = _frobenius(rho)
                if c1 + c2 <= UNIT_ROUNDOFF * bound:
                    break
            c1 = c2
    return rho


def _frobenius(x: np.ndarray) -> float:
    """||x||_F, by one BLAS dot product."""
    return math.sqrt(np.vdot(x, x).real)


def exponential(a: np.ndarray) -> Callable[[float], np.ndarray]:
    """h -> exp(h A) for a constant square matrix A and h >= 0.

    Each matrix is the Taylor action of ``_taylor_interval`` on the
    identity, planned on ||A||_F.  While ||A||_F h stays within the largest
    degree's ``TAYLOR_THETA`` the series needs one sub-interval; a longer
    span is the square of the half span.  No eigendecomposition is involved,
    so a defective generator (an exceptional point) is exponentiated like any
    other.  A span is checked by ``taylor_plan`` first, so a non-finite norm
    or a span too long for the Taylor plan raises the same StepUnderflowError
    as a row of ``evolve``.  Nothing is kept: a caller that reuses spans
    caches the function (``NoJumpPropagator``).
    """
    with np.errstate(over="ignore"):  # an overflow is inf, which taylor_plan refuses
        norm = float(np.linalg.norm(a))

    def exp(h: float) -> np.ndarray:
        taylor_plan(norm, h)  # the row-length rule of evolve
        halvings = 0
        while norm * math.ldexp(h, -halvings) > TAYLOR_THETA[-1][1]:
            halvings += 1
        # ndarray.dot calls the BLAS product that @ calls, with less overhead
        u = _taylor_interval(a.dot, np.eye(len(a), dtype=complex),
                             math.ldexp(h, -halvings), norm)
        for _ in range(halvings):
            u = u.dot(u)
        return u

    return exp


def equivalence_check(
    gen_a: Generator,
    gen_b: Generator,
    rho_system: np.ndarray,
    t_grid,
) -> float:
    """Max elementwise deviation of the reduced states of two generators.

    Both generators are started from the same system state with every mode in
    vacuum, on their own sectors (their mode bases may differ; the vacuum is
    shared by any basis reached through the rotations used here).  A state
    of the wrong system dimension is refused by ``vacuum_embedding``.
    """
    a, b = (evolve(gen, vacuum_embedding(gen.sector, rho_system), t_grid,
                   store_states=False).system_states
            for gen in (gen_a, gen_b))
    return float(np.abs(a - b).max())
