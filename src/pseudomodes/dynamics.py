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

Every generator is built in the Schrodinger picture and is time
independent, as the auxiliary model is.  The frame is a way of viewing the
state: in the interaction frame each recorded state is
rho_I(t) = exp(i H0 t) rho(t) exp(-i H0 t) with H0 = H_S0 + sum_l xi_l n_l
over the modes the generator was built from.

Every generator is built on the sector S of its start: the product labels
(level, n_1 ... n_N) within the cutoffs that the terms of L reach from the
labels ``start`` (``build_generator``).  Because S is closed, L maps the
S x S block into itself and every entry outside it stays exactly 0.0, so the
S x S blocks of A, K and the jumps propagate the state exactly.  One
excitation with every mode in vacuum stays in the one-excitation sector plus
the ground state (Garraway, PRA 55, 2290 (1997)): 4 of the 18 basis states
of a two-mode band gap, and 5 of 1,458 for three modes at Fock cutoff 8.
The full space is the sector of every label.  The initial state is handed
over on the generator's sector, and every recorded quantity is read from
the block through the same ``hilbert.Sector``.

Every generator is propagated exactly: each output row is
rho(t + dt) = exp(dt L) rho(t), from a truncated Taylor series that only
applies L to |S| x |S| blocks (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
488 (2011)).  L is constant, so the row map depends only on the row's span:
``CachedExponential`` forms exp(dt L) once per distinct span as the
|S|**2 x |S|**2 matrix P, from the same series applied to the |S|**2 basis
matrices as one stack, and each row is then one product vec(rho) @ P.
``evolve`` takes that route when the rows number at least |S|**2 times the
distinct spans, and otherwise applies the series to each row's state, so
memory stays O(|S|**2) per term.
The series is planned on the norm bound of the block it propagates, and
``taylor_plan`` holds the one row-length rule: a row whose plan would need
more than MAX_TAYLOR_INTERVALS sub-intervals is refused, naming the longest
row that fits.  The trajectory ensemble exponentiates its no-jump drift with
the same ``CachedExponential``.  A truncation guard aborts the run as soon
as the top Fock level of any mode accumulates population beyond 1e-6; the
trajectory ensemble applies the same ``truncation_guard`` to its mean
density.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_complex_matrix, is_hermitian, operator_norm_bound, validate_grid
from .errors import (
    InvalidModelError,
    StepUnderflowError,
    TruncationGuardError,
)
from .hilbert import (
    Sector,
    SpaceLayout,
    SystemSpec,
    destroy,
    eigenoperator,
    expectation,
    vacuum_embedding,
)
from .mapping import ModeSet

KINDS = ("lindblad_direct", "pathological", "lindblad_regularized")
FRAMES = ("schrodinger", "interaction")

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


class InvariantViolationError(InvalidModelError):
    """A snapshot broke trace, Hermiticity or positivity beyond tolerance."""


class Generator:
    """Concrete generator: matrices for A and K plus scaled jump channels.

    Instances are immutable by convention; every array is kept internally and
    never handed out for mutation.  Every matrix is an S x S block on
    ``sector``, so d below is |S|.  ``apply`` is matrix-free in the
    superoperator sense: it performs only d x d matrix products, on one
    density or broadcast over a leading axis of an (n, d, d) stack, so a
    density costs O(d**2) memory where the superoperator would cost O(d**4).
    ``evolve`` forms the d**2 x d**2 row map only when enough rows share it
    (``CachedExponential``).  ``h0`` is the diagonal of the free Hamiltonian
    H0 that the interaction frame rotates with; the Schrodinger frame does
    not need it.
    """

    def __init__(
        self,
        kind: str,
        frame: str,
        sector: Sector,
        static_both: np.ndarray,
        damping: np.ndarray,
        channels: tuple[tuple[float, np.ndarray], ...],
        h0: np.ndarray | None = None,
    ):
        if kind not in KINDS:
            raise InvalidModelError(f"unknown generator kind {kind!r}")
        if frame not in FRAMES:
            raise InvalidModelError(f"unknown frame {frame!r}")
        self.kind = kind
        self.frame = frame
        self.sector = sector
        self.static_both = as_complex_matrix(static_both, "static part")
        self.damping = as_complex_matrix(damping, "damping part")
        d = sector.dim
        if self.static_both.shape != (d, d) or self.damping.shape != (d, d):
            raise InvalidModelError(f"generator matrices must be {d} x {d}, one row per state")
        if not is_hermitian(self.damping, 1e-12):
            raise InvalidModelError("damping part K must be Hermitian")
        self.channels = tuple((float(r), as_complex_matrix(b)) for r, b in channels)
        for rate, _ in self.channels:
            if rate < 0.0:
                raise InvalidModelError(f"negative jump rate {rate}")
        if frame == "interaction" and (h0 is None or np.shape(h0) != (d,)):
            raise InvalidModelError("the interaction frame needs the diagonal of H0")
        self.h0 = h0
        self._jumps = tuple(
            (np.sqrt(2.0 * rate) * b, np.sqrt(2.0 * rate) * b.conj().T)
            for rate, b in self.channels
            if rate > 0.0
        )
        self._left = self.static_both - 1j * self.damping
        self._right = self.static_both + 1j * self.damping

    @property
    def dim(self) -> int:
        return self.static_both.shape[0]

    def frame_view(
        self, kets: bool = False
    ) -> Callable[[np.ndarray, float], np.ndarray] | None:
        """Map (Schrodinger state, t) to the state seen in ``frame``.

        The state is a density matrix, or with ``kets`` a ket or an (n, d)
        stack of kets.  Returns None in the Schrodinger frame, where the view
        is the identity.
        """
        if self.frame == "schrodinger":
            return None
        h0 = self.h0
        if kets:
            return lambda state, t: np.exp(1j * h0 * t) * state
        return lambda state, t: rotate_frame(state, h0, -t)

    def drift(self) -> np.ndarray:
        """Non-Hermitian drift A - iK governing no-jump evolution."""
        return self._left

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate L[rho] for a density or each density of an (n, d, d) stack.

        A stack takes each product as one BLAS call: a right product on its
        (n d, d) rows, a left one on its (d, n d) columns.  Broadcasting
        ``@`` over the stack would loop over n small products instead, each
        through a stack-sized temporary, at about twice the time per density
        at |S| = 22.
        """
        if rho.ndim == 2:
            out = -1j * (self._left @ rho - rho @ self._right)
            for jop, jdag in self._jumps:
                out += jop @ (rho @ jdag)
            return out
        n, d = rho.shape[0], rho.shape[-1]

        def left(op: np.ndarray, stack: np.ndarray) -> np.ndarray:
            cols = stack.transpose(1, 0, 2).reshape(d, n * d)
            return (op @ cols).reshape(d, n, d).transpose(1, 0, 2)

        rows = rho.reshape(n * d, d)
        out = -1j * (left(self._left, rho) - (rows @ self._right).reshape(n, d, d))
        for jop, jdag in self._jumps:
            out += left(jop, (rows @ jdag).reshape(n, d, d))
        return out

    def norm_estimate(self) -> float:
        """Upper bound on the superoperator norm induced by the Frobenius norm.

        It plans the Taylor series of the exact action.
        """
        est = operator_norm_bound(self._left) + operator_norm_bound(self._right)
        for jop, _ in self._jumps:
            est += operator_norm_bound(jop) ** 2
        return est


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


def _reachable(system: SystemSpec, modes: ModeSet, couplings, layout: SpaceLayout,
               start) -> Sector:
    """The sector of the labels that L reaches from the labels ``start``.

    S is closed under the moves of the terms of D_l = A - iK, of D_r^T and of
    the jumps: b_l^dag c_j and c_j^dag b_l for every nonzero g_jl,
    b_l^dag b_m for every nonzero off-diagonal Z_lm (Z = Z^T, so b_m^dag b_l
    too), and b_l for every positive rate, each kept only within the
    cutoffs.  L then maps a density supported on S x S into S x S.
    """
    unit = np.eye(layout.n_modes, dtype=int)
    stay = np.eye(system.dim, dtype=bool)
    # each move: (hops, shift); a label (level, n) goes to every (to, n + shift)
    # with hops[to, level] and n + shift within the cutoffs
    moves = [(stay, unit[l] - unit[m])
             for l, m in zip(*np.nonzero(modes.frequency_matrix)) if l != m]
    moves += [(stay, -unit[l]) for l in np.flatnonzero(modes.rates > 0.0)]
    for j in range(system.n_channels):
        lower = eigenoperator(system, j) != 0
        for l in np.flatnonzero(couplings[j]):
            moves += [(lower, unit[l]), (lower.T, -unit[l])]
    seen = frontier = set(map(tuple, Sector(layout, start).labels.tolist()))
    while frontier:
        grown = set()
        for level, *fock in frontier:
            for hops, shift in moves:
                moved = tuple(int(n + k) for n, k in zip(fock, shift))
                if all(0 <= n <= top for n, top in zip(moved, layout.fock_levels)):
                    grown.update((int(to), *moved) for to in np.flatnonzero(hops[:, level]))
        frontier = grown - seen
        seen = seen | frontier
    return Sector(layout, seen)


def _mode_bilinear(sector: Sector, ladders, m: np.ndarray) -> np.ndarray:
    """sum_lm M_lm b_l^dag b_m over the nonzero entries of M; ladders[l] = b_l on its factor."""
    out = np.zeros((sector.dim,) * 2, dtype=complex)
    for l, k in zip(*np.nonzero(m)):
        bdag, b = ladders[l].conj().T, ladders[k]
        out += m[l, k] * sector.operator(
            {1 + l: bdag @ b} if l == k else {1 + l: bdag, 1 + k: b})
    return out


def _coupling_terms(sector: Sector, system: SystemSpec, couplings, ladders) -> np.ndarray:
    """The coupling sum_jl g_jl (c_j^dag b_l + b_l^dag c_j).

    The same g multiplies both pieces.  For real couplings this is the
    Hermitian coupling; for complex ones it is the one-sided convention of
    the pathological form.
    """
    static = np.zeros((sector.dim,) * 2, dtype=complex)
    for j in range(system.n_channels):
        c = eigenoperator(system, j)
        for l, b in enumerate(ladders):
            g = complex(couplings[j][l])
            if g == 0.0:
                continue
            forward = g * sector.operator({0: c.conj().T, 1 + l: b})
            backward = g * sector.operator({0: c, 1 + l: b.conj().T})
            static += forward + backward
    return static


def build_generator(
    system: SystemSpec,
    modes: ModeSet,
    layout: SpaceLayout,
    start,
    frame: str = "schrodinger",
) -> Generator:
    """Generator of the auxiliary master equation on the sector of ``start``;
    its kind follows from ``modes``.

    ``start`` lists the product labels (level, n_1 ... n_N) the initial state
    occupies; the generator's ``sector`` is what L reaches from them within
    the cutoffs of ``layout``, and every matrix is its S x S block.  With
    Z = H - i*Gamma, A = H_S + sum_lm H_lm b_l^dag b_m + coupling,
    K = sum_lm Gamma_lm b_l^dag b_m, and one channel b_l at rate Gamma_ll per
    mode, zero rates included (``ModeSet`` keeps Gamma diagonal).  Complex
    couplings give ``pathological``; real ones give ``lindblad_regularized``
    with a hopping (an off-diagonal H) and ``lindblad_direct`` without.
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
    sector = _reachable(system, modes, g, layout, start)
    ladders = [destroy(n) for n in layout.fock_levels]
    static = sector.operator(system.bare_hamiltonian)
    static += _mode_bilinear(sector, ladders, z.real)
    static += _coupling_terms(sector, system, g, ladders)
    # H0 = H_S0 + sum_l xi_l n_l, the diagonal the interaction frame rotates with
    h0 = np.asarray(system.energies, dtype=float)[sector.labels[:, 0]]
    for l, xi in enumerate(modes.frequencies):
        h0 = h0 + xi * sector.labels[:, 1 + l]
    return Generator(
        kind=kind,
        frame=frame,
        sector=sector,
        static_both=static,
        damping=_mode_bilinear(sector, ladders, -z.imag),
        channels=tuple((float(r), sector.operator({1 + l: b}))
                       for l, (r, b) in enumerate(zip(modes.rates, ladders))),
        h0=h0,
    )


def rotate_frame(rho: np.ndarray, h0_diag: np.ndarray, t: float) -> np.ndarray:
    """Map an interaction-picture state at time t back to the Schrodinger one."""
    ph = np.exp(-1j * h0_diag * t)
    return ph[:, None] * rho * ph.conj()[None, :]


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


def truncation_guard(block: np.ndarray, sector: Sector, t: float,
                     partial: Callable[[], object]) -> float:
    """The worst top Fock population of the density with S x S block ``block``.

    Raises TruncationGuardError when it exceeds TRUNCATION_LIMIT at time t,
    carrying ``partial()``: the clean prefix of the result, the rows before t.
    """
    worst = float(sector.top_fock(block).max())
    if worst > TRUNCATION_LIMIT:
        raise TruncationGuardError(
            f"top Fock population {worst:.3e} exceeded {TRUNCATION_LIMIT:g} "
            f"at t={t:g}; raise the cutoffs", time=t, population=worst, partial=partial())
    return worst


def _snapshot_checks(kind: str, rho: np.ndarray, t: float) -> None:
    tr = abs(complex(np.trace(rho)) - 1.0)
    if tr > TRACE_TOL:
        raise InvariantViolationError(
            f"trace deviated by {tr:.3e} at t={t:g}"
        )
    if kind == "pathological":
        return
    scale = max(1.0, float(np.abs(rho).max()))
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_TOL * scale:
        raise InvariantViolationError(
            f"Hermiticity violated by {herm:.3e} at t={t:g}"
        )
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if float(evals.min()) < POSITIVITY_TOL:
        raise InvariantViolationError(
            f"negative population {evals.min():.3e} at t={t:g}"
        )


def evolve(
    gen: Generator,
    rho0: np.ndarray,
    t_grid,
    observables: dict[str, np.ndarray] | None = None,
    store_states: bool = True,
) -> EvolutionResult:
    """Propagate d rho / dt = L[rho] over the grid.

    ``rho0`` is the initial state on ``gen.sector`` (``vacuum_embedding``
    gives one), and each row is advanced from the last by exp(dt L), planned
    with ``gen.norm_estimate()``.  With d = |S| and k distinct spans on the
    grid, the row maps P = exp(dt L) take one stacked series on the d**2
    basis matrices per span, k d**2 series in all, and hold k d**4 entries;
    a row is then one product vec(rho) @ P.  So the maps are formed, all k
    kept (``CachedExponential``), when k d**2 <= the number of rows: they
    then take no more series than the rows would, and hold no more entries
    than the rows' states (forming one takes a few d**4 stacks at its
    peak).  A basis matrix's series can need more terms than a row's, once
    the state has settled into slow components: at |S| = 18 and 22, maps
    formed just above the count took 1.4 and 2.3 times as long as the
    rows' own series.  An evenly spaced grid has a few
    distinct spans, from rounding; a geometric one has one per row and so
    never takes this route.  Otherwise each row applies the Taylor series
    to its own state.
    Every recorded quantity is taken from the state as seen in ``gen.frame``.
    ``observables`` maps names to operators, each a matrix on the system
    factor or a mapping of factor operators, formed on the sector once
    (``Sector.operator``).
    Snapshot invariants are always enforced: trace for every kind,
    Hermiticity and positivity for the completely positive kinds.  A row
    too long for its Taylor plan raises StepUnderflowError (``taylor_plan``).

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
    if abs(complex(np.trace(rho)) - 1.0) > 1e-10:
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
        return EvolutionResult(
            times=t[:upto].copy(),
            support=sector.support,
            states=states[:upto].copy() if store_states else None,
            system_states=system_states[:upto].copy(),
            observables={k: v[:upto].copy() for k, v in obs_out.items()},
            top_fock=top_fock[:upto].copy(),
            trace_error=trace_error[:upto].copy(),
            kind=gen.kind,
        )

    est = gen.norm_estimate()
    view = gen.frame_view()

    def record(i: int, rho: np.ndarray) -> None:
        if view is not None:
            rho = view(rho, float(t[i]))
        trace_error[i] = abs(complex(np.trace(rho)) - 1.0)
        top_fock[i] = truncation_guard(rho, sector, float(t[i]), lambda: finalize(i))
        _snapshot_checks(gen.kind, rho, float(t[i]))
        if store_states:
            states[i] = rho
        system_states[i] = sector.reduced(rho)
        for name, mat in obs.items():
            obs_out[name][i] = expectation(rho, mat)

    distinct = len(set(np.diff(t).tolist()))
    if 0 < d * d * distinct <= n_t - 1:
        row_map = CachedExponential(
            gen.apply, np.eye(d * d, dtype=complex).reshape(-1, d, d), est, distinct)

        def advance(rho: np.ndarray, span: float) -> np.ndarray:
            return (rho.reshape(-1) @ row_map.matrix(span)).reshape(d, d)
    else:
        def advance(rho: np.ndarray, span: float) -> np.ndarray:
            return _taylor_interval(gen.apply, rho, span, est)

    record(0, rho)
    for i in range(1, n_t):
        rho = advance(rho, float(t[i] - t[i - 1]))
        record(i, rho)
    return finalize(n_t)


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
    return min(
        ((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA),
        key=lambda plan: plan[0] * plan[1],
    )


def _taylor_interval(apply, rho: np.ndarray, span: float, norm_rate: float) -> np.ndarray:
    """exp(span L) rho for a time-independent L with ||L|| <= norm_rate.

    Algorithm 3.2 of Al-Mohy and Higham (2011) without shift or balancing:
    s sub-intervals, each a Taylor series of degree at most m that stops once
    two successive terms fall below the unit roundoff relative to the partial
    sum.  Norms are Frobenius norms, the ones ``Generator.norm_estimate``
    bounds the superoperator in.
    """
    m, s = taylor_plan(norm_rate, span)
    h = span / s
    for _ in range(s):
        term = rho
        c1 = np.linalg.norm(term)
        for k in range(1, m + 1):
            term = (h / k) * apply(term)
            c2 = np.linalg.norm(term)
            rho = rho + term
            if c1 + c2 <= UNIT_ROUNDOFF * np.linalg.norm(rho):
                break
            c1 = c2
    return rho


class CachedExponential:
    """exp(h X) as a matrix for a time-independent linear map X, per span h.

    ``identity`` holds the n basis vectors of the space X acts on, laid out
    as ``apply`` takes them: the (n, n) identity for kets, each column a
    basis ket, or the n = d**2 basis matrices as one (n, d, d) stack for
    densities.  ``matrix(h)`` is the Taylor action of ``_taylor_interval``
    on that identity, reshaped to (n, n): exp(h X) itself for kets, and for
    densities the matrix P with vec(exp(h L) rho) = vec(rho) @ P.  While
    norm_rate h stays within the largest degree's ``TAYLOR_THETA`` the
    series needs one sub-interval; a longer span is the square of the half
    span, which is a product with ``@`` in both layouts.  No
    eigendecomposition is involved, so a defective generator (an
    exceptional point) is exponentiated like any other.  A span is checked
    by ``taylor_plan`` first, so a non-finite norm or a span too long for the
    Taylor plan raises the same StepUnderflowError as a row of ``evolve``.
    The ``capacity`` most recently used matrices are kept, capacity n**2
    complex numbers; the caller sizes it (``evolve`` to the distinct spans
    of its grid, ``trajectories.NoJumpPropagator`` to the spans of one row).
    """

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray], identity: np.ndarray,
                 norm_rate: float, capacity: int):
        self._apply = apply
        self._capacity = capacity
        self._identity = identity
        self._norm = norm_rate
        self._cache: OrderedDict[float, np.ndarray] = OrderedDict()

    def _exp(self, h: float) -> np.ndarray:
        taylor_plan(self._norm, h)  # the row-length rule of evolve
        halvings = 0
        while self._norm * math.ldexp(h, -halvings) > TAYLOR_THETA[-1][1]:
            halvings += 1
        n = self._identity.shape[0]
        u = _taylor_interval(self._apply, self._identity, math.ldexp(h, -halvings),
                             self._norm).reshape(n, n)
        for _ in range(halvings):
            u = u @ u
        return u

    def matrix(self, h: float) -> np.ndarray:
        """The (n, n) matrix of exp(h X) for h >= 0, formed on the first request."""
        u = self._cache.get(h)
        if u is None:
            u = self._cache[h] = self._exp(h)
            if len(self._cache) > self._capacity:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(h)
        return u


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
