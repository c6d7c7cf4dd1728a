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
(level, n_1 ... n_N) within the cutoffs that the terms of L (``_terms``)
reach from the labels ``start`` (``Sector.closure``), and A, K and the jumps
are summed from the same terms as S x S blocks read off the labels.  Because
S is closed, L maps the S x S block into itself and every entry outside it
stays exactly 0.0, so these blocks propagate the state exactly.  One
excitation with every mode in vacuum stays in the one-excitation sector plus
the ground state (Garraway, PRA 55, 2290 (1997)): 4 of the 18 basis states
of a two-mode band gap, and 5 of 1,458 for three modes at Fock cutoff 8.
The full space is the sector of every label.  The initial state is handed
over on the generator's sector, and every recorded quantity is read from the
block through the same ``hilbert.Sector``.

Every generator is propagated exactly, one output row at a time.  Where
every jump lands in one label g (``Generator.one_excitation_ground``), as
for one excitation with every mode in vacuum, each row is in closed form,

    exp(h L) rho = U rho V + (tr rho - tr(U rho V)) |g><g|,
    U = exp(-i h D_l),  V = exp(i h D_r),

two |S| x |S| products, with U and V formed once per distinct span by
``exponential``, cached for the last ROW_CACHE spans.  Any
other sector, such as two excitations or the whole space, advances each
row's state by a truncated Taylor series that only applies L to |S| x |S|
blocks (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
``taylor_plan`` holds the one row-length rule: a row whose plan would need
more than MAX_TAYLOR_INTERVALS sub-intervals is refused, naming the longest
row that fits.  ``evolve`` records its rows in blocks of at most
BLOCK_ENTRIES complex numbers, each read by stacked numpy calls: trace,
truncation guard, Hermiticity, positivity, reduced state and observables.
A truncation guard aborts the run as soon as the top Fock level of any mode
accumulates population beyond 1e-6; the trajectory ensemble applies the
same ``truncation_guard`` to its mean density.
"""

from __future__ import annotations

import functools
import math
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
    eigenoperator,
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
#: Spans whose U and V the closed-form rows of ``evolve`` keep: every span of
#: a linspace grid (a few dozen at most), and bounded memory on a geometric one.
ROW_CACHE = 32
#: Complex entries of the row block ``evolve`` records at once, 1 MiB: the
#: whole grid of a small sector, one row at a time from |S| = 256 on.
BLOCK_ENTRIES = 2**16


class InvariantViolationError(InvalidModelError):
    """A snapshot broke trace, Hermiticity or positivity beyond tolerance."""


class Generator:
    """Concrete generator: matrices for A and K plus scaled jump channels.

    Instances are immutable by convention; every array is kept internally and
    never handed out for mutation.  Every matrix is an S x S block on
    ``sector``, so d below is |S|.  ``apply`` is matrix-free in the
    superoperator sense: it performs only d x d matrix products, so a density
    costs O(d**2) memory where the superoperator would cost O(d**4).
    ``one_excitation_ground`` tells ``evolve`` whether its rows take the
    closed form instead, and ``mcwf_run`` whether a jumped trajectory is the
    ground ket for good.  ``h0`` is the diagonal of the free Hamiltonian H0
    that the interaction frame rotates with; the Schrodinger frame does not
    need it.
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

        The state is a density matrix or an (n, d, d) stack of them, one time
        each, or with ``kets`` a ket or an (n, d) stack of kets.  Returns
        None in the Schrodinger frame, where the view is the identity.
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
        """Evaluate L[rho]."""
        out = -1j * (self._left @ rho - rho @ self._right)
        for jop, jdag in self._jumps:
            out += jop @ (rho @ jdag)
        return out

    def norm_estimate(self) -> float:
        """Upper bound on the superoperator norm induced by the Frobenius norm.

        It plans the Taylor series of the exact action.
        """
        est = operator_norm_bound(self._left) + operator_norm_bound(self._right)
        for jop, _ in self._jumps:
            est += operator_norm_bound(jop) ** 2
        return est

    def one_excitation_ground(self) -> int | None:
        """The label g that takes every jump, or None.

        It holds when every jump's nonzero rows lie in {g} and its column g
        is 0, D_l and D_r neither enter nor leave g, and sum_k J_k^dag J_k =
        i (D_l - D_r) to roundoff: each jump term is then a multiple of
        |g><g| that returns the trace the drift removes.  One excitation
        with every mode in vacuum has this structure for every kind.
        ``evolve`` then takes each row in closed form, and ``mcwf_run``
        records a trajectory that has jumped as |g>, whose norm the drift
        keeps and which no jump leaves.
        """
        jumps = np.array([jop for jop, _ in self._jumps]).reshape(-1, self.dim, self.dim)
        rows = np.flatnonzero(jumps.any(axis=(0, 2)))
        if rows.size != 1:
            return None
        g = int(rows[0])
        rest = np.arange(self.dim) != g
        loss = sum(jdag @ jop for jop, jdag in self._jumps)
        gain = 1j * (self._left - self._right)
        closed = not (jumps[:, :, g].any()
                      or any(op[g, rest].any() or op[rest, g].any()
                             for op in (self._left, self._right))
                      or np.abs(loss - gain).max() > 1e-12 * np.abs((gain, loss)).max())
        return g if closed else None


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
    frame: str = "schrodinger",
) -> Generator:
    """Generator of the auxiliary master equation on the sector of ``start``;
    its kind follows from ``modes``.

    ``start`` lists the product labels (level, n_1 ... n_N) the initial state
    occupies; the generator's ``sector`` is what the terms of ``_terms``
    reach from them within the cutoffs of ``layout`` (``Sector.closure``),
    and A, K and each jump are the S x S blocks of their group's sum
    (``ModeSet`` keeps Gamma diagonal, so K holds the rates).  Complex
    couplings give ``pathological``; real ones give ``lindblad_regularized``
    with a hopping (an off-diagonal Re Z) and ``lindblad_direct`` without.
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
    sector = Sector.closure(layout, start, [term for group in groups for term in group])

    def block(group) -> np.ndarray:
        out = np.zeros((sector.dim,) * 2, dtype=complex)
        for coefficient, factors in group:
            out += coefficient * sector.operator(factors)
        return out

    bare, bilinear, coupling, damping, *jumps = groups
    static = block(bare) + block(bilinear) + block(coupling)
    # H0 = H_S0 + sum_l xi_l n_l, the diagonal the interaction frame rotates with
    h0 = np.asarray(system.energies, dtype=float)[sector.labels[:, 0]]
    for l, xi in enumerate(modes.frequencies):
        h0 = h0 + xi * sector.labels[:, 1 + l]
    return Generator(
        kind=kind,
        frame=frame,
        sector=sector,
        static_both=static,
        damping=block(damping),
        channels=tuple((float(rate), sector.operator(factors)) for [(rate, factors)] in jumps),
        h0=h0,
    )


def rotate_frame(rho: np.ndarray, h0_diag: np.ndarray, t) -> np.ndarray:
    """Map an interaction-picture state at time t back to the Schrodinger one;
    an (n, d, d) stack of states takes n times."""
    ph = np.exp(-1j * np.multiply.outer(t, h0_diag))
    return ph[..., :, None] * rho * ph.conj()[..., None, :]


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
    gives one), and each row is advanced from the last by exp(dt L): in
    closed form, two products with U and V kept for the last ROW_CACHE
    spans, when ``gen.one_excitation_ground()`` names a label g; otherwise
    by a Taylor series planned on ``gen.norm_estimate()``.  Rows are
    advanced into blocks of max(1, BLOCK_ENTRIES // |S|**2) states, views of
    ``states`` when they are stored, and each block is recorded by stacked
    numpy calls, from the states as seen in ``gen.frame``.
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
    if abs(complex(np.trace(rho)) - 1.0) > 1e-10:
        raise InvalidModelError("initial state must have unit trace")
    if not is_hermitian(rho, 1e-10):
        raise InvalidModelError("initial state must be Hermitian")

    sector = gen.sector
    obs = {name: sector.operator(op, f"observable {name}")
           for name, op in (observables or {}).items()}

    n_t = t.size
    per_block = min(n_t, max(1, BLOCK_ENTRIES // (d * d)))
    states = np.empty((n_t if store_states else per_block, d, d), dtype=complex)
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

    view = gen.frame_view()
    checked = gen.kind != "pathological"

    def record(i0: int, block: np.ndarray) -> None:
        """Record the rows i0, i0 + 1, ... held by ``block``, in place."""
        times = t[i0:i0 + len(block)]
        if view is not None:
            block[...] = view(block, times)
        trace = np.abs(np.trace(block, axis1=1, axis2=2) - 1.0)
        top = sector.top_fock(block)
        worst = top.max(axis=1)
        fails = (worst > TRUNCATION_LIMIT) | (trace > TRACE_TOL)
        if checked:
            adjoint = block.conj().transpose(0, 2, 1)
            scale = np.maximum(1.0, np.abs(block).max(axis=(1, 2)))
            herm = np.abs(block - adjoint).max(axis=(1, 2))
            fails |= herm > HERMITICITY_TOL * scale
        ok = int(np.argmax(fails)) if fails.any() else len(block)
        if checked:  # positivity only for the rows that passed the other checks
            lowest = np.linalg.eigvalsh(0.5 * (block[:ok] + adjoint[:ok])).min(axis=1)
            negative = np.flatnonzero(lowest < POSITIVITY_TOL)
            ok = int(negative[0]) if negative.size else ok
        good = block[:ok]
        trace_error[i0:i0 + ok] = trace[:ok]
        top_fock[i0:i0 + ok] = worst[:ok]
        system_states[i0:i0 + ok] = sector.reduced(good)
        for name, mat in obs.items():
            obs_out[name][i0:i0 + ok] = np.einsum("nij,ji->n", good, mat)
        if ok == len(block):
            return
        at = float(times[ok])
        truncation_guard(top[ok], at, lambda: finalize(i0 + ok))
        if trace[ok] > TRACE_TOL:
            raise InvariantViolationError(f"trace deviated by {trace[ok]:.3e} at t={at:g}")
        if herm[ok] > HERMITICITY_TOL * scale[ok]:
            raise InvariantViolationError(f"Hermiticity violated by {herm[ok]:.3e} at t={at:g}")
        raise InvariantViolationError(f"negative population {lowest[ok]:.3e} at t={at:g}")

    g = gen.one_excitation_ground()
    if g is None:
        est = gen.norm_estimate()

        def advance(rho: np.ndarray, span: float) -> np.ndarray:
            return _taylor_interval(gen.apply, rho, span, est)
    else:
        left = functools.lru_cache(ROW_CACHE)(exponential(-1j * gen.drift()))
        right = functools.lru_cache(ROW_CACHE)(exponential(1j * gen._right))

        def advance(rho: np.ndarray, span: float) -> np.ndarray:
            out = left(span) @ rho @ right(span)
            out[g, g] += rho.trace() - out.trace()
            return out

    for i0 in range(0, n_t, per_block):
        block = states[i0:i0 + per_block] if store_states else states[:n_t - i0]
        for k, i in enumerate(range(i0, i0 + len(block))):
            try:
                rho = advance(rho, float(t[i] - t[i - 1])) if i else rho
            except StepUnderflowError:  # the rows before it fail first
                record(i0, block[:k])
                raise
            block[k] = rho
        record(i0, block)
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
    caches the function (``evolve``'s U and V at ROW_CACHE spans each).
    """
    with np.errstate(over="ignore"):  # an overflow is inf, which taylor_plan refuses
        norm = float(np.linalg.norm(a))

    def exp(h: float) -> np.ndarray:
        taylor_plan(norm, h)  # the row-length rule of evolve
        halvings = 0
        while norm * math.ldexp(h, -halvings) > TAYLOR_THETA[-1][1]:
            halvings += 1
        u = _taylor_interval(a.__matmul__, np.eye(len(a), dtype=complex),
                             math.ldexp(h, -halvings), norm)
        for _ in range(halvings):
            u = u @ u
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
