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

Every generator is built in the Schrodinger picture.  The only time
dependence is an optional system drive, which feeds A(t), never K or the jump
operators.  The frame is a way of viewing the state: in the interaction frame
each recorded state is rho_I(t) = exp(i H0 t) rho(t) exp(-i H0 t) with
H0 = H_S0 + sum_l xi_l n_l over the modes the generator was built from.

A time-independent generator (no drive) is propagated exactly: each output
row is rho(t + dt) = exp(dt L) rho(t), evaluated as a truncated Taylor series
that only applies L to d x d matrices (Al-Mohy and Higham, SIAM J. Sci.
Comput. 33, 488 (2011)), so memory stays O(d**2) and the cost follows the
output rows.  A driven generator is integrated by fixed-step classical RK4
with the step chosen from a cheap upper bound on the generator norm,
h <= 0.01 / ||L||_est, additionally capped by the output grid spacing.  A
truncation guard aborts the run as soon as the top Fock level of any mode
accumulates population beyond 1e-6.
"""

from __future__ import annotations

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
    SpaceLayout,
    SystemSpec,
    eigenoperator,
    embed,
    embed_system,
    expectation,
    mode_ops,
    partial_trace_modes,
    top_fock_populations,
    vacuum_embedding,
)
from .mapping import ModeSet

KINDS = ("lindblad_direct", "pathological", "lindblad_regularized")
FRAMES = ("schrodinger", "interaction")

#: Dimensionless RK4 step control: h * ||L||_est <= this.
STEP_CONTROL = 0.01
#: Snapshot population of any top Fock level beyond this aborts the run.
TRUNCATION_LIMIT = 1e-6
#: Snapshot invariant tolerances.
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
POSITIVITY_TOL = -1e-8
#: Intervals needing more RK4 substeps than this indicate a runaway norm estimate.
MAX_SUBSTEPS = 50_000_000
#: Taylor degrees m with the largest ||h L|| each one evaluates to double
#: precision (unit roundoff 2**-53): Al-Mohy and Higham (2011), Table 3.1.
TAYLOR_THETA = (
    (5, 2.4e-3), (10, 1.4e-1), (15, 6.4e-1), (20, 1.4), (25, 2.4), (30, 3.5),
    (35, 4.7), (40, 6.0), (45, 7.2), (50, 8.5), (55, 9.9),
)
UNIT_ROUNDOFF = 2.0**-53
#: Rows needing more Taylor sub-intervals than this indicate a runaway norm
#: estimate or step_scale.
MAX_TAYLOR_INTERVALS = 1_000_000


class InvariantViolationError(InvalidModelError):
    """A snapshot broke trace, Hermiticity or positivity beyond tolerance."""


class Generator:
    """Concrete generator: matrices for A and K plus scaled jump channels.

    Instances are immutable by convention; every array is kept internally and
    never handed out for mutation.  ``apply`` is deliberately matrix-free in
    the superoperator sense: it performs only d x d matrix products, so the
    memory footprint stays O(d**2) rather than O(d**4).  ``h0`` is the
    diagonal of the free Hamiltonian H0 that the interaction frame rotates
    with; the Schrodinger frame does not need it.
    """

    def __init__(
        self,
        kind: str,
        frame: str,
        layout: SpaceLayout,
        static_both: np.ndarray,
        damping: np.ndarray,
        channels: tuple[tuple[float, np.ndarray], ...],
        drive: Callable[[float], np.ndarray] | None = None,
        h0: np.ndarray | None = None,
    ):
        if kind not in KINDS:
            raise InvalidModelError(f"unknown generator kind {kind!r}")
        if frame not in FRAMES:
            raise InvalidModelError(f"unknown frame {frame!r}")
        d = layout.dim
        self.kind = kind
        self.frame = frame
        self.layout = layout
        self.static_both = as_complex_matrix(static_both, "static part")
        self.damping = as_complex_matrix(damping, "damping part")
        if self.static_both.shape != (d, d) or self.damping.shape != (d, d):
            raise InvalidModelError("generator matrices must match the layout dimension")
        if not is_hermitian(self.damping, 1e-12):
            raise InvalidModelError("damping part K must be Hermitian")
        self.channels = tuple((float(r), as_complex_matrix(b)) for r, b in channels)
        for rate, _ in self.channels:
            if rate < 0.0:
                raise InvalidModelError(f"negative jump rate {rate}")
        if frame == "interaction" and (h0 is None or np.shape(h0) != (d,)):
            raise InvalidModelError("the interaction frame needs the diagonal of H0")
        self.h0 = h0
        self.drive = drive
        self._jumps = tuple(
            (np.sqrt(2.0 * rate) * b, np.sqrt(2.0 * rate) * b.conj().T)
            for rate, b in self.channels
            if rate > 0.0
        )
        self._left = self.static_both - 1j * self.damping
        self._right = self.static_both + 1j * self.damping

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def time_dependent(self) -> bool:
        return self.drive is not None

    def both_sides(self, t: float) -> np.ndarray:
        """The operator A(t) entering from both sides of the commutator."""
        if self.drive is None:
            return self.static_both
        return self.static_both + embed_system(
            self.layout, as_complex_matrix(self.drive(t), "drive")
        )

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

    def drift_pair(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(A(t) - iK, A(t) + iK), the two one-sided drift operators."""
        if not self.time_dependent:
            return self._left, self._right
        a = self.both_sides(t)
        return a - 1j * self.damping, a + 1j * self.damping

    def drift(self, t: float = 0.0) -> np.ndarray:
        """Non-Hermitian drift A(t) - iK governing no-jump evolution."""
        return self.drift_pair(t)[0]

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """Evaluate L(t)[rho]."""
        left, right = self.drift_pair(t)
        out = -1j * (left @ rho - rho @ right)
        for jop, jdag in self._jumps:
            out += jop @ (rho @ jdag)
        return out

    def norm_estimate(self) -> float:
        """Upper bound on the superoperator norm induced by the Frobenius norm.

        It plans the Taylor series of the exact action and sets the RK4 step.
        """
        est = operator_norm_bound(self._left) + operator_norm_bound(self._right)
        if self.drive is not None:
            est += 2.0 * operator_norm_bound(
                np.asarray(self.drive(0.0), dtype=complex)
            )
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


def _mode_number_sum(layout: SpaceLayout, coeffs) -> np.ndarray:
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for l, c in enumerate(coeffs):
        if c == 0.0:
            continue
        a, adag = mode_ops(layout, l)
        out += c * (adag @ a)
    return out


def _coupling_terms(layout: SpaceLayout, system: SystemSpec, couplings) -> np.ndarray:
    """The coupling sum_jl g_jl (c_j^dag b_l + b_l^dag c_j).

    The same g multiplies both pieces.  For real couplings this is the
    Hermitian coupling; for complex ones it is the one-sided convention of
    the pathological form.
    """
    static = np.zeros((layout.dim, layout.dim), dtype=complex)
    for j in range(system.n_channels):
        c = embed_system(layout, eigenoperator(system, j))
        cdag = c.conj().T
        for l in range(layout.n_modes):
            g = complex(couplings[j][l])
            if g == 0.0:
                continue
            b, bdag = mode_ops(layout, l)
            forward = g * (cdag @ b)
            backward = g * (bdag @ c)
            static += forward + backward
    return static


def build_generator(
    system: SystemSpec,
    modes: ModeSet,
    layout: SpaceLayout,
    frame: str = "schrodinger",
) -> Generator:
    """Generator of the auxiliary master equation; its kind follows from ``modes``.

    With Z = H - i*Gamma, A = H_S + sum_l H_ll n_l + coupling
    + sum_{l<m} H_lm (b_l^dag b_m + b_m^dag b_l), K = sum_l Gamma_ll n_l, and
    one channel b_l at rate Gamma_ll per mode, zero rates included.  Complex
    couplings give ``pathological``; real ones give ``lindblad_regularized``
    with a hopping and ``lindblad_direct`` without.
    """
    _check_consistency(system, modes, layout)
    h = modes.frequency_matrix.real
    hops = [(l, m) for l in range(len(modes)) for m in range(l + 1, len(modes))
            if h[l, m] != 0.0]
    g = modes.coupling_matrix
    if not modes.is_all_real:
        kind = "pathological"
    else:
        kind = "lindblad_regularized" if hops else "lindblad_direct"
        g = g.real
    coupling = _coupling_terms(layout, system, g)
    for l, m in hops:
        bl, bld = mode_ops(layout, l)
        bm, bmd = mode_ops(layout, m)
        coupling = coupling + h[l, m] * (bld @ bm + bmd @ bl)
    frequencies, rates = modes.frequencies, modes.rates
    static = embed_system(layout, system.bare_hamiltonian)
    static += _mode_number_sum(layout, frequencies)
    static += coupling
    return Generator(
        kind=kind,
        frame=frame,
        layout=layout,
        static_both=static,
        damping=_mode_number_sum(layout, rates).real.astype(complex),
        channels=tuple(
            (float(r), mode_ops(layout, l)[0]) for l, r in enumerate(rates)
        ),
        drive=system.drive,
        h0=free_hamiltonian_diagonal(layout, system, frequencies),
    )


def free_hamiltonian_diagonal(
    layout: SpaceLayout, system: SystemSpec, mode_frequencies
) -> np.ndarray:
    """Diagonal of H0 = H_S0 + sum_l xi_l n_l in the product basis."""
    if len(mode_frequencies) != layout.n_modes:
        raise InvalidModelError("one frequency per mode is required")
    diag = np.array(system.energies, dtype=float)
    for xi, n_max in zip(mode_frequencies, layout.fock_levels):
        diag = np.add.outer(diag, xi * np.arange(n_max + 1)).ravel()
    return diag


def rotate_frame(rho: np.ndarray, h0_diag: np.ndarray, t: float) -> np.ndarray:
    """Map an interaction-picture state at time t back to the Schrodinger one."""
    ph = np.exp(-1j * h0_diag * t)
    return ph[:, None] * rho * ph.conj()[None, :]


@dataclass
class EvolutionResult:
    """Densities and derived quantities on the requested time grid."""

    times: np.ndarray
    states: np.ndarray | None
    system_states: np.ndarray
    observables: dict[str, np.ndarray]
    top_fock: np.ndarray
    trace_error: np.ndarray
    kind: str


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
    step_scale: float = 1.0,
    store_states: bool = True,
) -> EvolutionResult:
    """Propagate d rho / dt = L(t)[rho] over the grid.

    A time-independent generator is advanced from row to row by the exact
    action exp(dt L) rho; a driven one by fixed-step RK4.  Every recorded
    quantity is taken from the state as seen in ``gen.frame``.
    ``observables`` maps names to matrices either on the system factor (then
    evaluated on the reduced state) or on the full space.  ``step_scale``
    multiplies the RK4 step, and likewise the sub-interval length of the
    exact action's Taylor plan; pass 0.5 to halve either for convergence
    studies.  Snapshot invariants are always enforced: trace for every kind,
    Hermiticity and positivity for the completely positive kinds.

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
    if not (step_scale > 0.0 and math.isfinite(step_scale)):
        raise InvalidModelError("step_scale must be positive and finite")

    observables = observables or {}
    layout = gen.layout
    obs_full = {}
    for name, op in observables.items():
        mat = as_complex_matrix(op, f"observable {name}")
        if mat.shape == (layout.system_dim, layout.system_dim):
            obs_full[name] = ("system", mat)
        elif mat.shape == (d, d):
            obs_full[name] = ("full", mat)
        else:
            raise InvalidModelError(
                f"observable {name} has shape {mat.shape}; expected system or full"
            )

    est = gen.norm_estimate()
    td = gen.time_dependent
    if td and t.size > 1:
        spacing = float(np.diff(t).min())
        h_cap = spacing if est == 0.0 else min(STEP_CONTROL / est, spacing)
        h_cap *= step_scale
        if h_cap <= 0.0 or not np.isfinite(h_cap):
            raise StepUnderflowError(f"unusable step size {h_cap!r}")
    else:
        h_cap = None

    n_t = t.size
    states = np.empty((n_t, d, d), dtype=complex) if store_states else None
    system_states = np.empty((n_t, layout.system_dim, layout.system_dim), dtype=complex)
    top_fock = np.empty(n_t)
    trace_error = np.empty(n_t)
    obs_out = {name: np.empty(n_t, dtype=complex) for name in obs_full}

    def finalize(upto: int) -> EvolutionResult:
        return EvolutionResult(
            times=t[:upto].copy(),
            states=states[:upto].copy() if store_states else None,
            system_states=system_states[:upto].copy(),
            observables={k: v[:upto].copy() for k, v in obs_out.items()},
            top_fock=top_fock[:upto].copy(),
            trace_error=trace_error[:upto].copy(),
            kind=gen.kind,
        )

    view = gen.frame_view()

    def record(i: int, rho: np.ndarray) -> None:
        if view is not None:
            rho = view(rho, float(t[i]))
        tr_err = abs(complex(np.trace(rho)) - 1.0)
        tops = top_fock_populations(rho, layout)
        worst = float(tops.max())
        if worst > TRUNCATION_LIMIT:
            raise TruncationGuardError(
                f"top Fock population {worst:.3e} exceeded {TRUNCATION_LIMIT:g} "
                f"at t={t[i]:g}; raise the cutoffs",
                time=float(t[i]),
                population=worst,
                partial=finalize(i),
            )
        _snapshot_checks(gen.kind, rho, float(t[i]))
        if store_states:
            states[i] = rho
        rho_s = partial_trace_modes(rho, layout)
        system_states[i] = rho_s
        top_fock[i] = worst
        trace_error[i] = tr_err
        for name, (kind_, mat) in obs_full.items():
            target = rho_s if kind_ == "system" else rho
            obs_out[name][i] = expectation(target, mat)

    record(0, rho)
    apply = gen.apply
    for i in range(1, n_t):
        t0, t1 = float(t[i - 1]), float(t[i])
        if td:
            rho = _rk4_interval(apply, rho, t0, t1, h_cap)
        else:
            rho = _taylor_interval(apply, rho, t1 - t0, est, step_scale)
        record(i, rho)
    return finalize(n_t)


def _rk4_interval(apply, rho: np.ndarray, t0: float, t1: float,
                  h_cap: float) -> np.ndarray:
    """Classical RK4 from t0 to t1 in equal substeps no longer than h_cap."""
    n_sub, h = _rk4_substeps(t0, t1, h_cap)
    tc = t0
    for _ in range(n_sub):
        k1 = apply(tc, rho)
        k2 = apply(tc + 0.5 * h, rho + (0.5 * h) * k1)
        k3 = apply(tc + 0.5 * h, rho + (0.5 * h) * k2)
        k4 = apply(tc + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        tc += h
    return rho


def _rk4_substeps(t0: float, t1: float, h_cap: float) -> tuple[int, float]:
    """Count and length of the equal RK4 substeps, none over h_cap, on [t0, t1]."""
    n_sub = max(1, int(math.ceil((t1 - t0) / h_cap)))
    if n_sub > MAX_SUBSTEPS:
        raise StepUnderflowError(
            f"interval [{t0:g}, {t1:g}] needs {n_sub} substeps; "
            "the norm estimate is too large to integrate"
        )
    return n_sub, (t1 - t0) / n_sub


def taylor_plan(norm: float, step_scale: float = 1.0) -> tuple[int, int]:
    """Taylor degree m and sub-interval count s for exp(A) b, ||A|| <= norm.

    m and s minimise the number of applications of A, m * s, subject to
    norm / s <= theta_m (``TAYLOR_THETA``); ties go to the lower degree.
    ``step_scale`` then multiplies the sub-interval length, as it multiplies
    the RK4 step: 0.5 doubles s at the same degree.
    """
    if not 0.0 <= norm < math.inf:
        raise StepUnderflowError(f"unusable norm bound {norm!r}")
    if norm == 0.0:
        return 0, 1
    m, s = min(
        ((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA),
        key=lambda plan: plan[0] * plan[1],
    )
    scaled = s / step_scale
    if not scaled <= MAX_TAYLOR_INTERVALS:
        raise StepUnderflowError(
            f"{scaled:.3g} Taylor sub-intervals for ||A|| = {norm:.3g} at "
            f"step_scale {step_scale:g}; the norm estimate is too large to propagate"
        )
    return m, math.ceil(scaled)


def _taylor_interval(apply, rho: np.ndarray, span: float, norm_rate: float,
                     step_scale: float) -> np.ndarray:
    """exp(span L) rho for a time-independent L with ||L|| <= norm_rate.

    Algorithm 3.2 of Al-Mohy and Higham (2011) without shift or balancing:
    s sub-intervals, each a Taylor series of degree at most m that stops once
    two successive terms fall below the unit roundoff relative to the partial
    sum.  Norms are Frobenius norms, the ones ``Generator.norm_estimate``
    bounds the superoperator in.
    """
    m, s = taylor_plan(norm_rate * span, step_scale)
    h = span / s
    for _ in range(s):
        term = rho
        c1 = np.linalg.norm(term)
        for k in range(1, m + 1):
            term = (h / k) * apply(0.0, term)
            c2 = np.linalg.norm(term)
            rho = rho + term
            if c1 + c2 <= UNIT_ROUNDOFF * np.linalg.norm(rho):
                break
            c1 = c2
    return rho


def equivalence_check(
    gen_a: Generator,
    gen_b: Generator,
    rho_system: np.ndarray,
    t_grid,
    **evolve_kwargs,
) -> float:
    """Max elementwise deviation of the reduced states of two generators.

    Both generators are started from the same system state with every mode in
    vacuum (their mode bases may differ; the vacuum is shared by any basis
    reached through the rotations used here).
    """
    if gen_a.layout.system_dim != gen_b.layout.system_dim:
        raise InvalidModelError("generators act on different system dimensions")
    dev = 0.0
    res = []
    for gen in (gen_a, gen_b):
        rho0 = vacuum_embedding(gen.layout, rho_system)
        res.append(
            evolve(gen, rho0, t_grid, store_states=False, **evolve_kwargs)
        )
    dev = float(np.abs(res[0].system_states - res[1].system_states).max())
    return dev
