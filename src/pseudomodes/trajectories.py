"""Monte Carlo wave-function unraveling of the Lindblad-kind generators.

Standard first-order quantum-jump scheme (Dalibard, Castin and Molmer, PRL
68, 580 (1992)): between jumps the state follows the non-Hermitian drift
D = A - iK (so the squared norm decays monotonically, since K is positive
semidefinite); a jump fires when the norm crosses a uniform threshold; the
channel is drawn proportionally to 2 rate_k ||b_k psi||**2 and the state is
projected and renormalized.

The drift is time independent, so the no-jump evolution is the exact
exponential exp(-i D dt), formed by the ``CachedExponential`` of
``dynamics`` (which also forms ``evolve``'s closed-form U and V) from its
truncated Taylor series rather than by an eigendecomposition, which a
defective drift (an exceptional point) would not have.  Kets live on the
generator's sector S, the states its terms reach from the initial labels:
the drift and the jumps never leave it, so the ensemble carries only |S|
amplitudes per ket.  The whole ensemble advances together: each output row
is one product of the (n_traj, |S|) ket stack with exp(-i D dt) and one
vectorised norm check.  The trajectories whose norm fell below their
threshold then locate their jumps together: monotonicity of the norm lets a
bisection over power-of-two steps place each jump on a lattice of spacing at
most 1e-10 max(1, t), one product of the searching kets' stack per step,
with masks choosing the kets that keep it.  The generator's frame only
changes how the recorded states are viewed (psi_I = exp(i H0 t) psi in the
interaction frame); jumps and their times do not depend on it.

Trajectories are statistically independent with counter-based RNG streams
derived from (seed, trajectory index), each drawing in a fixed order.  A
stack product multiplies each ket by its own BLAS call of one fixed shape,
so a ket's result, and with it a trajectory's jumps, does not depend on
how many others run beside it or on their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_complex_matrix, frozen, validate_grid
from .errors import ClassificationError, InvalidModelError
from .dynamics import CachedExponential, Generator, truncation_guard

#: Relative precision of the jump times.
JUMP_TIME_TOL = 1e-10
#: Power-of-two steps the jump search of one row takes at most: a row of
#: length dt <= max(1, t) spans fewer than 2 / JUMP_TIME_TOL lattice steps.
SEARCH_LEVELS = math.ceil(math.log2(2.0 / JUMP_TIME_TOL))
#: Exponentials a NoJumpPropagator keeps, the least recently used dropped
#: first: every span one row takes (its search steps, its spacing and its
#: tail), so none is computed twice within a row.
PROPAGATOR_CACHE = SEARCH_LEVELS + 2


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble size, base seed and recording grid."""

    n_traj: int
    seed: int
    times: np.ndarray

    def __post_init__(self):
        if self.n_traj < 1:
            raise InvalidModelError("n_traj must be at least 1")
        if self.seed < 0:
            raise InvalidModelError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "times", frozen(validate_grid(self.times)))


@dataclass
class EnsembleResult:
    """Ensemble averages, errors, guard values of the mean density per row
    (worst top Fock population, |Re tr - 1|) and the raw jump bookkeeping.
    ``mean_density`` holds the (n_t, |S|, |S|) blocks on the generator's sector,
    whose indices in the product space are ``support``; every entry outside
    the block is 0."""

    times: np.ndarray
    support: np.ndarray
    observables: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    mean_density: np.ndarray
    top_fock: np.ndarray
    trace_error: np.ndarray
    jump_counts: np.ndarray
    jump_records: tuple[tuple[tuple[float, int], ...], ...]
    stream_keys: tuple[tuple[int, int], ...]

    @property
    def n_traj(self) -> int:
        return self.jump_counts.shape[0]


class NoJumpPropagator:
    """Exact no-jump propagator exp(-i D dt) for a time-independent drift D.

    exp(-i D h) is the ``CachedExponential`` of A = -i D on the identity,
    planned on ||D||_F (which bounds ||A||), so a span is refused by the
    same ``taylor_plan`` rule as a row of ``evolve``, and the
    ``PROPAGATOR_CACHE`` most recently used spans are kept: 10 kB for the
    |S| = 4 of a band gap started with one excitation, 35 MB at |S| = 242.
    ``mcwf_run`` builds it from the generator's drift, so d here is |S|.
    ``apply`` takes a ket or an (n, d) stack of kets and multiplies each ket
    by its own (1, d) x (d, d) BLAS product, of a shape that does not depend
    on n, so no row of the result depends on how many other rows the stack
    has or on their values.  One (n, d) x (d, d) product would not do: its
    kernel follows n, and its row at n = 1 differs from the full stack's.
    """

    def __init__(self, drift: np.ndarray):
        d = as_complex_matrix(drift, "drift")
        self._exp = CachedExponential(-1j * d, PROPAGATOR_CACHE)

    def apply(self, psi: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i D dt) psi for dt >= 0."""
        u = self._exp.matrix(dt)
        return (np.atleast_2d(psi)[:, None, :] @ u.T)[:, 0, :].reshape(np.shape(psi))


def _norm2(psi: np.ndarray):
    """Squared norm of a ket, or of each ket of an (n, d) stack in a fixed order."""
    return (psi.real**2 + psi.imag**2).sum(axis=-1)


def mcwf_run(
    gen: Generator,
    psi0: np.ndarray,
    config: TrajectoryConfig,
    observables: dict[str, np.ndarray] | None = None,
) -> EnsembleResult:
    """Unravel a completely positive generator into quantum-jump trajectories.

    The generator must be of a Lindblad kind: the one-sided form admits jump
    probabilities exceeding unity and has no trajectory interpretation, so it
    is refused outright.  Zero-rate channels are kept in the channel indexing
    (they simply never fire), which keeps jump statistics aligned with the
    generator's channel list.

    ``psi0`` is the initial ket on ``gen.sector`` (``basis_state`` gives
    one).  Kets, the no-jump propagator, the jump operators and the
    observables all act on the sector S, and each row's mean density is kept
    as its S x S block, so memory follows |S|, not d.

    The truncation guard of ``evolve`` runs on the mean density of each row:
    TruncationGuardError carries the rows before the first one whose top Fock
    population exceeds the limit, with the jumps made up to that row.
    """
    if gen.kind not in ("lindblad_direct", "lindblad_regularized"):
        raise ClassificationError(
            f"generator kind {gen.kind!r} cannot be unraveled: jump "
            "probabilities can exceed unity; regularize to a Lindblad form first"
        )
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.size != gen.dim:
        raise InvalidModelError(
            f"initial state has dimension {psi0.size}, generator needs {gen.dim}"
        )
    if abs(_norm2(psi0) - 1.0) > 1e-10:
        raise InvalidModelError("initial state must be normalized")

    sector = gen.sector
    obs_mats = {name: sector.operator(op, f"observable {name}")
                for name, op in (observables or {}).items()}

    prop = NoJumpPropagator(gen.drift())
    channels = gen.channels
    rates = np.array([r for r, _ in channels])
    ops = [b for _, b in channels]
    jumps_possible = bool(np.any(rates > 0.0))

    t = config.times
    n_t = t.size
    n_traj = config.n_traj

    samples = {name: np.empty((n_traj, n_t), dtype=complex) for name in obs_mats}
    density_sum = np.empty((n_t, gen.dim, gen.dim), dtype=complex)
    top_fock = np.empty(n_t)
    trace_error = np.empty(n_t)
    jump_counts = np.zeros((n_traj, len(channels)), dtype=np.int64)
    records: list[list[tuple[float, int]]] = [[] for _ in range(n_traj)]
    rngs = [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(idx,)))
        )
        for idx in range(n_traj)
    ]
    eta = np.array([rng.random() for rng in rngs])
    view = gen.frame_view(kets=True)

    def finalize(upto: int) -> EnsembleResult:
        rows = {name: v[:, :upto] for name, v in samples.items()}
        ddof = min(n_traj - 1, 1)  # a single trajectory has a zero error
        return EnsembleResult(
            times=t[:upto].copy(),
            support=sector.support,
            observables={name: v.mean(axis=0) for name, v in rows.items()},
            stderr={name: np.sqrt((v.real.var(axis=0, ddof=ddof)
                                   + v.imag.var(axis=0, ddof=ddof)) / n_traj)
                    for name, v in rows.items()},
            mean_density=density_sum[:upto] / n_traj,
            top_fock=top_fock[:upto].copy(),
            trace_error=trace_error[:upto].copy(),
            jump_counts=jump_counts.copy(),
            jump_records=tuple(tuple(r) for r in records),
            stream_keys=tuple((config.seed, idx) for idx in range(n_traj)),
        )

    def record(i: int, psi: np.ndarray) -> None:
        w = 1.0 / _norm2(psi)
        if view is not None:
            psi = view(psi, float(t[i]))
        for name, mat in obs_mats.items():
            samples[name][:, i] = np.einsum("ni,ni->n", psi.conj(), psi @ mat.T) * w
        density_sum[i] = psi.T @ (psi.conj() * w[:, None])
        rho = density_sum[i] / n_traj
        trace_error[i] = abs(float(np.trace(rho).real) - 1.0)
        top_fock[i] = truncation_guard(sector.top_fock(rho), float(t[i]), lambda: finalize(i))

    def jump(idx: int, psi: np.ndarray, t_jump: float) -> np.ndarray:
        """Project the ket that reached its threshold; the normalized result."""
        weights = np.array(
            [
                2.0 * rate * _norm2(op @ psi) if rate > 0.0 else 0.0
                for rate, op in channels
            ]
        )
        total = float(weights.sum())
        if total <= 0.0:
            raise InvalidModelError(
                "norm decayed with no open emission channel; "
                "the generator data is inconsistent"
            )
        draw = rngs[idx].random() * total
        ch = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
        ch = min(ch, len(channels) - 1)
        post = ops[ch] @ psi
        eta[idx] = rngs[idx].random()
        jump_counts[idx, ch] += 1
        records[idx].append((t_jump, ch))
        return post / np.sqrt(_norm2(post))

    def cross_row(idx: np.ndarray, psi: np.ndarray, t_lo: float,
                  t_hi: float) -> np.ndarray:
        """Carry the kets ``idx`` over a row in which their norms fall below
        their thresholds; ``psi`` holds them at t_lo.

        Jumps are placed on the lattice t_lo + p q, p = 0..n, where q is the
        largest power of two within JUMP_TIME_TOL max(1, t_hi), and
        t_hi = t_lo + n q + rest with 0 <= rest < q.  A pass moves every ket
        from its lattice position through the steps 2**j q, j = J..0, keeping
        each step after which the norm stays at or above the threshold, so it
        stops just before the first lattice point below it.  A ket that
        crosses at a lattice point jumps there and walks on in the next pass
        with its new threshold; a ket that stays above up to p = n takes the
        step rest to t_hi and jumps there if it falls below.  The kets of a
        pass take each step together, as one stack; masks keep the step for
        the kets still open below their ``below`` bound, the others ride
        along unchanged.
        """
        dt = t_hi - t_lo
        e = math.frexp(JUMP_TIME_TOL * max(1.0, t_hi))[1] - 1
        n = math.floor(math.ldexp(dt, -e))
        rest = dt - math.ldexp(n, e)
        steps = [(1 << j, math.ldexp(1.0, e + j)) for j in reversed(range(n.bit_length()))]
        live, at, kets = np.arange(idx.size), np.zeros(idx.size, dtype=np.int64), psi.copy()
        while live.size:
            th = eta[idx[live]]
            below = np.full(live.size, n + 1, dtype=np.int64)
            kets_below = np.empty_like(kets)
            for step, h in steps:
                open_ = at + step < below
                if open_.any():
                    cand = prop.apply(kets, h)
                    up = _norm2(cand) >= th
                    down, up = open_ & ~up, open_ & up
                    below = np.where(down, at + step, below)
                    kets_below = np.where(down[:, None], cand, kets_below)
                    at = np.where(up, at + step, at)
                    kets = np.where(up[:, None], cand, kets)
            crossed = below <= n
            for k in np.flatnonzero(crossed):
                t_jump = min(t_lo + math.ldexp(float(below[k]), e), t_hi)
                kets[k] = jump(idx[live[k]], kets_below[k], t_jump)
            fin = np.flatnonzero(~crossed)
            if fin.size:
                end = kets[fin] if rest == 0.0 else prop.apply(kets[fin], rest)
                for k in np.flatnonzero(_norm2(end) < th[fin]):
                    end[k] = jump(idx[live[fin[k]]], end[k], t_hi)
                psi[live[fin]] = end
            live, at, kets = live[crossed], below[crossed], kets[crossed]
        return psi

    psi = np.tile(psi0, (n_traj, 1))
    record(0, psi)
    for i in range(1, n_t):
        t_lo, t_hi = float(t[i - 1]), float(t[i])
        start, psi = psi, prop.apply(psi, t_hi - t_lo)
        if jumps_possible:
            cross = np.flatnonzero(_norm2(psi) < eta)
            if cross.size:
                psi[cross] = cross_row(cross, start[cross], t_lo, t_hi)
        record(i, psi)

    return finalize(n_t)
