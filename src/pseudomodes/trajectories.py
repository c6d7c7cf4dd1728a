"""Monte Carlo wave-function unraveling of the Lindblad-kind generators.

Standard first-order quantum-jump scheme: between jumps the state follows the
non-Hermitian drift D = A - iK (so the squared norm decays monotonically,
since K is positive semidefinite); a jump fires when the norm crosses a
uniform threshold; the channel is drawn proportionally to 2 rate_k
||b_k psi||**2 and the state is projected and renormalized.

Only undriven generators are unraveled, so the no-jump segments are
propagated with the exact exponential of D obtained from one
eigendecomposition, not with a stepper.  Monotonicity of the norm then
makes threshold detection exact on arbitrarily long segments, and the jump
time itself is refined by bisection to 1e-10 relative precision.  The
generator's frame only changes how the recorded states are viewed
(psi_I = exp(i H0 t) psi in the interaction frame); jumps and their times do
not depend on it.

Trajectories are statistically independent with counter-based RNG streams
derived from (seed, trajectory index), so any execution order, including a
parallel one, reproduces the same ensemble bit for bit.  This implementation
runs them sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_complex_matrix, frozen, validate_grid
from .errors import ClassificationError, InvalidModelError
from .dynamics import Generator
from .hilbert import embed_system

#: Relative precision of the bisection-refined jump times.
JUMP_TIME_TOL = 1e-10


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
    """Ensemble averages, errors and the raw jump bookkeeping."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    mean_density: np.ndarray
    jump_counts: np.ndarray
    jump_records: tuple[tuple[tuple[float, int], ...], ...]
    stream_keys: tuple[tuple[int, int], ...]

    @property
    def n_traj(self) -> int:
        return self.jump_counts.shape[0]


class NoJumpPropagator:
    """Exact propagator exp(-i D dt) for a time-independent drift D.

    Diagonalizes once; each application is three small matrix-vector
    products.  The reconstruction residual is checked so silently inaccurate
    eigenbases are rejected rather than trusted.
    """

    def __init__(self, drift: np.ndarray):
        d = as_complex_matrix(drift, "drift")
        evals, evecs = np.linalg.eig(d)
        try:
            inv = np.linalg.inv(evecs)
        except np.linalg.LinAlgError as exc:
            raise InvalidModelError("drift is not diagonalizable") from exc
        recon = (evecs * evals) @ inv
        scale = max(1.0, float(np.abs(d).max()))
        if float(np.abs(recon - d).max()) > 1e-9 * scale:
            raise InvalidModelError(
                "drift eigendecomposition is too ill-conditioned to trust"
            )
        self._evals = evals
        self._evecs = evecs
        self._inv = inv

    def apply(self, psi: np.ndarray, dt: float) -> np.ndarray:
        coeff = self._inv @ psi
        coeff = coeff * np.exp(-1j * self._evals * dt)
        return self._evecs @ coeff


def _norm2(psi: np.ndarray) -> float:
    return float(np.real(np.vdot(psi, psi)))


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
    """
    if gen.kind not in ("lindblad_direct", "lindblad_regularized"):
        raise ClassificationError(
            f"generator kind {gen.kind!r} cannot be unraveled: jump "
            "probabilities can exceed unity; regularize to a Lindblad form first"
        )
    if gen.time_dependent:
        raise InvalidModelError(
            "trajectory unraveling is implemented for time-independent "
            "generators (no drive)"
        )
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.size != gen.dim:
        raise InvalidModelError(
            f"initial state has dimension {psi0.size}, generator needs {gen.dim}"
        )
    n0 = _norm2(psi0)
    if abs(n0 - 1.0) > 1e-10:
        raise InvalidModelError("initial state must be normalized")

    observables = observables or {}
    layout = gen.layout
    obs_mats: dict[str, np.ndarray] = {}
    for name, op in observables.items():
        mat = as_complex_matrix(op, f"observable {name}")
        if mat.shape == (layout.system_dim, layout.system_dim):
            mat = embed_system(layout, mat)
        elif mat.shape != (gen.dim, gen.dim):
            raise InvalidModelError(
                f"observable {name} has shape {mat.shape}; expected system or full"
            )
        obs_mats[name] = mat

    prop = NoJumpPropagator(gen.drift(0.0))
    channels = gen.channels
    rates = np.array([r for r, _ in channels])
    ops = [b for _, b in channels]
    jumps_possible = bool(np.any(rates > 0.0))

    t = config.times
    n_t = t.size
    n_traj = config.n_traj
    d = gen.dim

    samples = {name: np.empty((n_traj, n_t), dtype=complex) for name in obs_mats}
    density_sum = np.zeros((n_t, d, d), dtype=complex)
    jump_counts = np.zeros((n_traj, len(channels)), dtype=np.int64)
    all_records: list[tuple[tuple[float, int], ...]] = []
    stream_keys: list[tuple[int, int]] = []
    view = gen.frame_view()

    def emission_weights(psi: np.ndarray) -> np.ndarray:
        return np.array(
            [
                2.0 * rate * _norm2(op @ psi) if rate > 0.0 else 0.0
                for rate, op in channels
            ]
        )

    def refine_jump(psi_lo, t_lo: float, t_hi: float, eta: float):
        """Bisect the norm threshold crossing inside (t_lo, t_hi]."""
        lo, hi = t_lo, t_hi
        tol = JUMP_TIME_TOL * max(1.0, abs(t_hi))
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            psi_mid = prop.apply(psi_lo, mid - lo)
            if _norm2(psi_mid) >= eta:
                lo, psi_lo = mid, psi_mid
            else:
                hi = mid
        return hi, prop.apply(psi_lo, hi - lo)

    for idx in range(n_traj):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(idx,)))
        )
        psi = psi0.copy()
        eta = rng.random()
        records: list[tuple[float, int]] = []

        def record(i: int, psi: np.ndarray) -> None:
            n2 = _norm2(psi)
            normed = psi / np.sqrt(n2)
            if view is not None:
                normed = view(normed, float(t[i]))
            for name, mat in obs_mats.items():
                samples[name][idx, i] = np.vdot(normed, mat @ normed)
            density_sum[i] += np.outer(normed, normed.conj())

        record(0, psi)
        for i in range(1, n_t):
            tcur = float(t[i - 1])
            t_target = float(t[i])
            while True:
                psi_cand = prop.apply(psi, t_target - tcur)
                if not jumps_possible or _norm2(psi_cand) >= eta:
                    psi = psi_cand
                    break
                t_jump, psi_at = refine_jump(psi, tcur, t_target, eta)
                weights = emission_weights(psi_at)
                total = float(weights.sum())
                if total <= 0.0:
                    raise InvalidModelError(
                        "norm decayed with no open emission channel; "
                        "the generator data is inconsistent"
                    )
                draw = rng.random() * total
                ch = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
                ch = min(ch, len(channels) - 1)
                post = ops[ch] @ psi_at
                psi = post / np.sqrt(_norm2(post))
                eta = rng.random()
                records.append((t_jump, ch))
                jump_counts[idx, ch] += 1
                tcur = t_jump
            record(i, psi)
        all_records.append(tuple(records))
        stream_keys.append((config.seed, idx))

    means = {name: s.mean(axis=0) for name, s in samples.items()}
    stderr = {}
    for name, s in samples.items():
        if n_traj > 1:
            var = s.real.var(axis=0, ddof=1) + s.imag.var(axis=0, ddof=1)
            stderr[name] = np.sqrt(var / n_traj)
        else:
            stderr[name] = np.zeros(n_t)
    return EnsembleResult(
        times=t.copy(),
        observables=means,
        stderr=stderr,
        mean_density=density_sum / n_traj,
        jump_counts=jump_counts,
        jump_records=tuple(all_records),
        stream_keys=tuple(stream_keys),
    )
