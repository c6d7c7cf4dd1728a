"""Independent ground-truth solvers for cross-checking the mode machinery.

Everything here stays in the single-excitation sector of a two-level system
exchanging one quantum with its environment, where the full problem collapses
to a small linear ODE for probability amplitudes.  Two routes are provided:

* :func:`single_excitation_solve` integrates the amplitudes of the excited
  level and of each mode of a mode set by fixed-step RK4, each uniform run
  of the grid as one power of the RK4 step matrix of its own small
  amplitude matrix, built from the mode matrix Z rather than a
  master-equation generator (and apart from the Taylor action of
  ``evolve``).  Its excited-amplitude magnitude must reproduce the
  populations that the full density-matrix propagation yields, and for one
  resonant mode it has a closed form.
* :func:`discretized_bath_solve` brute-forces the original continuum: a large
  but finite comb of undamped oscillators sampled from the spectral density,
  evolved unitarily.  As the comb refines, its reduced dynamics converges to
  the discrete-mode answer; no part of the mode construction enters.

The mode family's correlation function has no second route here: its
reference is the pole sum :func:`pseudomodes.spectral.correlation`, against
which :func:`pseudomodes.mapping.mode_correlation` is checked.

All amplitudes carry the free phase of the system transition removed
(the interaction frame at w0), so comparisons are phase-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import frozen, uniform_runs, validate_grid
from .errors import InvalidModelError, StepUnderflowError
from .mapping import ModeSet
from .spectral import PoleSet, eval_density

_trapz = getattr(np, "trapezoid", None) or np.trapz

#: Relative agreement demanded between caller-supplied and stored strengths.
STRENGTH_TOL = 1e-12
#: Sum of squared couplings must reproduce the windowed density integral.
SAMPLING_TOL = 0.01
#: Rows needing more RK4 substeps than this indicate a runaway step scale.
MAX_SUBSTEPS = 50_000_000


@dataclass(frozen=True)
class AmplitudeState:
    """Single-excitation amplitudes on a time grid.

    ``excited[i]`` is the system amplitude c_e at times[i]; ``modes[i, l]``
    the amplitude of mode/oscillator l.  For unitary bath evolution the total
    norm is conserved; damped modes leak it.
    """

    times: np.ndarray
    excited: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        for name in ("times", "excited", "modes"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def norms(self) -> np.ndarray:
        """Total excitation norm |c_e|**2 + sum_l |c_l|**2 per grid time."""
        return np.abs(self.excited) ** 2 + (np.abs(self.modes) ** 2).sum(axis=1)


def damped_rabi_amplitude(strength: float, damping: float, t):
    """Closed-form excited amplitude for one resonant damped mode.

    c_e(t) = e^{-lam t/2} [cosh(d t/2) + (lam/d) sinh(d t/2)],
    d = sqrt(lam**2 - 4 W**2), valid on resonance; d may be imaginary, the
    result is real either way.
    """
    t = np.asarray(t, dtype=float)
    lam = float(damping)
    w = float(strength)
    disc = complex(lam * lam - 4.0 * w * w)
    d = np.sqrt(disc)
    if abs(d) < 1e-12 * max(1.0, lam, w):
        out = np.exp(-0.5 * lam * t) * (1.0 + 0.5 * lam * t)
    else:
        half = 0.5 * d * t
        out = np.exp(-0.5 * lam * t) * (np.cosh(half) + (lam / d) * np.sinh(half))
    out = np.real_if_close(out, tol=1000)
    if np.ndim(t) == 0:
        return complex(out[()])
    return out


def single_excitation_solve(
    modes: ModeSet,
    strength: float,
    frequency: float,
    t_grid,
    channel: int = 0,
) -> AmplitudeState:
    """Amplitude dynamics of |e, vacuum> exchanging one quantum with the modes.

    With the free phase of the transition frequency w0 removed:

        dc_e/dt = -i sum_l g_l c_l,
        dc_l/dt = -i sum_m (Z - w0)_lm c_m - i g_l c_e,

    which for a diagonal Z is (i (w0 - xi_l) - lam_l) c_l - i g_l c_e.  It is
    integrated by RK4 with step at most 1e-3 / max(lam, W, |detuning|,
    |hopping|), taken over every entry of Z: each of the ``uniform_runs`` of
    the grid forms one power of the RK4 step matrix, at the run's mean
    span, and applies it row by row.  The system is a two-level one by
    construction here: one amplitude, one transition.
    """
    if not 0 <= channel < modes.n_transitions:
        raise InvalidModelError(f"channel {channel} out of range")
    w_stored = modes.strengths[channel]
    if abs(float(strength) - w_stored) > STRENGTH_TOL * max(1.0, w_stored):
        raise InvalidModelError(
            f"strength {strength} disagrees with the mode set's {w_stored}"
        )
    t = validate_grid(t_grid)
    n = len(modes)
    z = modes.frequency_matrix
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    mat[0, 1:] = mat[1:, 0] = -1j * modes.coupling_matrix[channel]
    mat[1:, 1:] = -1j * (z - frequency * np.eye(n))
    detuning = float(np.abs(frequency - modes.frequencies).max(initial=0.0))
    hopping = float(np.abs(z - np.diag(np.diag(z))).max())
    scale = max(float(modes.rates.max()), float(strength), detuning, hopping, 1e-12)
    amps = np.zeros((t.size, n + 1), dtype=complex)
    amps[0, 0] = 1.0
    bounds = uniform_runs(t)
    for b, e in zip(bounds, bounds[1:]):
        t_b = float(t[b])
        h = (float(t[e]) - t_b) / (e - b)
        step = _rk4_step_power(mat, *_rk4_substeps(t_b, t_b + h, 1e-3 / scale))
        for i in range(b + 1, e + 1):
            amps[i] = step @ amps[i - 1]
    return AmplitudeState(times=t, excited=amps[:, 0], modes=amps[:, 1:])


def _rk4_substeps(t0: float, t1: float, h_cap: float) -> tuple[int, float]:
    """Count and length of the equal RK4 substeps, none over h_cap, on [t0, t1]."""
    n_sub = max(1, int(math.ceil((t1 - t0) / h_cap)))
    if n_sub > MAX_SUBSTEPS:
        raise StepUnderflowError(
            f"interval [{t0:g}, {t1:g}] needs {n_sub} substeps; "
            "the norm estimate is too large to integrate"
        )
    return n_sub, (t1 - t0) / n_sub


def _rk4_step_power(mat: np.ndarray, n_sub: int, h: float) -> np.ndarray:
    """(I + E)**n_sub, n_sub RK4 steps of size h on dc/dt = M c (M = mat).

    E = hM (I + hM/2 + (hM)**2/6 + (hM)**3/24).  Binary powering keeps only
    small parts, E <- 2E + E**2 and (I + A)(I + B) = I + (A + B + AB), so I,
    added once at the end, never swamps them.
    """
    a = h * mat
    eye = np.eye(len(mat))
    base = a @ (eye + a @ (eye / 2.0 + a @ (eye / 6.0 + a / 24.0)))
    acc = np.zeros_like(base)
    while True:
        if n_sub & 1:
            acc = acc + base + acc @ base
        n_sub >>= 1
        if not n_sub:
            return eye + acc
        base = 2.0 * base + base @ base


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite comb of undamped oscillators standing in for the continuum.

    Frequencies are equally spaced midpoints of a window and couplings carry
    the density weight, g_k = W sqrt(D(w_k) dw / 2 pi).  ``density_integral``
    records an independently computed integral of D over the window; when
    present, construction verifies the sampled weights reproduce it.
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    strength: float
    window: tuple[float, float]
    density_integral: float | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        if f.ndim != 1 or f.shape != g.shape or f.size == 0:
            raise InvalidModelError("frequencies and couplings must be equal-length 1-d")
        if np.any(g < 0.0):
            raise InvalidModelError("couplings must be non-negative")
        if not self.window[1] > self.window[0]:
            raise InvalidModelError("window must be a proper interval")
        object.__setattr__(self, "frequencies", frozen(f))
        object.__setattr__(self, "couplings", frozen(g))
        if self.density_integral is not None:
            target = self.strength**2 * self.density_integral / (2.0 * math.pi)
            got = float((g**2).sum())
            if abs(got - target) > SAMPLING_TOL * max(self.strength**2, 1e-300):
                raise InvalidModelError(
                    f"sampled coupling weight {got!r} misses the windowed "
                    f"density integral {target!r} by more than "
                    f"{SAMPLING_TOL:g} * strength**2"
                )

    @property
    def n_oscillators(self) -> int:
        return self.frequencies.size

    @property
    def spacing(self) -> float:
        lo, hi = self.window
        return (hi - lo) / self.n_oscillators

    @classmethod
    def from_pole_set(
        cls,
        pole_set: PoleSet,
        strength: float,
        n_oscillators: int,
        window: tuple[float, float] | None = None,
    ) -> "DiscretizedBath":
        """Sample the density reconstructed from the poles on a midpoint comb.

        Default window: +-20 * max(lambda) around the mean pole center at 600
        oscillators, scaled proportionally with n_oscillators.  This keeps the
        comb spacing fixed at max(lambda)/15, where the quadrature error of
        the analytic density is already negligible, so refining n_oscillators
        widens the covered band and shrinks the dominant tail-truncation
        error instead of stalling at a fixed-window floor.
        """
        if n_oscillators < 1:
            raise InvalidModelError("need at least one oscillator")
        if window is None:
            half = 20.0 * float(pole_set.widths.max()) * (n_oscillators / 600.0)
            mid = float(pole_set.centers.mean())
            window = (mid - half, mid + half)
        lo, hi = float(window[0]), float(window[1])
        dw = (hi - lo) / n_oscillators
        freqs = lo + (np.arange(n_oscillators) + 0.5) * dw
        dens = eval_density(pole_set, freqs)
        if np.any(dens < -1e-12):
            raise InvalidModelError(
                "density is negative inside the window; discretization of a "
                "sign-indefinite density is not meaningful"
            )
        dens = np.clip(dens, 0.0, None)
        g = float(strength) * np.sqrt(dens * dw / (2.0 * math.pi))
        fine = np.linspace(lo, hi, 40001)
        integral = float(_trapz(eval_density(pole_set, fine), fine))
        return cls(
            frequencies=freqs,
            couplings=g,
            strength=float(strength),
            window=(lo, hi),
            density_integral=integral,
        )


def discretized_bath_solve(
    bath: DiscretizedBath,
    strength: float,
    frequency: float,
    t_grid,
) -> AmplitudeState:
    """Unitary single-excitation evolution of system + oscillator comb.

    Diagonalizes the real symmetric arrow Hamiltonian once and propagates
    exactly, so there is no integrator error to disentangle from the
    discretization error being studied.  Refuses time grids that reach the
    comb's recurrence time 2 pi / dw (revivals are artifacts).
    """
    if abs(float(strength) - bath.strength) > STRENGTH_TOL * max(1.0, bath.strength):
        raise InvalidModelError(
            f"strength {strength} disagrees with the bath's {bath.strength}"
        )
    if bath.n_oscillators > 4000:
        raise InvalidModelError(
            f"{bath.n_oscillators} oscillators exceeds the dense-solver limit of 4000"
        )
    t = validate_grid(t_grid)
    if bath.n_oscillators > 1:
        # a lone oscillator has no neighbor to beat against, so the comb
        # revival argument only applies from two tones upward
        t_rec = 2.0 * math.pi / bath.spacing
        if not t_rec > 2.0 * float(t[-1]):
            raise InvalidModelError(
                f"time grid reaches {t[-1]:g} but the comb recurs at {t_rec:g}; "
                "use more oscillators or a shorter grid"
            )
    n = bath.n_oscillators
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = frequency
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = bath.frequencies
    h[0, 1:] = bath.couplings
    h[1:, 0] = bath.couplings
    evals, evecs = np.linalg.eigh(h)
    weights = evecs[0, :]  # overlap of each eigenvector with |e>
    phases = np.exp(-1j * np.outer(t, evals))
    amps = (phases * weights) @ evecs.T  # lab frame amplitudes, all factors
    amps *= np.exp(1j * frequency * t)[:, None]  # rotate at the transition
    return AmplitudeState(times=t, excited=amps[:, 0], modes=amps[:, 1:])
