"""Spectral densities of structured environments and their pole expansions.

A bosonic environment enters the reduced dynamics of the system it couples to
only through its spectral density D(w), normalized here so that the integral
of D over all frequencies equals 2*pi.  When D, continued to complex
frequency, is meromorphic with simple poles z_l = xi_l - i*lambda_l in the
lower half plane (lambda_l > 0), the vacuum two-time correlation function of
the coupling operators is a finite sum of decaying exponentials,

    f_jk(tau) = -i * W_j * W_k * sum_l r_l * exp(-i z_l tau),   tau >= 0,

with r_l the residue of D at z_l and W_j the overall coupling strength of
system transition j.  Everything downstream (the discrete-mode construction,
its regularized form, and the brute-force checks) consumes the poles and
residues collected here.

Sums of Lorentzians are the canonical closed-under-everything family:

    D(w) = sum_i W_i * 2*lambda_i / ((w - xi_i)**2 + lambda_i**2),

with sum_i W_i = 1.  Each term contributes one lower-half-plane pole
z_i = xi_i - i*lambda_i with residue r_i = i*W_i.  Negative weights are
allowed (they carve gaps into the density) as long as D itself stays
non-negative; that last property has no finite closed form for general sums,
so it is checked on a grid and reported, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError

#: Tolerance on sum of weights / residue normalization.
WEIGHT_TOL = 1e-12
RESIDUE_TOL = 1e-10
#: Values of D more negative than this on the check grid count as violations.
POSITIVITY_FLOOR = -1e-12


def _square_is_finite(x) -> bool:
    """Whether x * x is finite, as the density's denominators need."""
    x = float(x)
    return math.isfinite(x * x)


@dataclass(frozen=True)
class LorentzianTerm:
    """One Lorentzian component: weight * 2*width / ((w - center)**2 + width**2)."""

    weight: float
    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0.0:
            raise InvalidModelError(
                f"Lorentzian width must be positive, got {self.width}"
            )
        if not np.isfinite(self.weight):
            raise InvalidModelError(f"Lorentzian weight must be finite, got {self.weight}")
        for name in ("center", "width"):
            v = getattr(self, name)
            if not _square_is_finite(v):
                raise InvalidModelError(f"Lorentzian {name} must have a finite square, got {v}")


@dataclass(frozen=True)
class LorentzianSum:
    """Spectral density given as a finite sum of (possibly signed) Lorentzians.

    Weights must sum to one so that the density integrates to 2*pi.  Pointwise
    non-negativity is deliberately not enforced at construction: it can only be
    probed numerically, and front ends need to be able to build the object in
    order to report exactly where it fails.  Use :func:`check_positivity_grid`.
    """

    terms: tuple[LorentzianTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidModelError("LorentzianSum needs at least one term")
        total = sum(t.weight for t in self.terms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidModelError(
                f"Lorentzian weights must sum to 1, got {total!r}"
            )

    def evaluate(self, omega):
        """Evaluate D at real (or complex) frequency; scalar in, scalar out."""
        w = np.asarray(omega)
        out = np.zeros(w.shape, dtype=complex)
        for t in self.terms:
            out = out + t.weight * 2.0 * t.width / ((w - t.center) ** 2 + t.width**2)
        if np.isrealobj(np.asarray(omega)):
            out = out.real
        if np.ndim(omega) == 0:
            return out[()]
        return out


@dataclass(frozen=True)
class Pole:
    """Simple pole of the spectral density in the lower half plane."""

    z: complex
    residue: complex

    def __post_init__(self):
        if not (_square_is_finite(self.z.real) and _square_is_finite(self.z.imag)):
            raise InvalidModelError(
                f"pole center and width must have finite squares, got {self.z}")
        if not self.z.imag < 0.0:
            raise InvalidModelError(
                f"pole must lie strictly in the lower half plane, got {self.z}"
            )

    @property
    def center(self) -> float:
        return self.z.real

    @property
    def width(self) -> float:
        """Decay rate lambda_l = -Im z_l > 0."""
        return -self.z.imag


@dataclass(frozen=True)
class PoleSet:
    """The poles and residues that define an environment.

    Invariants: all poles strictly below the real axis, pairwise distinct, and
    sum_l (-i r_l) = 1.  The last one is the residue form of the 2*pi
    normalization of the density and makes the correlation function start at
    f(0) = W_j W_k exactly.
    """

    poles: tuple[Pole, ...]

    def __post_init__(self):
        if not self.poles:
            raise InvalidModelError("PoleSet needs at least one pole")
        total = sum(-1j * p.residue for p in self.poles)
        if abs(total - 1.0) > RESIDUE_TOL:
            raise InvalidModelError(
                f"residues must satisfy sum(-i r_l) = 1, got {total!r}"
            )
        zs = [p.z for p in self.poles]
        scale = max(1.0, max(abs(z) for z in zs))
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                if abs(zs[a] - zs[b]) <= 1e-12 * scale:
                    raise InvalidModelError(
                        f"coincident poles at {zs[a]} and {zs[b]}; "
                        "merge their residues before building the set"
                    )

    def __len__(self) -> int:
        return len(self.poles)

    @property
    def centers(self) -> np.ndarray:
        return np.array([p.center for p in self.poles])

    @property
    def widths(self) -> np.ndarray:
        return np.array([p.width for p in self.poles])

    @property
    def locations(self) -> np.ndarray:
        return np.array([p.z for p in self.poles])

    @property
    def residues(self) -> np.ndarray:
        return np.array([p.residue for p in self.poles])


@dataclass(frozen=True)
class CorrelationSpec:
    """Pole data plus one overall coupling strength per system transition."""

    pole_set: PoleSet
    strengths: tuple[float, ...]

    def __post_init__(self):
        if not self.strengths:
            raise InvalidModelError("CorrelationSpec needs at least one strength")
        for s in self.strengths:
            if not (np.isfinite(s) and s >= 0.0):
                raise InvalidModelError(f"strengths must be finite and >= 0, got {s}")


def lorentzian_to_poles(density: LorentzianSum) -> PoleSet:
    """Exact pole expansion of a Lorentzian sum: z_i = xi_i - i*lambda_i, r_i = i*W_i."""
    poles = tuple(
        Pole(z=complex(t.center, -t.width), residue=1j * t.weight)
        for t in density.terms
    )
    return PoleSet(poles=poles)


def correlation(spec: CorrelationSpec, j: int, k: int, tau):
    """Two-time environment correlation f_jk(tau) for tau >= 0.

    f_jk(tau) = -i W_j W_k sum_l r_l exp(-i z_l tau).  Accepts scalar or array
    tau.  Negative lags are outside the one-sided convention used throughout
    and raise ValueError rather than silently reflecting.
    """
    n = len(spec.strengths)
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError(f"transition indices ({j}, {k}) out of range for {n} strengths")
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("correlation is defined for tau >= 0 only")
    zs = spec.pole_set.locations
    rs = spec.pole_set.residues
    acc = np.zeros(t.shape, dtype=complex)
    for z, r in zip(zs, rs):
        acc = acc + r * np.exp(-1j * z * t)
    out = -1j * spec.strengths[j] * spec.strengths[k] * acc
    if np.ndim(tau) == 0:
        return complex(out[()])
    return out


def eval_density(pole_set: PoleSet, omega):
    """Reconstruct D on the real axis from poles and residues.

    D(w) = 2 sum_l (Re[r_l] (w - xi_l) + lambda_l Im[r_l])
                 / ((w - xi_l)**2 + lambda_l**2),
    which is the real-axis value of the rational function whose lower-half
    poles are the stored ones (assuming real D, i.e. conjugate upper poles).
    Each term is scaled by the power of two 2**-e that brings the larger of
    |w - xi_l| and lambda_l into [1/2, 1), and scaled back, each by
    ``ldexp``: exactly, so in range it is the unscaled term bit for bit, and
    beyond it neither a wide line's denominator overflows nor a narrow line's
    lambda_l**2 underflows.  A value beyond the float range is +-inf, and
    two such values of opposite sign sum to nan, without a warning:
    ``check_positivity_grid`` fails a nan.
    """
    w = np.asarray(omega, dtype=float)
    out = np.zeros(w.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in pole_set.poles:
            dw = w - p.center
            e = -np.frexp(np.maximum(np.abs(dw), p.width))[1]
            x, y = np.ldexp(dw, e), np.ldexp(p.width, e)
            out = out + np.ldexp(2.0 * (p.residue.real * x + y * p.residue.imag)
                                 / (x**2 + y**2), e)
    if np.ndim(omega) == 0:
        return float(out[()])
    return out


def default_grid(pole_set: PoleSet, points: int = 1000) -> np.ndarray:
    """Evaluation grid spanning +-20*max(lambda) around the mean pole center."""
    half = 20.0 * float(pole_set.widths.max())
    mid = float(pole_set.centers.mean())
    return np.linspace(mid - half, mid + half, points)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a pointwise non-negativity scan of the density."""

    grid_size: int
    min_value: float
    min_location: float
    violations: tuple[tuple[float, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_positivity_grid(pole_set: PoleSet, grid=None) -> PositivityReport:
    """Scan D(w) on a grid and report every point where it dips below zero.

    A report rather than an exception: front ends present the offending
    frequencies and values to the user, and some workflows legitimately build
    sign-indefinite intermediate densities to inspect them.
    """
    if grid is None:
        grid = default_grid(pole_set)
    grid = np.asarray(grid, dtype=float)
    vals = eval_density(pole_set, grid)
    bad = ~(vals >= POSITIVITY_FLOOR)  # a nan decides no sign, so it fails
    i_min = int(np.argmin(vals))  # the first nan, if any
    violations = tuple(
        (float(w), float(v)) for w, v in zip(grid[bad], vals[bad])
    )
    return PositivityReport(
        grid_size=grid.size,
        min_value=float(vals[i_min]),
        min_location=float(grid[i_min]),
        violations=violations,
    )
