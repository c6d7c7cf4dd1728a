"""Discrete damped modes equivalent to a structured environment.

Every mode family is one ``ModeSet``: a complex-symmetric mode matrix
Z = H - i*Gamma (frequencies and hopping in H, local damping rates on the
diagonal of Gamma) and couplings g indexed [transition, mode].  Its
correlation function is

    f_jk(tau) = g_j^T exp(-i Z tau) g_k        (tau >= 0),

note the plain transpose, not a conjugate one.  Each pole z_l = xi_l -
i*lambda_l of the spectral density becomes one mode, Z = diag(z_l), coupled
to system transition j with amplitude

    g_jl = W_j * sqrt(-i r_l)            (principal square root),

where W_j is the transition strength and r_l the residue.  The residue
normalization sum_l(-i r_l) = 1 then reproduces the environment correlation
function exactly.  When every g_jl is real this feeds straight into a
completely positive master equation.  Signed densities (gap structures)
force some -i r_l negative, hence imaginary couplings, and the direct
equation loses Lindblad form.  For exactly two modes a complex orthogonal
rotation of the pair restores it in closed form: Z picks up a real hopping
off the diagonal and the couplings turn real.  That rotation, its
feasibility conditions, and an independent numeric check of the closed
forms live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._util import close, frozen
from .errors import (
    InvalidModelError,
    PositivityViolationError,
    SingularRotationError,
    UnsupportedRegularizationError,
)
from .spectral import PoleSet

COUPLING_NORM_TOL = 1e-10
#: |Im g| / scale below this counts as a real coupling.
REAL_COUPLING_TOL = 1e-12
#: Damping rates within GAMMA_CLAMP of zero are snapped to exactly zero (the
#: closed forms leave noise of order machine epsilon on an analytic zero);
#: rates below -GAMMA_CLAMP are infeasible.
GAMMA_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Damped modes as one mode matrix Z plus their couplings g.

    ``frequency_matrix`` Z = H - i*Gamma is N x N and complex symmetric: H
    holds the frequencies and any hopping, Gamma is diagonal and
    non-negative.  ``coupling_matrix`` g is indexed [transition, mode].  The
    constructor enforces the shapes, the form of Z and the square-sum rule
    sum_l g_jl**2 = W_j**2 per strength W_j, and stores read-only arrays:
    compare sets with ``np.array_equal`` on their matrices.
    """

    frequency_matrix: np.ndarray
    coupling_matrix: np.ndarray
    strengths: tuple[float, ...]

    def __post_init__(self):
        z = np.asarray(self.frequency_matrix, dtype=complex)
        g = np.asarray(self.coupling_matrix)
        g = g.astype(complex if np.iscomplexobj(g) else float)
        strengths = tuple(float(w) for w in self.strengths)
        n = len(z) if z.ndim else 0
        if z.shape != (n, n) or n == 0:
            raise InvalidModelError(f"mode matrix must be square and non-empty, got {z.shape}")
        if g.shape != (len(strengths), n):
            raise InvalidModelError(
                f"coupling matrix has shape {g.shape}; {len(strengths)} transitions "
                f"and {n} modes need {(len(strengths), n)}"
            )
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(g))):
            raise InvalidModelError("mode and coupling matrices must be finite")
        if not np.array_equal(z, z.T):
            raise InvalidModelError("mode matrix must be symmetric, Z = Z^T")
        gamma = -z.imag
        if np.any(gamma[~np.eye(n, dtype=bool)] != 0.0):
            raise InvalidModelError("damping matrix -Im Z must be diagonal")
        if np.any(np.diag(gamma) < 0.0):
            raise InvalidModelError(f"damping rates must be >= 0, got {np.diag(gamma)}")
        for j, w in enumerate(strengths):
            if not (np.isfinite(w) and w >= 0.0):
                raise InvalidModelError(f"strength {j} must be finite and >= 0")
            sq = (g[j] ** 2).sum().item()
            if not close(sq, w**2, COUPLING_NORM_TOL):
                raise InvalidModelError(
                    f"transition {j}: sum of squared couplings {sq!r} does not "
                    f"match strength squared {w**2!r}"
                )
        object.__setattr__(self, "frequency_matrix", frozen(z))
        object.__setattr__(self, "coupling_matrix", frozen(g))
        object.__setattr__(self, "strengths", strengths)

    def __len__(self) -> int:
        return len(self.frequency_matrix)

    @property
    def n_transitions(self) -> int:
        return len(self.strengths)

    @property
    def frequencies(self) -> np.ndarray:
        """Mode frequencies, the diagonal of H = Re Z."""
        return np.diag(self.frequency_matrix).real

    @property
    def rates(self) -> np.ndarray:
        """Damping rates, the diagonal of Gamma = -Im Z."""
        return -np.diag(self.frequency_matrix).imag

    @property
    def classification(self) -> str:
        """'all_real' when every coupling is real to working precision, else 'complex'."""
        g = self.coupling_matrix
        scale = max(float(np.abs(g).max(initial=0.0)), 1e-300)
        if float(np.abs(g.imag).max(initial=0.0)) <= REAL_COUPLING_TOL * scale:
            return "all_real"
        return "complex"

    @property
    def is_all_real(self) -> bool:
        return self.classification == "all_real"


def _coupling_root(value: complex) -> complex:
    """Principal sqrt with a deterministic gauge: Re >= 0, ties broken Im >= 0."""
    s = complex(cmath.sqrt(value))
    tiny = 1e-15 * max(1.0, abs(s))
    if s.real < -tiny or (abs(s.real) <= tiny and s.imag < 0.0):
        s = -s
    return s


def build_discrete_modes(pole_set: PoleSet, strengths) -> ModeSet:
    """The damped-mode family of the poles: Z = diag(z_l), g_jl = W_j sqrt(-i r_l)."""
    strengths = tuple(float(s) for s in strengths)
    units = [_coupling_root(-1j * p.residue) for p in pole_set.poles]
    couplings = np.array([[w * u for u in units] for w in strengths], dtype=complex)
    return ModeSet(
        frequency_matrix=np.diag(pole_set.locations),
        coupling_matrix=couplings.reshape(len(strengths), len(units)),
        strengths=strengths,
    )


def mode_correlation(modes: ModeSet, j: int, k: int, tau):
    """Correlation function reconstructed from the modes: g_j^T exp(-i Z tau) g_k.

    Must agree with :func:`pseudomodes.spectral.correlation` identically; the
    equality is the statement that the mode family is exact, not approximate.
    For the diagonal Z of a pole family the eigenvectors are the identity, so
    this is the plain sum over modes of g_jl g_kl exp(-i z_l tau).
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("correlation is defined for tau >= 0 only")
    vals, vecs = np.linalg.eig(modes.frequency_matrix)
    left = modes.coupling_matrix[j] @ vecs
    right = np.linalg.inv(vecs) @ modes.coupling_matrix[k]
    acc = np.zeros(t.shape, dtype=complex)
    for lv, rv, w in zip(left, right, vals):
        acc = acc + lv * rv * np.exp(-1j * w * t)
    if np.ndim(tau) == 0:
        return complex(acc[()])
    return acc


def _uniform_ratio(modes: ModeSet) -> complex:
    """Coupling ratio mu = g_j2 / g_j1, demanded identical across transitions."""
    g = modes.coupling_matrix
    ratios = []
    for j, w in enumerate(modes.strengths):
        if w == 0.0:
            continue
        if abs(g[j, 0]) <= 1e-14 * w:
            raise InvalidModelError(
                "first-mode coupling vanishes for a driven transition; "
                "swap the mode order so the ratio g2/g1 is finite"
            )
        ratios.append(g[j, 1] / g[j, 0])
    if not ratios:
        raise InvalidModelError("all transition strengths are zero")
    mu = ratios[0]
    for r in ratios[1:]:
        if not close(r, mu, 1e-10):
            raise InvalidModelError(
                f"coupling ratios differ across transitions ({r!r} vs {mu!r}); "
                "a single mode rotation cannot make them all real"
            )
    return complex(mu)


def _closed_form_parameters(z1: complex, z2: complex, mu: complex):
    """Rotated frequencies, dampings, coupling fractions and raw hopping.

    Everything is a function of the pole separation dz = z2 - z1 = |dz| e^{i
    theta_z} and the coupling ratio mu alone.  Returns (xt1, xt2, G1, G2, S,
    V_raw) where the rotated couplings are gt_m**2 = W**2 (1 -+ S)/2 and
    V_raw carries the hopping magnitude with an arbitrary overall sign.
    """
    dz = z2 - z1
    theta_z = cmath.phase(dz)
    m2 = abs(mu) ** 2
    denom = abs(1.0 + mu * mu)
    if denom <= 1e-10 * (1.0 + m2):
        raise SingularRotationError(
            f"coupling ratio {mu!r} sits at the mu**2 = -1 singularity; "
            "the two-mode rotation is not defined there"
        )
    sin_t, cos_t = math.sin(theta_z), math.cos(theta_z)
    root = math.sqrt((1.0 + m2) ** 2 * sin_t**2 + (2.0 * mu.imag * cos_t) ** 2)
    if root <= 1e-10 * (1.0 + m2) ** 2:
        raise SingularRotationError(
            "degenerate geometry: equal dampings with a real coupling ratio "
            "leave the rotation angle undetermined"
        )
    big_t = (-dz / denom) * ((1.0 + m2) ** 2 * sin_t + 1j * (2.0 * mu.imag) ** 2 * cos_t) / root
    xi_sum = z1.real + z2.real
    lam_sum = -(z1.imag + z2.imag)
    xt1 = 0.5 * (xi_sum - big_t.real)
    xt2 = 0.5 * (xi_sum + big_t.real)
    g1 = 0.5 * (lam_sum + big_t.imag)
    g2 = 0.5 * (lam_sum - big_t.imag)
    s_frac = ((1.0 - m2 * m2) * sin_t - 4.0 * mu.real * mu.imag * cos_t) / (denom * root)
    v_raw = -(abs(dz) / denom) * mu.imag * (1.0 + m2) / root
    return xt1, xt2, g1, g2, s_frac, v_raw


def _clamp_rate(value: float) -> float:
    if abs(value) <= GAMMA_CLAMP:
        return 0.0
    return value


def two_mode_regularize(modes: ModeSet) -> ModeSet:
    """Rotate a two-mode family with complex couplings into real-coupling form.

    The rotated pair has real frequencies xt_m, non-negative dampings G_m, a
    real hopping amplitude V between the modes, and real non-negative
    couplings gt_jm: Z = [[xt_1 - i G_1, V], [V, xt_2 - i G_2]].  Feasibility
    is not guaranteed: when either G_m comes out negative no completely
    positive description on two modes exists and PositivityViolationError is
    raised.  A family whose couplings are already real is returned as it is:
    the square-root gauge of ``build_discrete_modes`` makes them non-negative.

    Coupling signs are a gauge choice (flipping mode m's sign flips gt_jm and
    V together), fixed here as gt_jm >= 0 with V's sign recovered from the
    exactly conserved first moment sum_l g_jl**2 z_l = gt^T Z gt.
    """
    if len(modes) != 2:
        raise UnsupportedRegularizationError(
            f"closed-form regularization handles exactly 2 modes, got {len(modes)}; "
            "larger complex-coupled families have no rotated Lindblad form here"
        )
    if modes.is_all_real:
        return modes

    mu = _uniform_ratio(modes)
    z1, z2 = (complex(z) for z in np.diag(modes.frequency_matrix))
    xt1, xt2, gam1, gam2, s_frac, v_raw = _closed_form_parameters(z1, z2, mu)

    gam1 = _clamp_rate(gam1)
    gam2 = _clamp_rate(gam2)
    if gam1 < 0.0 or gam2 < 0.0:
        raise PositivityViolationError(
            f"rotated damping rates ({gam1!r}, {gam2!r}) are not both non-negative; "
            "this environment admits no two-mode Lindblad form",
            rates=(gam1, gam2),
        )

    fr1 = max(0.5 * (1.0 - s_frac), 0.0)
    fr2 = max(0.5 * (1.0 + s_frac), 0.0)
    # A fraction at the floating-point noise floor is an exact zero of the
    # rotation (that mode decouples); snap it so the coupling row and the
    # hopping-sign logic see the degenerate case exactly.
    if fr1 < 1e-14:
        fr1 = 0.0
    if fr2 < 1e-14:
        fr2 = 0.0
    gt = np.array([[w * math.sqrt(fr1), w * math.sqrt(fr2)]
                   for w in modes.strengths])

    # Moment matching pins the hopping sign compatible with gt >= 0.  With a
    # vanishing coupling the sign is immaterial and the magnitude is kept.
    # Both sides scale with the strength squared, so they are matched per
    # unit strength: a tiny strength must not underflow the denominator.
    zt11 = complex(xt1, -gam1)
    zt22 = complex(xt2, -gam2)
    j_ref = max(range(len(modes.strengths)), key=lambda j: modes.strengths[j])
    w_ref = modes.strengths[j_ref]
    if fr1 > 0.0 and fr2 > 0.0 and w_ref > 0.0:
        g_row = modes.coupling_matrix[j_ref] / w_ref
        gt_row = gt[j_ref] / w_ref
        moment = g_row[0] ** 2 * z1 + g_row[1] ** 2 * z2
        v_c = (moment - gt_row[0] ** 2 * zt11 - gt_row[1] ** 2 * zt22) / (
            2.0 * gt_row[0] * gt_row[1]
        )
        scale = max(1.0, abs(moment))
        if abs(v_c.imag) > 1e-9 * scale:
            raise InvalidModelError(
                f"moment-matched hopping {v_c!r} has a non-real part; "
                "rotated parameters are internally inconsistent"
            )
        v12 = float(v_c.real)
        if not close(abs(v12), abs(v_raw), 1e-8):
            raise InvalidModelError(
                f"hopping magnitude mismatch: {abs(v12)!r} vs {abs(v_raw)!r}"
            )
    else:
        v12 = abs(v_raw)

    lam_sum = float(modes.rates.sum())
    if not close(gam1 + gam2, lam_sum, 1e-10):
        raise InvalidModelError(
            f"rotated rates sum to {gam1 + gam2!r}, expected {lam_sum!r}"
        )

    return ModeSet(
        frequency_matrix=np.array([[zt11, v12], [v12, zt22]]),
        coupling_matrix=gt,
        strengths=modes.strengths,
    )


@dataclass(frozen=True)
class RotationCheck:
    """Best agreement between closed-form and numerically rotated parameters."""

    max_deviation: float
    roots_found: int
    candidates_checked: int


def _realness_roots(delta_z: complex, beta: float, samples: int = 1441) -> list[float]:
    """Angles a in [0, pi) where Im[dz * sin(2(a + i*beta))] vanishes."""

    def f(a):
        return (delta_z * np.sin(2.0 * (a + 1j * beta))).imag

    grid = np.linspace(0.0, math.pi, samples)
    vals = f(grid)
    scale = max(abs(delta_z) * math.cosh(2.0 * beta), 1e-300)
    if np.abs(vals).max() <= 1e-13 * scale:
        # Constraint holds identically (real separation, real ratio); the
        # identity and the swap are the natural representatives.
        return [0.0, 0.5 * math.pi]
    roots = []
    fa, fb = vals[:-1], vals[1:]
    for i in np.flatnonzero((fa == 0.0) | (fa * fb < 0.0)).tolist():
        if fa[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = fa[i]
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            fm = float(f(mid))
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    deduped = []
    for r in roots:
        if not any(abs(r - q) < 1e-9 for q in deduped):
            deduped.append(r)
    return deduped


def verify_rotation_numeric(
    modes: ModeSet, reg: ModeSet
) -> RotationCheck:
    """Cross-check the closed forms against a direct numeric rotation.

    Independently solves the realness constraint for the rotation angle,
    applies U(theta0) to the mode pair, and compares every rotated parameter
    against ``reg`` over the full solution family (both root labelings and
    all per-mode sign gauges).  Returns the smallest maximum elementwise
    deviation found; the caller judges it against its tolerance.
    """
    if len(modes) != 2:
        raise UnsupportedRegularizationError(
            "numeric rotation check requires exactly 2 modes"
        )
    mu = _uniform_ratio(modes)
    if abs(1.0 + mu * mu) <= 1e-10 * (1.0 + abs(mu) ** 2):
        raise SingularRotationError(
            f"coupling ratio {mu!r} sits at the mu**2 = -1 singularity"
        )
    theta1 = complex(np.arctan(complex(mu)))
    beta = theta1.imag
    z1, z2 = (complex(z) for z in np.diag(modes.frequency_matrix))
    delta_z = z2 - z1
    g = modes.coupling_matrix  # [transition, mode]

    zt_ref = reg.frequency_matrix
    gt_ref = reg.coupling_matrix
    scale_z = max(1.0, float(np.abs(zt_ref).max()))

    roots = _realness_roots(delta_z, beta)
    best = math.inf
    checked = 0
    feasible = 0
    for a in roots:
        theta0 = complex(a, beta)
        u = np.array(
            [
                [np.cos(theta0), np.sin(theta0)],
                [-np.sin(theta0), np.cos(theta0)],
            ]
        )
        zt = u @ np.diag([z1, z2]) @ u.T
        gt = (u @ g.T).T  # [transition, mode]
        # Candidate must itself satisfy the constraints it was solved for.
        if float(np.abs(zt.imag[0, 1])) > 1e-8 * scale_z:
            continue
        if float(np.abs(gt.imag).max(initial=0.0)) > 1e-8 * max(1.0, float(np.abs(gt).max())):
            continue
        if min(-zt[0, 0].imag, -zt[1, 1].imag) < -1e-9:
            continue
        feasible += 1
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                s = np.array([s1, s2])
                zt_g = zt * np.outer(s, s)
                gt_g = gt.real * s
                dev = max(
                    float(np.abs(zt_g - zt_ref).max()),
                    float(np.abs(gt_g - gt_ref).max()),
                )
                checked += 1
                best = min(best, dev)
    if feasible == 0 or math.isinf(best):
        raise PositivityViolationError(
            "no rotation angle satisfies realness and positivity together",
            rates=(math.nan, math.nan),
        )
    return RotationCheck(
        max_deviation=best,
        roots_found=len(roots),
        candidates_checked=checked,
    )
