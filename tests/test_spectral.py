"""Spectral densities, pole decompositions, and the correlation function."""

import numpy as np
import pytest

from pseudomodes import (
    CorrelationSpec,
    InvalidModelError,
    LorentzianSum,
    LorentzianTerm,
    Pole,
    PoleSet,
    check_positivity_grid,
    correlation,
    default_grid,
    eval_density,
    lorentzian_to_poles,
)

BAND_GAP = LorentzianSum((
    LorentzianTerm(weight=2.0, center=0.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=0.0, width=1.0),
))
SINGLE = LorentzianSum((LorentzianTerm(weight=1.0, center=1.0, width=4.0),))


def numeric_residue(density: LorentzianSum, where: complex, radius: float) -> complex:
    """Contour-integral residue oracle: (1/2pi i) closed integral on a circle.

    Trapezoid quadrature of a periodic analytic integrand converges
    geometrically, so 4096 nodes give machine precision for well separated
    poles.  Completely independent of the partial-fraction bookkeeping under
    test.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    z = where + radius * np.exp(1j * theta)
    values = density.evaluate(z) * radius * np.exp(1j * theta) * 1j
    return complex(values.mean() / (2j * np.pi) * 2.0 * np.pi / 1.0) / 1.0


def numeric_correlation(density: LorentzianSum, strength: float, tau: float) -> complex:
    """Windowed Fourier-transform oracle for the correlation function.

    Midpoint sum over a wide window plus first-order tail corrections from
    integration by parts; good to ~1e-8 for tau of order one, which is ample
    to catch sign and 2*pi bookkeeping errors in the pole formula.
    """
    lam = min(t.width for t in density.terms)
    centers = [t.center for t in density.terms]
    half = 2000.0
    lo, hi = min(centers) - half, max(centers) + half
    n = int((hi - lo) / (lam / 8.0))
    omega = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    dw = (hi - lo) / n
    main = np.sum(density.evaluate(omega) * np.exp(-1j * omega * tau)) * dw
    # by-parts correction for the two truncated tails
    tail = (
        density.evaluate(hi) * np.exp(-1j * hi * tau)
        - density.evaluate(lo) * np.exp(-1j * lo * tau)
    ) / (-1j * tau)
    return strength**2 * (main - tail) / (2.0 * np.pi)


def test_lorentzian_sum_requires_unit_weight():
    with pytest.raises(InvalidModelError):
        LorentzianSum((LorentzianTerm(weight=0.5, center=0.0, width=1.0),))


def test_lorentzian_term_requires_positive_width():
    with pytest.raises(InvalidModelError):
        LorentzianTerm(weight=1.0, center=0.0, width=0.0)


@pytest.mark.parametrize("center,width", [(1e300, 1.0), (1.0, 1e300), (-2e154, 1.0),
                                          (np.nan, 1.0)])
def test_centers_and_widths_need_finite_squares(center, width):
    # eval_density squares both; an overflow there was a traceback
    with pytest.raises(InvalidModelError, match="finite square"):
        LorentzianTerm(weight=1.0, center=center, width=width)
    with pytest.raises(InvalidModelError, match="finite squares"):
        Pole(z=complex(center, -width), residue=1j)


def test_a_nan_density_never_passes_the_positivity_check():
    # Residues of +-1e300 on two lines 2e-12 apart: at omega = 4e-12 their
    # terms are -inf and +inf, beyond the float range, and sum to nan; the
    # points beside it read positive.
    poles = PoleSet(poles=(Pole(z=complex(0.0, -1e-20), residue=-1e300 + 0.5j),
                           Pole(z=complex(2e-12, -1e-20), residue=1e300 + 0.5j)))
    grid = [-1.0, 4e-12, 1.0]
    values = eval_density(poles, grid)
    assert np.isnan(values[1]) and (values[[0, 2]] > 0.0).all()
    report = check_positivity_grid(poles, grid)
    assert not report.passed
    assert np.isnan(report.min_value) and report.min_location == 4e-12
    assert len(report.violations) == 1


def test_density_integral_is_two_pi():
    # the unit-weight convention normalizes the full integral to 2*pi
    for density in (SINGLE, BAND_GAP):
        omega = np.linspace(-4000.0, 4000.0, 2_000_001)
        total = np.trapezoid(density.evaluate(omega), omega)
        assert abs(total - 2.0 * np.pi) < 1e-2


def test_pole_locations_and_residues():
    poles = lorentzian_to_poles(BAND_GAP)
    assert len(poles) == 2
    np.testing.assert_allclose(poles.locations, [-2.0j, -1.0j], atol=1e-15)
    np.testing.assert_allclose(poles.residues, [2.0j, -1.0j], atol=1e-15)


def test_residues_match_contour_integrals():
    for density in (SINGLE, BAND_GAP):
        poles = lorentzian_to_poles(density)
        for loc, res in zip(poles.locations, poles.residues):
            oracle = numeric_residue(density, loc, radius=0.25)
            assert abs(oracle - res) < 1e-10


def test_residue_sum_convention():
    poles = lorentzian_to_poles(BAND_GAP)
    assert abs(np.sum(-1j * poles.residues) - 1.0) < 1e-12


def test_pole_set_rejects_bad_residue_sum():
    with pytest.raises(InvalidModelError):
        PoleSet((Pole(z=1.0 - 1.0j, residue=0.5j),))


def test_pole_set_rejects_upper_half_plane():
    with pytest.raises(InvalidModelError):
        PoleSet((Pole(z=1.0 + 1.0j, residue=1.0j),))


def test_pole_set_rejects_duplicates():
    with pytest.raises(InvalidModelError):
        PoleSet((
            Pole(z=1.0 - 1.0j, residue=0.5j),
            Pole(z=1.0 - 1.0j, residue=0.5j),
        ))


def test_correlation_at_zero_lag_is_strength_product():
    spec = CorrelationSpec(lorentzian_to_poles(BAND_GAP), (1.5,))
    assert abs(correlation(spec, 0, 0, 0.0) - 1.5 * 1.5) < 1e-12


def test_correlation_single_lorentzian_closed_form():
    spec = CorrelationSpec(lorentzian_to_poles(SINGLE), (1.0,))
    tau = np.linspace(0.0, 3.0, 31)
    expected = np.exp(-1j * 1.0 * tau) * np.exp(-4.0 * tau)
    np.testing.assert_allclose(correlation(spec, 0, 0, tau), expected, atol=1e-14)


def test_correlation_matches_fourier_transform_oracle():
    rng = np.random.default_rng(11)
    for density in (SINGLE, BAND_GAP):
        spec = CorrelationSpec(lorentzian_to_poles(density), (1.3,))
        for tau in rng.uniform(0.3, 2.0, 4):
            oracle = numeric_correlation(density, 1.3, float(tau))
            assert abs(correlation(spec, 0, 0, float(tau)) - oracle) < 1e-7


def test_correlation_rejects_negative_lag():
    spec = CorrelationSpec(lorentzian_to_poles(SINGLE), (1.0,))
    with pytest.raises(ValueError):
        correlation(spec, 0, 0, -0.1)


def test_correlation_strength_scaling_across_channels():
    spec = CorrelationSpec(lorentzian_to_poles(SINGLE), (2.0, 0.5))
    f01 = correlation(spec, 0, 1, 0.7)
    f00 = correlation(spec, 0, 0, 0.7)
    assert abs(f01 - f00 * (0.5 * 2.0) / (2.0 * 2.0)) < 1e-14


def test_eval_density_reconstructs_lorentzians():
    omega = np.linspace(-30.0, 30.0, 501)
    for density in (SINGLE, BAND_GAP):
        poles = lorentzian_to_poles(density)
        np.testing.assert_allclose(
            eval_density(poles, omega), density.evaluate(omega), atol=1e-12
        )


@pytest.mark.parametrize("width", [1e-160, 1e-300])
def test_a_narrow_line_keeps_its_peak(width):
    # width**2 is subnormal at 1e-160 and 0.0 at 1e-300; the suite turns the
    # divide-by-zero warning an inf would raise into an error.  The peak is
    # within one ulp of 2 / width, as at any width in range.
    poles = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=1.0, center=1.0, width=width),
    )))
    peak = eval_density(poles, np.array([1.0]))[0]
    assert np.isfinite(peak) and abs(peak - 2.0 / width) <= np.spacing(2.0 / width)


def test_band_gap_density_vanishes_at_center():
    assert abs(BAND_GAP.evaluate(0.0)) < 1e-15


def test_positivity_grid_passes_band_gap():
    poles = lorentzian_to_poles(BAND_GAP)
    report = check_positivity_grid(poles, default_grid(poles))
    assert report.passed
    assert report.min_value >= 0.0
    assert len(report.violations) == 0


def test_positivity_grid_flags_indefinite_density():
    broken = LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.0, width=3.0),
        LorentzianTerm(weight=-1.0, center=0.0, width=1.0),
    ))
    poles = lorentzian_to_poles(broken)
    report = check_positivity_grid(poles, default_grid(poles))
    assert not report.passed
    assert report.min_value < 0.0
    assert len(report.violations) > 0
    # the dip sits at the shared center
    assert abs(report.min_location) < 0.5


def test_default_grid_spans_twenty_linewidths():
    poles = lorentzian_to_poles(SINGLE)
    grid = default_grid(poles)
    assert grid[0] <= 1.0 - 20.0 * 4.0 + 1e-9
    assert grid[-1] >= 1.0 + 20.0 * 4.0 - 1e-9
