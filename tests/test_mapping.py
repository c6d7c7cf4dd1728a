"""Discrete damped modes, coupling roots, and the two-mode rotation."""

import numpy as np
import pytest

from pseudomodes import (
    InvalidModelError,
    LorentzianSum,
    LorentzianTerm,
    ModeSet,
    PositivityViolationError,
    UnsupportedRegularizationError,
    build_discrete_modes,
    correlation,
    CorrelationSpec,
    lorentzian_to_poles,
    mode_correlation,
    two_mode_regularize,
    verify_rotation_numeric,
)
from pseudomodes.mapping import _coupling_root

BAND_GAP = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=0.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=0.0, width=1.0),
)))
SINGLE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=4.0),
)))


def random_feasible_pair(rng):
    """Draw a complex-coupled two-mode family whose rotation stays physical."""
    while True:
        z1 = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 3.0))
        z2 = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 3.0))
        if abs(z1 - z2) < 0.2:
            continue
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(mu.imag) < 0.05 or abs(1.0 + mu * mu) < 0.1:
            continue
        g1 = 1.0 / np.sqrt(1.0 + mu * mu)
        g2 = mu * g1
        modes = ModeSet(
            frequency_matrix=np.diag([z1, z2]),
            coupling_matrix=[[g1, g2]],
            strengths=(1.0,),
        )
        try:
            reg = two_mode_regularize(modes)
        except PositivityViolationError:
            continue
        return modes, reg


def test_single_lorentzian_couples_with_real_strength():
    modes = build_discrete_modes(SINGLE, (1.0,))
    assert modes.classification == "all_real"
    assert modes.is_all_real
    np.testing.assert_allclose(modes.coupling_matrix, [[1.0]], atol=1e-15)
    assert modes.frequencies[0] == pytest.approx(1.0)
    assert modes.rates[0] == pytest.approx(4.0)


def test_band_gap_couplings_are_root_two_and_i():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    assert modes.classification == "complex"
    np.testing.assert_allclose(
        modes.coupling_matrix, [[np.sqrt(2.0), 1.0j]], atol=1e-15
    )


def test_coupling_root_principal_branch_gauge():
    # Re >= 0 always; on the negative real axis the tie breaks upward.
    assert _coupling_root(4.0) == pytest.approx(2.0)
    assert _coupling_root(-1.0) == pytest.approx(1.0j)
    root = _coupling_root(-2.0j)
    assert root.real >= 0.0
    assert abs(root * root + 2.0j) < 1e-14


def test_coupling_normalization_enforced():
    # complex squares must sum to the strength squared, not magnitudes
    with pytest.raises(InvalidModelError):
        ModeSet(
            frequency_matrix=np.diag([-1.0j, 1.0 - 2.0j]),
            coupling_matrix=[[1.0, 1.0j]],
            strengths=(1.0,),
        )


def test_mode_set_rejects_malformed_matrices():
    z_ok = np.array([[0.0, np.sqrt(2.0)], [np.sqrt(2.0), -3.0j]])
    good = ModeSet(frequency_matrix=z_ok, coupling_matrix=[[0.0, 1.0]], strengths=(1.0,))
    assert good.rates[0] == 0.0 and good.rates[1] == 3.0  # an exact zero rate is allowed
    assert not good.frequency_matrix.flags.writeable
    bad = {
        "non-symmetric Z": (np.array([[0.0, 1.0], [2.0, -3.0j]]), [[0.0, 1.0]]),
        "off-diagonal damping": (np.array([[-1.0j, -0.5j], [-0.5j, -3.0j]]), [[0.0, 1.0]]),
        "negative damping": (np.diag([1.0j, -3.0j]), [[0.0, 1.0]]),
        "coupling rows": (z_ok, [[0.0, 1.0], [0.0, 1.0]]),
        "coupling columns": (z_ok, [[1.0]]),
        "non-square Z": (np.array([[-1.0j, 0.0]]), [[1.0, 0.0]]),
        "non-finite Z": (np.diag([np.nan - 1.0j, -3.0j]), [[0.0, 1.0]]),
    }
    for name, (z, g) in bad.items():
        with pytest.raises(InvalidModelError):
            ModeSet(frequency_matrix=z, coupling_matrix=g, strengths=(1.0,))
            pytest.fail(f"accepted a mode set with {name}")


def test_mode_correlation_equals_pole_sum():
    rng = np.random.default_rng(3)
    taus = rng.uniform(0.0, 5.0, 64)
    for poles in (SINGLE, BAND_GAP):
        modes = build_discrete_modes(poles, (0.8,))
        spec = CorrelationSpec(poles, (0.8,))
        np.testing.assert_allclose(
            mode_correlation(modes, 0, 0, taus),
            correlation(spec, 0, 0, taus),
            atol=1e-13,
        )


def test_regularized_correlation_matches_complex_form():
    # The rotated pair's hopping makes Z non-diagonal; its correlation is
    # still that of the complex-coupled family it was rotated from.
    rng = np.random.default_rng(23)
    taus = rng.uniform(0.0, 4.0, 32)
    for _ in range(5):
        modes, reg = random_feasible_pair(rng)
        g, z = modes.coupling_matrix[0], np.diag(modes.frequency_matrix)
        pole_sum = sum(g[l] ** 2 * np.exp(-1j * z[l] * taus) for l in range(2))
        np.testing.assert_allclose(mode_correlation(modes, 0, 0, taus), pole_sum, atol=1e-10)
        np.testing.assert_allclose(
            mode_correlation(reg, 0, 0, taus),
            mode_correlation(modes, 0, 0, taus),
            atol=1e-10,
        )


def test_band_gap_regularized_correlation():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    taus = np.linspace(0.0, 6.0, 61)
    np.testing.assert_allclose(
        mode_correlation(reg, 0, 0, taus),
        mode_correlation(modes, 0, 0, taus),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        mode_correlation(reg, 0, 0, taus),
        correlation(CorrelationSpec(BAND_GAP, (1.0,)), 0, 0, taus),
        atol=1e-12,
    )


def test_multichannel_coupling_rows_scale_with_strength():
    modes = build_discrete_modes(BAND_GAP, (1.0, 2.0))
    g = modes.coupling_matrix
    np.testing.assert_allclose(g[1], 2.0 * g[0], atol=1e-14)
    taus = np.linspace(0.0, 2.0, 11)
    np.testing.assert_allclose(
        mode_correlation(modes, 0, 1, taus),
        2.0 * mode_correlation(modes, 0, 0, taus),
        atol=1e-13,
    )


def test_band_gap_rotation_frozen_values():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    assert reg.frequencies[0] == pytest.approx(0.0, abs=1e-12)
    assert reg.frequencies[1] == pytest.approx(0.0, abs=1e-12)
    assert reg.rates[0] == pytest.approx(0.0, abs=1e-12)
    assert reg.rates[1] == pytest.approx(3.0, abs=1e-12)
    assert reg.coupling_matrix[0, 0] == 0.0
    assert reg.coupling_matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert reg.frequency_matrix[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_rotation_does_not_depend_on_the_strength_scale():
    # both mode couplings non-zero, so the hopping sign comes from moment
    # matching; a strength of 5e-256 once underflowed its denominator
    poles = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=-0.6355982826661527, center=0.0, width=2.00001),
        LorentzianTerm(weight=1.6355982826661526, center=1.2465123498171318, width=2.00001),
    )))
    unit = two_mode_regularize(build_discrete_modes(poles, (1.0,)))
    assert all(c[0] > 0.0 for c in unit.coupling_matrix.T)
    for w in (5e-256, 1e-3, 7.0):
        reg = two_mode_regularize(build_discrete_modes(poles, (w,)))
        assert reg.frequency_matrix[0, 1] == pytest.approx(
            unit.frequency_matrix[0, 1], rel=1e-12)
        for l in range(2):
            assert reg.frequencies[l] == pytest.approx(unit.frequencies[l], rel=1e-12)
            assert reg.rates[l] == pytest.approx(unit.rates[l], rel=1e-12)
            assert reg.coupling_matrix[0, l] == pytest.approx(
                w * unit.coupling_matrix[0, l], rel=1e-12)


def test_gap_family_rates_follow_width_weight_pattern():
    # For a gapped two-Lorentzian difference the rotated rates come out as
    # (w1*lam2 - w2*lam1, w1*lam1 - w2*lam2) with the weights (w1, -w2).
    for w1, w2, lam1, lam2 in ((2.0, 1.0, 2.0, 1.0), (2.0, 1.0, 4.0, 2.0)):
        poles = lorentzian_to_poles(LorentzianSum((
            LorentzianTerm(weight=w1, center=0.5, width=lam1),
            LorentzianTerm(weight=-w2, center=0.5, width=lam2),
        )))
        reg = two_mode_regularize(build_discrete_modes(poles, (1.0,)))
        rates = sorted(reg.rates)
        expected = sorted((w1 * lam2 - w2 * lam1, w1 * lam1 - w2 * lam2))
        np.testing.assert_allclose(rates, expected, atol=1e-10)


def test_rotation_preserves_rate_sum_and_first_moment():
    rng = np.random.default_rng(17)
    for _ in range(10):
        modes, reg = random_feasible_pair(rng)
        lam_sum = sum(modes.rates)
        assert sum(reg.rates) == pytest.approx(lam_sum, abs=1e-9)
        # first moment sum_l g_l^2 z_l is carried to gt^T Z gt
        g, z = modes.coupling_matrix[0], np.diag(modes.frequency_matrix)
        moment = g[0] ** 2 * z[0] + g[1] ** 2 * z[1]
        gt = reg.coupling_matrix[0]
        rotated = complex(gt @ reg.frequency_matrix @ gt)
        assert abs(moment - rotated) < 1e-9


def test_real_couplings_regularize_to_themselves():
    modes = build_discrete_modes(lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=0.5, center=-1.0, width=1.0),
        LorentzianTerm(weight=0.5, center=2.0, width=3.0),
    ))), (1.0,))
    assert modes.is_all_real
    # the square-root gauge already makes real couplings non-negative
    assert np.all(modes.coupling_matrix.real > 0.0)
    assert two_mode_regularize(modes) is modes


def test_infeasible_rotation_raises_with_rates():
    # sign-indefinite density: one rotated rate comes out negative
    poles = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.0, width=3.0),
        LorentzianTerm(weight=-1.0, center=0.0, width=1.0),
    )))
    modes = build_discrete_modes(poles, (1.0,))
    with pytest.raises(PositivityViolationError) as err:
        two_mode_regularize(modes)
    assert min(err.value.rates) < 0.0


def test_three_modes_are_unsupported():
    poles = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.0, width=1.0),
        LorentzianTerm(weight=2.0, center=2.0, width=2.0),
        LorentzianTerm(weight=-3.0, center=1.0, width=3.0),
    )))
    modes = build_discrete_modes(poles, (1.0,))
    assert modes.classification == "complex"
    with pytest.raises(UnsupportedRegularizationError):
        two_mode_regularize(modes)


def test_verify_rotation_band_gap():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    check = verify_rotation_numeric(modes, reg)
    assert check.max_deviation < 1e-8
    assert check.roots_found >= 1
    assert check.candidates_checked >= check.roots_found


def test_verify_rotation_random_feasible():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(10):
        modes, reg = random_feasible_pair(rng)
        worst = max(worst, verify_rotation_numeric(modes, reg).max_deviation)
    assert worst < 1e-8
