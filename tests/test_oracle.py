"""Brute-force reference solvers and closed-form cross checks."""

import numpy as np
import pytest

from pseudomodes import (
    CorrelationSpec,
    DiscretizedBath,
    InvalidModelError,
    LorentzianSum,
    LorentzianTerm,
    ModeSet,
    build_discrete_modes,
    correlation,
    damped_rabi_amplitude,
    discretized_bath_solve,
    lorentzian_to_poles,
    mode_correlation,
    single_excitation_solve,
    two_mode_regularize,
)
from pseudomodes.dynamics import MAX_SUBSTEPS, _rk4_interval, _rk4_substeps
from pseudomodes.errors import StepUnderflowError
from pseudomodes.oracle import _rk4_step_power

SINGLE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=4.0),
)))
BAND_GAP = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=1.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=1.0, width=1.0),
)))


def eig_propagated_amplitude(strength, damping, t):
    """Independent 2x2 matrix-exponential oracle for the resonant amplitude."""
    m = np.array([[0.0, -1j * strength], [-1j * strength, -damping]])
    vals, vecs = np.linalg.eig(m)
    c0 = np.linalg.solve(vecs, np.array([1.0, 0.0], dtype=complex))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.array([(vecs @ (np.exp(vals * ti) * c0))[0] for ti in t])


def test_damped_rabi_matches_matrix_exponential():
    t = np.linspace(0.0, 3.0, 31)
    for strength, damping in ((1.0, 4.0), (1.0, 0.5), (2.0, 2.0)):
        expected = eig_propagated_amplitude(strength, damping, t)
        np.testing.assert_allclose(
            damped_rabi_amplitude(strength, damping, t), expected, atol=1e-12
        )


def test_damped_rabi_underdamped_is_cosine_at_zero_damping():
    t = np.linspace(0.0, 3.0, 31)
    np.testing.assert_allclose(
        damped_rabi_amplitude(1.0, 0.0, t), np.cos(t), atol=1e-12
    )


def test_damped_rabi_critical_damping_limit():
    # damping exactly 2*strength: the degenerate branch must stay finite
    t = np.linspace(0.0, 3.0, 31)
    expected = eig_propagated_amplitude(1.0, 2.0 - 1e-9, t)
    np.testing.assert_allclose(damped_rabi_amplitude(1.0, 2.0, t), expected, atol=1e-6)


def test_single_excitation_decoupled_system_stays_excited():
    modes = build_discrete_modes(SINGLE, (0.0,))
    t = np.linspace(0.0, 2.0, 21)
    sol = single_excitation_solve(modes, 0.0, 1.0, t)
    np.testing.assert_allclose(sol.excited, np.ones_like(t), atol=1e-12)


def test_single_excitation_matches_closed_form():
    modes = build_discrete_modes(SINGLE, (1.0,))
    t = np.linspace(0.0, 2.5, 26)
    sol = single_excitation_solve(modes, 1.0, 1.0, t)
    np.testing.assert_allclose(
        sol.excited, damped_rabi_amplitude(1.0, 4.0, t), atol=1e-8
    )


def test_single_excitation_norm_decays_monotonically():
    modes = build_discrete_modes(SINGLE, (1.0,))
    t = np.linspace(0.0, 2.5, 26)
    sol = single_excitation_solve(modes, 1.0, 1.0, t)
    norms = sol.norms()
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(norms) <= 1e-12)


def test_single_excitation_checks_strength_consistency():
    modes = build_discrete_modes(SINGLE, (1.0,))
    with pytest.raises(InvalidModelError):
        single_excitation_solve(modes, 2.0, 1.0, np.linspace(0.0, 1.0, 11))


def test_band_gap_population_traps_at_four_ninths():
    # At the gap the emitter keeps |<dark|e,0,0>|^2 = (2/3)^2 of its
    # population: the coupling matrix is complex symmetric with null vector
    # (1, -i/sqrt(2), 1), so the projection of the initial state is 2/3.
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    t = np.linspace(0.0, 50.0, 251)
    sol = single_excitation_solve(modes, 1.0, 1.0, t)
    plateau = np.abs(sol.excited[-1]) ** 2
    assert plateau == pytest.approx(4.0 / 9.0, abs=1e-10)
    # and it is genuinely flat at the end
    tail = np.abs(sol.excited[-20:]) ** 2
    assert tail.max() - tail.min() < 1e-10


def test_single_excitation_solve_reads_the_whole_mode_matrix():
    # The rotated pair couples through its hopping, off the diagonal of Z;
    # the excited amplitude must not notice the rotation.
    detuned = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.4, width=2.0),
        LorentzianTerm(weight=-1.0, center=0.4, width=1.0),
    )))
    t = np.linspace(0.0, 6.0, 31)
    for poles in (BAND_GAP, detuned):
        modes = build_discrete_modes(poles, (1.0,))
        direct = single_excitation_solve(modes, 1.0, 1.0, t).excited
        rotated = single_excitation_solve(two_mode_regularize(modes), 1.0, 1.0, t).excited
        np.testing.assert_allclose(rotated, direct, atol=1e-9)


def test_single_excitation_step_follows_a_strong_hopping():
    # A hopping far above every rate, strength and detuning sets the RK4 step.
    z = np.array([[0.0, 3000.0], [3000.0, -1.0j]])
    modes = ModeSet(z, np.array([[1.0, 0.0]]), (1.0,))
    t = np.linspace(0.0, 0.01, 3)
    got = single_excitation_solve(modes, 1.0, 0.0, t)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1:] = m[1:, 0] = -1j * modes.coupling_matrix[0]
    m[1:, 1:] = -1j * z
    vals, vecs = np.linalg.eig(m)
    c0 = np.linalg.solve(vecs, np.array([1.0, 0.0, 0.0], dtype=complex))
    exact = np.array([vecs @ (np.exp(vals * ti) * c0) for ti in t])
    np.testing.assert_allclose(got.excited, exact[:, 0], atol=1e-6)
    np.testing.assert_allclose(got.modes, exact[:, 1:], atol=1e-6)


def rk4_loop_amplitudes(modes, strength, frequency, t):
    """The oracle's amplitudes stepped one RK4 substep at a time."""
    n = len(modes)
    z = modes.frequency_matrix
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    mat[0, 1:] = mat[1:, 0] = -1j * modes.coupling_matrix[0]
    mat[1:, 1:] = -1j * (z - frequency * np.eye(n))
    scale = max(
        float(modes.rates.max()),
        strength,
        float(np.abs(frequency - modes.frequencies).max()),
        float(np.abs(z - np.diag(np.diag(z))).max()),
        1e-12,
    )
    amps = np.zeros((t.size, n + 1), dtype=complex)
    amps[0, 0] = 1.0
    for i in range(1, t.size):
        amps[i] = _rk4_interval(lambda _t, c: mat @ c, amps[i - 1],
                                float(t[i - 1]), float(t[i]), 1e-3 / scale)
    return amps


STEP_POWER_FAMILIES = {
    "band_gap": (lambda: build_discrete_modes(BAND_GAP, (1.0,)), 1.0, 50.0),
    "single_line": (lambda: build_discrete_modes(SINGLE, (1.0,)), 1.0, 2.5),
    "detuned_gap": (lambda: build_discrete_modes(lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.4, width=2.0),
        LorentzianTerm(weight=-1.0, center=0.4, width=1.0),
    ))), (1.0,)), 1.0, 6.0),
    "rotated_pair": (lambda: two_mode_regularize(build_discrete_modes(BAND_GAP, (1.0,))),
                     1.0, 6.0),
    "hopping_3000": (lambda: ModeSet(np.array([[0.0, 3000.0], [3000.0, -1.0j]]),
                                     np.array([[1.0, 0.0]]), (1.0,)), 0.0, 0.01),
}


@pytest.mark.parametrize("family", sorted(STEP_POWER_FAMILIES))
def test_step_power_matches_the_per_substep_rk4_loop(family):
    build, frequency, t_max = STEP_POWER_FAMILIES[family]
    modes = build()
    t = np.linspace(0.0, t_max, 26)
    sol = single_excitation_solve(modes, 1.0, frequency, t)
    loop = rk4_loop_amplitudes(modes, 1.0, frequency, t)
    np.testing.assert_allclose(sol.excited, loop[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.modes, loop[:, 1:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_sub", [1, 2, 3, 7, 64, 1000])
def test_step_power_is_the_rk4_step_matrix_to_a_power(n_sub):
    # Steps with ||hM|| ~ 0.3 make every Taylor coefficient of the step count.
    rng = np.random.default_rng(3)
    mat = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 4.0 - 0.5 * np.eye(4)
    h = 0.15
    loop = _rk4_interval(lambda _t, c: mat @ c, np.eye(4, dtype=complex),
                         0.0, n_sub * h, h * (1.0 + 1e-12))
    got = _rk4_step_power(mat, n_sub, h)
    assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()


def test_step_power_keeps_the_trapped_population_over_long_rows():
    # Each row spans millions of RK4 substeps; the per-substep loop would
    # take minutes, the step power a few matrix products per row.
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    t = np.linspace(0.0, 1e4, 4)
    # The band-gap step scale is its largest damping rate.
    n_sub, _ = _rk4_substeps(0.0, float(t[1]), 1e-3 / float(modes.rates.max()))
    assert n_sub > 10**6
    sol = single_excitation_solve(modes, 1.0, 1.0, t)
    np.testing.assert_allclose(np.abs(sol.excited[1:]) ** 2, 4.0 / 9.0, rtol=0, atol=1e-9)


def test_step_power_refuses_a_row_beyond_max_substeps():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    h_cap = 1e-3 / float(modes.rates.max())
    t = np.array([0.0, 2.0 * MAX_SUBSTEPS * h_cap])
    with pytest.raises(StepUnderflowError, match="substeps"):
        single_excitation_solve(modes, 1.0, 1.0, t)


def test_discretized_bath_single_degenerate_mode_rabi():
    bath = DiscretizedBath(
        frequencies=np.array([1.0]),
        couplings=np.array([1.0]),
        strength=1.0,
        window=(0.0, 2.0),
    )
    t = np.linspace(0.0, 3.0, 31)
    sol = discretized_bath_solve(bath, 1.0, 1.0, t)
    np.testing.assert_allclose(sol.excited, np.cos(t), atol=1e-10)


def test_discretized_bath_coupling_weights_match_density():
    bath = DiscretizedBath.from_pole_set(SINGLE, 1.0, 600)
    assert bath.n_oscillators == 600
    total = float(np.sum(bath.couplings**2))
    window_integral = bath.density_integral / (2.0 * np.pi)
    assert abs(total - window_integral) < 0.01


def test_discretized_bath_norm_conserved():
    bath = DiscretizedBath.from_pole_set(SINGLE, 1.0, 300)
    t = np.linspace(0.0, 1.25, 26)
    sol = discretized_bath_solve(bath, 1.0, 1.0, t)
    np.testing.assert_allclose(sol.norms(), np.ones_like(t), atol=1e-10)


def test_discretized_bath_matches_oracle_at_explicit_window():
    bath = DiscretizedBath.from_pole_set(SINGLE, 1.0, 300, window=(1.0 - 80.0, 1.0 + 80.0))
    t = np.linspace(0.0, 1.25, 51)
    ref = single_excitation_solve(build_discrete_modes(SINGLE, (1.0,)), 1.0, 1.0, t)
    sol = discretized_bath_solve(bath, 1.0, 1.0, t)
    assert np.abs(sol.excited - ref.excited).max() < 1e-2


def test_discretized_bath_error_decreases_with_refinement():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    t = np.linspace(0.0, 5.0, 51)
    ref = single_excitation_solve(modes, 1.0, 1.0, t)
    errors = []
    for n in (150, 300, 600):
        bath = DiscretizedBath.from_pole_set(BAND_GAP, 1.0, n)
        sol = discretized_bath_solve(bath, 1.0, 1.0, t)
        errors.append(np.abs(sol.excited - ref.excited).max())
    assert errors[0] > errors[1] > errors[2]


def test_discretized_bath_recurrence_guard():
    bath = DiscretizedBath.from_pole_set(SINGLE, 1.0, 150)
    horizon = 2.0 * np.pi / bath.spacing
    with pytest.raises(InvalidModelError):
        discretized_bath_solve(bath, 1.0, 1.0, np.linspace(0.0, horizon, 11))


def test_discretized_bath_size_cap():
    bath = DiscretizedBath.from_pole_set(SINGLE, 1.0, 4001)
    with pytest.raises(InvalidModelError):
        discretized_bath_solve(bath, 1.0, 1.0, np.linspace(0.0, 1.0, 11))


def test_discretized_bath_rejects_indefinite_density():
    broken = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.0, width=3.0),
        LorentzianTerm(weight=-1.0, center=0.0, width=1.0),
    )))
    with pytest.raises(InvalidModelError):
        DiscretizedBath.from_pole_set(broken, 1.0, 300)


def test_auxiliary_correlation_trivial_cases():
    modes = build_discrete_modes(SINGLE, (1.5,))
    assert mode_correlation(modes, 0, 0, 0.0) == pytest.approx(1.5 * 1.5, abs=1e-12)
    # single Lorentzian at lag 1: strength^2 * exp(-i xi - lambda)
    modes1 = build_discrete_modes(SINGLE, (1.0,))
    expected = np.exp(-1j * 1.0 - 4.0)
    assert mode_correlation(modes1, 0, 0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_auxiliary_correlation_rejects_reversed_times():
    modes = build_discrete_modes(SINGLE, (1.0,))
    with pytest.raises(ValueError):
        mode_correlation(modes, 0, 0, -1.0)


def test_auxiliary_correlation_matches_pole_sum():
    spec = CorrelationSpec(BAND_GAP, (1.0,))
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    rng = np.random.default_rng(10)
    for tau in rng.uniform(0.0, 3.0, size=25):
        ref = correlation(spec, 0, 0, tau)
        assert abs(mode_correlation(modes, 0, 0, tau) - ref) <= 1e-12 * abs(ref)
