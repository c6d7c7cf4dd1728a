"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they are
produced; without ``-s`` pytest shows them for failing tests only.
"""

import functools
import math
import time

import numpy as np
import yaml

from pseudomodes import (
    CorrelationSpec,
    LorentzianSum,
    LorentzianTerm,
    SpaceLayout,
    SystemSpec,
    TrajectoryConfig,
    basis_state,
    build_discrete_modes,
    build_generator,
    correlation,
    damped_rabi_amplitude,
    discretized_bath_solve,
    DiscretizedBath,
    equivalence_check,
    evolve,
    lorentzian_to_poles,
    mcwf_run,
    mode_correlation,
    ModeSet,
    PositivityViolationError,
    single_excitation_solve,
    two_mode_regularize,
    vacuum_embedding,
    verify_rotation_numeric,
)
from pseudomodes.cli import cmd_map, load_config

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EE = np.diag([0.0, 1.0]).astype(complex)
TLS = SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,), strengths=(1.0,))
#: The excited level with one or two modes in vacuum: the label each run starts from.
EXCITED = [(1, 0)]
EXCITED_PAIR = [(1, 0, 0)]

SINGLE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=4.0),
)))
BAND_GAP = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=1.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=1.0, width=1.0),
)))


def criterion(num, name):
    """Print exactly one [acceptance] line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] criterion {num} ({name}): FAIL -- {exc}")
                raise
            print(f"[acceptance] criterion {num} ({name}): PASS -- {detail}")

        return wrapper

    return deco


def random_feasible_pair(rng):
    """Complex-coupled two-mode family whose rotated rates stay physical."""
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


@criterion(1, "correlation equivalence")
def test_criterion_1_correlation_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for poles in (SINGLE, BAND_GAP):
        spec = CorrelationSpec(poles, (1.0,))
        modes = build_discrete_modes(poles, (1.0,))
        for _ in range(50):
            s = rng.uniform(0.0, 5.0)
            t = s + rng.uniform(0.0, 5.0)
            ref = correlation(spec, 0, 0, t - s)
            scale = max(abs(ref), 1e-12)
            worst = max(worst, abs(mode_correlation(modes, 0, 0, t - s) - ref) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max relative deviation {worst:.3e} exceeds 1e-12"
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    return f"max rel dev {worst:.2e} over 2x50 pairs in {elapsed:.3f}s"


@criterion(2, "damped Rabi dynamics")
def test_criterion_2_damped_rabi():
    start = time.perf_counter()
    modes = build_discrete_modes(SINGLE, (1.0,))
    layout = SpaceLayout(2, (2,))
    gen = build_generator(TLS, modes, layout, EXCITED)
    t = np.linspace(0.0, 2.5, 26)  # ten damping times 1/lambda
    res = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE},
                 store_states=False)
    expected = np.abs(damped_rabi_amplitude(1.0, 4.0, t)) ** 2
    dev = float(np.abs(res.observables["ee"].real - expected).max())
    elapsed = time.perf_counter() - start
    assert dev < 1e-6, f"population deviates by {dev:.3e}, tolerance 1e-6"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    return f"max population dev {dev:.2e} in {elapsed:.2f}s"


@criterion(3, "rotation closed forms")
def test_criterion_3_rotation_verification():
    start = time.perf_counter()
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    worst = verify_rotation_numeric(modes, reg).max_deviation
    rng = np.random.default_rng(314159)
    for _ in range(20):
        m, r = random_feasible_pair(rng)
        worst = max(worst, verify_rotation_numeric(m, r).max_deviation)
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"max parameter deviation {worst:.3e} exceeds 1e-8"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s"
    return f"max dev {worst:.2e} over band-gap + 20 random families in {elapsed:.2f}s"


@criterion(4, "regularized equivalence")
def test_criterion_4_regularized_equivalence():
    start = time.perf_counter()
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    layout = SpaceLayout(2, (2, 2))
    gen_path = build_generator(TLS, modes, layout, EXCITED_PAIR)
    gen_reg = build_generator(TLS, reg, layout, EXCITED_PAIR)
    t = np.linspace(0.0, 20.0, 81)  # twenty times the slower damping 1/lambda_2
    dev = equivalence_check(gen_path, gen_reg, EE, t)
    elapsed = time.perf_counter() - start
    assert dev < 1e-8, f"reduced states deviate by {dev:.3e}, tolerance 1e-8"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, limit 30s"
    return f"max reduced-state dev {dev:.2e} in {elapsed:.2f}s"


@criterion(5, "mode-family report")
def test_criterion_5_map_report(tmp_path):
    doc = {
        "spectral": {
            "type": "lorentzian_sum",
            "terms": [
                {"weight": 2.0, "center": 1.0, "width": 2.0},
                {"weight": -1.0, "center": 1.0, "width": 1.0},
            ],
        },
        "system": {
            "energies": [0.0, 1.0],
            "channels": [{"frequency": 1.0, "strength": 1.0}],
        },
    }
    path = tmp_path / "band_gap.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    report = cmd_map(load_config(path))
    reg = report.regularized
    assert reg is not None, "rotation section missing from the report"
    g1, g2 = reg.coupling_matrix[0]
    hopping = reg.frequency_matrix[0, 1]
    rate1, rate2 = reg.rates
    assert g1 == 0.0, f"first rotated coupling is {g1!r}, expected exactly 0.0"
    assert abs(g2 - 1.0) < 1e-12, f"second rotated coupling {g2!r} != 1"
    assert abs(hopping - math.sqrt(2.0)) < 1e-12, f"hopping {hopping!r} != sqrt(2)"
    assert abs(rate1) < 1e-12, f"rate 1 is {rate1!r}"
    assert abs(rate2 - 3.0) < 1e-12, f"rate 2 is {rate2!r}"
    return (
        f"couplings ({g1:g}, {g2:.12g}), hopping {hopping.real:.12g}, "
        f"rates ({rate1:g}, {rate2:.12g})"
    )


@criterion(6, "brute-force bath convergence")
def test_criterion_6_discretized_bath():
    start = time.perf_counter()
    details = []
    for poles, t_max in ((SINGLE, 1.25), (BAND_GAP, 5.0)):  # five slowest decay times
        modes = build_discrete_modes(poles, (1.0,))
        t = np.linspace(0.0, t_max, 101)
        exact = np.abs(single_excitation_solve(modes, 1.0, 1.0, t).excited) ** 2
        errs = {}
        for n_osc in (600, 1200):
            bath = DiscretizedBath.from_pole_set(poles, 1.0, n_osc)
            pops = np.abs(discretized_bath_solve(bath, 1.0, 1.0, t).excited) ** 2
            errs[n_osc] = float(np.abs(pops - exact).max())
        assert errs[600] < 1e-2, f"600-oscillator error {errs[600]:.3e} exceeds 1e-2"
        assert errs[1200] < errs[600], (
            f"refinement did not help: {errs[1200]:.3e} vs {errs[600]:.3e}"
        )
        details.append(f"{errs[600]:.1e}->{errs[1200]:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"
    return f"errors at 600->1200 oscillators: {', '.join(details)} in {elapsed:.1f}s"


@criterion(7, "trajectory unraveling")
def test_criterion_7_trajectories():
    start = time.perf_counter()
    modes = build_discrete_modes(SINGLE, (1.0,))
    layout = SpaceLayout(2, (2,))
    gen = build_generator(TLS, modes, layout, EXCITED)
    t = np.linspace(0.0, 2.5, 26)
    exact = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE},
                   store_states=False).observables["ee"].real
    cfg = TrajectoryConfig(n_traj=2000, seed=7, times=t)
    psi0 = basis_state(gen.sector, 1)
    ens = mcwf_run(gen, psi0, cfg, observables={"ee": EE})
    dev = np.abs(ens.observables["ee"].real - exact)
    limit = 3.0 * ens.stderr["ee"] + 1e-12
    ratio = float(np.max(dev / np.maximum(limit, 1e-300)))
    assert np.all(dev <= limit), f"worst deviation is {ratio:.2f}x the 3-sigma band"

    replay = mcwf_run(gen, psi0, cfg, observables={"ee": EE})
    assert np.array_equal(ens.observables["ee"], replay.observables["ee"])
    assert np.array_equal(ens.mean_density, replay.mean_density)
    assert ens.jump_records == replay.jump_records
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"
    jumps = float(ens.jump_counts.sum()) / ens.n_traj
    return (
        f"2000 trajectories within 3 SE (worst {ratio:.2f}x), replay bit-identical, "
        f"{jumps:.2f} jumps/trajectory, {elapsed:.1f}s"
    )


@criterion(8, "numerical invariants")
def test_criterion_8_invariants():
    rng = np.random.default_rng(90)
    modes_s = build_discrete_modes(SINGLE, (1.0,))
    layout_s = SpaceLayout(2, (2,))
    modes_b = build_discrete_modes(BAND_GAP, (1.0,))
    reg_b = two_mode_regularize(modes_b)
    layout_b = SpaceLayout(2, (2, 2))
    # on the whole space, the sector of every label, so that random states test it all
    gens = (
        build_generator(TLS, modes_s, layout_s, np.ndindex(*layout_s.dims)),
        build_generator(TLS, modes_b, layout_b, np.ndindex(*layout_b.dims)),
        build_generator(TLS, reg_b, layout_b, np.ndindex(*layout_b.dims)),
    )

    worst_trace = 0.0
    for gen in gens:
        for _ in range(5):
            a = rng.standard_normal((gen.dim, gen.dim)) \
                + 1j * rng.standard_normal((gen.dim, gen.dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            worst_trace = max(worst_trace, abs(complex(np.trace(gen.apply(rho)))))
    assert worst_trace < 1e-12, f"generator application moves trace by {worst_trace:.3e}"

    t = np.linspace(0.0, 4.0, 21)
    worst_herm = 0.0
    worst_eig = 0.0
    for gen in (gens[0], gens[2]):
        res = evolve(gen, vacuum_embedding(gen.sector, EE), t)
        for rho in res.states:
            worst_herm = max(worst_herm, float(np.abs(rho - rho.conj().T).max()))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(
                0.5 * (rho + rho.conj().T)).min()))
    assert worst_herm < 1e-8, f"Hermiticity drifts by {worst_herm:.3e}"
    assert worst_eig > -1e-8, f"negative population {worst_eig:.3e}"

    rho0 = vacuum_embedding(gens[0].sector, EE)
    full = evolve(gens[0], rho0, np.linspace(0.0, 2.5, 26), observables={"ee": EE},
                  store_states=False)
    half = evolve(gens[0], rho0, np.linspace(0.0, 2.5, 51), observables={"ee": EE},
                  store_states=False)  # twice the rows, compared at the shared times
    step_dev = float(np.abs(full.observables["ee"] - half.observables["ee"][::2]).max())
    assert step_dev < 1e-8, f"halving the step moves the answer by {step_dev:.3e}"
    return (
        f"trace dev {worst_trace:.1e}, herm dev {worst_herm:.1e}, "
        f"min eig {worst_eig:.1e}, step-halving dev {step_dev:.1e}"
    )
