"""Generator construction, invariants, and master-equation integration."""

import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from pseudomodes import (
    Generator,
    InvalidModelError,
    LorentzianSum,
    LorentzianTerm,
    SpaceLayout,
    SystemSpec,
    TruncationGuardError,
    build_discrete_modes,
    build_generator,
    damped_rabi_amplitude,
    equivalence_check,
    destroy,
    eigenoperator,
    evolve,
    expectation,
    lorentzian_to_poles,
    ModeSet,
    rotate_frame,
    StepUnderflowError,
    two_mode_regularize,
    vacuum_embedding,
)
from pseudomodes import dynamics
from pseudomodes.dynamics import (FRAMES, InvariantViolationError, _taylor_interval,
                                  exponential, no_jump_history, taylor_plan, uniform_runs)
from pseudomodes.hilbert import LADDER, Sector

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EE = np.diag([0.0, 1.0]).astype(complex)

SINGLE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=4.0),
)))
BAND_GAP = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=1.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=1.0, width=1.0),
)))

#: Two negative-weight lines: three complex-coupled modes, no rotated form.
THREE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=1.0, width=4.0),
    LorentzianTerm(weight=-0.5, center=0.0, width=2.0),
    LorentzianTerm(weight=-0.5, center=2.0, width=2.0),
)))

#: Two positive lines: a real-coupled mode pair on the band-gap layout.
REAL_PAIR = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=0.5, center=0.5, width=1.0),
    LorentzianTerm(weight=0.5, center=1.5, width=2.0),
)))

TLS = SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,), strengths=(1.0,))


def excited(layout):
    """The label of the excited level with every mode in vacuum."""
    return [(1,) + (0,) * layout.n_modes]


def every(layout):
    """Every label: its sector is the whole space."""
    return np.ndindex(*layout.dims)


def tls_direct(start=excited, width=4.0):
    line = LorentzianTerm(weight=1.0, center=1.0, width=width)
    modes = build_discrete_modes(lorentzian_to_poles(LorentzianSum((line,))), (1.0,))
    layout = SpaceLayout(2, (2,))
    return build_generator(TLS, modes, layout, start(layout)), layout


def band_gap_generators(start=excited):
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    layout = SpaceLayout(2, (2, 2))
    return (
        build_generator(TLS, modes, layout, start(layout)),
        build_generator(TLS, reg, layout, start(layout)),
        layout,
    )


def embedded(blocks, support, dim):
    """The d x d matrices whose S x S blocks on ``support`` are ``blocks``, 0 elsewhere."""
    full = np.zeros(blocks.shape[:-2] + (dim, dim), dtype=complex)
    full[..., support[:, None], support[None, :]] = blocks
    return full


def trace_modes(rho, layout):
    """Partial trace over the modes of a full d x d matrix."""
    d_s = layout.system_dim
    d_m = layout.dim // d_s
    return np.einsum("ambm->ab", rho.reshape(d_s, d_m, d_s, d_m))


def random_hermitian_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def all_three_generators():
    gen_d, _ = tls_direct(every)
    gen_p, gen_r, _ = band_gap_generators(every)
    return (gen_d, gen_p, gen_r)


def four_kinds():
    """(kind, mode set, layout): every generator kind on a mode pair, and three
    complex-coupled modes."""
    gap = build_discrete_modes(BAND_GAP, (1.0,))
    pair = SpaceLayout(2, (2, 2))
    return (
        ("lindblad_direct", build_discrete_modes(REAL_PAIR, (1.0,)), pair),
        ("pathological", gap, pair),
        ("lindblad_regularized", two_mode_regularize(gap), pair),
        ("pathological", build_discrete_modes(THREE, (1.0,)), SpaceLayout(2, (2, 2, 2))),
    )


def dense_channels(gen):
    """Each channel of ``gen`` as (rate, b), its jump map made a dense S x S matrix."""
    out = []
    for rate, (rows, cols, values) in gen.channels:
        b = np.zeros((gen.dim, gen.dim), dtype=complex)
        b[rows, cols] = values
        out.append((rate, b))
    return out


def superoperator(gen):
    """L on the sector as a dense |S|**2 x |S|**2 matrix, one column per basis
    matrix E_ab of the block."""
    n = gen.dim
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return np.stack([gen.apply(e).ravel() for e in basis], axis=1)


def dense_reference(gen, rho0, t):
    """exp(t L) rho0 on the grid t from the dense superoperator, exponentiated
    through its eigendecomposition."""
    n = gen.dim
    evals, vecs = np.linalg.eig(superoperator(gen))
    assert np.linalg.cond(vecs) < 1e3, gen.kind
    coeffs = np.linalg.solve(vecs, rho0.ravel())
    return ((np.exp(np.outer(t, evals)) * coeffs) @ vecs.T).reshape(len(t), n, n)


def dense_power_reference(gen, rho0, span, rows):
    """exp(k span L) rho0 for k = 0 ... rows, powers of the dense superoperator's
    exp(span L), which scaling and squaring forms from a degree-20 Taylor
    polynomial of span L / 2**j with 1-norm at most 1/2: no eigenvectors, so
    an ill-conditioned L is as good as any."""
    a = span * superoperator(gen)
    j = max(0, math.ceil(math.log2(2.0 * np.abs(a).sum(axis=0).max())))
    a = a / 2.0**j
    step = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 21):
        term = term @ a / k
        step = step + term
    for _ in range(j):
        step = step @ step
    out = [rho0.ravel()]
    for _ in range(rows):
        out.append(step @ out[-1])
    return np.array(out).reshape(rows + 1, *rho0.shape)


def free_diagonal(gen, frequencies):
    """H0 = H_S0 + sum_l xi_l n_l on the sector's labels."""
    labels = gen.sector.labels
    return np.array([TLS.energies[level] + sum(xi * n for xi, n in zip(frequencies, fock))
                     for level, *fock in labels.tolist()])


def test_trace_conserved_per_application_all_kinds():
    rng = np.random.default_rng(2)
    for gen in all_three_generators():
        for _ in range(5):
            rho = random_hermitian_density(rng, gen.dim)
            assert abs(np.trace(gen.apply(rho))) < 1e-12


def test_tls_population_matches_closed_form():
    gen, layout = tls_direct()
    t = np.linspace(0.0, 2.5, 26)
    res = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE})
    expected = np.abs(damped_rabi_amplitude(1.0, 4.0, t)) ** 2
    np.testing.assert_allclose(res.observables["ee"].real, expected, atol=1e-8)
    assert res.observables["ee"].imag == pytest.approx(np.zeros_like(t), abs=1e-12)


def test_snapshot_invariants_along_lindblad_evolutions():
    gen_d, _ = tls_direct()
    gen_p, gen_r, layout = band_gap_generators()
    for gen in (gen_d, gen_r):
        t = np.linspace(0.0, 4.0, 21)
        res = evolve(gen, vacuum_embedding(gen.sector, EE), t)
        for rho in res.states:
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_uncorrected_generator_runs_through_non_hermitian_states():
    gen_p, gen_r, layout = band_gap_generators()
    t = np.linspace(0.0, 5.0, 11)
    res = evolve(gen_p, vacuum_embedding(gen_p.sector, EE), t)
    states = embedded(res.states, res.support, layout.dim)
    non_herm = max(np.abs(r - r.conj().T).max() for r in states)
    assert non_herm > 0.5  # the full state is far from Hermitian...
    for i, rho in enumerate(states):
        reduced = trace_modes(rho, layout)
        assert np.abs(reduced - reduced.conj().T).max() < 1e-10  # ...the system is not
        np.testing.assert_allclose(reduced, res.system_states[i], atol=1e-12)


def test_uncorrected_and_rotated_generators_share_reduced_dynamics():
    gen_p, gen_r, layout = band_gap_generators()
    t = np.linspace(0.0, 10.0, 41)
    dev = equivalence_check(gen_p, gen_r, EE, t)
    assert dev < 1e-8


def test_real_rotation_of_equal_rate_modes_keeps_reduced_dynamics():
    # With equal rates Gamma = gamma * I, a real orthogonal O maps (Z, g) to
    # (O Z O^T, g O^T) with Gamma still diagonal: three modes that hop among
    # each other.  The generator must read every off-diagonal entry of Z.
    poles = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=0.5, center=-1.0, width=1.5),
        LorentzianTerm(weight=0.3, center=0.5, width=1.5),
        LorentzianTerm(weight=0.2, center=2.0, width=1.5),
    )))
    modes = build_discrete_modes(poles, (1.0,))
    o, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
    h = o @ np.diag(modes.frequencies) @ o.T
    hopping = ModeSet(
        frequency_matrix=0.5 * (h + h.T) - 1.5j * np.eye(3),
        coupling_matrix=modes.coupling_matrix.real @ o.T,
        strengths=modes.strengths,
    )
    layout = SpaceLayout(2, (2, 2, 2))
    gen = build_generator(TLS, hopping, layout, excited(layout))
    assert gen.kind == "lindblad_regularized"
    dev = equivalence_check(build_generator(TLS, modes, layout, excited(layout)), gen, EE,
                            np.linspace(0.0, 4.0, 21))
    assert dev < 1e-8


def test_frame_equivalence_all_kinds():
    # Record in the interaction frame, rotate back, compare snapshots.  Both
    # runs propagate the same Schrodinger-frame generator, so this checks the
    # frame transform; test_exact_action_matches_the_dense_superoperator
    # checks the propagation against an independent reference.
    detuned = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=2.0, center=0.4, width=2.0),
        LorentzianTerm(weight=-1.0, center=0.4, width=1.0),
    )))
    modes = build_discrete_modes(detuned, (1.0,))
    reg = two_mode_regularize(modes)
    t = np.linspace(0.0, 2.0, 21)
    cases = [
        ("pathological", modes, SpaceLayout(2, (2, 2))),
        ("lindblad_regularized", reg, SpaceLayout(2, (2, 2))),
        ("lindblad_direct", build_discrete_modes(SINGLE, (1.0,)), SpaceLayout(2, (2,))),
    ]
    for kind, mode_set, layout in cases:
        gs = build_generator(TLS, mode_set, layout, excited(layout))
        gi = build_generator(TLS, mode_set, layout, excited(layout), frame="interaction")
        assert gi.kind == kind
        rho0 = vacuum_embedding(gs.sector, EE)
        rs = evolve(gs, rho0, t)
        ri = evolve(gi, rho0, t)
        h0 = free_diagonal(gi, mode_set.frequencies)
        dev = max(
            np.abs(rotate_frame(ri.states[i], h0, t[i]) - rs.states[i]).max()
            for i in range(len(t))
        )
        assert dev < 1e-9, kind


@pytest.mark.parametrize("jump, refusal", [
    (([0, 1], [1, 2], [1.0]), r"^a jump map has 2 rows for 1 values$"),
    (([0], [1, 2], [1.0]), r"^a jump map has 2 columns for 1 values$"),
    (([0, 3], [1, 2], [1.0, 1.0]), r"^a jump map's rows must be distinct indices in \[0, 3\)$"),
    (([0, 1], [-1, 2], [1.0, 1.0]), r"^a jump map's columns must be distinct indices in"),
    (([1, 1], [0, 2], [1.0, 1.0]), r"^a jump map's rows must be distinct indices in"),
    (([0, 1], [2, 2], [1.0, 1.0]), r"^a jump map's columns must be distinct indices in"),
], ids=["lengths-rows", "lengths-columns", "outside-rows", "outside-columns",
        "repeated-row", "repeated-column"])
def test_a_malformed_jump_map_is_refused(jump, refusal):
    gen, _ = tls_direct()
    assert gen.dim == 3
    with pytest.raises(InvalidModelError, match=refusal):
        Generator(kind=gen.kind, frame=gen.frame, sector=gen.sector,
                  static_both=gen.static_both, damping=gen.damping,
                  channels=((1.0, tuple(np.array(part) for part in jump)),))


def test_interaction_frame_needs_the_free_hamiltonian():
    gen, layout = tls_direct()
    parts = dict(kind=gen.kind, sector=gen.sector, static_both=gen.static_both,
                 damping=gen.damping, channels=gen.channels)
    with pytest.raises(InvalidModelError):
        Generator(frame="interaction", **parts)
    assert Generator(frame="interaction", h0=gen.h0, **parts).frame_view() is not None
    assert Generator(frame="schrodinger", **parts).frame_view() is None


def test_step_halving_is_converged():
    gen, layout = tls_direct()
    rho0 = vacuum_embedding(gen.sector, EE)
    full = evolve(gen, rho0, np.linspace(0.0, 2.5, 26), observables={"ee": EE},
                  store_states=False)
    half = evolve(gen, rho0, np.linspace(0.0, 2.5, 51), observables={"ee": EE},
                  store_states=False)
    # twice the rows, compared at the shared times
    assert np.abs(full.observables["ee"] - half.observables["ee"][::2]).max() < 1e-8


def test_exact_action_matches_the_dense_superoperator():
    t = np.linspace(0.0, 20.0, 41)
    for kind, mode_set, layout in four_kinds():
        gen = build_generator(TLS, mode_set, layout, excited(layout))
        assert gen.kind == kind
        rho0 = vacuum_embedding(gen.sector, EE)
        res = evolve(gen, rho0, t)
        assert np.abs(res.states - dense_reference(gen, rho0, t)).max() <= 1e-8, kind


def spy_exponentials(monkeypatch):
    """Record Generator.apply's argument shapes, the span of each exponential
    formed and, as each is formed, how many matrices that exponential formed
    before are still alive: the ones a cache keeps."""
    seen = {"applied": [], "formed": [], "cached": []}
    apply, exponential = Generator.apply, dynamics.exponential

    def counting(self, rho):
        seen["applied"].append(rho.shape)
        return apply(self, rho)

    def spied(a):
        exp, formed = exponential(a), []

        def forming(h):
            seen["formed"].append(h)
            seen["cached"].append(sum(u() is not None for u in formed))
            u = exp(h)
            formed.append(weakref.ref(u))
            return u

        return forming

    # Patched on the class, as the layer tracer patches it.
    monkeypatch.setattr(Generator, "apply", counting)
    monkeypatch.setattr(dynamics, "exponential", spied)
    return seen


def test_autonomous_evolve_cost_follows_rows(monkeypatch):
    # A linspace grid is one uniform run: one series for U = exp(-i h D_l) at
    # its mean span h, and for the pathological kind one for exp(-i h
    # D_r^dag) too, whatever the number of rows, and none kept.  A Lindblad
    # kind forms no V.
    seen = spy_exponentials(monkeypatch)
    for gen, per_span in zip(band_gap_generators()[:2], (2, 1)):
        rho0 = vacuum_embedding(gen.sector, EE)
        for rows in (200, 400):
            for calls in seen.values():
                calls.clear()
            t = np.linspace(0.0, 20.0, rows + 1)
            evolve(gen, rho0, t, store_states=False)
            assert len(set(np.diff(t).tolist())) > 1
            assert seen["formed"] == per_span * [20.0 / rows], gen.kind
            assert max(seen["cached"]) == 0
            assert not seen["applied"]


def test_the_row_maps_are_formed_when_the_rows_pay_for_them(monkeypatch):
    # The ket rows of a Lindblad kind form U once per uniform run, one for a
    # linspace grid, however many distinct spans its rounding leaves; the
    # whole band-gap space (|S| = 18) has no single ground label, so each
    # row applies the series.
    seen = spy_exponentials(monkeypatch)
    gen, _ = tls_direct()  # |S| = 3
    for rows, distinct in ((10, 1), (8, 1), (9, 3)):
        t = np.linspace(0.0, 2.5, rows + 1)
        assert len(set(np.diff(t).tolist())) == distinct
        seen["applied"].clear()
        seen["formed"].clear()
        evolve(gen, vacuum_embedding(gen.sector, EE), t)
        assert seen["formed"] == [2.5 / rows] and not seen["applied"], rows
    _, whole, _ = band_gap_generators(every)
    assert whole.one_excitation_ground() is None
    seen["applied"].clear()
    seen["formed"].clear()
    evolve(whole, vacuum_embedding(whole.sector, EE), np.linspace(0.0, 10.0, 41))
    assert set(seen["applied"]) == {(18, 18)} and not seen["formed"]


def test_a_geometric_grid_takes_each_row_as_an_action(monkeypatch):
    # A distinct span per row: each row is a run of its own and forms its own
    # U, and for the pathological kind its own exp(-i dt D_r^dag), once, and
    # none is kept beyond the run after it, however many rows there are.
    seen = spy_exponentials(monkeypatch)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 64)))
    rows = t.size - 1
    assert len(set(np.diff(t).tolist())) == rows
    for gen, per_span in zip(band_gap_generators()[:2], (2, 1)):
        rho0 = vacuum_embedding(gen.sector, EE)
        want = dense_reference(gen, rho0, t)
        for calls in seen.values():
            calls.clear()
        res = evolve(gen, rho0, t)
        assert np.abs(res.states - want).max() <= 1e-8, gen.kind
        assert seen["formed"] == per_span * np.diff(t).tolist()
        assert not seen["applied"]
        assert max(seen["cached"]) <= 1


def test_a_linspace_grid_is_one_run():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 3000))
        t = np.linspace(0.0, 10.0 ** rng.uniform(-6.0, 8.0), n)
        assert uniform_runs(t) == [0, n - 1]
    assert uniform_runs(np.array([0.0])) == [0]
    assert uniform_runs(np.array([0.0, 3.0])) == [0, 1]
    # a longer tail, and a finer grid after a coarse one, start runs of their own
    t = np.linspace(0.0, 20.0, 201)
    assert uniform_runs(np.append(t, 20.5)) == [0, 200, 201]
    assert uniform_runs(np.concatenate([t, np.linspace(20.0, 21.0, 101)[1:]])) == [0, 200, 300]
    # spans that really differ are runs of one row
    geometric = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 64)))
    assert uniform_runs(geometric) == list(range(65))
    # spans that drift by less than rounding per row but not overall
    drift = np.cumsum(np.concatenate(([0.0], 0.1 * (1.0 + 1e-15 * np.arange(200) ** 2))))
    runs = uniform_runs(drift)
    assert runs[0] == 0 and runs[-1] == 200 and len(runs) > 2


def per_row_history(exp, psi0, t):
    """No-jump kets one product per row, each with the exponential of its own
    span: the history before uniform runs."""
    psi = np.empty((t.size,) + np.shape(psi0), dtype=complex)
    psi[0] = psi0
    for i in range(1, t.size):
        np.matmul(psi[i - 1], exp(float(t[i]) - float(t[i - 1])).T, out=psi[i])
    return psi


def test_a_geometric_grid_is_the_per_row_history_bit_for_bit():
    t = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 64)))
    for gen in band_gap_generators()[:2]:
        exp = exponential(-1j * gen.drift())
        ket = np.eye(1, gen.dim, 1, dtype=complex)
        for psi0 in (ket[0], np.concatenate([ket, ket[:, ::-1]])):
            assert np.array_equal(no_jump_history(exp, psi0, t),
                                  per_row_history(exp, psi0, t)), gen.kind


def test_ket_rows_are_the_exponential_of_each_time():
    # Each row of a doubled run against exp(-i t_i D) psi0 formed directly,
    # on band_gap.yaml's model and the 20-mode one.
    twenty = lorentzian_to_poles(LorentzianSum(tuple(
        LorentzianTerm(weight=0.05, center=0.5 + 0.05 * k, width=1.0 + 0.1 * k)
        for k in range(20))))
    layout = SpaceLayout(2, (2,) * 20)
    models = [band_gap_generators()[1],
              build_generator(TLS, build_discrete_modes(twenty, (1.0,)), layout,
                              excited(layout))]
    for gen, rows in zip(models, (200, 500)):
        t = np.linspace(0.0, 20.0, rows + 1)
        exp = exponential(-1j * gen.drift())
        psi0 = np.eye(1, gen.dim, 1, dtype=complex)[0]
        psi = no_jump_history(exp, psi0, t)
        want = np.array([exp(float(ti)) @ psi0 for ti in t])
        assert np.abs(psi - want).max() <= 1e-13, gen.dim


def test_a_refused_second_run_keeps_the_rows_before_it():
    gen = band_gap_generators()[1]
    exp = exponential(-1j * gen.drift())
    psi0 = np.eye(1, gen.dim, 1, dtype=complex)[0]
    t = np.linspace(0.0, 20.0, 201)
    long = np.append(t, 1e12)
    assert uniform_runs(long) == [0, 200, 201]
    with pytest.raises(StepUnderflowError) as err:
        no_jump_history(exp, psi0, long)
    assert np.array_equal(err.value.partial, no_jump_history(exp, psi0, t))
    with pytest.raises(StepUnderflowError) as plan:
        taylor_plan(np.linalg.norm(gen.drift()), 1e12 - 20.0)
    assert str(err.value) == str(plan.value)


def test_the_row_map_cache_keeps_its_capacity(monkeypatch):
    seen = spy_exponentials(monkeypatch)
    spans = np.geomspace(1e-3, 20.0, 12)
    for gen in band_gap_generators()[:2]:
        seen["formed"].clear()
        seen["cached"].clear()
        a = -1j * gen.drift()
        u = functools.lru_cache(5)(dynamics.exponential(a))
        evals, vecs = np.linalg.eig(a)
        assert np.linalg.cond(vecs) < 1e3, gen.kind
        for _ in range(2):  # least recently used first: each span is gone by its turn
            for h in spans:
                want = (vecs * np.exp(h * evals)) @ np.linalg.inv(vecs)
                assert np.abs(u(float(h)) - want).max() <= 1e-8, gen.kind
        assert max(seen["cached"]) == 5  # full, never beyond
        assert len(seen["formed"]) == 2 * spans.size


@pytest.mark.parametrize("frame", FRAMES)
def test_the_closed_form_matches_the_dense_superoperator(monkeypatch, frame):
    # A random density on each one-excitation sector, every kind: each row is
    # read off the eigenkets of the start plus the ground fill, with no
    # application of L.
    seen = spy_exponentials(monkeypatch)
    rng = np.random.default_rng(16)
    t = np.linspace(0.0, 20.0, 41)
    for kind, mode_set, layout in four_kinds():
        gen = build_generator(TLS, mode_set, layout, excited(layout), frame=frame)
        ground = gen.sector.labels[gen.one_excitation_ground()]
        assert ground.tolist() == [0] * (1 + len(mode_set))
        rho0 = random_hermitian_density(rng, gen.dim)
        seen["applied"].clear()
        res = evolve(gen, rho0, t)
        assert not seen["applied"]
        want = dense_reference(gen, rho0, t)
        view = gen.frame_view()
        if view is not None:
            want = np.array([view(rho, ti) for rho, ti in zip(want, t)])
        assert np.abs(res.states - want).max() <= 1e-12, kind


@pytest.mark.parametrize("frame", FRAMES)
def test_ket_rows_match_the_dense_superoperator_on_random_lorentzian_sums(monkeypatch, frame):
    # Seeded draws of 1 to 4 Lorentzian lines, with a negative weight now and
    # then (complex couplings, the pathological kind), each from a pure and
    # a mixed start: every row, reduced state and observable read off the
    # kets matches exp(t L) of the dense superoperator.
    seen = spy_exponentials(monkeypatch)
    rng = np.random.default_rng(24)
    t = np.linspace(0.0, 4.0, 21)
    kinds = set()
    for n in (1, 2, 3, 4):
        for _ in range(3):
            weights = rng.uniform(0.2, 1.0, n) * np.where(rng.random(n) < 0.3, -0.5, 1.0)
            if weights.sum() <= 0.1:
                weights[0] = 1.0
            terms = tuple(LorentzianTerm(weight=w, center=c, width=x) for w, c, x in zip(
                weights / weights.sum(), rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 3.0, n)))
            modes = build_discrete_modes(lorentzian_to_poles(LorentzianSum(terms)), (1.0,))
            layout = SpaceLayout(2, (2,) * n)
            gen = build_generator(TLS, modes, layout, excited(layout), frame=frame)
            assert gen.one_excitation_ground() is not None
            kinds.add(gen.kind)
            view = gen.frame_view()
            obs = {"ee": EE, "sx": SX}
            for rho0 in (vacuum_embedding(gen.sector, EE), random_hermitian_density(rng, gen.dim)):
                seen["applied"].clear()
                res = evolve(gen, rho0, t, observables=obs)
                assert not seen["applied"]
                want = dense_power_reference(gen, rho0, t[1], t.size - 1)
                if view is not None:
                    want = np.array([view(rho, ti) for rho, ti in zip(want, t)])
                assert np.abs(res.states - want).max() <= 1e-12, (n, gen.kind)
                assert np.abs(res.system_states - gen.sector.reduced(want)).max() <= 1e-12
                for name, op in obs.items():
                    mat = gen.sector.operator(op)
                    expected = np.einsum("nij,ji->n", want, mat)
                    assert np.abs(res.observables[name] - expected).max() <= 1e-12, name
    assert kinds == {"lindblad_direct", "pathological"}


def test_a_start_with_a_negative_eigenvalue_fails_positivity_at_row_0():
    # Hermitian with unit trace, but rho0 = 1.2 |e><e| - 0.2 |g><g|: the
    # lowest eigenvalue of the first row, read off the Gram matrix of the
    # kets, is the message a row-by-row eigvalsh would give.
    _, gen, _ = band_gap_generators()
    rho0 = vacuum_embedding(gen.sector, np.diag([-0.2, 1.2]))
    with pytest.raises(InvariantViolationError, match=r"^negative population -2\.000e-01 at t=0$"):
        evolve(gen, rho0, np.linspace(0.0, 1.0, 5))


def ladder_generator():
    """A three-level ladder (energies 0, 1, 2, one channel at frequency 1)
    started in level 2 with two modes: two excitations, |S| = 10.  Fock
    cutoff 3 keeps the top level empty, so the truncation guard stays quiet;
    two quanta reach no further."""
    x = np.diag([1.0, 1.0], 1)
    ladder = SystemSpec(energies=(0.0, 1.0, 2.0), observables=(x + x.T,),
                        frequencies=(1.0,), strengths=(1.0,))
    layout = SpaceLayout(3, (3, 3))
    return build_generator(ladder, build_discrete_modes(REAL_PAIR, (1.0,)), layout,
                           [(2, 0, 0)])


def test_sectors_without_one_ground_take_the_series(monkeypatch):
    # The whole band-gap space, two excitations, and a damping K a part in
    # 1e9 too strong, so that the jumps no longer return all the trace it
    # removes (the trace drifts by less than TRACE_TOL), on a line 4 wide
    # and on one 1e-7 wide: no ground fill is exact, and each row applies
    # the series.
    seen = spy_exponentials(monkeypatch)
    leaky = []
    for width in (4.0, 1e-7):
        direct, _ = tls_direct(width=width)
        leaky.append(Generator(kind=direct.kind, frame=direct.frame, sector=direct.sector,
                               static_both=direct.static_both,
                               damping=direct.damping * (1.0 + 1e-9),
                               channels=direct.channels))
    ladder = ladder_generator()
    top = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    top[-1, -1] = 1.0  # level 2 with both modes in vacuum, the last label
    assert ladder.sector.labels[-1].tolist() == [2, 0, 0]
    cases = [(gen, vacuum_embedding(gen.sector, EE))
             for gen in (*band_gap_generators(every)[:2], *leaky)] + [(ladder, top)]
    assert [gen.dim for gen, _ in cases] == [18, 18, 3, 3, 10]
    rows = 20
    t = np.linspace(0.0, 1.0, rows + 1)
    for gen, rho0 in cases:
        assert gen.one_excitation_ground() is None
        seen["applied"].clear()
        seen["formed"].clear()
        res = evolve(gen, rho0, t)
        assert set(seen["applied"]) == {(gen.dim, gen.dim)} and not seen["formed"]
        want = dense_power_reference(gen, rho0, t[1], rows)
        assert np.abs(res.states - want).max() <= 1e-12, (gen.kind, gen.dim)


def test_reachable_support_is_the_one_excitation_sector():
    pathological, rotated, layout = band_gap_generators()
    sector = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    want = sorted(int(np.ravel_multi_index(label, layout.dims)) for label in sector)
    assert want == [0, 1, 3, 9] and layout.dim == 18
    for gen in (pathological, rotated):
        np.testing.assert_array_equal(gen.sector.support, want)
        assert gen.sector.labels.tolist() == sorted(map(list, sector))
        # S is closed: starting from all of it gives S again
        again = build_generator(TLS, build_discrete_modes(BAND_GAP, (1.0,)), layout, sector)
        np.testing.assert_array_equal(again.sector.support, want)
    gen, layout = tls_direct()
    assert gen.dim == 3 and layout.dim == 6
    layout = SpaceLayout(2, (2, 2, 2))
    gen = build_generator(TLS, build_discrete_modes(THREE, (1.0,)), layout, excited(layout))
    assert gen.kind == "pathological"
    assert gen.dim == 5 and layout.dim == 54


def test_reachable_support_is_every_index_at_full_rank():
    _, gen, layout = band_gap_generators(every)
    np.testing.assert_array_equal(gen.sector.support, np.arange(18))
    full = random_hermitian_density(np.random.default_rng(3), layout.dim)
    assert abs(np.trace(gen.apply(full))) < 1e-12
    # The whole space is one more sector: its S-block is the sector's generator.
    _, sub, _ = band_gap_generators()
    block = np.ix_(sub.sector.support, sub.sector.support)
    assert np.array_equal(gen.static_both[block], sub.static_both)
    assert np.array_equal(gen.damping[block], sub.damping)
    for (rate, b), (sub_rate, sub_b) in zip(dense_channels(gen), dense_channels(sub)):
        assert rate == sub_rate and np.array_equal(b[block], sub_b)


@pytest.mark.parametrize("frame", FRAMES)
def test_restricted_row_matches_the_full_space_row(frame):
    dt = 0.5
    for kind, mode_set, layout in four_kinds():
        gen = build_generator(TLS, mode_set, layout, excited(layout), frame=frame)
        whole = build_generator(TLS, mode_set, layout, every(layout), frame=frame)
        assert gen.kind == whole.kind == kind
        assert gen.dim < whole.dim == layout.dim
        res = evolve(gen, vacuum_embedding(gen.sector, EE), [0.0, dt])
        row = embedded(res.states[1], res.support, layout.dim)
        # The same row propagated on the whole space, seen in the same frame.
        full = _taylor_interval(whole.apply, vacuum_embedding(whole.sector, EE), dt,
                                whole.norm_estimate())
        view = whole.frame_view()
        if view is not None:
            full = view(full, dt)
        assert np.abs(row - full).max() <= 1e-14, kind


@pytest.mark.parametrize("frame", FRAMES)
def test_the_row_map_matches_the_row_action(frame):
    # Each row read off the kets plus the ground fill; the reference applies
    # the Taylor series of L to each row's state.
    t = np.linspace(0.0, 20.0, 41)
    for kind, mode_set, layout in four_kinds():
        gen = build_generator(TLS, mode_set, layout, excited(layout), frame=frame)
        assert gen.one_excitation_ground() is not None
        rho = vacuum_embedding(gen.sector, EE)
        res = evolve(gen, rho, t)
        view = gen.frame_view()
        for i in range(1, t.size):
            rho = _taylor_interval(gen.apply, rho, t[i] - t[i - 1], gen.norm_estimate())
            want = rho if view is None else view(rho, t[i])
            assert np.abs(res.states[i] - want).max() <= 1e-13, (kind, i)


def test_taylor_plan_minimises_applications():
    assert taylor_plan(0.0, 1.0) == (0, 1)
    assert taylor_plan(3.33, 1.0) == taylor_plan(1.0, 3.33) == (30, 1)
    assert taylor_plan(3.33, 2.0) == (45, 1)
    assert taylor_plan(8.3, 1.0) == (50, 1)
    assert taylor_plan(1000.0, 1.0) == (55, 102)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(StepUnderflowError, match=r"^unusable norm bound (inf|nan|-1)$"):
            taylor_plan(bad, 1.0)


def test_taylor_plan_names_the_longest_row_that_fits():
    # 10**6 sub-intervals of the top degree, theta_55 = 9.9, at ||L|| = 1
    assert taylor_plan(1.0, 9.9e6) == (55, 1_000_000)
    with pytest.raises(StepUnderflowError) as err:
        taylor_plan(1.0, 1e7)
    assert str(err.value) == ("a row of 1e+07 time units is too long for the norm bound 1; "
                              "rows of at most 9.9e+06 time units fit")
    # the named row is rounded down, so it fits where the exact limit is not decimal
    for norm_rate in (14.4853, 2e150, 3.0, 7e-290):
        with pytest.raises(StepUnderflowError) as err:
            taylor_plan(norm_rate, 1e300)
        named = float(str(err.value).split("rows of at most ")[1].split()[0])
        assert taylor_plan(norm_rate, named)[1] <= 1_000_000


def test_truncation_guard_aborts_with_partial_prefix():
    modes = build_discrete_modes(SINGLE, (1.0,))
    layout = SpaceLayout(2, (1,))  # one excitation already reaches the cap
    gen = build_generator(TLS, modes, layout, excited(layout))
    t = np.linspace(0.0, 2.5, 26)
    with pytest.raises(TruncationGuardError) as err:
        evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE})
    exc = err.value
    assert exc.population > 1e-6
    assert exc.partial is not None
    assert len(exc.partial.times) >= 1
    assert exc.partial.times[-1] < exc.time
    assert float(exc.partial.top_fock.max()) <= 1e-6


def evolve_in_blocks(monkeypatch, rows, gen, *args, **kwargs):
    """``evolve`` recording ``rows`` rows at a time."""
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", rows * gen.dim ** 2)
    return evolve(gen, *args, **kwargs)


@pytest.mark.parametrize("frame", FRAMES)
def test_a_grid_longer_than_one_block_matches_row_by_row_records(monkeypatch, frame):
    # The whole band-gap space, |S| = 18, takes the series; its 401 rows fill
    # two blocks of 202.  Each record matches the row's own state read one
    # row at a time, and a run recorded row by row.
    t = np.linspace(0.0, 20.0, 401)
    assert dynamics.BLOCK_ENTRIES // 18**2 == 202
    obs = {"ee": EE, "sx": SX}
    for gen in band_gap_generators(every)[:2]:
        gen = Generator(kind=gen.kind, frame=frame, sector=gen.sector,
                        static_both=gen.static_both, damping=gen.damping,
                        channels=gen.channels, h0=gen.h0)
        rho0 = vacuum_embedding(gen.sector, EE)
        res = evolve(gen, rho0, t, observables=obs)
        by_row = evolve_in_blocks(monkeypatch, 1, gen, rho0, t, observables=obs)
        monkeypatch.undo()
        np.testing.assert_array_equal(res.states, by_row.states)
        layout = gen.sector.layout
        tops = [gen.sector.labels[:, 1 + l] == n for l, n in enumerate(layout.fock_levels)]
        for i, rho in enumerate(res.states):
            assert res.trace_error[i] == pytest.approx(abs(np.trace(rho) - 1.0), abs=1e-15)
            top = max(float(np.real(np.diagonal(rho))[mask].sum()) for mask in tops)
            assert res.top_fock[i] == pytest.approx(top, abs=1e-15)
            full = embedded(rho, gen.sector.support, layout.dim)
            np.testing.assert_allclose(res.system_states[i], trace_modes(full, layout),
                                       atol=1e-14)
            for name, op in obs.items():
                want = expectation(rho, gen.sector.operator(op))
                assert res.observables[name][i] == pytest.approx(want, abs=1e-14)
        for name in ("system_states", "top_fock", "trace_error"):
            np.testing.assert_allclose(getattr(res, name), getattr(by_row, name), atol=1e-14)
        for name in obs:
            np.testing.assert_allclose(res.observables[name], by_row.observables[name],
                                       atol=1e-14)


def assert_same_prefix(a, b):
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    for name in ("system_states", "top_fock", "trace_error"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-15)
    assert a.observables.keys() == b.observables.keys()
    for name in a.observables:
        np.testing.assert_allclose(a.observables[name], b.observables[name], atol=1e-15)


def test_a_truncation_trip_in_the_second_block_raises_as_row_by_row(monkeypatch):
    # Coupling 0.005 at Fock cutoff 1: the top level passes 1e-6 at row 5 of
    # 101.  Blocks of 3 rows put it in the second block, after two clean rows
    # of it; the error and its prefix are those of a row-by-row record.
    weak = SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,),
                      strengths=(0.005,))
    layout = SpaceLayout(2, (1,))
    gen = build_generator(weak, build_discrete_modes(SINGLE, (0.005,)), layout,
                          excited(layout))
    assert gen.one_excitation_ground() is not None
    rho0 = vacuum_embedding(gen.sector, EE)
    t = np.linspace(0.0, 10.0, 101)
    errors = []
    for rows in (1, 3):
        with pytest.raises(TruncationGuardError) as err:
            evolve_in_blocks(monkeypatch, rows, gen, rho0, t, observables={"ee": EE})
        errors.append(err.value)
    by_row, blocked = errors
    assert str(by_row) == str(blocked) == (
        "top Fock population 1.168e-06 exceeded 1e-06 at t=0.5; raise the cutoffs")
    assert (by_row.time, by_row.population) == (blocked.time, blocked.population)
    assert len(blocked.partial.times) == 5
    assert_same_prefix(by_row.partial, blocked.partial)


def test_an_invariant_violation_in_the_second_block_raises_as_row_by_row(monkeypatch):
    # A damping 4e-8 too strong: the jumps return less trace than the drift
    # removes, and the trace is off by more than 1e-8 from row 10 on.  Blocks
    # of 6 rows put it in the second block; rows after it never count.
    direct, _ = tls_direct()
    leaky = Generator(kind=direct.kind, frame=direct.frame, sector=direct.sector,
                      static_both=direct.static_both, damping=direct.damping * (1.0 + 4e-8),
                      channels=direct.channels)
    rho0 = vacuum_embedding(leaky.sector, EE)
    t = np.linspace(0.0, 10.0, 101)
    messages = []
    for rows in (1, 6):
        with pytest.raises(InvariantViolationError) as err:
            evolve_in_blocks(monkeypatch, rows, leaky, rho0, t)
        messages.append(str(err.value))
    assert messages == ["trace deviated by 1.113e-08 at t=1"] * 2


def test_evolve_validates_inputs():
    gen, layout = tls_direct()
    rho0 = vacuum_embedding(gen.sector, EE)
    with pytest.raises(InvalidModelError):
        evolve(gen, rho0, np.array([0.5, 1.0]))  # grid must start at zero
    with pytest.raises(InvalidModelError):
        evolve(gen, rho0, np.array([0.0, 1.0, 1.0]))  # strictly increasing
    with pytest.raises(InvalidModelError):
        evolve(gen, 0.5 * rho0, np.array([0.0, 1.0]))  # unit trace
    with pytest.raises(InvalidModelError):
        bad = rho0.copy()
        bad[0, 1] = 0.2
        evolve(gen, bad, np.array([0.0, 1.0]))  # hermiticity
    with pytest.raises(InvalidModelError):
        evolve(gen, rho0, np.array([0.0, 1.0]), observables={"x": np.ones((3, 3))})


def test_store_states_flag():
    gen, layout = tls_direct()
    rho0 = vacuum_embedding(gen.sector, EE)
    t = np.linspace(0.0, 1.0, 6)
    res = evolve(gen, rho0, t, store_states=False)
    assert res.states is None
    assert res.system_states.shape == (6, 2, 2)


def test_full_space_observables_accepted():
    # An operator beyond the system factor is a mapping of factor operators.
    gen, layout = tls_direct()
    rho0 = vacuum_embedding(gen.sector, EE)
    t = np.linspace(0.0, 1.0, 6)
    b = destroy(2)
    res = evolve(gen, rho0, t, observables={"n_mode": {1: b.conj().T @ b}})
    assert res.observables["n_mode"].shape == (6,)
    assert res.observables["n_mode"].real.max() > 1e-3
    # one excitation at most: the mode's number is the population of |g; 1>
    one = gen.sector.position((0, 1))
    np.testing.assert_allclose(res.observables["n_mode"], res.states[:, one, one],
                               atol=1e-15)


def test_generator_kind_follows_the_mode_set():
    gap = build_discrete_modes(BAND_GAP, (1.0,))
    layout = SpaceLayout(2, (2, 2))
    cases = (
        (two_mode_regularize(gap), "lindblad_regularized"),
        (gap, "pathological"),
        (build_discrete_modes(REAL_PAIR, (1.0,)), "lindblad_direct"),
    )
    for mode_set, kind in cases:
        assert build_generator(TLS, mode_set, layout, excited(layout)).kind == kind
    with pytest.raises(InvalidModelError):
        build_generator(TLS, BAND_GAP, layout, excited(layout))  # poles are not a mode set


def test_generator_layout_consistency_checked():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    with pytest.raises(InvalidModelError):
        build_generator(TLS, modes, SpaceLayout(2, (2,)), [(1, 0)])  # one mode short
    with pytest.raises(InvalidModelError):
        build_generator(TLS, modes, SpaceLayout(3, (2, 2)), [(1, 0, 0)])  # wrong system dim
    for start in ([(2, 0, 0)], [(1, 0)], [(1, 3, 0)], []):  # no basis state of the layout
        with pytest.raises(InvalidModelError):
            build_generator(TLS, modes, SpaceLayout(2, (2, 2)), start)


def test_norm_estimate_bounds_application():
    rng = np.random.default_rng(8)
    for gen in all_three_generators():
        est = gen.norm_estimate()
        assert est > 0.0
        rho = random_hermitian_density(rng, gen.dim)
        applied = np.linalg.norm(gen.apply(rho))
        assert applied <= est * np.linalg.norm(rho) * (1.0 + 1e-9)


def kron_all(factors):
    out = np.ones((1, 1), dtype=complex)
    for op in factors:
        out = np.kron(out, op)
    return out


def dense_generator(system, modes, layout):
    """A, K and the jump operators on the whole product space, from np.kron.

    Terms are summed in the order the builder sums them (bare H_S, then
    sum_lm Re Z_lm b_l^dag b_m, then the couplings channel by channel and
    mode by mode), so its blocks can be compared bit for bit.
    """
    def lift(factor, op):
        return kron_all([op if f == factor else np.eye(d) for f, d in enumerate(layout.dims)])

    b = [lift(1 + l, destroy(n)) for l, n in enumerate(layout.fock_levels)]
    z = modes.frequency_matrix
    g = modes.coupling_matrix.real if modes.is_all_real else modes.coupling_matrix

    def bilinear(m):
        out = np.zeros((layout.dim,) * 2, dtype=complex)
        for l, k in zip(*np.nonzero(m)):
            out += m[l, k] * (b[l].conj().T @ b[k])
        return out

    a = lift(0, np.diag(np.asarray(system.energies, dtype=complex)))
    a += bilinear(z.real)
    coupling = np.zeros((layout.dim,) * 2, dtype=complex)
    for j in range(system.n_channels):
        c = lift(0, eigenoperator(system, j))
        for l in range(layout.n_modes):
            if g[j, l] != 0.0:
                coupling += complex(g[j, l]) * (c.conj().T @ b[l]) \
                    + complex(g[j, l]) * (b[l].conj().T @ c)
    a += coupling
    return a, bilinear(-z.imag), list(zip(modes.rates, b))


def pattern_closure(a, k, jumps, start):
    """The indices reached from ``start`` through the nonzero patterns of
    D_l = A - iK, D_r^T = (A + iK)^T and every jump of positive rate."""
    step = ((a - 1j * k) != 0) | ((a + 1j * k).T != 0)
    for rate, b in jumps:
        if rate > 0.0:
            step |= b != 0
    reached = np.zeros(len(a), dtype=bool)
    reached[start] = True
    while True:
        grown = reached | step[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def random_models(rng):
    """Small models: 2-3 levels (a ladder and a Lambda among them), 1-2
    channels, 2-3 modes; complex, real and rotated sets."""
    def hermitian(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return a + a.conj().T

    def lines(*terms):
        return lorentzian_to_poles(LorentzianSum(tuple(LorentzianTerm(*t) for t in terms)))

    u = rng.uniform(0.8, 1.2, size=7)
    systems = (
        SystemSpec(energies=(0.0, 1.0), observables=(hermitian(2),), frequencies=(1.0,),
                   strengths=(u[0],)),
        SystemSpec(energies=(0.0, 1.0, 2.0), observables=(hermitian(3),),  # a ladder
                   frequencies=(1.0,), strengths=(u[1],)),
        SystemSpec(energies=(-0.5, 1.0, 2.5), observables=(hermitian(3), hermitian(3)),
                   frequencies=(1.5, 3.0), strengths=(u[2], u[3])),
    )
    v = rng.uniform(0.5, 1.0)  # a gap that the rotation keeps completely positive
    complex_pair = lines((1.0 + v, 1.0, 2.0), (-v, 1.0, 1.0))
    complex_three = lines((2.0, 1.0, 4.0 * u[4]), (-0.5, 0.0, 2.0), (-0.5, 2.0, 2.0))
    real_pair = lines((0.5, 0.5, u[5]), (0.5, 1.5, 2.0))
    real_three = lines((0.5, -1.0, 1.5), (0.3, 0.5, u[6]), (0.2, 2.0, 1.5))
    # a Lambda: the channel lowers the top level into both degenerate ones,
    # so a coupling moves one label to two
    systems += (SystemSpec(energies=(0.0, 0.0, 1.0), observables=(hermitian(3),),
                           frequencies=(1.0,), strengths=(rng.uniform(0.8, 1.2),)),)
    for system in systems:
        w = system.strengths
        sets = (
            ("complex", build_discrete_modes(complex_pair, w), (2, 2)),
            ("complex", build_discrete_modes(complex_three, w), (2, 1, 2)),
            ("real", build_discrete_modes(real_pair, w), (2, 3)),
            ("real", build_discrete_modes(real_three, w), (1, 2, 2)),
            ("rotated", two_mode_regularize(build_discrete_modes(complex_pair, w)), (2, 2)),
        )
        for family, modes, fock in sets:
            yield family, system, modes, SpaceLayout(system.dim, fock)


def test_sector_build_matches_the_dense_kron_build():
    rng = np.random.default_rng(20261018)
    families = set()
    for family, system, modes, layout in random_models(rng):
        families.add(family)
        a, k, jumps = dense_generator(system, modes, layout)
        top = (system.dim - 1,) + (0,) * layout.n_modes
        other = tuple(int(rng.integers(d)) for d in layout.dims)
        for start in ([top], [top, other], list(np.ndindex(*layout.dims))):
            gen = build_generator(system, modes, layout, start)
            flat = [np.ravel_multi_index(label, layout.dims) for label in start]
            support = pattern_closure(a, k, jumps, flat)
            assert np.array_equal(gen.sector.support, support), (family, start)
            block = np.ix_(support, support)
            assert np.array_equal(gen.static_both, a[block]), family
            assert np.array_equal(gen.damping, k[block]), family
            assert len(gen.channels) == len(jumps)
            for (rate, b), (want_rate, want_b) in zip(dense_channels(gen), jumps):
                assert rate == want_rate and np.array_equal(b, want_b[block]), family
    assert families == {"complex", "real", "rotated"}


def full_walk(layout, start, terms):
    """The labels that every term with a nonzero coefficient reaches from
    ``start``, each walked from every label, those that move no label too."""
    def targets(label, factors):
        moved = [label]
        for f, op in factors.items():
            if isinstance(op, str):
                shift, entry = LADDER[op]
                step = (lambda n, shift=shift, entry=entry, dim=layout.dims[f]:
                        [n + shift] if n + shift < dim and entry(n) else [])
            else:
                step = lambda n, op=op: np.flatnonzero(np.asarray(op)[:, n]).tolist()
            moved = [m[:f] + (n,) + m[f + 1:] for m in moved for n in step(m[f])]
        return moved

    seen = frontier = {tuple(label) for label in start}
    while frontier:
        frontier = {moved for label in frontier for coefficient, factors in terms
                    if coefficient != 0 for moved in targets(label, factors)} - seen
        seen = seen | frontier
    return sorted(seen)


def test_closure_skips_only_terms_that_move_no_label():
    rng = np.random.default_rng(20261019)
    skipped = 0
    for family, system, modes, layout in random_models(rng):
        terms = [term for group in dynamics._terms(system, modes, modes.coupling_matrix)
                 for term in group]
        # the bare Hamiltonian and every b_l^dag b_l move no label
        skipped += sum(all(LADDER[op][0] == 0 if isinstance(op, str)
                           else np.array_equal(op, np.diag(np.diagonal(op)))
                           for op in factors.values()) for _, factors in terms)
        top = (system.dim - 1,) + (0,) * layout.n_modes
        other = tuple(int(rng.integers(d)) for d in layout.dims)
        for start in ([top], [top, other], list(np.ndindex(*layout.dims))):
            sector, _ = Sector.closure(layout, start, terms)
            assert sector.labels.tolist() == [list(label) for label in
                                              full_walk(layout, start, terms)], family
    assert skipped > 0


def test_the_generator_holds_its_blocks_and_jump_maps_only():
    # The N-line model at N = 100: |S| = 102.  A, K, D_l and D_r are dense
    # S x S blocks, each jump is a map with one entry, and the sector holds
    # its labels, so the generator holds at most 4 |S|**2 complex numbers
    # and O(N |S|) bytes besides.
    n = 100
    lines = lorentzian_to_poles(LorentzianSum(tuple(
        LorentzianTerm(weight=1.0 / n, center=0.5 + k / n, width=1.0 + 20.0 * k / n)
        for k in range(n))))
    modes = build_discrete_modes(lines, (1.0,))
    layout = SpaceLayout(2, (2,) * n)
    tracemalloc.start()
    try:
        gen = build_generator(TLS, modes, layout, excited(layout))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    d = gen.dim
    assert d == n + 2 and len(gen.channels) == n
    assert held <= 4 * d * d * 16 + 64 * n * d, f"{held / 2**20:.2f} MiB"


def test_memory_follows_the_sector_not_the_cutoff():
    # The three-line model at Fock cutoff 8: d = 2 * 9**3 = 1,458 and |S| = 5.
    # One d x d complex array alone would take 34 MB.  At cutoff 3000 one
    # mode's ladder matrix alone would take 144 MB, and at 10**5 160 GB.
    modes = build_discrete_modes(THREE, (1.0,))
    t = np.linspace(0.0, 2.5, 26)
    small = SpaceLayout(2, (2, 2, 2))
    gen = build_generator(TLS, modes, small, excited(small))
    same = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE})
    for levels in (8, 3000, 10**5):
        layout = SpaceLayout(2, (levels,) * 3)
        tracemalloc.start()
        try:
            gen = build_generator(TLS, modes, layout, excited(layout))
            res = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout.dim == 2 * (levels + 1) ** 3 and gen.dim == 5
        assert peak < 2e6, f"peak {peak / 1e6:.1f} MB at fock levels {levels}"
        assert np.array_equal(res.observables["ee"], same.observables["ee"]), levels
