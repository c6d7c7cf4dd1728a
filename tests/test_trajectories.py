"""Quantum-jump unraveling against the deterministic master equation."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pseudomodes
from pseudomodes import (
    ClassificationError,
    EnsembleResult,
    InvalidModelError,
    LorentzianSum,
    LorentzianTerm,
    NoJumpPropagator,
    SpaceLayout,
    SystemSpec,
    TrajectoryConfig,
    basis_state,
    build_discrete_modes,
    build_generator,
    evolve,
    lorentzian_to_poles,
    mcwf_run,
    two_mode_regularize,
    vacuum_embedding,
)
from pseudomodes import trajectories
from pseudomodes.cli import main
from pseudomodes.dynamics import TRUNCATION_LIMIT, Generator, no_jump_history
from pseudomodes.errors import TruncationGuardError
from pseudomodes.trajectories import (
    DIGIT_ENTRIES,
    JUMP_TIME_TOL,
    MAX_DIGIT_BITS,
    _Streams,
    digit_bits,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EE = np.diag([0.0, 1.0]).astype(complex)
GG = np.diag([1.0, 0.0]).astype(complex)
COH = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

TLS = SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,), strengths=(1.0,))

SINGLE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=4.0),
)))
#: A single line at width 2.0, the critically damped case: the drift has an
#: exceptional point and no trustworthy eigenbasis.
CRITICAL = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0, center=1.0, width=2.0),
)))
BAND_GAP = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=2.0, center=1.0, width=2.0),
    LorentzianTerm(weight=-1.0, center=1.0, width=1.0),
)))
#: A broad line that empties the emitter and one a millionth as strong: at
#: Fock cutoff 1 its top level crosses the truncation limit only after about
#: half of 50 trajectories have jumped.
WEAK_LINE = lorentzian_to_poles(LorentzianSum((
    LorentzianTerm(weight=1.0 - 1e-6, center=1.0, width=4.0),
    LorentzianTerm(weight=1e-6, center=1.0, width=0.2),
)))
#: 20 lines on one emitter: one excitation reaches 22 of 2 * 3**20 states.
TWENTY_LINES = lorentzian_to_poles(LorentzianSum(tuple(
    LorentzianTerm(weight=0.05, center=0.5 + 0.05 * k, width=1.0 + 0.1 * k)
    for k in range(20))))


def excited(layout):
    """The label of the excited level with every mode in vacuum."""
    return [(1,) + (0,) * layout.n_modes]


def either(layout):
    """Both levels with every mode in vacuum."""
    return [(level,) + (0,) * layout.n_modes for level in (0, 1)]


def tls_generator():
    modes = build_discrete_modes(SINGLE, (1.0,))
    layout = SpaceLayout(2, (2,))
    return build_generator(TLS, modes, layout, excited(layout)), layout


def band_gap_regularized():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    layout = SpaceLayout(2, (2, 2))
    return build_generator(TLS, reg, layout, excited(layout)), layout


def ladder_generator():
    """A three-level ladder (energies 0, 1, 2, one channel at frequency 1)
    started in level 2 with two modes: two excitations, |S| = 10, where a
    trajectory jumps up to twice and no label takes every jump."""
    x = np.diag([1.0, 1.0], 1)
    ladder = SystemSpec(energies=(0.0, 1.0, 2.0), observables=(x + x.T,),
                        frequencies=(1.0,), strengths=(1.0,))
    pair = lorentzian_to_poles(LorentzianSum((
        LorentzianTerm(weight=0.5, center=0.5, width=1.0),
        LorentzianTerm(weight=0.5, center=1.5, width=2.0),
    )))
    layout = SpaceLayout(3, (3, 3))
    return build_generator(ladder, build_discrete_modes(pair, (1.0,)), layout, [(2, 0, 0)])


def row_route(monkeypatch):
    """Make mcwf_run take the row route on every sector."""
    monkeypatch.setattr(Generator, "one_excitation_ground", lambda self: None)


def count_products(monkeypatch, looked=None):
    """Record each NoJumpPropagator.apply as (stack height, span) and each
    multiples as (stack height, k); with a list ``looked``, also each span
    whose exponential is asked for (``exp``, which ``apply`` calls too)."""
    applied, searched = [], []
    apply, multiples, exp = (NoJumpPropagator.apply, NoJumpPropagator.multiples,
                             NoJumpPropagator.exp)

    def counting_apply(self, psi, dt):
        applied.append((len(np.atleast_2d(psi)), dt))
        return apply(self, psi, dt)

    def counting_multiples(self, psi, k):
        searched.append((len(psi), k))
        return multiples(self, psi, k)

    def counting_exp(self, dt):
        looked.append(dt)
        return exp(self, dt)

    monkeypatch.setattr(NoJumpPropagator, "apply", counting_apply)
    monkeypatch.setattr(NoJumpPropagator, "multiples", counting_multiples)
    if looked is not None:
        monkeypatch.setattr(NoJumpPropagator, "exp", counting_exp)
    return applied, searched


def embedded(blocks, support, dim):
    """The d x d matrices whose S x S blocks on ``support`` are ``blocks``, 0 elsewhere."""
    full = np.zeros(blocks.shape[:-2] + (dim, dim), dtype=complex)
    full[..., support[:, None], support[None, :]] = blocks
    return full


def rk4_state(drift, psi0, t_final, n_steps):
    """Reference fixed-step integration of d psi/dt = -i D psi."""
    psi = psi0.astype(complex)
    h = t_final / n_steps
    for _ in range(n_steps):
        k1 = -1j * (drift @ psi)
        k2 = -1j * (drift @ (psi + 0.5 * h * k1))
        k3 = -1j * (drift @ (psi + 0.5 * h * k2))
        k4 = -1j * (drift @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def test_no_jump_propagator_matches_stepped_integration():
    gen, layout = tls_generator()
    prop = NoJumpPropagator(gen.drift())
    rng = np.random.default_rng(11)
    psi0 = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    psi0 /= np.linalg.norm(psi0)
    expected = rk4_state(gen.drift(), psi0, 0.7, 4000)
    np.testing.assert_allclose(prop.apply(psi0, 0.7), expected, atol=1e-9)


def test_no_jump_propagator_composes_and_decays():
    gen, layout = tls_generator()
    prop = NoJumpPropagator(gen.drift())
    psi = basis_state(gen.sector, 1)
    np.testing.assert_allclose(prop.apply(psi, 0.0), psi, atol=1e-12)
    two_hops = prop.apply(prop.apply(psi, 0.3), 0.4)
    np.testing.assert_allclose(prop.apply(psi, 0.7), two_hops, atol=1e-12)
    norms = [np.linalg.norm(prop.apply(psi, dt)) for dt in np.linspace(0.0, 3.0, 31)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_no_jump_propagator_is_exact_at_an_exceptional_point():
    modes = build_discrete_modes(CRITICAL, (1.0,))
    layout = SpaceLayout(2, (2,))
    drift = build_generator(TLS, modes, layout, excited(layout)).drift()
    assert np.linalg.cond(np.linalg.eig(drift)[1]) > 1e6
    prop = NoJumpPropagator(drift)
    rng = np.random.default_rng(12)
    d = len(drift)
    kets = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    stacked = prop.apply(kets, 0.7)
    for ket, out in zip(kets, stacked):
        expected = rk4_state(drift, ket, 0.7, 4000)
        np.testing.assert_allclose(prop.apply(ket, 0.7), expected, atol=1e-9)
        np.testing.assert_allclose(out, expected, atol=1e-9)


#: Stack prefixes around the 64-row blocks a BLAS kernel may use, and past them.
ROW_PREFIXES = (1, 4, 37, 63, 64, 65, 200, 499)


def stack_rows_stand_alone(d: int) -> list[bool]:
    """Whether ``NoJumpPropagator.apply`` and ``multiples`` on a stack of 500
    random kets give each row bit for bit as the full stack does: for every
    prefix in ``ROW_PREFIXES``, for a permuted subset of 123 kets, and for
    one ket whose neighbours were all scaled by 3.7."""
    rng = np.random.default_rng(d)
    drift = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    prop = NoJumpPropagator(2.0 * drift / np.linalg.norm(drift))
    kets = rng.standard_normal((500, d)) + 1j * rng.standard_normal((500, d))
    subset = rng.permutation(500)[:123]
    scaled = 3.7 * kets
    scaled[250] = kets[250]
    same = []
    for product in (lambda psi: prop.apply(psi, 0.3), lambda psi: prop.multiples(psi, -3)):
        full = product(kets)
        same += [np.array_equal(product(kets[:n]), full[:n]) for n in ROW_PREFIXES]
        same.append(np.array_equal(product(kets[subset]), full[subset]))
        same.append(np.array_equal(product(scaled)[250], full[250]))
    return same


@pytest.mark.parametrize("d", [6, 18, 98])
def test_stack_rows_do_not_depend_on_the_stack(d):
    assert all(stack_rows_stand_alone(d))


def test_stack_rows_do_not_depend_on_the_stack_with_two_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
                   [str(Path(pseudomodes.__file__).resolve().parents[1]),
                    str(Path(__file__).resolve().parent)]))
    code = ("from test_trajectories import stack_rows_stand_alone as f\n"
            "print(all(all(f(d)) for d in (6, 18, 98)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.parametrize("frame", ["schrodinger", "interaction"])
def test_recorded_observables_match_the_mean_density(frame):
    layout = SpaceLayout(2, (2, 2))
    reg = two_mode_regularize(build_discrete_modes(BAND_GAP, (1.0,)))
    gen = build_generator(TLS, reg, layout, either(layout), frame=frame)
    psi0 = (basis_state(gen.sector, 0) + basis_state(gen.sector, 1)) / np.sqrt(2.0)
    cfg = TrajectoryConfig(n_traj=60, seed=5, times=np.linspace(0.0, 4.0, 21))
    ens = mcwf_run(gen, psi0, cfg, observables={"sx": SX})
    assert ens.jump_counts.sum() > 0
    mean_density = embedded(ens.mean_density, ens.support, layout.dim)
    sx = np.kron(SX, np.eye(layout.dim // 2))  # SX on the system, the identity on the modes
    from_density = np.einsum("ij,tji->t", sx, mean_density)
    assert np.abs(ens.observables["sx"].real).max() > 0.1
    assert np.abs(ens.observables["sx"] - from_density).max() <= 1e-12


def test_truncation_guard_keeps_the_rows_before_the_first_bad_one(monkeypatch):
    # One line at cutoff 1, whose top level crosses the limit before any
    # jump, and a weak line at cutoff 1 beside a broad one at cutoff 2,
    # whose top level crosses it after about half the trajectories jumped.
    for lines, cutoffs, t in ((SINGLE, (1,), np.linspace(0.0, 0.004, 21)),
                              (WEAK_LINE, (2, 1), np.linspace(0.0, 4.0, 41))):
        layout = SpaceLayout(2, cutoffs)
        gen = build_generator(TLS, build_discrete_modes(lines, (1.0,)), layout,
                              excited(layout))
        psi0 = basis_state(gen.sector, 1)

        def run(times):
            return mcwf_run(gen, psi0, TrajectoryConfig(n_traj=50, seed=3, times=times),
                            observables={"ee": EE})

        with monkeypatch.context() as patch:
            _, searched = count_products(patch)
            with pytest.raises(TruncationGuardError) as info:
                run(t)
            info.value.partial.jump_records  # the ground route places its jumps here
        exc, part = info.value, info.value.partial
        i = len(part.times)
        assert 1 < i < t.size
        assert exc.time == t[i] and exc.population > TRUNCATION_LIMIT
        assert np.array_equal(part.times, t[:i])
        assert np.all(part.top_fock <= TRUNCATION_LIMIT)
        for rows in (part.observables["ee"], part.stderr["ee"], part.mean_density,
                     part.trace_error):
            assert len(rows) == i
        mean_density = embedded(part.mean_density, part.support, layout.dim)
        for block, rho, top, err in zip(part.mean_density, mean_density, part.top_fock,
                                        part.trace_error):
            # each mode's top level, read off the full diagonal, and the
            # trace, summed over the block's real diagonal
            pops = np.real(np.diagonal(rho)).reshape(layout.dims)
            assert top == max(np.moveaxis(pops, 1 + m, 0)[-1].sum()
                              for m in range(layout.n_modes))
            assert err == abs(float(np.real(np.diagonal(block)).sum()) - 1.0)
        # The clean rows are those of a run that stops before the bad one.
        clean = run(t[:i])
        for name in ("mean_density", "top_fock", "trace_error"):
            assert np.array_equal(getattr(part, name), getattr(clean, name))
        assert np.array_equal(part.observables["ee"], clean.observables["ee"])
        assert np.array_equal(part.stderr["ee"], clean.stderr["ee"])
        # The partial carries the jumps up to and including the bad row, as
        # the row route's partial does.
        assert all(tj <= t[i] for rec in part.jump_records for tj, _ in rec)
        with monkeypatch.context() as patch:
            row_route(patch)
            with pytest.raises(TruncationGuardError) as rows:
                run(t)
        assert rows.value.partial.jump_records == part.jump_records
        assert np.array_equal(rows.value.partial.jump_counts, part.jump_counts)
        # and those of each trajectory walked alone over the rows up to it
        for idx, rec in enumerate(part.jump_records):
            assert rec == reference_jumps(gen, psi0, 3, idx, t[:i + 1]), idx
        # No row after the bad one was searched: the search made the products
        # of a run that ends at the bad row, although later rows have
        # trajectories that cross their thresholds.
        with monkeypatch.context() as patch:
            _, upto_bad = count_products(patch)
            with pytest.raises(TruncationGuardError) as bad:
                run(t[:i + 1])
            bad.value.partial.jump_records
        assert searched == upto_bad
    assert part.jump_counts.sum() > 10
    eta = np.array([np.random.Generator(np.random.Philox(child)).random()
                    for child in np.random.SeedSequence(3).spawn(50)])
    end = NoJumpPropagator(gen.drift()).apply(psi0, t[-1])
    assert np.any((eta > np.vdot(end, end).real) & (part.jump_counts.sum(axis=1) == 0))


def test_ensemble_tracks_master_equation():
    gen, layout = tls_generator()
    t = np.linspace(0.0, 2.5, 26)
    exact = evolve(gen, vacuum_embedding(gen.sector, EE), t, observables={"ee": EE},
                   store_states=False).observables["ee"].real
    cfg = TrajectoryConfig(n_traj=500, seed=7, times=t)
    ens = mcwf_run(gen, basis_state(gen.sector, 1), cfg, observables={"ee": EE})
    dev = np.abs(ens.observables["ee"].real - exact)
    limit = 5.0 * ens.stderr["ee"] + 1e-12
    assert np.all(dev <= limit)
    tr = np.einsum("tii->t", ens.mean_density)
    np.testing.assert_allclose(tr.real, np.ones_like(t), atol=1e-10)
    assert np.abs(tr.imag).max() < 1e-12


def test_replay_is_bit_identical():
    gen, layout = tls_generator()
    t = np.linspace(0.0, 2.0, 11)
    cfg = TrajectoryConfig(n_traj=64, seed=123, times=t)
    psi0 = basis_state(gen.sector, 1)
    a = mcwf_run(gen, psi0, cfg, observables={"ee": EE})
    b = mcwf_run(gen, psi0, cfg, observables={"ee": EE})
    assert np.array_equal(a.observables["ee"], b.observables["ee"])
    assert np.array_equal(a.stderr["ee"], b.stderr["ee"])
    assert np.array_equal(a.mean_density, b.mean_density)
    assert a.jump_records == b.jump_records
    assert (a.seed, a.n_traj) == (b.seed, b.n_traj)


def test_trajectory_streams_do_not_depend_on_ensemble_size():
    gen, layout = tls_generator()
    t = np.linspace(0.0, 2.0, 11)
    psi0 = basis_state(gen.sector, 1)
    big = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=10, seed=5, times=t))
    small = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=4, seed=5, times=t))
    assert big.jump_records[:4] == small.jump_records
    assert np.array_equal(big.jump_counts[:4], small.jump_counts)


def test_jump_records_do_not_depend_on_batch_size():
    gen, layout = band_gap_regularized()
    t = np.linspace(0.0, 4.0, 21)
    psi0 = basis_state(gen.sector, 1)
    full = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=100, seed=8, times=t))
    assert full.jump_counts.sum() > 20
    for n in (1, 4, 37):
        part = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=n, seed=8, times=t))
        assert part.jump_records == full.jump_records[:n]
        assert np.array_equal(part.jump_counts, full.jump_counts[:n])


def test_propagator_cost_follows_rows_and_jumps(monkeypatch):
    # One excitation: the ground route advances the one no-jump ket with one
    # exponential for the grid's one uniform run, and the trajectories
    # crossing their thresholds in all rows of one jump lattice (e, n) take
    # one search pass together, with no search after a jump.
    gen, layout = tls_generator()
    assert gen.one_excitation_ground() is not None
    t = np.linspace(0.0, 2.5, 251)
    digits = math.ceil(math.ceil(math.log2(2.0 * (t[1] - t[0]) / JUMP_TIME_TOL))
                       / digit_bits(gen.dim))
    looked = []
    applied, searched = count_products(monkeypatch, looked)
    for n_traj in (10, 100, 1000):
        for calls in (applied, searched, looked):
            calls.clear()
        ens = mcwf_run(gen, basis_state(gen.sector, 1),
                       TrajectoryConfig(n_traj=n_traj, seed=4, times=t))
        # the rows of the one ket by doubling, with no apply; the jumps are
        # placed when the records are read
        assert not applied and not searched
        assert looked == [2.5 / 250]
        records = ens.jump_records
        # the rows with crossings and the number of trajectories crossing in each
        crossing = Counter(np.searchsorted(t, rec[0][0]).item() for rec in records if rec)
        assert sum(crossing.values()) == ens.jump_counts.sum() > 0
        # the lattice of each such row and the trajectories crossing on each
        lattices = Counter()
        for row, count in crossing.items():
            t_lo, t_hi = float(t[row - 1]), float(t[row])
            e = math.frexp(JUMP_TIME_TOL * max(1.0, t_hi))[1] - 1
            lattices[e, math.floor(math.ldexp(t_hi - t_lo, -e))] += count
        assert len(lattices) < len(crossing)
        # a pass takes the digits of the lattice index from the top down, so
        # a new one starts where k does not fall
        passes = [[searched[0]]]
        for prev, call in zip(searched, searched[1:]):
            if call[1] < prev[1]:
                passes[-1].append(call)
            else:
                passes.append([call])
        assert len(passes) == len(lattices)
        heights = []
        for calls in passes:
            assert len(calls) <= digits
            assert len({height for height, _ in calls}) == 1
            heights.append(calls[0][0])
        assert sorted(heights) == sorted(lattices.values())
        assert len(applied) <= len(crossing)  # one row end per row


def test_row_route_cost_follows_rows_and_jumps(monkeypatch):
    # Two excitations: no label takes every jump, so the row route carries
    # a ket for each trajectory that has jumped.  A search pass takes at
    # most one product per b-bit digit of the lattice index and one more to
    # the row end.  A row with crossings takes one pass, and one more for
    # each jump of the ket that jumps most often in it.
    gen = ladder_generator()
    assert gen.one_excitation_ground() is None
    t = np.linspace(0.0, 2.5, 251)
    spacings = set(np.diff(t).tolist())
    levels = math.ceil(math.log2(2.0 * (t[1] - t[0]) / JUMP_TIME_TOL))
    per_pass = math.ceil(levels / digit_bits(gen.dim)) + 1
    applied, searched = count_products(monkeypatch)
    formed, exponential = [], trajectories.exponential

    def forming(a):
        exp = exponential(a)
        return lambda h: formed.append(h) or exp(h)

    monkeypatch.setattr(trajectories, "exponential", forming)
    for n_traj in (10, 100, 1000):
        applied.clear()
        searched.clear()
        formed.clear()
        ens = mcwf_run(gen, basis_state(gen.sector, 2),
                       TrajectoryConfig(n_traj=n_traj, seed=4, times=t))
        jumps = int(ens.jump_counts.sum())
        assert jumps > 0 and searched
        rows = [height for height, dt in applied if dt in spacings]
        assert len(rows) == t.size - 1  # one product per row for the ensemble
        # 1 row exponential on the grid's one uniform run, its mean span
        assert [h for h in formed if h in spacings] == [2.5 / 250]
        # the row stack holds no more kets than trajectories have jumped
        first = np.sort([rec[0][0] for rec in ens.jump_records if rec])
        jumped = np.searchsorted(first, t[:-1], side="right")
        assert np.all(np.array(rows) <= 1 + jumped)
        per_ket = [Counter(np.searchsorted(t, [tj for tj, _ in rec]).tolist())
                   for rec in ens.jump_records]
        passes = sum(1 + max(c[row] for c in per_ket) for row in set().union(*per_ket))
        products = len(searched) + len(applied) - len(rows)
        assert products <= per_pass * passes <= 2 * per_pass * jumps
    assert ens.jump_counts.sum(axis=1).max() == 2


def test_the_row_route_carries_only_jumped_kets(monkeypatch):
    # Every trajectory reads the one no-jump history, formed once over the
    # whole grid, until its first jump: each row product advances exactly
    # the kets of the trajectories that jumped before that row.
    gen = ladder_generator()
    assert gen.one_excitation_ground() is None
    t = np.linspace(0.0, 2.5, 251)
    spacings = set(np.diff(t).tolist())
    histories, history = [], trajectories.no_jump_history

    def counting_history(exp, psi0, times):
        histories.append(times)
        return history(exp, psi0, times)

    monkeypatch.setattr(trajectories, "no_jump_history", counting_history)
    applied, _ = count_products(monkeypatch)
    ens = mcwf_run(gen, basis_state(gen.sector, 2), TrajectoryConfig(n_traj=200, seed=4, times=t))
    assert len(histories) == 1 and np.array_equal(histories[0], t)
    rows = [height for height, dt in applied if dt in spacings]
    first = np.sort([rec[0][0] for rec in ens.jump_records if rec])
    jumped = np.searchsorted(first, t[:-1], side="right")
    assert rows == jumped.tolist()
    assert rows[0] == 0 and 0 < rows[-1] < 200


def ground_models():
    """Generators on one-excitation sectors, each with its start and grid."""
    def tls():
        gen, _ = tls_generator()
        return gen, basis_state(gen.sector, 1), np.linspace(0.0, 2.5, 26)

    def band_gap():
        gen, _ = band_gap_regularized()
        return gen, basis_state(gen.sector, 1), np.linspace(0.0, 20.0, 201)

    def either_start(frame):
        layout = SpaceLayout(2, (2, 2))
        reg = two_mode_regularize(build_discrete_modes(BAND_GAP, (1.0,)))
        gen = build_generator(TLS, reg, layout, either(layout), frame=frame)
        psi0 = (basis_state(gen.sector, 0) + basis_state(gen.sector, 1)) / np.sqrt(2.0)
        return gen, psi0, np.linspace(0.0, 20.0, 201)

    def twenty_modes():
        layout = SpaceLayout(2, (2,) * 20)
        gen = build_generator(TLS, build_discrete_modes(TWENTY_LINES, (1.0,)), layout,
                              excited(layout))
        assert gen.dim == 22
        return gen, basis_state(gen.sector, 1), np.linspace(0.0, 20.0, 201)

    return {"tls": tls, "band_gap": band_gap,
            "either_schrodinger": lambda: either_start("schrodinger"),
            "either_interaction": lambda: either_start("interaction"),
            "twenty_modes": twenty_modes}


@pytest.mark.parametrize("model", sorted(ground_models()))
def test_ground_route_matches_the_row_route(model, monkeypatch):
    gen, psi0, t = ground_models()[model]()
    assert gen.one_excitation_ground() is not None
    obs = {"ee": EE, "gg": GG, "sx": SX, "coh": COH}
    cfg = TrajectoryConfig(n_traj=200, seed=5, times=t)
    ground = mcwf_run(gen, psi0, cfg, observables=obs)
    row_route(monkeypatch)
    rows = mcwf_run(gen, psi0, cfg, observables=obs)
    assert ground.jump_counts.sum() > 20
    assert ground.jump_records == rows.jump_records
    assert np.array_equal(ground.jump_counts, rows.jump_counts)
    assert np.array_equal(ground.top_fock, rows.top_fock)
    # the ground route's closed forms and doubled rows against the samples
    for name in obs:
        assert np.abs(ground.observables[name] - rows.observables[name]).max() <= 1e-13, name
        assert np.abs(ground.stderr[name] - rows.stderr[name]).max() <= 1e-13, name
    assert np.abs(ground.mean_density - rows.mean_density).max() <= 1e-13
    assert np.abs(ground.trace_error - rows.trace_error).max() <= 1e-13


def assert_two_valued_statistics(gen, psi0, ens, obs):
    """Check each observable's mean and standard error against numpy's over
    the explicit samples: a trajectory reads psi's value in the rows before
    the one it first jumps in, and O_gg from then on.  Returns the number of
    trajectories that have jumped by each row."""
    t, n, g = ens.times, ens.n_traj, gen.one_excitation_ground()
    psi = no_jump_history(NoJumpPropagator(gen.drift()).exp, psi0, t)
    first = np.array([rec[0][0] if rec else np.inf for rec in ens.jump_records])
    before = t < first[:, None]
    ddof = min(n - 1, 1)
    for name, op in obs.items():
        mat = gen.sector.operator(op)
        x = (np.einsum("ni,ni->n", psi.conj(), psi @ mat.T)
             / np.einsum("ni,ni->n", psi.conj(), psi).real)
        samples = np.where(before, x, mat[g, g])
        assert np.abs(ens.observables[name] - samples.mean(axis=0)).max() <= 1e-15, name
        stderr = np.sqrt((samples.real.var(axis=0, ddof=ddof)
                          + samples.imag.var(axis=0, ddof=ddof)) / n)
        assert np.abs(ens.stderr[name] - stderr).max() <= 1e-15, name
    return n - before.sum(axis=0)


@pytest.mark.parametrize("n_traj", [1, 2, 40])
def test_ground_statistics_are_those_of_the_two_valued_samples(n_traj):
    gen, _ = tls_generator()
    psi0 = basis_state(gen.sector, 1)
    obs = {"ee": EE, "sx": SX, "coh": COH}
    ens = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=n_traj, seed=6,
                                               times=np.linspace(0.0, 20.0, 201)),
                   observables=obs)
    jumped = assert_two_valued_statistics(gen, psi0, ens, obs)
    # rows where none, some (with more than one trajectory) and all have jumped
    assert jumped[0] == 0 and jumped[-1] == n_traj
    assert n_traj == 1 or np.any((jumped > 0) & (jumped < n_traj))


def test_a_truncated_ground_run_keeps_the_two_valued_statistics():
    # The weak line of the guard test: its top level crosses the limit after
    # about half of the 50 trajectories have jumped.
    layout = SpaceLayout(2, (2, 1))
    gen = build_generator(TLS, build_discrete_modes(WEAK_LINE, (1.0,)), layout,
                          excited(layout))
    psi0 = basis_state(gen.sector, 1)
    obs = {"ee": EE, "sx": SX}
    with pytest.raises(TruncationGuardError) as info:
        mcwf_run(gen, psi0, TrajectoryConfig(n_traj=50, seed=3,
                                             times=np.linspace(0.0, 4.0, 41)),
                 observables=obs)
    part = info.value.partial
    jumped = assert_two_valued_statistics(gen, psi0, part, obs)
    assert 1 < len(part.times) < 41 and 0 < jumped[-1] < 50


@pytest.mark.parametrize("model", sorted(ground_models()))
def test_deferred_jumps_are_the_row_routes_in_any_read_order(model, monkeypatch):
    # The ground route places its jumps when they are first read: read after
    # both runs, B before A, and again later, they are the row route's.
    gen, psi0, t = ground_models()[model]()
    runs = [TrajectoryConfig(n_traj=100, seed=seed, times=t) for seed in (5, 6)]
    with monkeypatch.context() as patch:
        _, searched = count_products(patch)
        ground = [mcwf_run(gen, psi0, cfg) for cfg in runs]
        assert [ens.n_traj for ens in ground] == [100, 100]
        assert not searched
    jumps = {}
    for k in (1, 0):
        jumps[k] = ground[k].jump_records, ground[k].jump_counts
    with monkeypatch.context() as patch:
        row_route(patch)
        rows = [mcwf_run(gen, psi0, cfg) for cfg in runs]
    for k in (0, 1):
        assert jumps[k][0] == rows[k].jump_records
        assert np.array_equal(jumps[k][1], rows[k].jump_counts)
        assert ground[k].jump_records is jumps[k][0]  # formed once
        assert ground[k].jump_counts is jumps[k][1]
    assert sum(int(c.sum()) for _, c in jumps.values()) > 20


def test_a_cli_trajectories_solve_places_no_jump(tmp_path, monkeypatch, capsys):
    # The CLI writes the mean and its error, which need no jump time: the
    # ground route makes no search pass and draws each threshold alone, and
    # forms one exponential, for the grid's one uniform run.
    formed, draws = [], []
    exponential, draw = trajectories.exponential, _Streams.draw

    def counting_exponential(a):
        exp = exponential(a)

        def counted(h):
            formed.append(h)
            return exp(h)

        return counted

    def counting_draw(self, idx, j):
        draws.append(len(idx))
        return draw(self, idx, j)

    monkeypatch.setattr(trajectories, "exponential", counting_exponential)
    monkeypatch.setattr(_Streams, "draw", counting_draw)
    applied, searched = count_products(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "band_gap.yaml"
    assert main(["trajectories", str(config), "--out", str(tmp_path / "bg.csv")]) == 0
    capsys.readouterr()
    assert not searched and not applied
    assert draws == [500]  # the thresholds; a jump would draw its channel
    assert formed == [0.1]  # the mean span of np.linspace(0, 20, 201)


def test_ensemble_carries_only_the_reachable_support(monkeypatch):
    gen, layout = band_gap_regularized()
    widths = set()
    exp, multiples = NoJumpPropagator.exp, NoJumpPropagator.multiples

    def recording_exp(self, dt):
        u = exp(self, dt)
        widths.update(u.shape)
        return u

    def recording_multiples(self, psi, k):
        widths.add(np.shape(psi)[-1])
        return multiples(self, psi, k)

    monkeypatch.setattr(NoJumpPropagator, "exp", recording_exp)
    monkeypatch.setattr(NoJumpPropagator, "multiples", recording_multiples)
    ens = mcwf_run(gen, basis_state(gen.sector, 1),
                   TrajectoryConfig(n_traj=40, seed=2, times=np.linspace(0.0, 4.0, 21)))
    assert ens.jump_counts.sum() > 0
    assert widths == {4}  # |e,0,0>, |g,1,0>, |g,0,1>, |g,0,0> of 18
    assert np.array_equal(ens.support, [0, 1, 3, 9])
    assert ens.mean_density.shape == (21, 4, 4)
    # the block holds the whole mean density: no population is left outside S
    tr = np.einsum("tii->t", ens.mean_density)
    np.testing.assert_allclose(tr.real, np.ones(21), atol=1e-10)


def test_memory_follows_the_support_not_the_space():
    # band_gap.yaml at fock_levels: 6, d = 2 * 7 * 7 = 98 and |S| = 4: one
    # (201, 98, 98) complex array alone would take 31 MB.
    layout = SpaceLayout(2, (6, 6))
    gen = build_generator(TLS, two_mode_regularize(build_discrete_modes(BAND_GAP, (1.0,))),
                          layout, excited(layout))
    cfg = TrajectoryConfig(n_traj=50, seed=7, times=np.linspace(0.0, 20.0, 201))
    tracemalloc.start()
    try:
        ens = mcwf_run(gen, basis_state(gen.sector, 1), cfg, observables={"ee": EE})
        jumps = ens.jump_counts.sum()  # the jumps are placed here
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jumps > 0
    assert ens.mean_density.shape == (201, 4, 4)
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_a_long_row_jumps_as_a_fine_grid_does():
    gen, layout = tls_generator()
    psi0 = basis_state(gen.sector, 1)
    fine = np.append(np.linspace(0.0, 20.0, 201), 1e6)
    cfg = dict(n_traj=40, seed=6)
    one_row = mcwf_run(gen, psi0, TrajectoryConfig(times=np.array([0.0, 1e6]), **cfg),
                       observables={"ee": EE})
    rows = mcwf_run(gen, psi0, TrajectoryConfig(times=fine, **cfg), observables={"ee": EE})
    assert np.array_equal(one_row.jump_counts, rows.jump_counts)
    assert one_row.jump_counts.sum() == 40  # every emitter has decayed
    for a, b in zip(one_row.jump_records, rows.jump_records):
        assert [ch for _, ch in a] == [ch for _, ch in b]
        # jump times are placed to JUMP_TIME_TOL relative to the row end
        assert all(abs(ta - tb) <= JUMP_TIME_TOL * 1e6 for (ta, _), (tb, _) in zip(a, b))
    assert one_row.observables["ee"][-1] == 0.0


def test_the_row_route_reads_rows_where_the_history_has_decayed_to_zero(monkeypatch):
    # Over rows of 1e3 and 1e6 the no-jump ket's squared norm underflows to
    # 0 once every trajectory has left it: the row route weighs it by no
    # trajectory.
    gen = ladder_generator()
    psi0 = basis_state(gen.sector, 2)
    times = np.array([0.0, 1e3, 1e6])
    psi = no_jump_history(NoJumpPropagator(gen.drift()).exp, psi0, times)
    assert not (np.abs(psi[1:]) ** 2).sum(axis=1).any()
    ens = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=40, seed=6, times=times),
                   observables={"ee": np.diag([0.0, 0.0, 1.0])})
    assert np.all(ens.jump_counts.sum(axis=1) == 2)  # every ladder has decayed
    assert np.array_equal(ens.observables["ee"], [1.0, 0.0, 0.0])
    assert np.isfinite(ens.mean_density).all() and ens.trace_error.max() <= 1e-14


def test_the_row_route_reads_rows_where_the_history_is_subnormal():
    # On a grid of unit rows the no-jump ket's squared norm passes through
    # subnormals, whose reciprocals overflow, before it reaches 0; every
    # trajectory has left it by then, so no row weighs it.
    gen = ladder_generator()
    psi0 = basis_state(gen.sector, 2)
    times = np.linspace(0.0, 1000.0, 1001)
    psi = no_jump_history(NoJumpPropagator(gen.drift()).exp, psi0, times)
    norm2 = (np.abs(psi) ** 2).sum(axis=1)
    assert np.any((norm2 > 0.0) & (norm2 < 1.0 / np.finfo(float).max))
    ens = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=40, seed=6, times=times),
                   observables={"ee": np.diag([0.0, 0.0, 1.0])})
    assert np.all(ens.jump_counts.sum(axis=1) == 2)
    assert np.isfinite(ens.observables["ee"]).all() and np.isfinite(ens.mean_density).all()
    assert ens.trace_error.max() <= 1e-14 and ens.top_fock.max() == 0.0


def test_zero_rate_channel_never_fires():
    gen, layout = band_gap_regularized()
    rates = [r for r, _ in gen.channels]
    assert rates[0] == 0.0 and rates[1] > 0.0
    t = np.linspace(0.0, 3.0, 16)
    ens = mcwf_run(gen, basis_state(gen.sector, 1),
                   TrajectoryConfig(n_traj=80, seed=2, times=t))
    assert ens.jump_counts.shape == (80, 2)
    assert np.all(ens.jump_counts[:, 0] == 0)
    assert ens.jump_counts[:, 1].sum() > 0


def test_jump_records_consistent_with_counts():
    gen, layout = tls_generator()
    t = np.linspace(0.0, 2.5, 26)
    ens = mcwf_run(gen, basis_state(gen.sector, 1),
                   TrajectoryConfig(n_traj=40, seed=9, times=t))
    assert isinstance(ens, EnsembleResult)
    assert ens.n_traj == 40
    for idx, records in enumerate(ens.jump_records):
        by_channel = Counter(ch for _, ch in records)
        for ch in range(ens.jump_counts.shape[1]):
            assert by_channel.get(ch, 0) == ens.jump_counts[idx, ch]
        times = [tj for tj, _ in records]
        assert all(0.0 < tj <= t[-1] for tj in times)
        assert all(b > a for a, b in zip(times, times[1:]))


def test_one_sided_generator_is_refused():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    layout = SpaceLayout(2, (2, 2))
    gen = build_generator(TLS, modes, layout, excited(layout))
    with pytest.raises(ClassificationError):
        mcwf_run(gen, basis_state(gen.sector, 1),
                 TrajectoryConfig(n_traj=1, seed=0, times=np.array([0.0, 1.0])))


def test_interaction_frame_only_rotates_the_recorded_states():
    modes = build_discrete_modes(BAND_GAP, (1.0,))
    reg = two_mode_regularize(modes)
    layout = SpaceLayout(2, (2, 2))
    cfg = TrajectoryConfig(n_traj=20, seed=3, times=np.linspace(0.0, 5.0, 11))
    obs = {"ee": EE, "coh": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)}
    schro, inter = (
        mcwf_run(gen, (basis_state(gen.sector, 0) + basis_state(gen.sector, 1)) / np.sqrt(2.0),
                 cfg, observables=obs)
        for gen in (build_generator(TLS, reg, layout, either(layout), frame=frame)
                    for frame in ("schrodinger", "interaction"))
    )
    assert sum(len(r) for r in schro.jump_records) > 0
    assert inter.jump_records == schro.jump_records
    assert np.abs(inter.observables["ee"] - schro.observables["ee"]).max() <= 1e-12
    # <0|rho_I|1> = e^{i (e_0 - e_1) t} <0|rho|1>: the free system phase is removed
    phase = np.exp(-1j * cfg.times)
    assert np.abs(schro.observables["coh"]).max() > 0.1
    np.testing.assert_allclose(inter.observables["coh"],
                               phase * schro.observables["coh"], atol=1e-12)


def test_initial_state_validation():
    gen, layout = tls_generator()
    cfg = TrajectoryConfig(n_traj=1, seed=0, times=np.array([0.0, 1.0]))
    with pytest.raises(InvalidModelError):
        mcwf_run(gen, 0.5 * basis_state(gen.sector, 1), cfg)
    with pytest.raises(InvalidModelError):
        mcwf_run(gen, np.ones(4) / 2.0, cfg)  # the sector holds 3 states
    with pytest.raises(InvalidModelError):
        mcwf_run(gen, basis_state(gen.sector, 1), cfg, observables={"x": np.ones((3, 3))})


def test_trajectory_config_validation():
    with pytest.raises(InvalidModelError):
        TrajectoryConfig(n_traj=0, seed=0, times=np.array([0.0, 1.0]))
    with pytest.raises(InvalidModelError):
        TrajectoryConfig(n_traj=5, seed=0, times=np.array([0.5, 1.0]))
    with pytest.raises(InvalidModelError):
        TrajectoryConfig(n_traj=5, seed=0, times=np.array([0.0, 1.0, 1.0]))


def test_mean_density_is_a_state():
    gen, layout = tls_generator()
    t = np.linspace(0.0, 2.0, 6)
    ens = mcwf_run(gen, basis_state(gen.sector, 1),
                   TrajectoryConfig(n_traj=50, seed=3, times=t))
    for rho in ens.mean_density:
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-10


def test_digit_bits_follow_the_sector():
    bits = {d: digit_bits(d) for d in (1, 3, 4, 11, 12, 22, 36, 37, 78, 105, 256)}
    assert bits == {1: 5, 3: 5, 4: 5, 11: 5, 12: 4, 22: 3, 36: 2, 37: 1, 78: 1,
                    105: 1, 256: 1}
    for d, b in bits.items():
        assert b == 1 or (2**b - 1) * d * d <= DIGIT_ENTRIES
        assert b == MAX_DIGIT_BITS or (2 ** (b + 1) - 1) * d * d > DIGIT_ENTRIES


def test_multiples_are_the_exponentials_of_the_multiples():
    gen, layout = band_gap_regularized()
    prop = NoJumpPropagator(gen.drift())
    rng = np.random.default_rng(3)
    kets = rng.standard_normal((5, gen.dim)) + 1j * rng.standard_normal((5, gen.dim))
    for k in (-34, -20, -3, 0):
        cand = prop.multiples(kets, k)
        assert cand.shape == (5, 2**prop.bits - 1, gen.dim)
        for p in range(1, 2**prop.bits):
            want = prop.apply(kets, math.ldexp(p, k))
            assert np.abs(cand[:, p - 1] - want).max() <= 1e-13 * max(1.0, p * 2.0**k)


def test_a_dropped_propagator_is_freed_at_once():
    gen, layout = band_gap_regularized()
    prop = NoJumpPropagator(gen.drift())
    prop.multiples(np.ones((1, gen.dim), dtype=complex), -3)
    alive = weakref.ref(prop)
    del prop
    # no reference cycle keeps it and its cached stacks until a collection
    assert alive() is None


def reference_jumps(gen, psi0, seed, idx, times):
    """The jumps of trajectory idx of an ensemble, walked alone: its own
    spawn_key stream, one ket, and a binary search of the jump lattice that
    tries the steps 2**j q, j from the top bit of n down, one product each."""
    prop = NoJumpPropagator(gen.drift())
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(idx,))))
    norm2 = lambda psi: float(np.vdot(psi, psi).real)
    channels = []  # each jump map as a dense S x S matrix
    for rate, (rows, cols, values) in gen.channels:
        op = np.zeros((gen.dim, gen.dim), dtype=complex)
        op[rows, cols] = values
        channels.append((rate, op))

    def jump(psi):
        weights = np.array([2.0 * rate * norm2(op @ psi) if rate > 0.0 else 0.0
                            for rate, op in channels])
        draw = rng.random() * weights.sum()
        ch = min(int(np.searchsorted(np.cumsum(weights), draw, side="right")),
                 len(weights) - 1)
        post = channels[ch][1] @ psi
        return post / math.sqrt(norm2(post)), ch, rng.random()

    eta, psi, jumps = rng.random(), psi0, []
    for t_lo, t_hi in zip(times[:-1].tolist(), times[1:].tolist()):
        dt = t_hi - t_lo
        end = prop.apply(psi, dt)
        if norm2(end) >= eta:
            psi = end
            continue
        e = math.frexp(JUMP_TIME_TOL * max(1.0, t_hi))[1] - 1
        n = math.floor(math.ldexp(dt, -e))
        rest = dt - math.ldexp(n, e)
        at = 0
        while True:
            below, ket = n + 1, psi
            for j in reversed(range(n.bit_length())):
                if at + 2**j < below:
                    cand = prop.apply(ket, math.ldexp(1.0, e + j))
                    if norm2(cand) >= eta:
                        at, ket = at + 2**j, cand
                    else:
                        below, ket_below = at + 2**j, cand
            if below <= n:
                psi, ch, eta = jump(ket_below)
                jumps.append((min(t_lo + math.ldexp(float(below), e), t_hi), ch))
                at = below
                continue
            end = ket if rest == 0.0 else prop.apply(ket, rest)
            if norm2(end) < eta:
                end, ch, eta = jump(end)
                jumps.append((t_hi, ch))
            psi = end
            break
    return tuple(jumps)


def jumps_of_the_binary_search(gen, psi0, times) -> int:
    """Check every jump record of 32 trajectories, seeds 1 ... 8, against
    ``reference_jumps``; the number of jumps."""
    total = 0
    for seed in range(1, 9):
        ens = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=32, seed=seed, times=times))
        for idx, rec in enumerate(ens.jump_records):
            assert rec == reference_jumps(gen, psi0, seed, idx, times), (seed, idx)
            total += len(rec)
    return total


@pytest.mark.parametrize("build, times", [
    (tls_generator, np.linspace(0.0, 2.5, 26)),
    (band_gap_regularized, np.linspace(0.0, 4.0, 21)),
])
def test_jumps_match_a_one_trajectory_binary_search(build, times):
    gen, layout = build()
    assert jumps_of_the_binary_search(gen, basis_state(gen.sector, 1), times) > 50


def test_row_route_jumps_match_a_one_trajectory_binary_search():
    # Two excitations: a trajectory jumps up to twice, and a second jump
    # draws past the first block of four words of its stream.
    gen = ladder_generator()
    assert jumps_of_the_binary_search(gen, basis_state(gen.sector, 2),
                                      np.linspace(0.0, 2.5, 26)) > 50


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 1, 2**200],
                         ids=["0", "7", "2**32-1", "2**32", "2**64+1", "2**200"])
def test_streams_are_numpys_philox_streams(seed):
    # Draws 0 ... 9 cross from the first block of four words into the
    # third, and seeds span one to seven uint32 words.
    streams = _Streams(seed, 601)
    idx, j = np.repeat(np.arange(601), 10), np.tile(np.arange(10), 601)
    draws = streams.draw(idx, j).reshape(601, 10)
    for i in range(601):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        assert draws[i].tolist() == [rng.random() for _ in range(10)], i
    # each draw stands alone: any order and any subset give the same numbers
    order = np.random.default_rng(seed % 2**32).permutation(idx.size)[:1000]
    assert np.array_equal(streams.draw(idx[order], j[order]), draws.reshape(-1)[order])


def test_mcwf_run_builds_no_numpy_random_stream(monkeypatch):
    ground, rows = tls_generator()[0], ladder_generator()
    runs = [(ground, basis_state(ground.sector, 1)), (rows, basis_state(rows.sector, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy random stream was built")

    for name in ("Generator", "Philox", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    for gen, psi0 in runs:
        ens = mcwf_run(gen, psi0, TrajectoryConfig(n_traj=50, seed=3,
                                                   times=np.linspace(0.0, 2.5, 26)))
        assert ens.jump_counts.sum() > 0
    assert ens.jump_counts.sum(axis=1).max() == 2  # a draw past the first block
