"""Tensor-space layout, sectors and their product blocks, partial traces, and eigenoperators."""

import numpy as np
import pytest

from pseudomodes import (
    InvalidModelError,
    Sector,
    SpaceLayout,
    SystemSpec,
    basis_state,
    destroy,
    eigenoperator,
    expectation,
    vacuum_embedding,
)
from pseudomodes.hilbert import LADDER

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def loop_partial_trace(rho, layout):
    """Index-by-index partial trace, independent of the einsum under test."""
    dims = layout.dims
    d_s = dims[0]
    out = np.zeros((d_s, d_s), dtype=complex)
    full = rho.reshape(dims + dims)
    mode_ranges = [range(n) for n in dims[1:]]
    import itertools
    for a in range(d_s):
        for b in range(d_s):
            for idx in itertools.product(*mode_ranges):
                out[a, b] += full[(a,) + idx + (b,) + idx]
    return out


def test_destroy_matrix_elements():
    b = destroy(3)
    assert b.shape == (4, 4)
    for n in range(1, 4):
        assert b[n - 1, n] == pytest.approx(np.sqrt(n))
    # canonical commutator holds except in the truncated corner
    comm = b @ b.conj().T - b.conj().T @ b
    np.testing.assert_allclose(np.diag(comm)[:-1], np.ones(3), atol=1e-15)
    assert comm[3, 3] == pytest.approx(-3.0)


def test_layout_dimensions():
    layout = SpaceLayout(2, (2, 3))
    assert layout.dims == (2, 3, 4)
    assert layout.dim == 24
    assert layout.n_modes == 2


def test_layout_validation():
    with pytest.raises(InvalidModelError):
        SpaceLayout(1, (2,))
    with pytest.raises(InvalidModelError):
        SpaceLayout(2, (0,))


def full_sector(layout):
    """The sector of every label: the whole product space."""
    return Sector(layout, np.ndindex(*layout.dims))


def sector_of(layout, support):
    """The sector of the basis states with product-space indices ``support``."""
    return Sector(layout, zip(*np.unravel_index(support, layout.dims)))


def test_embed_factors_commute():
    # factor operators embedded as blocks of the every-label sector
    full = full_sector(SpaceLayout(2, (2, 2)))
    s = full.operator(SX)
    b1 = full.operator({1: destroy(2)})
    b2 = full.operator({2: destroy(2)})
    assert np.abs(s @ b1 - b1 @ s).max() < 1e-15
    assert np.abs(b1 @ b2 - b2 @ b1).max() < 1e-15


def kron_chain(layout, factor, op):
    """Explicit I (x) ... (x) op (x) ... (x) I, one np.kron per factor."""
    out = np.array([[1.0 + 0.0j]])
    for i, d in enumerate(layout.dims):
        out = np.kron(out, op if i == factor else np.eye(d, dtype=complex))
    return out


def test_embed_system_matches_kron():
    full = full_sector(SpaceLayout(2, (1, 2)))
    assert np.array_equal(full.operator(SX), np.kron(SX, np.eye(2 * 3)))
    # three factors: every one of them against the explicit kron chain
    layout3 = SpaceLayout(3, (1, 2, 3))
    full3 = full_sector(layout3)
    rng = np.random.default_rng(8)
    for factor, d in enumerate(layout3.dims):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(full3.operator({factor: op}), kron_chain(layout3, factor, op))


def test_mode_ops_against_kron():
    full = full_sector(SpaceLayout(2, (2, 1)))
    expected = np.kron(np.eye(2 * 3), destroy(1))
    assert np.array_equal(full.operator({2: destroy(1)}), expected)
    assert np.array_equal(full.operator({2: destroy(1).conj().T}), expected.conj().T)
    layout3 = SpaceLayout(3, (1, 2, 3))
    full3 = full_sector(layout3)
    for l, n_max in enumerate(layout3.fock_levels):
        b = destroy(n_max)
        expected = kron_chain(layout3, 1 + l, b)
        assert np.array_equal(full3.operator({1 + l: b}), expected)
        assert np.array_equal(full3.operator({1 + l: b.conj().T}), expected.conj().T)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(5)
    layout = SpaceLayout(3, (1, 2))
    rho = random_density(rng, layout.dim)
    np.testing.assert_allclose(
        full_sector(layout).reduced(rho), loop_partial_trace(rho, layout), atol=1e-13
    )
    # A sparse S: the state lives on an S x S block and is read from it alone.
    support = np.array([0, 2, 5, 7, 8, 13, 16])
    block = random_density(rng, support.size)
    rho = np.zeros((layout.dim, layout.dim), dtype=complex)
    rho[np.ix_(support, support)] = block
    np.testing.assert_allclose(
        sector_of(layout, support).reduced(block), loop_partial_trace(rho, layout), atol=1e-13
    )


def test_partial_trace_of_product_state():
    layout = SpaceLayout(2, (2,))
    rng = np.random.default_rng(6)
    rho_s = random_density(rng, 2)
    rho = np.kron(rho_s, np.diag([0.2, 0.3, 0.5]).astype(complex))
    np.testing.assert_allclose(full_sector(layout).reduced(rho), rho_s, atol=1e-14)


def test_sector_operator_is_the_block_of_the_embedding():
    layout = SpaceLayout(3, (1, 2))
    rng = np.random.default_rng(9)
    support = np.array([1, 4, 6, 10, 11, 17])
    sector = sector_of(layout, support)
    assert np.array_equal(sector.support, support)
    assert np.array_equal(sector.labels, np.transpose(np.unravel_index(support, layout.dims)))
    block = np.ix_(support, support)
    sys_op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mode_op = rng.normal(size=(3, 3))  # real, as the ladder operators are
    assert np.array_equal(sector.operator(sys_op), kron_chain(layout, 0, sys_op)[block])
    # a product over two factors is the block of the product of their embeddings
    product = kron_chain(layout, 0, sys_op) @ kron_chain(layout, 2, mode_op)
    assert np.array_equal(sector.operator({0: sys_op, 2: mode_op}), product[block])
    assert np.array_equal(sector.operator({}), np.eye(layout.dim)[block])
    # ladder moves, read off the labels: the blocks of destroy and its products
    full = full_sector(layout)
    every = np.ix_(range(layout.dim), range(layout.dim))
    b1, b2 = destroy(1), destroy(2)
    for move, op in (("b", b2), ("b^dag", b2.conj().T), ("b^dag b", b2.conj().T @ b2)):
        want = kron_chain(layout, 2, op)
        for part, rows in ((sector, block), (full, every)):
            assert np.array_equal(part.operator({2: move}), want[rows]), move
            product = kron_chain(layout, 0, sys_op) @ want
            assert np.array_equal(part.operator({0: sys_op, 2: move}), product[rows]), move
    hop = kron_chain(layout, 1, b1.conj().T) @ kron_chain(layout, 2, b2)
    assert np.array_equal(full.operator({1: "b^dag", 2: "b"}), hop)
    assert np.array_equal(sector.operator({1: "b^dag", 2: "b"}), hop[block])
    for bad in (np.eye(4), {1: np.eye(3)}, {3: np.eye(2)}, {0: "b"}, {1: "b b"}, {3: "b"}):
        with pytest.raises(InvalidModelError):
            sector.operator(bad)


def test_sector_moves_are_the_nonzeros_of_the_kron_product():
    # Seeded: random sectors, which are not closed, and random system
    # matrices with zeros, through each ladder move on a mode.  The moves are
    # exactly the nonzero entries of the dense Kronecker product on S x S,
    # one per entry; a move to a label outside S is dropped.
    rng = np.random.default_rng(20261020)
    layout = SpaceLayout(3, (2, 1))
    left = 0
    for _ in range(30):
        support = np.sort(rng.choice(layout.dim, size=int(rng.integers(3, 13)), replace=False))
        sector, outside = sector_of(layout, support), np.setdiff1d(np.arange(layout.dim), support)
        sys_op = ((rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                  * (rng.random((3, 3)) < 0.6))
        for move in LADDER:
            mode = int(rng.integers(1, 3))
            b = destroy(layout.fock_levels[mode - 1])
            op = {"b": b, "b^dag": b.conj().T, "b^dag b": b.conj().T @ b}[move]
            dense = kron_chain(layout, 0, sys_op) @ kron_chain(layout, mode, op)
            rows, cols, values = sector.moves({0: sys_op, mode: move})
            want_rows, want_cols = np.nonzero(dense[np.ix_(support, support)])
            assert sorted(zip(cols, rows)) == sorted(zip(want_cols, want_rows)), move
            assert np.array_equal(values, dense[support[rows], support[cols]]), move
            left += np.count_nonzero(dense[np.ix_(outside, support)])
    assert left > 0


def test_vacuum_embedding_and_basis_state():
    layout = SpaceLayout(2, (2, 2))
    full = full_sector(layout)
    rho_s = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    rho = vacuum_embedding(full, rho_s)
    vacuum = np.zeros((3, 3))
    vacuum[0, 0] = 1.0
    assert np.array_equal(rho, np.kron(np.kron(rho_s, vacuum), vacuum))
    np.testing.assert_allclose(full.reduced(rho), rho_s, atol=1e-15)
    psi = basis_state(full, 1)
    assert psi[np.flatnonzero(psi)[0]] == 1.0
    np.testing.assert_allclose(
        np.outer(psi, psi.conj()), vacuum_embedding(full, np.diag([0.0, 1.0])), atol=1e-15
    )
    # on a sector: the rows of its vacuum labels, and a refusal for a missing one
    sector = Sector(layout, [(1, 0, 0), (0, 1, 0), (0, 0, 0)])
    np.testing.assert_allclose(sector.reduced(vacuum_embedding(sector, rho_s)), rho_s,
                               atol=1e-15)
    assert np.array_equal(basis_state(sector, 1), [0, 0, 1])
    with pytest.raises(InvalidModelError, match=r"levels \[1\]"):
        vacuum_embedding(Sector(layout, [(0, 0, 0), (1, 1, 0)]), rho_s)


def test_basis_state_fock_indices():
    layout = SpaceLayout(2, (2, 2))
    psi = basis_state(full_sector(layout), 0, fock=(1, 2))
    rho = np.outer(psi, psi.conj())
    diag = np.real(np.diag(rho)).reshape(layout.dims)
    assert diag[0, 1, 2] == pytest.approx(1.0)
    for level, fock in ((0, (1, 1)), (0, (3, 0)), (2, (0, 0)), (0, (0,))):
        with pytest.raises(InvalidModelError):
            basis_state(Sector(layout, [(0, 1, 2)]), level, fock)


def test_top_fock_populations():
    layout = SpaceLayout(2, (1, 2))
    full = full_sector(layout)
    psi = basis_state(full, 0, fock=(1, 0))
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(full.top_fock(np.diag(rho).real), [1.0, 0.0], atol=1e-15)
    # on a sector: |0; 0, 2>, |0; 1, 0> and |1; 1, 2> with populations .3, .5, .2
    sector = Sector(layout, [(0, 0, 2), (0, 1, 0), (1, 1, 2)])
    np.testing.assert_allclose(sector.top_fock(np.array([0.3, 0.5, 0.2])), [0.7, 0.5],
                               atol=1e-15)


def test_expectation_equals_trace():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 4)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert expectation(rho, op) == pytest.approx(complex(np.trace(op @ rho)), abs=1e-13)


def test_eigenoperator_two_level():
    system = SystemSpec(
        energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,), strengths=(1.0,)
    )
    c = eigenoperator(system, 0)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-15)


def test_eigenoperator_collects_degenerate_gaps():
    # equally spaced ladder: both n -> n+1 transitions share the gap
    obs = np.ones((3, 3), dtype=complex)
    system = SystemSpec(
        energies=(0.0, 1.0, 2.0), observables=(obs,), frequencies=(1.0,), strengths=(1.0,)
    )
    c = eigenoperator(system, 0)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-15)


def test_eigenoperator_requires_weight_on_gap():
    system = SystemSpec(
        energies=(0.0, 1.0),
        observables=(np.diag([0.0, 1.0]).astype(complex),),
        frequencies=(1.0,),
        strengths=(1.0,),
    )
    with pytest.raises(InvalidModelError):
        eigenoperator(system, 0)


def test_system_spec_validation():
    with pytest.raises(InvalidModelError):
        # frequency matches no level gap
        SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(0.5,), strengths=(1.0,))
    with pytest.raises(InvalidModelError):
        # coupling operator must be Hermitian
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        SystemSpec(energies=(0.0, 1.0), observables=(bad,), frequencies=(1.0,), strengths=(1.0,))
    with pytest.raises(InvalidModelError):
        SystemSpec(energies=(0.0, 1.0), observables=(SX,), frequencies=(1.0,), strengths=(-1.0,))
    with pytest.raises(InvalidModelError):
        SystemSpec(energies=(0.0,), observables=(), frequencies=(), strengths=())


def test_system_spec_bare_hamiltonian():
    system = SystemSpec(
        energies=(0.0, 1.5), observables=(SX,), frequencies=(1.5,), strengths=(1.0,)
    )
    np.testing.assert_allclose(system.bare_hamiltonian, np.diag([0.0, 1.5]), atol=1e-15)
