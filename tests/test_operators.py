"""Algebra and basis-contract tests for the operator layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim.errors import ConfigError
from pairsim.operators import (
    HilbertSpace,
    annihilation,
    atom_lowering,
    embed,
    phonon_lowering,
    photon_lowering,
    sigma_minus,
)


def dense(op):
    return np.asarray(op.todense())


def test_annihilation_matrix_elements():
    a = dense(annihilation(3))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    expected[2, 3] = np.sqrt(3.0)
    assert_allclose(a, expected)


def test_truncated_commutator_has_top_defect():
    # [a, a^dag] on a truncated mode is I - (levels+1)|top><top|
    for levels in (1, 2, 5, 9):
        a = dense(annihilation(levels))
        ad = a.conj().T
        comm = a @ ad - ad @ a
        top = np.zeros((levels + 1, levels + 1))
        top[levels, levels] = 1.0
        expected = np.eye(levels + 1) - (levels + 1) * top
        assert_allclose(comm, expected, atol=1e-12)


def test_number_is_creation_times_annihilation():
    for levels in (2, 6):
        a = dense(annihilation(levels))
        assert_allclose(a.conj().T @ a, np.diag(np.arange(levels + 1.0)), atol=1e-12)


def test_annihilation_rejects_trivial_truncation():
    with pytest.raises(ConfigError):
        annihilation(0)


def test_two_level_algebra():
    sm = dense(sigma_minus())
    sp_ = sm.conj().T
    # sigma+ sigma- is the excited-state projector in the (g, e) ordering
    assert_allclose(sp_ @ sm, np.diag([0.0, 1.0]), atol=0)
    assert_allclose(sm @ sp_, np.diag([1.0, 0.0]), atol=0)
    assert_allclose(sm + sp_, np.array([[0, 1], [1, 0]], dtype=complex), atol=0)
    assert_allclose(sm @ sm, np.zeros((2, 2)), atol=0)


def test_space_dimensions():
    space = HilbertSpace(5, 5)
    assert space.dim == 72
    assert space.mode_dim == 36
    assert HilbertSpace(2, 7).dim == 2 * 3 * 8


def test_space_rejects_degenerate_truncation():
    with pytest.raises(ConfigError):
        HilbertSpace(0, 5)
    with pytest.raises(ConfigError):
        HilbertSpace(5, -1)


def test_index_label_roundtrip():
    space = HilbertSpace(3, 4)
    seen = set()
    for i in range(space.dim):
        s, n, m = space.label(i)
        assert space.index(s, n, m) == i
        seen.add((s, n, m))
    assert len(seen) == space.dim


def test_index_ordering_contract():
    # atom slowest, phonon fastest
    space = HilbertSpace(2, 3)
    assert space.index(0, 0, 0) == 0
    assert space.index(0, 0, 1) == 1
    assert space.index(0, 1, 0) == space.n_m + 1
    assert space.index(1, 0, 0) == space.mode_dim


def test_index_bounds_checked():
    space = HilbertSpace(2, 2)
    with pytest.raises(IndexError):
        space.index(0, 3, 0)
    with pytest.raises(IndexError):
        space.index(2, 0, 0)
    with pytest.raises(IndexError):
        space.label(space.dim)


def test_mode_value_tables_match_labels():
    space = HilbertSpace(4, 2)
    nvals = space.photon_values()
    mvals = space.phonon_values()
    for i in range(space.dim):
        _, n, m = space.label(i)
        assert nvals[i] == n
        assert mvals[i] == m


def test_embedded_numbers_are_diagonal_value_tables():
    space = HilbertSpace(3, 2)
    photon = embed(space, photon_op=np.diag(np.arange(space.n_c + 1.0)))
    phonon = embed(space, phonon_op=np.diag(np.arange(space.n_m + 1.0)))
    assert_allclose(np.diag(dense(photon)).real, space.photon_values(), atol=0)
    assert_allclose(np.diag(dense(phonon)).real, space.phonon_values(), atol=0)


def test_embedded_lowering_actions():
    space = HilbertSpace(3, 3)
    a = dense(photon_lowering(space))
    b = dense(phonon_lowering(space))
    sm = dense(atom_lowering(space))

    ket = np.zeros(space.dim)
    ket[space.index(1, 2, 1)] = 1.0

    out = a @ ket
    assert_allclose(out[space.index(1, 1, 1)], np.sqrt(2.0))
    assert np.count_nonzero(out) == 1

    out = b @ ket
    assert_allclose(out[space.index(1, 2, 0)], 1.0)
    assert np.count_nonzero(out) == 1

    out = sm @ ket
    assert_allclose(out[space.index(0, 2, 1)], 1.0)
    assert np.count_nonzero(out) == 1


def test_embedded_operators_commute_across_subsystems():
    rng = np.random.default_rng(11)
    space = HilbertSpace(2, 3)
    a = dense(photon_lowering(space))
    b = dense(phonon_lowering(space))
    sm = dense(atom_lowering(space))
    for x, y in ((a, b), (a, sm), (b, sm)):
        assert_allclose(x @ y, y @ x, atol=1e-14)
    # and a random pair of single-mode operators embedded separately
    op_c = rng.standard_normal((space.n_c + 1,) * 2)
    op_m = rng.standard_normal((space.n_m + 1,) * 2)
    x = dense(embed(space, photon_op=op_c))
    y = dense(embed(space, phonon_op=op_m))
    assert_allclose(x @ y, y @ x, atol=1e-12)
    assert_allclose(x @ y, dense(embed(space, photon_op=op_c, phonon_op=op_m)), atol=1e-12)


def test_embed_rejects_wrong_shapes():
    space = HilbertSpace(2, 2)
    with pytest.raises(ConfigError):
        embed(space, photon_op=annihilation(4))
    with pytest.raises(ConfigError):
        embed(space, atom_op=annihilation(2))
    with pytest.raises(ConfigError, match=r"phonon operator must be 3x3, got \(2, 2\)"):
        embed(space, phonon_op=sigma_minus())
