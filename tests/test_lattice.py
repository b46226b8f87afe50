"""Window, embedding, and permutation-action tests.

Kronecker layouts are checked against explicit hand-written matrices and a
direct np.kron oracle.  The action, an index gather, is checked against the
defining conjugation identity P_g j_n(b) P_g* = j_{g(n)}(b) and bit for bit
against conjugation by the dense permutation unitary P_g, the oracle kept in
tests/oracles.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasinv import lattice, matcore
from quasinv.errors import GroupTooLarge, SiteOutOfRange, SizeMismatch
from quasinv.lattice import (
    LocalOperator,
    Permutation,
    Window,
    act,
    embed,
    embed_pair,
    enumerate_group,
    identity_permutation,
    support,
    transposition,
)

from oracles import cyclic_shift, permutation_unitary


def test_embed_site1_diagonal():
    w = Window(2, 2)
    a = embed(w, 1, np.diag([2.0, 3.0]))
    assert np.allclose(a.matrix, np.diag([2.0, 2.0, 3.0, 3.0]))


def test_embed_site2_diagonal():
    w = Window(2, 2)
    a = embed(w, 2, np.diag([2.0, 3.0]))
    assert np.allclose(a.matrix, np.diag([2.0, 3.0, 2.0, 3.0]))


def test_embed_identity_block():
    w = Window(2, 3)
    assert np.array_equal(embed(w, 2, np.eye(2)).matrix, np.eye(8))


def test_embed_site_out_of_range():
    w = Window(2, 2)
    with pytest.raises(SiteOutOfRange):
        embed(w, 3, np.eye(2))


def test_embed_pair_single_window():
    w = Window(2, 2)
    K = matcore.random_matrix(4, seed=4)
    assert np.array_equal(embed_pair(w, 1, K).matrix, K)


def test_embed_pair_identity():
    w = Window(2, 3)
    assert np.array_equal(embed_pair(w, 2, np.eye(4)).matrix, np.eye(8))


def test_embed_pair_refuses_a_pair_past_the_window():
    w = Window(2, 3)
    for n in (0, 3):
        with pytest.raises(SiteOutOfRange):
            embed_pair(w, n, np.eye(4))
    with pytest.raises(SizeMismatch):
        embed_pair(w, 1, np.eye(2))


def test_embed_pair_against_kron_oracle():
    w = Window(2, 3)
    K = np.diag([1.0, 2.0, 3.0, 4.0])
    got = embed_pair(w, 2, K).matrix
    oracle = np.kron(np.eye(2), K)
    assert np.array_equal(got, oracle)
    # and on the leading pair
    got1 = embed_pair(w, 1, K).matrix
    assert np.array_equal(got1, np.kron(K, np.eye(2)))


def test_embed_products_on_disjoint_sites_commute():
    w = Window(2, 3)
    a = embed(w, 1, matcore.random_matrix(2, seed=1))
    b = embed(w, 3, matcore.random_matrix(2, seed=2))
    assert np.allclose((a @ b).matrix, (b @ a).matrix)


def test_permutation_validation():
    with pytest.raises(SizeMismatch):
        Permutation((1, 1, 3))


def test_permutation_inverse_and_compose():
    g = Permutation((2, 3, 1))
    assert g.inverse().image == (3, 1, 2)
    assert (g * g.inverse()).is_identity()
    h = Permutation((2, 1, 3))
    # (g h)(n) = g(h(n))
    gh = g * h
    assert gh.image == tuple(g(h(n)) for n in [1, 2, 3])


def test_support():
    assert support(identity_permutation(3)) == frozenset()
    assert support(transposition(3, 1, 2)) == {1, 2}
    assert support(cyclic_shift(3)) == {1, 2, 3}


def test_enumerate_group_sizes():
    assert [g.image for g in enumerate_group(1)] == [(1,)]
    assert len(enumerate_group(3)) == 6
    g4 = enumerate_group(4)
    assert len(g4) == 24
    assert g4[0].is_identity()
    # lexicographic order of image tuples
    assert [g.image for g in g4[:3]] == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)]


def test_enumerate_group_cap():
    with pytest.raises(GroupTooLarge):
        enumerate_group(7)


def test_permutation_unitary_identity():
    w = Window(2, 2)
    assert np.array_equal(permutation_unitary(identity_permutation(2), w), np.eye(4))


def test_permutation_unitary_swap():
    w = Window(2, 2)
    P = permutation_unitary(transposition(2, 1, 2), w)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    assert np.array_equal(P.real, swap)


def test_permutation_unitary_moves_sites():
    w = Window(2, 3)
    g = cyclic_shift(3)
    b = matcore.random_matrix(2, seed=6)
    P = permutation_unitary(g, w)
    for n in [1, 2, 3]:
        rhs = embed(w, g(n), b).matrix
        assert matcore.operator_norm(act(g, embed(w, n, b)).matrix - rhs) < 1e-12
        assert matcore.operator_norm(P @ embed(w, n, b).matrix @ P.conj().T - rhs) < 1e-12


def test_permutation_unitary_group_law_exact():
    w = Window(2, 3)
    G = enumerate_group(3)
    for g in G:
        for h in G:
            Pg = permutation_unitary(g, w)
            Ph = permutation_unitary(h, w)
            Pgh = permutation_unitary(g * h, w)
            assert np.array_equal(Pg @ Ph, Pgh)


def test_permutation_unitary_adjoint_is_inverse_exact():
    w = Window(2, 3)
    for g in enumerate_group(3):
        P = permutation_unitary(g, w)
        Pinv = permutation_unitary(g.inverse(), w)
        assert np.array_equal(P.conj().T, Pinv)


@pytest.mark.parametrize("d, N", [(2, 4), (3, 3)])
def test_act_is_bit_identical_to_dense_conjugation(d, N):
    w = Window(d, N)
    dim = w.total_dim
    a = LocalOperator(w, matcore.random_matrix(dim, seed=31 + d))
    for g in enumerate_group(N):
        P = permutation_unitary(g, w)
        assert np.array_equal(act(g, a).matrix, P @ a.matrix @ P.conj().T), g.image


def test_act_rejects_a_permutation_of_another_size():
    with pytest.raises(SizeMismatch):
        act(cyclic_shift(3), Window(2, 2).identity())


def test_act_is_group_action():
    w = Window(2, 3)
    a = LocalOperator(w, matcore.random_matrix(8, seed=15))
    g = Permutation((2, 3, 1))
    h = Permutation((2, 1, 3))
    lhs = act(g * h, a).matrix
    rhs = act(g, act(h, a)).matrix
    assert matcore.operator_norm(lhs - rhs) < 1e-12


def test_act_is_homomorphism_on_products():
    w = Window(2, 3)
    a = LocalOperator(w, matcore.random_matrix(8, seed=5))
    b = LocalOperator(w, matcore.random_matrix(8, seed=55))
    g = cyclic_shift(3)
    lhs = act(g, a @ b).matrix
    rhs = (act(g, a) @ act(g, b)).matrix
    assert matcore.operator_norm(lhs - rhs) < 1e-11


def test_act_preserves_spectrum():
    w = Window(2, 3)
    H = LocalOperator(w, matcore.random_hermitian(8, seed=21))
    g = Permutation((3, 1, 2))
    lam_before = np.linalg.eigvalsh(H.matrix)
    lam_after = np.linalg.eigvalsh(act(g, H).matrix)
    assert np.allclose(lam_before, lam_after, atol=1e-10)


def test_window_cap():
    with pytest.raises(SizeMismatch):
        Window(2, 13)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_act_embedding_relation_property(data):
    N = data.draw(st.integers(2, 4))
    img = data.draw(st.permutations(list(range(1, N + 1))))
    g = Permutation(tuple(img))
    n = data.draw(st.integers(1, N))
    seed = data.draw(st.integers(0, 1000))
    w = Window(2, N)
    b = matcore.random_matrix(2, seed=seed)
    lhs = act(g, embed(w, n, b)).matrix
    rhs = embed(w, g(n), b).matrix
    assert matcore.operator_norm(lhs - rhs) < 1e-12
