"""Markov chain tests.

The 4x4 partial-trace oracle for the amplitude normalization was verified
by hand: K = diag(sqrt(3/2), sqrt(1/2), sqrt(1/2), sqrt(3/2)) against
W = I/2 gives slice entries (3/2 + 1/2)/2 = 1 on the diagonal.
"""

import numpy as np
import pytest

from quasinv import cocycle, matcore, qmc, states
from quasinv.errors import NotCommutingChain, SingularCDA, SupportTooLarge
from quasinv.lattice import (
    LocalOperator,
    Window,
    cyclic_shift,
    embed,
    enumerate_group,
    extend_operator,
    identity_permutation,
    transposition,
)
from quasinv.qmc import (
    MarkovState,
    cda_normalize_check,
    chain_commutation_residual,
    diagonal_cda,
    extension_residual,
    markov_eval,
    markov_functional,
    ordered_product,
    sandwich_residual,
    seeded_chain,
    x_cocycle_commuting,
    x_cocycle_table,
    y_cocycle,
)
from quasinv.states import matrix_unit_probes

W_HALF = np.eye(2) / 2


def default_state(N=2, seed=0):
    return MarkovState(2, W_HALF, seeded_chain(N, seed=seed))


def test_cda_normalization_identity_amplitude():
    assert cda_normalize_check(np.eye(4), W_HALF) < 1e-14


def test_cda_normalization_diagonal_hand_value():
    K = np.diag([np.sqrt(1.5), np.sqrt(0.5), np.sqrt(0.5), np.sqrt(1.5)])
    assert cda_normalize_check(K, W_HALF) < 1e-12


def test_cda_normalization_scaling_breaks_it():
    K = 2.0 * np.eye(4)
    # slice of 4 K*K/4 ... scaled by 4: residual ||4 I - I|| = 3
    assert cda_normalize_check(K, W_HALF) == pytest.approx(3.0, abs=1e-12)


def test_seeded_chain_is_normalized():
    for K in seeded_chain(4, seed=3):
        assert cda_normalize_check(K, W_HALF) < 1e-12


def test_markov_state_rejects_unnormalized():
    with pytest.raises(SingularCDA):
        MarkovState(2, W_HALF, (2.0 * np.eye(4),))


def test_ordered_product_single():
    M = default_state(N=1, seed=1)
    R = ordered_product(M)
    assert np.allclose(R.matrix, M.chain[0])


def test_ordered_product_identity_chain():
    M = MarkovState(2, W_HALF, (np.eye(4), np.eye(4)))
    assert np.array_equal(ordered_product(M).matrix, np.eye(8))


def test_markov_eval_normalized():
    M = default_state(N=3, seed=5)
    a = Window(2, 3).identity()
    assert markov_eval(M, a) == pytest.approx(1.0, abs=1e-10)


def test_markov_eval_identity_chain_reduces_to_psi():
    M = MarkovState(2, W_HALF, (np.eye(4), np.eye(4)))
    w = Window(2, 2)
    for seed in range(3):
        a = LocalOperator(w, matcore.random_matrix(4, seed=seed))
        got = markov_eval(M, a)
        want = states.evaluate(states.homogeneous_state(2, 2, W_HALF), a)
        assert abs(got - want) < 1e-12


def test_markov_eval_rejects_oversized_support():
    M = default_state(N=2, seed=2)
    with pytest.raises(SupportTooLarge):
        markov_eval(M, Window(2, 3).identity())


def test_window_extension_invariance():
    M = default_state(N=2, seed=7)
    K_next = diagonal_cda(2, 0.05)
    probes = matrix_unit_probes(Window(2, 2))
    assert extension_residual(M, K_next, probes) < 1e-10


def test_window_extension_invariance_single_site_probe():
    M = default_state(N=1, seed=8)
    K_next = diagonal_cda(2, -0.1)
    a = embed(Window(2, 1), 1, np.diag([1.0, 0.0]))
    assert extension_residual(M, K_next, [a]) < 1e-10


def test_y_cocycle_identity_element():
    M = default_state(N=2, seed=9)
    y = y_cocycle(M, identity_permutation(2))
    assert matcore.operator_norm(y.matrix - np.eye(8)) < 1e-12


def test_y_cocycle_identity_chain():
    M = MarkovState(2, W_HALF, (np.eye(4), np.eye(4)))
    for g in enumerate_group(2):
        y = y_cocycle(M, g)
        assert matcore.operator_norm(y.matrix - np.eye(8)) < 1e-12


def test_y_cocycle_must_fix_boundary():
    M = default_state(N=2, seed=4)
    with pytest.raises(SupportTooLarge):
        y_cocycle(M, cyclic_shift(3))  # moves site 3, the boundary


def test_sandwich_identity_transposition():
    M = default_state(N=2, seed=11)
    probes = matrix_unit_probes(Window(2, 2))
    assert sandwich_residual(M, transposition(2, 1, 2), probes) < 1e-10


def test_sandwich_identity_full_group():
    M = default_state(N=2, seed=12)
    probes = matrix_unit_probes(Window(2, 2))
    for g in enumerate_group(2):
        assert sandwich_residual(M, g, probes) < 1e-10


def test_sandwich_identity_rotated_chain():
    # invertible non-diagonal chain: sandwich form is exact regardless
    th = 0.4
    U = np.kron(np.eye(2), np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    K1 = U @ diagonal_cda(2, 0.1) @ U.conj().T
    M = MarkovState(2, W_HALF, (K1,), validate=False)
    probes = matrix_unit_probes(Window(2, 1))
    assert sandwich_residual(M, identity_permutation(1), probes) < 1e-12


def test_x_cocycle_identity_element():
    M = default_state(N=2, seed=13)
    x = x_cocycle_commuting(M, identity_permutation(2))
    assert matcore.operator_norm(x.matrix - np.eye(8)) < 1e-12


def test_x_cocycle_homogeneous_chain_acts_trivially():
    # a homogeneous chain is exchange-invariant on [1,N]; the cocycle then
    # pairs trivially with every local observable (x itself still reshuffles
    # the boundary pair, so it need not be the identity matrix)
    from quasinv.lattice import act, extend

    K = diagonal_cda(2, 0.07)
    M = MarkovState(2, W_HALF, (K, K))
    phi = markov_functional(M)
    g = transposition(2, 1, 2)
    g_full = extend(g, 3)
    x = x_cocycle_commuting(M, g)
    for a in matrix_unit_probes(Window(2, 2)):
        a_full = extend_operator(a, M.window)
        inv_resid = abs(states.evaluate(phi, act(g_full, a_full)) - states.evaluate(phi, a_full))
        pair_resid = abs(states.evaluate(phi, x @ a_full) - states.evaluate(phi, a_full))
        assert inv_resid < 1e-12
        assert pair_resid < 1e-12


def test_x_cocycle_matches_y_squared():
    M = default_state(N=2, seed=14)
    for g in enumerate_group(2):
        x = x_cocycle_commuting(M, g)
        y = y_cocycle(M, g)
        yy = (y @ y.dagger()).matrix
        assert matcore.operator_norm(x.matrix - yy) < 1e-9


def test_x_cocycle_quasi_invariance():
    M = default_state(N=2, seed=15)
    phi = markov_functional(M)
    probes = [extend_operator(a, M.window) for a in matrix_unit_probes(Window(2, 2))]
    T = x_cocycle_table(M, enumerate_group(2))
    rep = cocycle.verify_quasi_invariance(phi, T, probes)
    assert rep.passed and rep.residual < 1e-9


def test_x_cocycle_passes_strong_suite():
    M = default_state(N=2, seed=16)
    phi = markov_functional(M)
    T = x_cocycle_table(M, enumerate_group(2))
    assert cocycle.verify_normalization(T).passed
    assert cocycle.verify_cocycle_law(T).residual < 1e-9
    rep = cocycle.verify_strong(T, phi)
    assert rep.passed
    assert rep.details["min_eig"] > 0


def test_x_cocycle_rejects_noncommuting_chain():
    th = 0.5
    U = np.kron(np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]), np.eye(2))
    K1 = U @ diagonal_cda(2, 0.1) @ U.conj().T
    K2 = diagonal_cda(2, -0.15)
    M = MarkovState(2, W_HALF, (K2, K1), validate=False)
    assert chain_commutation_residual(M) > 1e-3
    with pytest.raises(NotCommutingChain):
        x_cocycle_commuting(M, transposition(2, 1, 2))


def test_markov_functional_trace_one():
    M = default_state(N=3, seed=17)
    D = qmc.markov_density(M)
    assert abs(np.trace(D) - 1.0) < 1e-10
