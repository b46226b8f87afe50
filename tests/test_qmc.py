"""Markov chain tests.

The 4x4 partial-trace oracle for the amplitude normalization was verified
by hand: K = diag(sqrt(3/2), sqrt(1/2), sqrt(1/2), sqrt(3/2)) against
W = I/2 gives slice entries (3/2 + 1/2)/2 = 1 on the diagonal.

A MarkovState builds its chain product R, R^-1 and the density R Psi R*
once.  The former per-element rebuilds of R, R^-1, the density, y_g and
x_g are kept in tests/oracles.py; on D <= 16 they agree exactly.
"""

import numpy as np
import pytest

from quasinv import cocycle, lattice, matcore, qmc, states
from quasinv.errors import NotCommutingChain, SingularCDA, SupportTooLarge
from quasinv.lattice import (
    LocalOperator,
    Window,
    enumerate_group,
    extend,
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
    markov_functional,
    sandwich_residual,
    seeded_chain,
    x_cocycle_table,
    y_cocycle,
)
from quasinv.states import matrix_unit_probes

from oracles import (
    cyclic_shift, generic_chain, markov_eval, rebuilt_chain_product, rebuilt_markov_density, rebuilt_x,
    rebuilt_y,
)

W_HALF = np.eye(2) / 2


def default_state(N=2, seed=0):
    return MarkovState(2, W_HALF, seeded_chain(N, seed=seed))


def test_cda_normalization_identity_amplitude():
    assert cda_normalize_check(np.eye(4), W_HALF) < 1e-14


def test_cda_normalization_diagonal_hand_value():
    K = np.diag([np.sqrt(1.5), np.sqrt(0.5), np.sqrt(0.5), np.sqrt(1.5)])
    assert cda_normalize_check(K, W_HALF) < 1e-12


@pytest.mark.parametrize("delta", [0.5, 0.7, -1.5, -2.0])
def test_diagonal_cda_refuses_a_detuning_without_a_positive_square(delta):
    # beta^2 = 1/2 - delta or alpha^2 = 3/2 + delta at or below 0
    with pytest.raises(SingularCDA):
        diagonal_cda(2, delta)


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
    assert np.allclose(M.R.matrix, M.chain[0])


def test_ordered_product_identity_chain():
    M = MarkovState(2, W_HALF, (np.eye(4), np.eye(4)))
    assert np.array_equal(M.R.matrix, np.eye(8))


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
    assert extension_residual(M, K_next) < 1e-10


def test_window_extension_invariance_single_site():
    M = default_state(N=1, seed=8)
    K_next = diagonal_cda(2, -0.1)
    assert extension_residual(M, K_next) < 1e-10


def test_y_cocycle_identity_element():
    M = default_state(N=2, seed=9)
    y = y_cocycle(M, [identity_permutation(2)])
    assert y.shape == (1, 8, 8)
    assert matcore.operator_norm(y[0] - np.eye(8)) < 1e-12


def test_y_cocycle_identity_chain():
    M = MarkovState(2, W_HALF, (np.eye(4), np.eye(4)))
    for y in y_cocycle(M, enumerate_group(2)):
        assert matcore.operator_norm(y - np.eye(8)) < 1e-12


def test_y_cocycle_must_fix_boundary():
    M = default_state(N=2, seed=4)
    with pytest.raises(SupportTooLarge):
        y_cocycle(M, [identity_permutation(3), cyclic_shift(3)])  # moves site 3, the boundary
    with pytest.raises(SupportTooLarge):
        y_cocycle(M, [identity_permutation(4)])  # more sites than the window has


def test_sandwich_identity_transposition():
    M = default_state(N=2, seed=11)
    assert sandwich_residual(M, [transposition(2, 1, 2)])[0] < 1e-10


def test_sandwich_identity_full_group():
    M = default_state(N=2, seed=12)
    r = sandwich_residual(M, enumerate_group(2))
    assert r.shape == (2,) and r.max() < 1e-10


def test_sandwich_identity_rotated_chain():
    # invertible non-diagonal chain: sandwich form is exact regardless
    th = 0.4
    U = np.kron(np.eye(2), np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    K1 = U @ diagonal_cda(2, 0.1) @ U.conj().T
    M = MarkovState(2, W_HALF, (K1,), validate=False)
    assert sandwich_residual(M, [identity_permutation(1)])[0] < 1e-12


def test_x_cocycle_identity_element():
    M = default_state(N=2, seed=13)
    x = x_cocycle_table(M, enumerate_group(2)).entry(identity_permutation(3))
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
    x = x_cocycle_table(M, enumerate_group(2)).entry(g_full)
    for a in matrix_unit_probes(Window(2, 2)):
        a_full = extend_operator(a, M.window)
        inv_resid = abs(states.evaluate(phi, act(g_full, a_full)) - states.evaluate(phi, a_full))
        pair_resid = abs(states.evaluate(phi, x @ a_full) - states.evaluate(phi, a_full))
        assert inv_resid < 1e-12
        assert pair_resid < 1e-12


def test_x_cocycle_matches_y_squared():
    M = default_state(N=2, seed=14)
    T = x_cocycle_table(M, enumerate_group(2))
    for g, y in zip(enumerate_group(2), y_cocycle(M, enumerate_group(2))):
        x = T.entry(extend(g, 3))
        assert matcore.operator_norm(x.matrix - y @ y.conj().T) < 1e-9


def test_x_cocycle_quasi_invariance():
    M = default_state(N=2, seed=15)
    phi = markov_functional(M)
    T = x_cocycle_table(M, enumerate_group(2))
    rep = cocycle.verify_quasi_invariance(phi, T)
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
        x_cocycle_table(M, enumerate_group(2))


def test_markov_functional_trace_one():
    M = default_state(N=3, seed=17)
    D = M.density
    assert abs(np.trace(D) - 1.0) < 1e-10


# ---- the chain against the former per-element rebuilds ----------------------

@pytest.mark.parametrize("N", [1, 2, 3])
def test_chain_attributes_equal_the_per_element_rebuilds(N):
    for M in (default_state(N, seed=20 + N), generic_chain(N, seed=N)):
        R = rebuilt_chain_product(M).matrix
        assert np.array_equal(M.R.matrix, R)
        assert np.array_equal(M.R_inv.matrix, matcore.inv(R))
        assert np.array_equal(M.density, rebuilt_markov_density(M))
        assert np.array_equal(markov_functional(M).W, rebuilt_markov_density(M))
        for g, y in zip(enumerate_group(N), y_cocycle(M, enumerate_group(N))):
            assert np.array_equal(y, rebuilt_y(M, g).matrix)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_x_table_equals_the_per_element_rebuild(N):
    M = default_state(N, seed=30 + N)
    T = x_cocycle_table(M, enumerate_group(N))
    for g in enumerate_group(N):
        assert np.array_equal(T.entry(extend(g, N + 1)).matrix, rebuilt_x(M, g).matrix)


def test_chain_is_built_once_per_state(monkeypatch):
    M = default_state(N=3, seed=18)
    calls = {"embed_pair": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qmc, "embed_pair", counted("embed_pair", qmc.embed_pair))
    monkeypatch.setattr(matcore, "inv", counted("inv", matcore.inv))
    y_cocycle(M, enumerate_group(3))
    sandwich_residual(M, enumerate_group(3))
    markov_functional(M)
    assert calls == {"embed_pair": 3, "inv": 1}
    assert M.R is M.R and M.R_inv is M.R_inv and M.density is M.density


def test_sandwich_residual_reads_the_y_it_is_given():
    M = default_state(N=2, seed=19)
    g = [transposition(2, 1, 2)]
    y = y_cocycle(M, g)
    assert sandwich_residual(M, g, y=y) == sandwich_residual(M, g)
    assert sandwich_residual(M, g, y=1.01 * y) > 1e-3


def test_singular_chain_product_raises_singular_cda():
    M = MarkovState(2, W_HALF, (np.diag([1.0, 1.0, 1.0, 0.0]),), validate=False)
    with pytest.raises(SingularCDA):
        M.R_inv
    with pytest.raises(SingularCDA):
        y_cocycle(M, [identity_permutation(1)])


def test_markov_scenario_builds_three_chains(tmp_path, monkeypatch):
    # the state, its one-site extension and the K*K chain of the table;
    # each chain of N amplitudes embeds N pairs, the commutation check N more;
    # one pass over the group forms each y_g once, a block of them a call
    from quasinv import cli

    calls, ys = [], []
    monkeypatch.setattr(qmc, "embed_pair", lambda w, n, K: calls.append(n) or lattice.embed_pair(w, n, K))
    monkeypatch.setattr(qmc, "y_cocycle", lambda M, sub, y=qmc.y_cocycle: ys.extend(sub) or y(M, sub))
    n = 4
    assert cli.main(["run", "--scenario", "markov", "--n-sites", str(n),
                     "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 4 * n + 1
    assert len(ys) == len(enumerate_group(n))  # each y_g formed once
