"""Cyclic representation, gram geometry, and the covariant unitaries.

Where a test reads a D^2 x D^2 matrix (the gram, pi(a), U_g as a matrix) it
reads it from the dense oracle in tests/oracles.py and ties it to the
factored representation.
"""

import numpy as np
import pytest

from quasinv import cocycle, gns, matcore, states
from quasinv.cocycle import CocycleTable
from quasinv.errors import NotFaithful, NotPositive, NotStrongCocycle
from quasinv.lattice import LocalOperator, Window, act, enumerate_group

from oracles import (
    DenseGns, anchor_state, anchor_table, case_table, lift_conditional_expectation, matrix_power,
    orthonormal_form, outcome, per_entry_unitaries, seeded_diagonal_S3, state_value, unvec,
)

TOL = 1e-9
EXACT = 1e-12

# hand-worked two-site anchor: weights diag(1/2,1/2) and diag(3/4,1/4)
X_T = np.diag([1.0, 3.0, 1.0 / 3.0, 1.0])
S_T = np.diag([1.0, np.sqrt(3.0), 1.0 / np.sqrt(3.0), 1.0])


def gram_of(R):
    """The gram matrix <vec(e_k), vec(e_l)> read off the factored inner product."""
    units = [unvec(v, R.D) for v in np.eye(R.dim)]
    return np.array([[R.inner(u, v) for v in units] for u in units])


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(gns.vec(m), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vec_unvec_round_trip():
    m = matcore.random_matrix(4, seed=7)
    assert np.array_equal(unvec(gns.vec(m), 4), m)


def test_gram_single_site_hand_values():
    phi = states.product_state(2, [np.diag([2.0 / 3.0, 1.0 / 3.0])])
    R = gns.build_gns(phi)
    expected = np.diag([2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    assert np.max(np.abs(DenseGns(phi).gram - expected)) < EXACT
    assert np.max(np.abs(gram_of(R) - expected)) < EXACT


def test_gram_tracial_state_is_scaled_identity():
    phi = states.product_state(2, [np.eye(2) / 2.0, np.eye(2) / 2.0])
    R = gns.build_gns(phi)
    assert np.max(np.abs(DenseGns(phi).gram - np.eye(16) / 4.0)) < EXACT
    assert np.max(np.abs(gram_of(R) - np.eye(16) / 4.0)) < EXACT


def test_cyclic_vector_reproduces_state():
    phi = anchor_state()
    R = gns.build_gns(phi)
    for a in states.matrix_unit_probes(phi.window):
        got = state_value(R, a)
        want = states.evaluate(phi, a)
        assert abs(got - want) < EXACT


def test_cyclic_vector_reproduces_state_seeded():
    for seed in range(5):
        phi = seeded_diagonal_S3(seed)
        R = gns.build_gns(phi)
        for k in range(10):
            a = LocalOperator(phi.window, matcore.random_hermitian(8, seed=seed * 97 + k))
            assert abs(state_value(R, a) - states.evaluate(phi, a)) < 1e-10


def test_pi_is_multiplicative():
    # pi(a) vec(b) = vec(a b): the factored pi(a) is a itself
    dense = DenseGns(anchor_state())
    a = matcore.random_matrix(4, seed=1)
    b = matcore.random_matrix(4, seed=2)
    assert matcore.operator_norm(dense.pi(a @ b) - dense.pi(a) @ dense.pi(b)) < EXACT
    assert np.max(np.abs(dense.pi(a) @ gns.vec(b) - gns.vec(a @ b))) < EXACT


def test_gram_adjoint_of_pi_is_pi_of_dagger():
    # <pi(a) b, c> = <b, pi(a*) c>
    phi = anchor_state()
    R, dense = gns.build_gns(phi), DenseGns(phi)
    a = matcore.random_matrix(4, seed=3)
    assert matcore.operator_norm(dense.adjoint(dense.pi(a)) - dense.pi(a.conj().T)) < EXACT
    b = matcore.random_matrix(4, seed=4)
    c = matcore.random_matrix(4, seed=5)
    assert abs(R.inner(a @ b, c) - R.inner(b, a.conj().T @ c)) < EXACT


def test_inner_product_is_positive_definite():
    R = gns.build_gns(anchor_state())
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(10):
        u = unvec(rng.normal(size=16) + 1j * rng.normal(size=16), 4)
        val = R.inner(u, u)
        assert abs(val.imag) < EXACT
        assert val.real > 0


def test_inner_product_matches_state_pairing():
    # <vec(a), vec(b)> = phi(a* b)
    phi = anchor_state()
    R = gns.build_gns(phi)
    a = matcore.random_matrix(4, seed=5)
    b = matcore.random_matrix(4, seed=6)
    got = R.inner(a, b)
    want = states.evaluate(phi, LocalOperator(phi.window, a.conj().T @ b))
    assert abs(got - want) < EXACT


def test_build_gns_rejects_unfaithful_state():
    window = Window(2, 1)
    phi = states.WeightedTraceState(window, np.diag([1.0, 0.0]), validate=False)
    with pytest.raises(NotFaithful):
        gns.build_gns(phi)


def test_cyclicity_rank_is_full():
    R = gns.build_gns(anchor_state())
    assert gns.cyclicity_rank(R) == 16


def test_unitary_identity_element_is_identity():
    phi = anchor_state()
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, anchor_table())
    e = enumerate_group(2)[0] if enumerate_group(2)[0].is_identity() else enumerate_group(2)[1]
    assert matcore.operator_norm(U[e.image].s.matrix - np.eye(4)) < EXACT
    assert matcore.operator_norm(DenseGns(phi).unitaries(anchor_table())[e.image] - np.eye(16)) < EXACT


def test_unitary_action_on_cyclic_vector_hand_values():
    # U_t vec(1) = vec(t(1) x_t^(1/2)) = vec(S_T)
    phi = anchor_state()
    R, dense = gns.build_gns(phi), DenseGns(phi)
    U = gns.build_unitaries(R, anchor_table())
    t = next(g for g in enumerate_group(2) if not g.is_identity())
    assert np.max(np.abs(U[t.image](phi.window.identity()).matrix - S_T)) < EXACT
    got = dense.unitaries(anchor_table())[t.image] @ dense.Phi
    assert np.max(np.abs(got - gns.vec(S_T))) < EXACT


def test_unitary_matches_defining_action():
    # U_g vec(a) = vec(g(a) x_{g^-1}^(1/2)) on every matrix unit
    phi = anchor_state()
    R = gns.build_gns(phi)
    T = anchor_table()
    U = gns.build_unitaries(R, T)
    U_dense = DenseGns(phi).unitaries(T)
    for g in T.group:
        s = matrix_power(T.entries[g.inverse().image].matrix, 0.5)
        for a in states.matrix_unit_probes(phi.window):
            rhs = act(g, a).matrix @ s
            assert np.max(np.abs(U[g.image](a).matrix - rhs)) < EXACT
            assert np.max(np.abs(U_dense[g.image] @ gns.vec(a.matrix) - gns.vec(rhs))) < EXACT


def nearly_strong(T, changes):
    """T with entry k set to diag(1e-13, 1, ..., 1), positive below the floor TAU_ABS ("floor"), or
    moved off hermitean by 5e-10 max(1, ||x_k||) above its diagonal ("skew"): each passes the strong
    screen at GNS_TOL and fails the square root's own rule."""
    stack = T.stack.copy()
    for k, kind in changes:
        if kind == "floor":
            stack[k] = np.diag(np.r_[1e-13, np.ones(len(stack[k]) - 1)])
        else:
            stack[k, 0, 1] += 5e-10 * max(1.0, matcore.operator_norm(stack[k]))
    return CocycleTable(T.group, stack, T.window)


@pytest.mark.parametrize("name", ["blocked:product-d2-S3", "blocked:product-d2-S5-D32"])
def test_the_square_roots_name_the_first_failing_entry_in_inverse_order(name):
    # one stacked eigh a block or one an entry: the same error, on one entry the hermiticity rule
    # before the floor, within a block and across blocks (S_5 at D 32: eight rows a block)
    phi, T = case_table(name)
    R, n = gns.build_gns(phi), len(T.group)
    pairs = [(a, b) for a in range(n) for b in range(n)] if n < 24 else [(1, 2), (2, 1), (3, 100), (100, 3),
                                                                          (7, 8), (50, 50)]
    raised = set()
    for a, b in pairs:
        for changes in ([(a, "skew"), (b, "floor")], [(a, "floor"), (b, "skew")]):
            got = outcome(gns.build_unitaries, R, nearly_strong(T, changes))
            assert got == outcome(per_entry_unitaries, R, nearly_strong(T, changes))
            raised.add(got[0])
    assert raised == {matcore.NotHermitian, NotPositive}


def test_unitary_suite_two_sites():
    R = gns.build_gns(anchor_state())
    U = gns.build_unitaries(R, anchor_table())
    out = gns.verify_unitaries(R, U, anchor_table().group)
    assert out["pass"]
    assert out["residual"] < TOL


def test_covariance_two_sites():
    phi = anchor_state()
    R = gns.build_gns(phi)
    T = anchor_table()
    U = gns.build_unitaries(R, T)
    out = gns.verify_covariance(R, U, T.group, states.matrix_unit_probes(phi.window))
    assert out["pass"]
    assert out["residual"] < TOL


def test_unitary_suite_three_sites_seeded():
    for seed in range(3):
        phi = seeded_diagonal_S3(seed)
        group = enumerate_group(3)
        T = cocycle.product_state_cocycle(phi, group)
        R = gns.build_gns(phi)
        U = gns.build_unitaries(R, T)
        out = gns.verify_unitaries(R, U, group)
        assert out["pass"], f"seed {seed}: {out}"
        cov = gns.verify_covariance(R, U, group, states.matrix_unit_probes(phi.window))
        assert cov["pass"], f"seed {seed}: {cov}"


def test_lifted_expectation_matches_algebra_average():
    phi = anchor_state()
    R = gns.build_gns(phi)
    T = anchor_table()
    U = gns.build_unitaries(R, T)
    out = gns.verify_lifted_expectation(R, U, T.group, states.matrix_unit_probes(phi.window))
    assert out["pass"]
    assert out["residual"] < TOL


def test_lifted_expectation_is_projective():
    # averaging over the full group absorbs a prior average over a subgroup
    phi = seeded_diagonal_S3(4)
    group = enumerate_group(3)
    T = cocycle.product_state_cocycle(phi, group)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    sub = [g for g in group if g(3) == 3]
    assert len(sub) == 2
    lift_sub = lift_conditional_expectation(R, U, sub)
    lift_all = lift_conditional_expectation(R, U, group)
    X = matcore.random_matrix(64, seed=21)
    lhs = lift_all(lift_sub(X))
    rhs = lift_all(X)
    assert matcore.operator_norm(lhs - rhs) < TOL


def test_lifted_expectation_fixes_invariants():
    R = gns.build_gns(anchor_state())
    T = anchor_table()
    U = gns.build_unitaries(R, T)
    lifted = lift_conditional_expectation(R, U, T.group)
    X = lifted(matcore.random_matrix(16, seed=8))
    assert matcore.operator_norm(lifted(X) - X) < TOL


def test_build_unitaries_rejects_nonhermitian_table():
    phi = anchor_state()
    R = gns.build_gns(phi)
    group = enumerate_group(2)
    kappa = np.eye(4) + np.diag([0.4, 0.3, 0.2], k=1)
    T = cocycle.trivial_cocycle(LocalOperator(phi.window, kappa), group)
    t = next(g for g in group if not g.is_identity())
    assert matcore.herm_defect(T.entries[t.image].matrix) > 1e-3
    with pytest.raises(NotStrongCocycle):
        gns.build_unitaries(R, T)


def test_build_unitaries_rejects_nonpositive_table():
    phi = anchor_state()
    window = phi.window
    R = gns.build_gns(phi)
    group = enumerate_group(2)
    e = next(g for g in group if g.is_identity())
    t = next(g for g in group if not g.is_identity())
    entries = {
        e.image: LocalOperator(window, np.eye(4)),
        t.image: LocalOperator(window, np.diag([1.0, -1.0, 1.0, 1.0])),
    }
    T = CocycleTable(tuple(group), entries, window)
    with pytest.raises(NotStrongCocycle):
        gns.build_unitaries(R, T)


def test_orthonormal_form_makes_unitaries_standard():
    phi = anchor_state()
    R = gns.build_gns(phi)
    T = anchor_table()
    U = DenseGns(phi).unitaries(T)
    for g in T.group:
        V = orthonormal_form(R, U[g.image])
        assert matcore.operator_norm(V.conj().T @ V - np.eye(16)) < TOL


def test_orthonormal_form_is_multiplicative():
    R = gns.build_gns(anchor_state())
    A = matcore.random_matrix(16, seed=9)
    B = matcore.random_matrix(16, seed=10)
    lhs = orthonormal_form(R, A @ B)
    rhs = orthonormal_form(R, A) @ orthonormal_form(R, B)
    assert matcore.operator_norm(lhs - rhs) < 1e-10
