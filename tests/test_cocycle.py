"""Cocycle constructor and verification tests.

Anchor values for d=2, N=2 with W1 = diag(1/2,1/2), W2 = diag(3/4,1/4) and
the transposition t = (1 2) were computed by hand and are frozen below:

    x_t   = diag(3/2,1/2) (x) diag(2/3,2) = diag(1, 3, 1/3, 1)
    kappa = (x_e + x_t)/2               = diag(1, 2, 2/3, 1)
    x_t . t(x_t) = 1
    W = diag(2/3,1/3), z = [[0,1],[1,0]]  ->  x = W^-1 z = [[0,3/2],[3,0]]
"""

import numpy as np
import pytest

from quasinv import cocycle, matcore, states
from quasinv.errors import (
    GroupNotClosed,
    NotHermitianZ,
    NotInCentralizer,
    SingularKappa,
)
from quasinv.cocycle import (
    CocycleTable,
    check_SW,
    locally_trivial_check,
    power_relation_check,
    product_state_cocycle,
    solve_SW,
    trivial_cocycle,
    verify_centralizer_transport,
    verify_cocycle_law,
    verify_inverse_relation,
    verify_normalization,
    verify_quasi_invariance,
    verify_strong,
)
from quasinv.lattice import (
    LocalOperator,
    Window,
    act,
    embed,
    enumerate_group,
    support,
    transposition,
)
from quasinv.states import product_state

from oracles import (
    OrderExceeded, anchor_state, anchor_table, cyclic_shift, propagate_single_generator, seeded_dense_S3,
    sign_table,
)

W1 = np.diag([0.5, 0.5])
W2 = np.diag([0.75, 0.25])
X_T = np.diag([1.0, 3.0, 1.0 / 3.0, 1.0])
KAPPA = np.diag([1.0, 2.0, 2.0 / 3.0, 1.0])


def diag_density(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    p = 0.2 + 0.6 * rng.random()
    return np.diag([p, 1.0 - p])


def test_anchor_entry_frozen():
    T = anchor_table()
    t = transposition(2, 1, 2)
    assert np.allclose(T.entry(t).matrix, X_T, atol=1e-13)
    assert np.allclose(T.entry(t).matrix, np.kron(np.diag([1.5, 0.5]), np.diag([2.0 / 3.0, 2.0])), atol=1e-13)


def test_anchor_inverse_relation_is_diagonal_product():
    T = anchor_table()
    rep = verify_inverse_relation(T)
    assert rep.passed and rep.residual < 1e-12


def test_anchor_laws():
    T = anchor_table()
    assert verify_normalization(T).residual < 1e-13
    assert verify_cocycle_law(T).residual < 1e-12


def test_identity_weights_give_identity_cocycle():
    phi = product_state(2, [W1, W1, W1])
    T = product_state_cocycle(phi, enumerate_group(3))
    for g, x in T:
        assert np.allclose(x.matrix, np.eye(8), atol=1e-13)


def test_seeded_tables_pass_all_laws():
    for seed in range(3):
        phi = seeded_dense_S3(seed)
        T = product_state_cocycle(phi, enumerate_group(3))
        assert verify_normalization(T).passed
        assert verify_cocycle_law(T).residual < 1e-9
        assert verify_inverse_relation(T).residual < 1e-9


def test_quasi_invariance_anchor():
    phi = anchor_state()
    T = anchor_table()
    rep = verify_quasi_invariance(phi, T)
    assert rep.passed
    assert rep.residual < 1e-11
    assert rep.details["normalization"] < 1e-12


def test_quasi_invariance_seeded_S3():
    phi = seeded_dense_S3(1)
    T = product_state_cocycle(phi, enumerate_group(3))
    rep = verify_quasi_invariance(phi, T)
    assert rep.passed and rep.residual < 1e-10


def test_quasi_invariance_planted_defect_detected():
    phi = anchor_state()
    T = anchor_table()
    t = transposition(2, 1, 2)
    entries = dict(T.entries)
    bad = entries[t.image].matrix.copy()
    bad[0, 0] += 1e-3
    entries[t.image] = LocalOperator(T.window, bad)
    T_bad = CocycleTable(T.group, entries, T.window)
    rep = verify_quasi_invariance(phi, T_bad)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.residual > 1e-4


@pytest.mark.parametrize("complex_entry", [True, False])
def test_positivity_defect_on_the_last_basis_index_is_detected(complex_entry):
    # W = diag(3/8, 1/8, 3/8, 1/8), so W x_t = diag(3/8, 1/8, 3/8, -1/8) is
    # negative only on basis index 3; a complex x_t takes the complex path
    phi = anchor_state()
    group = enumerate_group(2)
    t = transposition(2, 1, 2)
    entries = {g.image: phi.window.identity() for g in group}
    dtype = complex if complex_entry else float
    x_t = np.diag(np.array([1.0, 1.0, 1.0, -1.0], dtype=dtype))
    entries[t.image] = LocalOperator(phi.window, x_t)
    T = CocycleTable(tuple(group), entries, phi.window)
    rep = verify_quasi_invariance(phi, T)
    assert rep.details["positivity_defect"] == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert not rep.passed


def test_wrong_identity_table_fails_against_heterogeneous_state():
    phi = anchor_state()
    I_table = CocycleTable(
        tuple(enumerate_group(2)),
        {g.image: phi.window.identity() for g in enumerate_group(2)},
        phi.window,
    )
    rep = verify_quasi_invariance(phi, I_table)
    assert not rep.passed


def test_normalization_planted_defect():
    T = anchor_table()
    entries = dict(T.entries)
    e = T.group[0]
    entries[e.image] = LocalOperator(T.window, 2.0 * np.eye(4))
    T_bad = CocycleTable(T.group, entries, T.window)
    rep = verify_normalization(T_bad)
    assert not rep.passed
    assert rep.residual == pytest.approx(1.0, abs=1e-12)


def test_cocycle_law_requires_closure():
    T = anchor_table()
    t = transposition(2, 1, 2)
    entries = {k: v for k, v in T.entries.items() if k != t.image}
    T_open = CocycleTable((T.group[0], t), T.entries, T.window)
    # group containing t but with its square present: closure ok; now drop entry
    with pytest.raises(GroupNotClosed):
        T_missing = CocycleTable((T.group[0], t), entries, T.window)
        verify_cocycle_law(T_missing)
    assert verify_cocycle_law(T_open).passed


def test_strong_bundle_diagonal_weights():
    phi = product_state(2, [diag_density(s) for s in (11, 12, 13)])
    T = product_state_cocycle(phi, enumerate_group(3))
    rep = verify_strong(T, phi)
    assert rep.passed
    assert rep.details["hermiticity"] < 1e-10
    assert rep.details["commutators"] < 1e-10
    assert rep.details["centralizer"] < 1e-9
    assert rep.details["min_eig"] > 0


def test_strong_fails_for_rotated_weight_but_qi_holds():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    W2_rot = R @ np.diag([0.75, 0.25]) @ R.T
    phi = product_state(2, [np.diag([0.7, 0.3]), W2_rot])
    T = product_state_cocycle(phi, enumerate_group(2))
    strong = verify_strong(T, phi)
    assert not strong.passed
    assert strong.details["hermiticity"] > 1e-3
    qi = verify_quasi_invariance(phi, T)
    assert qi.passed and qi.residual < 1e-10


def reference_cocycle(phi, W_inf, group):
    """The oracle: the product-state cocycle written against a homogeneous
    reference weight, x_g = (prod_{n in supp g} j_n(F_n^-1)) g^-1(prod j_n(F_n))
    with F_n = W_inf^-1 W_n.  The reference factors cancel on the support."""
    window = phi.window
    F = [np.linalg.inv(W_inf) @ W for W in phi.weights]
    entries = {}
    for g in group:
        x = window.identity()
        y = window.identity()
        for n in sorted(support(g)):
            x = x @ embed(window, n, np.linalg.inv(F[n - 1]))
            y = y @ embed(window, n, F[n - 1])
        entries[g.image] = x @ act(g.inverse(), y)
    return CocycleTable(group, entries, window)


def test_reference_cocycle_cancels_to_product_form():
    phi = seeded_dense_S3(2)
    G = enumerate_group(3)
    T_ref = reference_cocycle(phi, np.eye(2) / 2, G)
    T_prod = product_state_cocycle(phi, G)
    for g in G:
        diff = matcore.operator_norm(T_ref.entry(g).matrix - T_prod.entry(g).matrix)
        assert diff < 1e-10


def test_reference_cocycle_homogeneous_is_identity():
    W = diag_density(5)
    phi = product_state(2, [W, W, W])
    T = reference_cocycle(phi, W, enumerate_group(3))
    for g, x in T:
        assert matcore.operator_norm(x.matrix - np.eye(8)) < 1e-12


def test_trivial_cocycle_anchor_kappa():
    w = Window(2, 2)
    kap = LocalOperator(w, KAPPA)
    T = trivial_cocycle(kap, enumerate_group(2))
    t = transposition(2, 1, 2)
    assert np.allclose(T.entry(t).matrix, X_T, atol=1e-13)
    assert verify_cocycle_law(T).passed


def test_trivial_cocycle_identity_kappa():
    w = Window(2, 2)
    T = trivial_cocycle(w.identity(), enumerate_group(2))
    for g, x in T:
        assert np.array_equal(x.matrix, np.eye(4))


def test_trivial_cocycle_random_kappa_S3():
    w = Window(2, 3)
    kap = LocalOperator(w, matcore.random_matrix(8, seed=9) + 4.0 * np.eye(8))
    T = trivial_cocycle(kap, enumerate_group(3))
    assert verify_normalization(T).passed
    assert verify_cocycle_law(T).residual < 1e-9 * T.scale()


def test_trivial_cocycle_non_normal_kappa_breaks_hermiticity():
    w = Window(2, 2)
    kap_m = np.eye(4) + np.triu(np.ones((4, 4)), k=1)
    T = trivial_cocycle(LocalOperator(w, kap_m), enumerate_group(2))
    assert verify_cocycle_law(T).passed
    phi = anchor_state()
    rep = verify_strong(T, phi)
    assert rep.details["hermiticity"] > 1e-3
    assert not rep.passed


def test_trivial_cocycle_rejects_singular_kappa():
    w = Window(2, 1)
    with pytest.raises(SingularKappa):
        trivial_cocycle(LocalOperator(w, np.diag([1.0, 0.0])), enumerate_group(1))


def test_solve_SW_hand_values():
    W = np.diag([2.0 / 3.0, 1.0 / 3.0])
    z = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = solve_SW(W, z)
    assert np.allclose(x, [[0.0, 1.5], [3.0, 0.0]], atol=1e-14)
    ok, resid, z_back = check_SW(W, x)
    assert ok and resid < 1e-14
    assert np.allclose(z_back, z, atol=1e-14)


def test_solve_SW_z_equals_W_gives_identity():
    W = matcore.random_density(3, 0.1, seed=17)
    x = solve_SW(W, W)
    assert np.allclose(x, np.eye(3), atol=1e-12)


def test_solve_SW_rejects_non_hermitian_z():
    with pytest.raises(NotHermitianZ):
        solve_SW(np.eye(2) / 2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_SW_hermitian_iff_z_commutes():
    W = np.diag([2.0 / 3.0, 1.0 / 3.0])
    z_comm = np.diag([0.4, 0.6])
    x = solve_SW(W, z_comm)
    assert matcore.herm_defect(x) < 1e-14
    z_rot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert matcore.operator_norm(z_rot @ W - W @ z_rot) > 0.1
    x2 = solve_SW(W, z_rot)
    assert matcore.herm_defect(x2) > 0.1


def test_propagate_identity_seed():
    w = Window(2, 3)
    T = propagate_single_generator(w.identity(), cyclic_shift(3), 3)
    for g, x in T:
        assert matcore.operator_norm(x.matrix - np.eye(8)) < 1e-12


def test_propagate_matches_product_cocycle():
    phi = product_state(2, [diag_density(s) for s in (3, 4, 5)])
    g0 = cyclic_shift(3)
    T_full = product_state_cocycle(phi, enumerate_group(3))
    T_cyc = propagate_single_generator(T_full.entry(g0), g0, 3)
    for g, x in T_cyc:
        ref = T_full.entry(g).matrix
        assert matcore.operator_norm(x.matrix - ref) < 1e-10


def test_propagate_two_step_direct():
    phi = anchor_state()
    g0 = transposition(2, 1, 2)
    T_full = product_state_cocycle(phi, enumerate_group(2))
    x0 = T_full.entry(g0)
    T = propagate_single_generator(x0, g0, 2)
    from quasinv.lattice import act
    expected = (x0 @ act(g0.inverse(), x0)).matrix
    e = [g for g in T.group if g.is_identity()][0]
    assert np.allclose(T.entry(e).matrix, expected, atol=1e-13)
    assert matcore.operator_norm(expected - np.eye(4)) < 1e-12


def test_propagate_order_cap():
    w = Window(2, 2)
    with pytest.raises(OrderExceeded):
        propagate_single_generator(w.identity(), transposition(2, 1, 2), 3)


def test_power_relation_anchor():
    T = anchor_table()
    rep = power_relation_check(T)
    assert rep.passed and rep.residual < 1e-10


def test_power_relation_reduces_to_inverse_at_s1():
    T = anchor_table()
    r_pow = power_relation_check(T, s_list=(1.0,))
    r_inv = verify_inverse_relation(T)
    assert abs(r_pow.residual - r_inv.residual) < 1e-12


def test_centralizer_transport_with_cocycle_entry():
    phi = product_state(2, [diag_density(s) for s in (21, 22)])
    T = product_state_cocycle(phi, enumerate_group(2))
    t = transposition(2, 1, 2)
    rep = verify_centralizer_transport(phi, T, T.entry(t))
    assert rep.passed and rep.residual < 1e-10


def test_centralizer_transport_identity_x():
    phi = anchor_state()
    T = anchor_table()
    rep = verify_centralizer_transport(phi, T, phi.window.identity())
    assert rep.residual < 1e-12


def test_centralizer_transport_rejects_outsiders():
    phi = anchor_state()
    T = anchor_table()
    c = LocalOperator(phi.window, np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(NotInCentralizer):
        verify_centralizer_transport(phi, T, c)


def test_locally_trivial_roundtrip_trivial_cocycle():
    w = Window(2, 3)
    kap_m = np.diag(1.0 + 0.3 * np.arange(8))
    T = trivial_cocycle(LocalOperator(w, kap_m), enumerate_group(3))
    reports = locally_trivial_check(T, [2, 3])
    for rep in reports:
        assert rep.passed and rep.residual < 1e-9


def test_locally_trivial_product_cocycle_diagonal():
    phi = product_state(2, [diag_density(s) for s in (31, 32, 33)])
    T = product_state_cocycle(phi, enumerate_group(3))
    reports = locally_trivial_check(T, [2, 3])
    for rep in reports:
        assert rep.passed and rep.residual < 1e-9
    assert reports[0].details["subgroup_order"] == 2
    assert reports[1].details["subgroup_order"] == 6


def test_locally_trivial_on_a_singular_average_raises_singular_kappa():
    T = sign_table(2)  # x_e = 1, x_t = -1
    assert verify_cocycle_law(T).passed
    assert locally_trivial_check(T, [1])[0].passed  # the subgroup {e} averages to 1
    with pytest.raises(SingularKappa, match=r"^the mean of the 2 entries is singular: no certificate$"):
        locally_trivial_check(T, [2])
    # a proper subgroup, {e, (1 2)} in S_3, then the whole S_3
    with pytest.raises(SingularKappa, match=r"^the mean of the 2 entries is singular: no certificate$"):
        locally_trivial_check(sign_table(3), [2])
    with pytest.raises(SingularKappa, match=r"^the mean of the 6 entries is singular: no certificate$"):
        locally_trivial_check(sign_table(3), [3])


def test_entries_supported_on_moved_sites_only():
    phi = product_state(2, [diag_density(s) for s in (41, 42, 43)])
    T = product_state_cocycle(phi, enumerate_group(3))
    t12 = transposition(3, 1, 2)
    x = T.entry(t12).matrix
    # site 3 untouched: x = y (x) I_2 for some 4x4 y
    y = x[::2, ::2]
    assert matcore.operator_norm(x - np.kron(y, np.eye(2))) < 1e-12
