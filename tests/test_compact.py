"""Group averaging, conditional expectations, and the structure theorem."""

import numpy as np
import pytest

from quasinv import cocycle, compact, matcore, qmc, states
from quasinv.errors import (
    NotFaithful,
    NotInvariantBase,
    NotNested,
    NotStrongCocycle,
    SingularKappa,
)
from quasinv.lattice import LocalOperator, Window, act, enumerate_group, extend

from oracles import anchor_state, anchor_table, nonuniqueness_demo, seeded_diagonal_S3

TOL = 1e-9
EXACT = 1e-12

KAPPA_HAND = np.diag([1.0, 2.0, 2.0 / 3.0, 1.0])
X_T = np.diag([1.0, 3.0, 1.0 / 3.0, 1.0])


def s2_in_s3():
    return [g for g in enumerate_group(3) if g(3) == 3]


def test_haar_average_identity():
    window = Window(2, 2)
    a = LocalOperator(window, np.eye(4))
    out = compact.haar_average(enumerate_group(2), a)
    assert np.array_equal(out.matrix, np.eye(4))


def test_haar_average_hand_values():
    window = Window(2, 2)
    a = LocalOperator(window, np.diag([1.0, 2.0, 3.0, 4.0]))
    out = compact.haar_average(enumerate_group(2), a)
    assert np.max(np.abs(out.matrix - np.diag([1.0, 2.5, 2.5, 4.0]))) < EXACT


def test_haar_average_fixes_invariants():
    window = Window(2, 3)
    group = enumerate_group(3)
    a = LocalOperator(window, matcore.random_hermitian(8, seed=3))
    fixed = compact.haar_average(group, a)
    again = compact.haar_average(group, fixed)
    assert matcore.operator_norm(again.matrix - fixed.matrix) < EXACT


def test_haar_average_two_sided_invariance():
    window = Window(2, 3)
    group = enumerate_group(3)
    a = LocalOperator(window, matcore.random_matrix(8, seed=4))
    Ea = compact.haar_average(group, a)
    for h in group:
        left = act(h, Ea)
        assert matcore.operator_norm(left.matrix - Ea.matrix) < EXACT
        moved = compact.haar_average(group, act(h, a))
        assert matcore.operator_norm(moved.matrix - Ea.matrix) < EXACT


def test_haar_average_is_norm_one_projection():
    window = Window(2, 2)
    group = enumerate_group(2)
    for seed in range(10):
        a = LocalOperator(window, matcore.random_matrix(4, seed=seed))
        out = compact.haar_average(group, a)
        assert matcore.operator_norm(out.matrix) <= matcore.operator_norm(a.matrix) + 1e-12


def test_group_average_callable():
    window = Window(2, 2)
    a = LocalOperator(window, np.diag([1.0, 2.0, 3.0, 4.0]))
    Ea = compact.haar_average(enumerate_group(2), a)
    assert np.max(np.abs(Ea.matrix - np.diag([1.0, 2.5, 2.5, 4.0]))) < EXACT


def orbit_indicators(group, window):
    """The orbit indicators 1_O, read from the integer labels; they span the
    fixed-point algebra."""
    labels = compact.orbit_labels(group, window)
    return [LocalOperator(window, (labels == k).astype(float)) for k in range(labels.max() + 1)]


def test_fixed_point_rank_two_sites():
    # orbit count of S2 on matrix units: (16 + 4) / 2 = 10
    assert compact.orbit_labels(enumerate_group(2), Window(2, 2)).max() + 1 == 10


def test_fixed_point_rank_three_sites():
    # orbit count of S3 on matrix units: (64 + 3*16 + 2*4) / 6 = 20
    assert compact.orbit_labels(enumerate_group(3), Window(2, 3)).max() + 1 == 20


def test_fixed_point_basis_elements_are_fixed():
    group = enumerate_group(2)
    for b in orbit_indicators(group, Window(2, 2)):
        out = compact.haar_average(group, b)
        assert matcore.operator_norm(out.matrix - b.matrix) < 1e-10


def test_umegaki_trivial_group_is_identity_map():
    window = Window(2, 2)
    group = [g for g in enumerate_group(2) if g.is_identity()]
    out = compact.verify_umegaki(group, window)
    assert out.passed
    assert out.residual < EXACT


def test_umegaki_suite_S2():
    window = Window(2, 2)
    out = compact.verify_umegaki(enumerate_group(2), window)
    assert out.passed
    assert out.details["average_defect"] == 0.0
    assert out.witness is None
    assert out.details["fixed_point_rank"] == 10


def test_umegaki_suite_S3():
    window = Window(2, 3)
    out = compact.verify_umegaki(enumerate_group(3), window)
    assert out.passed
    assert out.residual < 1e-10


def test_kappa_trivial_table_is_identity():
    window = Window(2, 2)
    T = cocycle.trivial_cocycle(LocalOperator(window, np.eye(4)), enumerate_group(2))
    out = compact.kappa(T)
    assert matcore.operator_norm(out.matrix - np.eye(4)) < EXACT


def test_kappa_hand_values():
    out = compact.kappa(anchor_table())
    assert np.max(np.abs(out.matrix - KAPPA_HAND)) < EXACT


def test_kappa_has_unit_expectation():
    for seed in range(5):
        phi = seeded_diagonal_S3(seed)
        T = cocycle.product_state_cocycle(phi, enumerate_group(3))
        kap = compact.kappa(T)
        assert abs(states.evaluate(phi, kap) - 1.0) < 1e-10


def test_kappa_rejects_nonhermitian_table():
    window = Window(2, 2)
    kap = LocalOperator(window, np.eye(4) + np.diag([0.4, 0.3, 0.2], k=1))
    T = cocycle.trivial_cocycle(kap, enumerate_group(2))
    with pytest.raises(NotStrongCocycle):
        compact.kappa(T)


def test_spectrum_bounds_hand_values():
    s1, s2 = cocycle.verify_strong(anchor_table(), anchor_state()).details["spectrum_bounds"]
    assert abs(s1 - 1.0 / 3.0) < EXACT
    assert abs(s2 - 3.0) < EXACT
    assert s1 > 0


def test_intrinsic_entry_hand_values():
    t = next(g for g in enumerate_group(2) if not g.is_identity())
    out = compact.intrinsic_entry(anchor_state(), t)
    assert np.max(np.abs(out.matrix - X_T)) < EXACT


def test_intrinsic_entry_matches_product_cocycle():
    phi = seeded_diagonal_S3(7)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    for g in enumerate_group(3):
        fresh = compact.intrinsic_entry(phi, g)
        assert matcore.operator_norm(fresh.matrix - T.entries[g.image].matrix) < 1e-10


def test_structure_exchangeable_state_gives_identity_kappa():
    phi = states.homogeneous_state(2, 2, np.diag([0.7, 0.3]))
    T = cocycle.product_state_cocycle(phi, enumerate_group(2))
    out = compact.verify_structure(phi, T)
    assert out.passed
    assert out.residual < EXACT


def test_structure_hand_verified_anchor():
    out = compact.verify_structure(anchor_state(), anchor_table())
    assert out.passed
    assert out.residual < EXACT
    assert out.details["normalization"] < EXACT
    assert out.details["cocycle_match"] < EXACT


def test_structure_seeded_states():
    for seed in range(10):
        phi = seeded_diagonal_S3(seed)
        T = cocycle.product_state_cocycle(phi, enumerate_group(3))
        out = compact.verify_structure(phi, T)
        assert out.passed, f"seed {seed}: {out}"
        assert out.residual < 1e-9


def test_the_commutation_reads_a_dense_kappa_against_its_inverses_frame():
    # kappa^-1 = N clears the frame while kappa = N^-1 does not (the 1e-8 pair sits between two small
    # diagonal entries, so N^-1 carries it at 5e-7): the commutation reads kappa against the diagonal
    # of each g^-1(N), at least the exact ||[kappa, g^-1(kappa^-1)]|| and within its stated terms above
    window, group = Window(2, 2), enumerate_group(2)
    N = np.diag([0.1, 0.2, 5.0, 300.0])
    N[0, 1] = N[1, 0] = 1e-8
    kap = LocalOperator(window, np.linalg.inv(N))
    K = matcore.Operand(kap.matrix)
    assert K.frame is None and K.inv.frame is not None
    phi = states.product_state(2, [np.diag([0.3, 0.7]), np.diag([0.4, 0.6])])
    got = compact.verify_structure(phi, cocycle.trivial_cocycle(kap, group), decomposition=(phi, kap))
    exact = max(matcore.operator_norm(kap.matrix @ m - m @ kap.matrix)
                for m in (act(g, LocalOperator(window, N)).matrix for g in group))
    # ||A o Delta||_F + 2 ||A||_F ||E||_F <= sqrt(D) (exact + 2 ||A|| ||E||) + 2 ||A||_F ||E||_F, D = 4
    terms = (2 * 2 + 2) * np.linalg.norm(kap.matrix) * np.sqrt(2) * 1e-8
    assert 0.0 < exact <= got.details["commutation"] <= 2 * exact + terms


def test_invariant_state_is_exchangeable():
    phi = anchor_state()
    group = enumerate_group(2)
    phi_G = compact.invariant_state(phi, group)
    assert states.is_exchangeable(phi_G, group) < 1e-10


def test_invariant_state_agrees_on_fixed_points():
    phi = anchor_state()
    group = enumerate_group(2)
    phi_G = compact.invariant_state(phi, group)
    for b in orbit_indicators(group, phi.window):
        assert abs(states.evaluate(phi_G, b) - states.evaluate(phi, b)) < 1e-10


def test_converse_identity_kappa_returns_base():
    window = Window(2, 2)
    group = enumerate_group(2)
    phi_G = states.homogeneous_state(2, 2, np.diag([0.6, 0.4]))
    phi, T = compact.converse_construct(phi_G, LocalOperator(window, np.eye(4)), group)
    W = states.full_density(phi)
    assert np.max(np.abs(W - states.full_density(phi_G))) < EXACT
    for g in group:
        assert matcore.operator_norm(T.entries[g.image].matrix - np.eye(4)) < EXACT


def test_converse_round_trip_from_anchor():
    phi = anchor_state()
    group = enumerate_group(2)
    T = anchor_table()
    kap = compact.kappa(T)
    phi_G = compact.invariant_state(phi, group)
    kinv = LocalOperator(phi.window, matcore.inv(kap.matrix))
    rebuilt, T2 = compact.converse_construct(phi_G, kinv, group)
    for a in states.matrix_unit_probes(phi.window):
        assert abs(states.evaluate(rebuilt, a) - states.evaluate(phi, a)) < 1e-10
    for g in group:
        assert matcore.operator_norm(
            T2.entries[g.image].matrix - T.entries[g.image].matrix) < 1e-10
    qi = cocycle.verify_quasi_invariance(rebuilt, T2)
    assert qi.passed


def test_converse_rejects_moving_base():
    group = enumerate_group(2)
    window = Window(2, 2)
    with pytest.raises(NotInvariantBase):
        compact.converse_construct(anchor_state(), LocalOperator(window, np.eye(4)), group)


def test_converse_rejects_singular_kappa():
    group = enumerate_group(2)
    window = Window(2, 2)
    phi_G = states.homogeneous_state(2, 2, np.eye(2) / 2.0)
    with pytest.raises(SingularKappa):
        compact.converse_construct(
            phi_G, LocalOperator(window, np.diag([1.0, 1.0, 1.0, 0.0])), group)


def test_converse_rejects_unnormalized_kappa():
    group = enumerate_group(2)
    window = Window(2, 2)
    phi_G = states.homogeneous_state(2, 2, np.eye(2) / 2.0)
    with pytest.raises(SingularKappa):
        compact.converse_construct(
            phi_G, LocalOperator(window, np.diag([2.0, 1.0, 1.0, 1.0])), group)


def test_converse_noncommuting_kappa_is_quasi_but_not_strong():
    # hermitean positive kappa whose conjugates do not commute: the built
    # state is quasi-invariant, the table fails the strong bundle
    group = enumerate_group(3)
    window = Window(2, 3)
    h = matcore.random_hermitian(8, seed=11)
    h = h / matcore.operator_norm(h)
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    kinv = LocalOperator(window, np.eye(8) + 0.2 * centered)
    phi_G = states.homogeneous_state(2, 3, np.eye(2) / 2.0)
    phi, T = compact.converse_construct(phi_G, kinv, group)
    probes = states.matrix_unit_probes(window)
    qi = cocycle.verify_quasi_invariance(phi, T)
    assert qi.passed
    strong = cocycle.verify_strong(T, phi, probes)
    assert not strong.passed
    assert strong.details["hermiticity"] > 1e-3


def test_projective_family_S2_in_S3():
    window = Window(2, 3)
    out = compact.projective_family_check(
        s2_in_s3(), enumerate_group(3), window)
    assert out.passed
    assert out.residual < 1e-10
    assert out.details["rank_small"] == 40
    assert out.details["rank_big"] == 20


def test_projective_family_trivial_in_S2():
    window = Window(2, 2)
    group = enumerate_group(2)
    trivial = [g for g in group if g.is_identity()]
    out = compact.projective_family_check(trivial, group, window)
    assert out.passed
    assert out.residual < EXACT


def test_projective_family_equal_groups():
    window = Window(2, 2)
    group = enumerate_group(2)
    out = compact.projective_family_check(group, group, window)
    assert out.passed


def test_projective_family_rejects_non_nesting():
    window = Window(2, 3)
    with pytest.raises(NotNested):
        compact.projective_family_check(
            enumerate_group(3), s2_in_s3(), window)


def test_restriction_consistency_product_state():
    phi = seeded_diagonal_S3(5)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    out = compact.restriction_consistency(phi, T, [s2_in_s3(), enumerate_group(3)])
    assert out.passed
    assert out.residual < 1e-10


def test_restriction_consistency_markov_chain():
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(3, seed=2))
    group3 = enumerate_group(3)
    T = qmc.x_cocycle_table(M, group3)
    phi = qmc.markov_functional(M)
    sub2 = [extend(g, 4) for g in s2_in_s3()]
    full3 = [extend(g, 4) for g in group3]
    out = compact.restriction_consistency(phi, T, [sub2, full3])
    assert out.passed
    assert out.residual < 1e-9


def test_restriction_consistency_refuses_a_non_faithful_state():
    T = cocycle.product_state_cocycle(seeded_diagonal_S3(5), enumerate_group(3))
    singular = states.product_state(2, [np.diag([1.0, 0.0])] + [np.eye(2) / 2] * 2)
    with pytest.raises(NotFaithful):
        compact.restriction_consistency(singular, T, [s2_in_s3()])


def test_nonuniqueness_demo_separates_on_normalization():
    phi = seeded_diagonal_S3(9)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    demo = nonuniqueness_demo(phi, T)
    canonical, alternative = demo["canonical"], demo["alternative"]
    assert canonical.passed
    assert alternative.details["reconstruction"] < 1e-9
    assert alternative.details["cocycle_match"] < 1e-9
    assert alternative.details["commutation"] < 1e-9
    assert alternative.details["normalization"] > 1e-3
    assert demo["separation"] > 1e-3
