"""The factored GNS suite against the dense D^2 x D^2 construction.

`DenseGns`, kept in tests/oracles.py, is the construction written out as
matrices: the gram W^T (x) 1, pi(a) = 1 (x) a and U_g = (P_g* s_g)^T (x) P_g,
with P_g the dense permutation unitary, and the verifiers as operator norms
of D^2 x D^2 residuals.  It is the oracle: every factored residual must
equal it to round-off (covariance and the lifted average over probes, scaled
by max ||a||_F, and the certified group law must bound it from above), with
the same verdicts on clean tables, on tables with a planted entry defect and
on tables that are not strong.
"""

import numpy as np
import pytest

from quasinv import cocycle, gns, matcore, states
from quasinv.cocycle import CocycleTable
from quasinv.errors import NotStrongCocycle
from quasinv.lattice import LocalOperator

from oracles import (
    DenseGns, diagonal_plant, lift_conditional_expectation, orthonormal_form, product_case,
    rotated_product,
)

MATCH = 1e-12


def probe_set(window):
    """Matrix units up to D 9; at D 16 a few seeded operators of mixed norm,
    since the dense covariance costs a D^2 x D^2 product per probe."""
    if window.total_dim <= 9:
        return states.matrix_unit_probes(window)
    dim = window.total_dim
    return [LocalOperator(window, matcore.random_matrix(dim, seed=40 + k, scale=0.3 + k))
            for k in range(3)]


# (d, n, k): D 4, 8, 9 and 16
CASES = [(2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 4, 2)]


def both(phi, T, probes):
    R, dense = gns.build_gns(phi), DenseGns(phi)
    U, Ud = gns.build_unitaries(R, T), dense.unitaries(T)
    factored = (gns.verify_unitaries(R, U, T.group),
                gns.verify_covariance(R, U, T.group, probes),
                gns.verify_lifted_expectation(R, U, T.group, probes))
    oracle = (dense.verify_unitaries(Ud, T.group),
              dense.verify_covariance(Ud, T.group, probes),
              dense.verify_lifted_expectation(Ud, T.group, probes))
    return factored, oracle


def assert_agree(factored, oracle):
    (unit, cov, lift), (unit_d, cov_d, lift_d) = factored, oracle
    for key in ("unitarity", "adjoint"):
        assert abs(unit[key] - unit_d[key]) <= MATCH, (key, unit[key], unit_d[key])
    for key in ("group_law", "residual"):
        assert unit[key] >= unit_d[key] - MATCH, (key, unit[key], unit_d[key])
    assert cov["residual"] >= cov_d["residual"] - MATCH
    assert lift["residual"] >= lift_d["residual"] - MATCH
    for f, o in zip(factored, oracle):
        assert f["pass"] == o["pass"]


@pytest.mark.parametrize("d, n, k", CASES)
def test_factored_suite_matches_dense_on_clean_tables(d, n, k):
    phi, T = product_case(rotated_product, d, n, k, seed=d * 10 + n)
    factored, oracle = both(phi, T, probe_set(phi.window))
    assert_agree(factored, oracle)
    assert all(f["pass"] for f in factored)


@pytest.mark.parametrize("d, n, k", CASES)
def test_factored_suite_matches_dense_on_planted_defects(d, n, k):
    phi, T = product_case(rotated_product, d, n, k, seed=d * 10 + n)
    factored, oracle = both(phi, diagonal_plant(T, 1e-2), probe_set(phi.window))
    assert_agree(factored, oracle)
    unit, cov, lift = factored
    assert not unit["pass"] and not cov["pass"] and not lift["pass"]
    assert unit["unitarity"] > 1e-3


def test_planted_defect_lifted_residual_is_tight_for_one_bad_element():
    # only C_t is nonzero, so the bound (1/|G|) ||C_t|| ||a|| is attained
    phi, T = product_case(rotated_product, 2, 3, 3, seed=23)
    (_, _, lift), (_, _, lift_d) = both(phi, diagonal_plant(T, 1e-2), probe_set(phi.window))
    assert abs(lift["residual"] - lift_d["residual"]) <= MATCH


def test_covariance_and_lift_without_probes_cover_the_unit_ball():
    phi, T = product_case(rotated_product, 2, 3, 3, seed=5)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, diagonal_plant(T, 1e-2))
    units = states.matrix_unit_probes(phi.window)
    assert (gns.verify_covariance(R, U, T.group)["residual"]
            == gns.verify_covariance(R, U, T.group, units)["residual"])
    assert (gns.verify_lifted_expectation(R, U, T.group)["residual"]
            == gns.verify_lifted_expectation(R, U, T.group, units)["residual"])


def _nonhermitian_table(phi, group):
    D = phi.window.total_dim
    kappa = np.eye(D) + np.diag(np.linspace(0.4, 0.2, D - 1), k=1)
    return cocycle.trivial_cocycle(LocalOperator(phi.window, kappa), group)


def _nonpositive_table(phi, group):
    D = phi.window.total_dim
    flip = np.ones(D)
    flip[1] = -1.0
    entries = {g.image: LocalOperator(phi.window, np.eye(D) if g.is_identity() else np.diag(flip))
               for g in group}
    return CocycleTable(tuple(group), entries, phi.window)


@pytest.mark.parametrize("make", [_nonhermitian_table, _nonpositive_table])
@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_both_forms_reject_tables_that_are_not_strong(make, d, n, k):
    phi, T = product_case(rotated_product, d, n, k, seed=3)
    T_bad = make(phi, T.group)
    with pytest.raises(NotStrongCocycle):
        DenseGns(phi).unitaries(T_bad)
    with pytest.raises(NotStrongCocycle):
        gns.build_unitaries(gns.build_gns(phi), T_bad)


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_factored_unitary_is_the_dense_matrix(d, n, k):
    phi, T = product_case(rotated_product, d, n, k, seed=11)
    R = gns.build_gns(phi)
    U, Ud = gns.build_unitaries(R, T), DenseGns(phi).unitaries(T)
    for g in T.group:
        for a in states.matrix_unit_probes(phi.window):
            assert np.max(np.abs(gns.vec(U[g.image](a).matrix) - Ud[g.image] @ gns.vec(a.matrix))) <= MATCH


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_lift_matches_dense_lift(d, n, k):
    phi, T = product_case(rotated_product, d, n, k, seed=13)
    R, dense = gns.build_gns(phi), DenseGns(phi)
    U, Ud = gns.build_unitaries(R, diagonal_plant(T, 1e-2)), dense.unitaries(diagonal_plant(T, 1e-2))
    X = matcore.random_matrix(R.dim, seed=17)
    got = lift_conditional_expectation(R, U, T.group)(X)
    want = dense.lift(Ud, T.group)(X)
    assert matcore.operator_norm(got - want) <= MATCH * max(1.0, matcore.operator_norm(want))


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_orthonormal_form_matches_dense(d, n, k):
    phi, _ = product_case(rotated_product, d, n, k, seed=19)
    R, dense = gns.build_gns(phi), DenseGns(phi)
    M = matcore.random_matrix(R.dim, seed=29)
    want = dense.orthonormal_form(M)
    assert matcore.operator_norm(orthonormal_form(R, M) - want) <= 1e-10 * matcore.operator_norm(want)


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_cyclicity_rank_matches_dense(d, n, k):
    phi, _ = product_case(rotated_product, d, n, k, seed=7)
    D = d ** n
    assert gns.cyclicity_rank(gns.build_gns(phi)) == DenseGns(phi).cyclicity_rank() == D * D


def test_gns_suite_passes_at_dimension_32():
    phi, T = product_case(rotated_product, 2, 5, 3, seed=32)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    assert gns.verify_unitaries(R, U, T.group)["pass"]
    assert gns.verify_covariance(R, U, T.group)["pass"]
    assert gns.verify_lifted_expectation(R, U, T.group)["pass"]
    assert gns.cyclicity_rank(R) == 32 * 32
    planted = gns.build_unitaries(R, diagonal_plant(T, 1e-6))
    assert not gns.verify_unitaries(R, planted, T.group)["pass"]
    assert not gns.verify_covariance(R, planted, T.group)["pass"]
