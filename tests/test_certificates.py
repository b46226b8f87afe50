"""The certified group laws: the cocycle law from the coboundary of the
table's mean, the strong-case commutators from one common eigenbasis, and
the GNS group law from the mean of the s_g.

Each residual is an upper bound on all |G|^2 pairs computed from |G|
entries.  These tests plant defects the bounds must catch and name, build
tables that must pass although no entry is diagonal, and take the paths a
certificate cannot cover: a cocycle whose mean is singular is checked pair
by pair up to |S_5| and refused above.
"""

import json

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, matcore, states
from quasinv.cocycle import CocycleTable
from quasinv.errors import SingularKappa

from oracles import (
    complex_sign_table, diag_table, list_tree_sum, pairwise_cocycle_law, pairwise_strong_parts,
)


def with_entry(T, i, change):
    stack = T.stack.copy()
    stack[i] = change(stack[i])
    return CocycleTable(T.group, stack, T.window)


# ---- the cocycle law ---------------------------------------------------------

def test_the_mean_is_the_pairwise_tree_sum_of_the_entries():
    for n in (1, 2, 3, 4, 5):
        _, T = diag_table(2, n, seed=n)
        assert np.array_equal(T.mean, list_tree_sum(list(T.stack)) / len(T.group))
        assert T.mean is T.mean
        assert np.array_equal(T.mean_operand.inv.A, matcore.inv(T.mean))
    kap = compact.kappa(T)
    assert np.array_equal(kap.matrix, (T.mean + T.mean.conj().T) / 2.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_small_plant_at_any_entry_fails_the_law_and_names_it(seed):
    _, T = diag_table(2, 4, seed)
    corner = np.zeros((16, 16))
    corner[0, -1] = 1e-6
    for i, g in enumerate(T.group):
        if g.is_identity():
            continue
        rep = cocycle.verify_cocycle_law(with_entry(T, i, lambda x: x + corner))
        assert not rep.passed and rep.residual >= 1e-6
        assert list(g.image) in rep.witness.values()
        assert rep.details["delta"] >= 0.5e-6


def test_law_details_are_plain_floats():
    _, T = diag_table(2, 4, 3)
    rep = cocycle.verify_cocycle_law(T)
    assert rep.passed and rep.details["method"] == "certificate"
    for key in ("delta", "C", "kappa_cond"):
        assert type(rep.details[key]) is float
    assert rep.residual == pytest.approx(rep.details["delta"] * (1 + 2 * rep.details["C"]
                                                                 + rep.details["delta"]))
    json.dumps(rep.details)


def test_the_sign_cocycle_is_checked_pair_by_pair_at_S4():
    T = complex_sign_table(4)
    assert not matcore.facts(T.mean).invertible
    rep = cocycle.verify_cocycle_law(T)
    assert rep.passed and rep.residual == 0.0 and rep.details == {"method": "exhaustive"}
    # two odd entries scaled by 1.5 and 0.5: the mean stays 0, the law breaks
    broken = with_entry(with_entry(T, 1, lambda x: 1.5 * x), 2, lambda x: 0.5 * x)
    assert not matcore.facts(broken.mean).invertible
    rep = cocycle.verify_cocycle_law(broken)
    want, witness = pairwise_cocycle_law(broken)
    assert not rep.passed and rep.residual == want and rep.witness == witness


def test_the_sign_cocycle_at_S6_fails_guarded_with_singular_kappa():
    T = complex_sign_table(6)
    assert len(T.group) > cocycle.EXHAUSTIVE_ORDER_CAP
    with pytest.raises(SingularKappa):
        cocycle.verify_cocycle_law(T, tol=1e-9)
    check = cli._guarded_check("cocycle_law", 1e-9, lambda: cocycle.verify_cocycle_law(T, tol=1e-9))
    assert check["pass"] is False and check["residual"] is None
    assert check["witness"]["error"].startswith("SingularKappa")


# ---- the commutators of the strong bundle -------------------------------------

def test_a_non_commuting_hermitean_plant_fails_strong():
    phi, T = diag_table(2, 4, 5)
    swap = np.zeros((16, 16))
    swap[0, 1] = swap[1, 0] = 1e-6
    for i in (1, 7, 23):
        planted = with_entry(T, i, lambda x: x + swap)
        rep = cocycle.verify_strong(planted, phi)
        _, exact, _ = pairwise_strong_parts(planted)
        assert exact > rep.tolerance
        assert not rep.passed and rep.details["commutators"] >= exact
        assert list(T.group[i].image) in rep.witness.values()


def test_a_commuting_non_normal_plant_fails_closed_without_a_witness():
    # x + eps e_{0,-1} still commutes with every diagonal entry whose corner
    # entries agree, but no unitary basis diagonalizes it: the bound fails,
    # and with no non-commuting pair there is no pair to name; the witness is
    # the entry that fails hermiticity
    phi, T = diag_table(2, 3, 2)
    corner = np.zeros((8, 8))
    corner[0, -1] = 1e-3
    planted = with_entry(T, 1, lambda x: x + corner)
    _, exact, _ = pairwise_strong_parts(planted)
    rep = cocycle.verify_strong(planted, phi)
    assert exact <= rep.tolerance < rep.details["commutators"]
    assert not rep.passed
    assert rep.witness == {"g": list(T.group[1].image), "part": "hermiticity"}


def test_a_negated_entry_is_named_as_the_positivity_witness():
    # -x_k is hermitean, commutes with the diagonal entries and with W: only
    # positivity fails, at the entry with the least eigenvalue
    phi, T = diag_table(2, 3, 3)
    planted = with_entry(T, 4, lambda x: -x)
    rep = cocycle.verify_strong(planted, phi)
    assert not rep.passed and rep.details["min_eig"] < 0.0
    assert rep.details["hermiticity"] <= rep.tolerance >= rep.details["commutators"]
    assert rep.witness == {"g": list(T.group[4].image), "part": "positivity"}


def test_an_entry_off_the_centralizer_is_named_as_the_centralizer_witness():
    # the rotated table is strong, but the unrotated state's W does not commute
    # with its entries: only centralizer membership fails
    u = np.linalg.qr(matcore.random_matrix(2, seed=8))[0]
    _, T = diag_table(2, 3, 9, rotation=u)
    phi, _ = diag_table(2, 3, 9)
    rep = cocycle.verify_strong(T, phi)
    assert not rep.passed and rep.details["centralizer"] > rep.tolerance
    assert max(rep.details["hermiticity"], rep.details["commutators"]) <= rep.tolerance
    W = states.full_density(phi)
    worst = int(np.argmax([states.centralizer_residual(W, x) for x in T.stack]))
    assert rep.witness == {"g": list(T.group[worst].image), "part": "centralizer"}


def test_a_rotated_commuting_table_passes_strong():
    u = np.linalg.qr(matcore.random_matrix(2, seed=8))[0]
    phi, T = diag_table(2, 5, 9, rotation=u)
    assert max(matcore.operator_norm(x - np.diag(np.diag(x))) for x in T.stack) > 1e-2
    rep = cocycle.verify_strong(T, phi)
    assert rep.passed and rep.witness is None
    assert rep.details["commutators"] <= 1e-3 * rep.tolerance


def test_diagonal_entries_have_a_zero_commutator_bound():
    phi, T = diag_table(2, 5, 4)
    assert cocycle.verify_strong(T, phi).details["commutators"] == 0.0


# ---- the GNS group law -------------------------------------------------------

def test_the_gns_group_law_bound_catches_a_planted_factor():
    phi, T = diag_table(2, 3, 6)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    clean = gns.verify_unitaries(R, U, T.group)
    assert clean["pass"] and clean["group_law"] <= 1e-12
    g = T.group[1]
    U[g.image] = gns.CovariantUnitary(g, U[g.image].s @ U[g.image].s)
    planted = gns.verify_unitaries(R, U, T.group)
    assert not planted["pass"] and planted["group_law"] > 1e-3
