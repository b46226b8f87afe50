"""Every cocycle table is one coboundary x_g = kappa g^-1(kappa^-1).

The product-state, one-kappa and Markov chain constructors write their tables
through one kernel.  The per-element builders they replaced are kept in
tests/oracles.py, on D <= 16 windows: the support-form product builder agrees
to round-off, and the one-kappa and chain builders agree bit for bit.
"""

import json
import tracemalloc

import numpy as np
import pytest

from quasinv import cocycle, matcore, qmc, states
from quasinv.lattice import LocalOperator, Window, enumerate_group, extend

from oracles import (
    generic_product, per_element_markov_table, per_element_trivial_table, support_product_table,
)


# ---- inputs -------------------------------------------------------------------

def rotated_chain(N, seed):
    """The seeded chain conjugated by u (x) u on every pair: still commuting,
    normalized and central against I/2, but no longer diagonal."""
    u = np.linalg.qr(matcore.random_matrix(2, seed))[0]
    U = np.kron(u, u)
    chain = tuple(U @ K @ U.conj().T for K in qmc.seeded_chain(N, seed))
    return qmc.MarkovState(2, np.eye(2) / 2.0, chain)


PRODUCT_GROUPS = {
    "d2-S3": (2, 3, enumerate_group(3)),
    "d2-S4": (2, 4, enumerate_group(4)),
    "d3-S2": (3, 2, enumerate_group(2)),
    "d2-S2-in-4-sites": (2, 4, [extend(g, 4) for g in enumerate_group(2)]),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_GROUPS))
@pytest.mark.parametrize("seed", [1, 2])
def test_product_table_agrees_with_the_support_form(name, seed):
    d, N, group = PRODUCT_GROUPS[name]
    phi = generic_product(d, N, seed)
    T = cocycle.product_state_cocycle(phi, group)
    want = support_product_table(phi, group)
    assert T.stack.shape == want.shape
    assert max(matcore.operator_norm(a - b) for a, b in zip(T.stack, want)) <= 1e-14 * T.scale()


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("seed", [3, 4])
def test_trivial_table_equals_the_per_element_form(N, seed):
    window, group = Window(2, N), enumerate_group(N)
    kappa = LocalOperator(window, np.eye(2 ** N) + 0.3 * matcore.random_matrix(2 ** N, seed))
    T = cocycle.trivial_cocycle(kappa, group)
    assert np.array_equal(T.stack, per_element_trivial_table(kappa, group))


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("chain", [lambda N, s: qmc.MarkovState(
    2, np.eye(2) / 2.0, qmc.seeded_chain(N, s)), rotated_chain])
def test_markov_table_equals_the_per_element_form(N, chain):
    M = chain(N, 10 + N)
    group = enumerate_group(N)
    T = qmc.x_cocycle_table(M, group)
    assert np.array_equal(T.stack, per_element_markov_table(M, group))


def test_rotated_chain_gives_a_non_diagonal_table():
    T = qmc.x_cocycle_table(rotated_chain(3, 13), enumerate_group(3))
    off = T.stack - np.einsum("gii->gi", T.stack)[:, :, None] * np.eye(16)
    assert np.abs(off).max() > 1e-3


def test_product_entries_are_core_times_one_on_the_spectator_sites():
    # S_3 moves sites 1..3 of 5: each entry is c (x) 1 with c on the core, bit for bit
    phi = generic_product(2, 5, 5)
    T = cocycle.product_state_cocycle(phi, [extend(g, 5) for g in enumerate_group(3)])
    tail = np.eye(4)
    for x in T.stack:
        assert np.array_equal(x, np.kron(x[::4, ::4], tail))


def test_untouched_sites_carry_exact_identity_factors():
    # a weight on a site no element moves enters neither kappa nor its inverse
    phi = generic_product(2, 4, 6)
    group = [extend(g, 4) for g in enumerate_group(2)]
    T = cocycle.product_state_cocycle(phi, group)
    swapped = states.product_state(2, [*phi.weights[:2], np.eye(2) / 2, np.diag([0.9, 0.1])])
    assert np.array_equal(T.stack, cocycle.product_state_cocycle(swapped, group).stack)


def test_product_table_inverts_each_moved_weight_and_nothing_else(monkeypatch):
    phi = generic_product(2, 4, 9)
    shapes, inv = [], matcore.inv
    monkeypatch.setattr(matcore, "inv", lambda A: shapes.append(np.shape(A)) or inv(A))
    cocycle.product_state_cocycle(phi, [extend(g, 4) for g in enumerate_group(3)])
    assert shapes == [(2, 2)] * 3


def test_the_kernel_allocates_one_stack():
    phi = generic_product(2, 5, 7)
    group = enumerate_group(5)
    nbytes = len(group) * 32 * 32 * 16
    tracemalloc.start()
    try:
        T = cocycle.product_state_cocycle(phi, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.stack.nbytes == nbytes
    assert peak < 1.25 * nbytes


def test_locally_trivial_details_are_json_safe():
    phi = generic_product(2, 3, 8)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    for rep in cocycle.locally_trivial_check(T, [2, 3]):
        assert json.loads(json.dumps(rep.details)) == {"subgroup_order": rep.details["subgroup_order"]}
