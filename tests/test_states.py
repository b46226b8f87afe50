"""State evaluation, faithfulness, centralizer, slice-expectation tests.

Oracles: direct per-factor traces for product states, an explicit 2x2 hand
computation for the centralizer failure, and an explicit 4x4 weighted
partial trace for the slice expectation.
"""

import numpy as np
import pytest

from quasinv import cocycle, compact, gns, matcore, states
from quasinv.errors import NotFaithful, NotHomogeneous, SizeMismatch
from quasinv.lattice import LocalOperator, Window, embed, enumerate_group, transposition
from quasinv.states import (
    ProductState,
    WeightedTraceState,
    centralizer_residual,
    evaluate,
    full_density,
    homogeneous_state,
    is_exchangeable,
    is_faithful,
    matrix_unit_probes,
    product_state,
    slice_expectation,
)

from oracles import partial_trace_site

W_HALF = np.diag([0.5, 0.5])
W_34 = np.diag([0.75, 0.25])


def test_evaluate_normalization():
    phi = product_state(2, [W_HALF, W_34])
    assert evaluate(phi, phi.window.identity()) == pytest.approx(1.0)


def test_evaluate_single_site_projector():
    phi = product_state(2, [W_HALF, W_34])
    a = embed(phi.window, 2, np.diag([1.0, 0.0]))
    assert evaluate(phi, a) == pytest.approx(0.75)


def test_evaluate_embedded_matches_per_site_trace():
    W1 = matcore.random_density(2, 0.1, seed=31)
    W2 = matcore.random_density(2, 0.1, seed=32)
    phi = product_state(2, [W1, W2])
    b = matcore.random_matrix(2, seed=33)
    got = evaluate(phi, embed(phi.window, 1, b))
    assert got == pytest.approx(complex(np.trace(W1 @ b)), abs=1e-12)
    got2 = evaluate(phi, embed(phi.window, 2, b))
    assert got2 == pytest.approx(complex(np.trace(W2 @ b)), abs=1e-12)


def test_evaluate_factorizes_on_disjoint_supports():
    W1 = matcore.random_density(2, 0.1, seed=41)
    W2 = matcore.random_density(2, 0.1, seed=42)
    phi = product_state(2, [W1, W2])
    a = matcore.random_matrix(2, seed=43)
    b = matcore.random_matrix(2, seed=44)
    lhs = evaluate(phi, embed(phi.window, 1, a) @ embed(phi.window, 2, b))
    rhs = np.trace(W1 @ a) * np.trace(W2 @ b)
    assert abs(lhs - rhs) < 1e-12


def test_evaluate_conjugate_symmetry():
    phi = product_state(2, [matcore.random_density(2, 0.1, seed=51) for _ in range(2)])
    a = LocalOperator(phi.window, matcore.random_matrix(4, seed=52))
    assert abs(evaluate(phi, a.dagger()) - np.conj(evaluate(phi, a))) < 1e-12


def test_is_faithful_floored():
    phi = product_state(2, [matcore.random_density(2, 0.1, seed=s) for s in (1, 2)])
    ok, mineig = is_faithful(phi)
    assert ok
    # min eig of a product is the product of per-site minima
    m1 = np.linalg.eigvalsh(phi.weights[0])[0]
    m2 = np.linalg.eigvalsh(phi.weights[1])[0]
    assert mineig == pytest.approx(m1 * m2, abs=1e-12)


def test_is_faithful_rank_deficient():
    w = Window(2, 1)
    st = WeightedTraceState(w, np.diag([1.0, 0.0]))
    ok, mineig = is_faithful(st)
    assert not ok
    assert mineig == pytest.approx(0.0, abs=1e-14)


def test_is_faithful_reads_a_lower_bound_off_a_near_diagonal_density():
    # the diagonal clears TAU_POS, but the off-diagonal pair on the two equal entries b moves the
    # least eigenvalue to b - e below it: read off the diagonal, lo = b - ||E||_F refuses the state
    b, e = 1.2e-10, 0.5e-10
    W = np.diag([0.5 - 2 * b, 0.5, b, b])
    W[2, 3] = W[3, 2] = e
    st = WeightedTraceState(Window(2, 2), W)
    ok, lo = is_faithful(st)
    assert not ok and lo <= np.linalg.eigvalsh(W)[0] < matcore.TAU_POS < b
    with pytest.raises(NotFaithful):
        states.faithful_density(st, st.window)


def test_centralizer_identity_and_tracial():
    phi = product_state(2, [np.eye(2) / 2, np.eye(2) / 2])
    probes = matrix_unit_probes(phi.window)
    assert centralizer_residual(phi, phi.window.identity(), probes) < 1e-14
    c = LocalOperator(phi.window, matcore.random_matrix(4, seed=61))
    assert centralizer_residual(phi, c, probes) < 1e-12


def test_centralizer_offdiagonal_fails():
    # hand oracle: W = diag(2/3, 1/3), c = [[0,1],[1,0]], a = e_11
    # phi(ac) = W[1,1]*c[1,1]... direct: Tr(W a c) = 2/3 * 0 = (W e11 c)_tr = 0 on diag
    # Tr(W a c) - Tr(W c a): a c = e_11 c = [[0,1],[0,0]], c a = [[0,0],[1,0]]
    # Tr(W [[0,1],[0,0]]) = 0, Tr(W [[0,0],[1,0]]) = 0 ... pick a = e_12 instead:
    # a c = e_12 c = e_11 pattern -> Tr(W e_11) = 2/3 ; c a = c e_12 = e_22 pattern -> 1/3
    w = Window(2, 1)
    phi = WeightedTraceState(w, np.diag([2.0 / 3.0, 1.0 / 3.0]))
    c = LocalOperator(w, np.array([[0.0, 1.0], [1.0, 0.0]]))
    probes = matrix_unit_probes(w)
    assert centralizer_residual(phi, c, probes) > 0.1


def test_slice_expectation_simple_tensor():
    psi = homogeneous_state(2, 2, W_34)
    a = matcore.random_matrix(2, seed=71)
    b = matcore.random_matrix(2, seed=72)
    X = np.kron(a, b)
    got = slice_expectation(psi, X)
    assert np.allclose(got, a * np.trace(W_34 @ b), atol=1e-13)


def test_slice_expectation_unital():
    psi = homogeneous_state(2, 2, W_34)
    assert np.allclose(slice_expectation(psi, np.eye(4)), np.eye(2), atol=1e-14)


def test_slice_expectation_cda_normalization():
    # K*K with K = sqrt(2)-scaled diagonal: slice against W = I/2 gives I
    K = np.diag([np.sqrt(1.5), np.sqrt(0.5), np.sqrt(0.5), np.sqrt(1.5)])
    psi = homogeneous_state(2, 2, np.eye(2) / 2)
    got = slice_expectation(psi, K.conj().T @ K)
    assert np.allclose(got, np.eye(2), atol=1e-12)


def test_slice_expectation_state_compatible():
    psi = homogeneous_state(2, 2, W_34)
    X = matcore.random_matrix(4, seed=73)
    # psi(slice(X) on site 1) = psi(X)
    lhs = np.trace(W_34 @ slice_expectation(psi, X))
    rhs = evaluate(psi, LocalOperator(psi.window, X))
    assert abs(lhs - rhs) < 1e-12


def test_slice_expectation_requires_homogeneous():
    psi = product_state(2, [W_HALF, W_34])
    with pytest.raises(NotHomogeneous):
        slice_expectation(psi, np.eye(4))


def test_slice_expectation_positive_on_choi_samples():
    psi = homogeneous_state(2, 2, W_34)
    for seed in range(5):
        A = matcore.random_matrix(4, seed=100 + seed)
        got = slice_expectation(psi, A.conj().T @ A)
        lam = np.linalg.eigvalsh((got + got.conj().T) / 2)
        assert lam.min() >= -1e-10


def test_is_exchangeable_homogeneous():
    psi = homogeneous_state(2, 3, W_34)
    assert is_exchangeable(psi, enumerate_group(3)) < 1e-12


def test_is_exchangeable_detects_heterogeneity():
    phi = product_state(2, [W_HALF, W_34])
    got = is_exchangeable(phi, [transposition(2, 1, 2)])
    # oracle: the defect W2 (x) W1 - W1 (x) W2 = diag(0, 1/4, -1/4, 0), largest on e_11
    assert got == pytest.approx(0.25, abs=1e-12)


def test_is_exchangeable_trivial_group():
    phi = product_state(2, [W_HALF, W_34])
    assert is_exchangeable(phi, [transposition(2, 1, 2).inverse() * transposition(2, 1, 2)]) == 0.0


def test_partial_trace_site_recovers_factors():
    W1 = matcore.random_density(2, 0.1, seed=81)
    W2 = matcore.random_density(2, 0.1, seed=82)
    W3 = matcore.random_density(2, 0.1, seed=83)
    phi = product_state(2, [W1, W2, W3])
    full = full_density(phi)
    for site, Wn in [(1, W1), (2, W2), (3, W3)]:
        got = partial_trace_site(full, phi.window, site)
        assert np.allclose(got, Wn, atol=1e-12)


# every public reader of a state's density beside a table: phi on 4 sites, the table on 3
DENSITY_READERS = {
    "states.density": lambda phi, T: states.density(phi, T.window),
    "states.faithful_density": lambda phi, T: states.faithful_density(phi, T.window),
    "verify_quasi_invariance": lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
    "verify_strong": lambda phi, T: cocycle.verify_strong(T, phi),
    "verify_centralizer_transport": lambda phi, T: cocycle.verify_centralizer_transport(
        phi, T, T.window.identity()),
    "restriction_consistency": lambda phi, T: compact.restriction_consistency(phi, T, [T.group]),
    "verify_structure": lambda phi, T: compact.verify_structure(phi, T),
    "verify_structure-decomposition": lambda phi, T: compact.verify_structure(
        phi, T, decomposition=(compact.invariant_state(phi_on(3), T.group), compact.kappa(T))),
    "gns.build_unitaries": lambda phi, T: gns.build_unitaries(gns.build_gns(phi), T),
}


def phi_on(n):
    return homogeneous_state(2, n, W_34)


@pytest.mark.parametrize("reader", sorted(DENSITY_READERS))
def test_a_state_on_another_window_is_refused_with_size_mismatch(reader):
    T = cocycle.product_state_cocycle(phi_on(3), enumerate_group(3))
    with pytest.raises(SizeMismatch):
        DENSITY_READERS[reader](phi_on(4), T)
