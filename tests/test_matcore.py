"""Matrix kernel tests.

Expected values are either asserted directly (identities, diagonal inputs)
or checked against independent oracles: eigen-reconstruction, scalar powers
of diagonal entries, and sqrt(max eig of A*A) for the operator norm.
spectral_decompose fixes no phase of its eigenvectors: what it promises is
an orthonormal V that reconstructs H, and the same V on the same input.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasinv import cocycle, gns, matcore, states
from quasinv.lattice import enumerate_group
from quasinv.errors import FloorTooLarge, NotHermitian, NotPositive

from oracles import oracle_frame, oracle_frame_facts


def test_spectral_decompose_identity():
    lam, V = matcore.spectral_decompose(np.eye(2))
    assert np.allclose(lam, [1.0, 1.0])
    assert np.allclose(V @ V.conj().T, np.eye(2))


def test_spectral_decompose_diagonal_sorted_ascending():
    lam, V = matcore.spectral_decompose(np.diag([3.0, 1.0]))
    assert np.allclose(lam, [1.0, 3.0])
    # columns are the swapped standard basis vectors
    assert np.allclose(np.abs(V), [[0.0, 1.0], [1.0, 0.0]])


def test_spectral_decompose_reconstruction_seed7():
    H = matcore.random_hermitian(4, seed=7)
    lam, V = matcore.spectral_decompose(H)
    resid = matcore.operator_norm(H - (V * lam) @ V.conj().T)
    assert resid < 1e-12 * max(matcore.operator_norm(H), 1.0)
    assert matcore.operator_norm(V.conj().T @ V - np.eye(4)) < 1e-12


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        matcore.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_decompose_deterministic():
    H = matcore.random_hermitian(6, seed=11)
    lam1, V1 = matcore.spectral_decompose(H)
    lam2, V2 = matcore.spectral_decompose(H.copy())
    assert np.array_equal(lam1, lam2)
    assert np.array_equal(V1, V2)


SPECTRAL_INPUTS = {
    "random": lambda: matcore.random_hermitian(9, seed=31),
    "density": lambda: matcore.random_density(6, 0.05, seed=32),
    # a product-state cocycle entry: diagonal, with repeated eigenvalues
    "degenerate": lambda: cocycle.product_state_cocycle(
        states.product_state(2, [np.diag([0.3, 0.7])] * 3), enumerate_group(3)).stack[1],
    "identity": lambda: np.eye(5),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_INPUTS))
def test_spectral_decompose_gives_an_orthonormal_reconstructing_basis(name):
    H = np.asarray(SPECTRAL_INPUTS[name](), dtype=complex)
    lam, V = matcore.spectral_decompose(H)
    scale = max(matcore.operator_norm(H), 1.0)
    assert np.all(np.diff(lam) >= 0.0)
    assert matcore.operator_norm(V.conj().T @ V - np.eye(len(H))) < 1e-12
    assert matcore.operator_norm(H - (V * lam) @ V.conj().T) < 1e-12 * scale


def test_build_unitaries_is_byte_identical_across_calls():
    rng = np.random.Generator(np.random.Philox(41))
    u = np.linalg.qr(matcore.random_matrix(2, seed=42))[0]
    weights = []
    for _ in range(3):
        w = rng.uniform(0.2, 0.8, size=2)
        weights.append(u @ np.diag(w / w.sum()) @ u.conj().T)
    phi = states.product_state(2, weights)
    R = gns.build_gns(phi)
    first = gns.build_unitaries(R, cocycle.product_state_cocycle(phi, enumerate_group(3)))
    again = gns.build_unitaries(R, cocycle.product_state_cocycle(phi, enumerate_group(3)))
    assert first.keys() == again.keys()
    for g in first:
        assert first[g].s.matrix.tobytes() == again[g].s.matrix.tobytes()


def test_require_floor_holds_the_floor_rule():
    lam = np.array([0.0, 0.5, 2.0])
    for s in (0, 1, 2, 3.0):  # integer powers need no floor
        matcore.require_floor(lam, s)
    for s in (-1, 0.5, -0.5):
        with pytest.raises(NotPositive, match=r"^min eigenvalue 0\.000e\+00 <= floor tolerance 1\.0e-12$"):
            matcore.require_floor(lam, s)
    matcore.require_floor(lam[1:], -1)
    P = np.diag(lam)
    assert np.array_equal(matcore.matrix_power(P, 2), np.diag([0.0, 0.25, 4.0]))
    assert matcore.matrix_power(P, 2).dtype == lam.dtype
    with pytest.raises(NotPositive):
        matcore.matrix_power(P, 0.5)
    assert np.array_equal(matcore.matrix_power(P[1:, 1:], -1), np.diag([2.0, 0.5]))


def test_matrix_power_diagonal_sqrt():
    M = matcore.matrix_power(np.diag([4.0, 9.0]), 0.5)
    assert np.allclose(M, np.diag([2.0, 3.0]), atol=1e-14)


def test_matrix_power_zeroth_is_identity():
    P = matcore.random_density(3, 0.05, seed=2)
    assert np.array_equal(matcore.matrix_power(P, 0), np.eye(3))


def test_matrix_power_inverse_diagonal():
    # scalar oracle: (2/3)^-1 = 3/2, (1/3)^-1 = 3
    M = matcore.matrix_power(np.diag([2.0 / 3.0, 1.0 / 3.0]), -1)
    assert np.allclose(M, np.diag([1.5, 3.0]), atol=1e-14)


def test_matrix_power_output_hermitian():
    P = matcore.random_density(4, 0.05, seed=5)
    M = matcore.matrix_power(P, 0.5)
    assert matcore.herm_defect(M) == 0.0


def test_matrix_power_rejects_nonpositive():
    with pytest.raises(NotPositive):
        matcore.matrix_power(np.diag([1.0, -0.5]), 0.5)
    with pytest.raises(NotPositive):
        matcore.matrix_power(np.diag([1.0, 0.0]), -1)


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0, 2.0])
def test_matrix_power_addition_law(s, t):
    P = matcore.random_density(4, 0.1, seed=13)
    lhs = matcore.matrix_power(P, s) @ matcore.matrix_power(P, t)
    rhs = matcore.matrix_power(P, s + t)
    norm = matcore.operator_norm(P)
    assert matcore.operator_norm(lhs - rhs) <= matcore.TAU_REL * norm ** (abs(s) + abs(t))


def test_operator_norm_identity():
    assert matcore.operator_norm(np.eye(3)) == 1.0


def test_operator_norm_diagonal():
    assert matcore.operator_norm(np.diag([1.5, 0.5])) == pytest.approx(1.5, abs=1e-15)


def test_operator_norm_matches_gram_eigenvalue():
    A = matcore.random_matrix(5, seed=3)
    # oracle: sqrt of the largest eigenvalue of A*A
    top = np.linalg.eigvalsh(A.conj().T @ A)[-1]
    assert abs(matcore.operator_norm(A) - np.sqrt(top)) < 1e-12


NORM_INPUTS = {
    "random": lambda: matcore.random_matrix(7, seed=21),
    "real": lambda: matcore.random_matrix(5, seed=22).real,
    "diagonal": lambda: np.diag([0.25, -3.0, 1.5, 0.0]),
    "rank-deficient": lambda: np.outer(matcore.random_matrix(6, seed=23)[:, 0],
                                       matcore.random_matrix(6, seed=24)[0]),
    "hermitean": lambda: matcore.random_hermitian(8, seed=25),
    "empty": lambda: np.zeros((0, 0), dtype=complex),
}


@pytest.mark.parametrize("name", sorted(NORM_INPUTS))
def test_operator_norm_is_the_two_norm_bit_for_bit(name):
    A = NORM_INPUTS[name]()
    got = matcore.operator_norm(A)
    assert type(got) is float
    assert got == float(np.linalg.norm(np.asarray(A, dtype=complex), 2))
    if A.size:
        assert got == matcore.facts(A).norm


def test_operator_norm_submultiplicative():
    A = matcore.random_matrix(4, seed=8)
    B = matcore.random_matrix(4, seed=9)
    assert matcore.operator_norm(A @ B) <= matcore.operator_norm(A) * matcore.operator_norm(B) + 1e-12


def test_random_density_deterministic():
    W1 = matcore.random_density(2, 0.1, seed=1)
    W2 = matcore.random_density(2, 0.1, seed=1)
    assert np.array_equal(W1, W2)


def test_random_density_floor_and_trace():
    for seed in range(5):
        W = matcore.random_density(2, 0.49, seed=seed)
        lam = np.linalg.eigvalsh(W)
        assert lam.min() >= 0.49 - 1e-12
        assert lam.max() <= 0.51 + 1e-12
        assert abs(np.trace(W).real - 1.0) < 1e-12


def test_random_density_floor_too_large():
    with pytest.raises(FloorTooLarge):
        matcore.random_density(2, 0.6, seed=0)


def test_facts_identity():
    f = matcore.facts(np.eye(2))
    assert f.herm == 0.0 and f.invertible
    assert f.norm == pytest.approx(1.0)
    assert f.eig[0] == pytest.approx(1.0) and f.eig[-1] == pytest.approx(1.0)


def test_facts_nilpotent():
    f = matcore.facts(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert f.herm == pytest.approx(1.0) and not f.invertible
    assert list(f.sv) == pytest.approx([1.0, 0.0])


def test_facts_diagonal_spectrum():
    f = matcore.facts(np.diag([1.0, 3.0, 1.0 / 3.0, 1.0]))
    assert f.herm == 0.0 and f.invertible
    assert f.eig[0] == pytest.approx(1.0 / 3.0)
    assert f.eig[-1] == pytest.approx(3.0) == f.norm


def test_facts_non_hermitian_invertible():
    # invertible but not hermitian: a rotation, whose hermitean part is 0
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = matcore.facts(R)
    assert f.herm == pytest.approx(2.0) and f.invertible
    assert list(f.eig) == [0.0, 0.0]


@pytest.mark.parametrize("rotate", [False, True])
def test_facts_invertibility_is_relative_to_the_norm(rotate):
    # a least |eigenvalue| (or singular value, once rotated off hermitean)
    # of 5e-10 clears TAU_POS * max(1, ||A||) at norm 1, not at norm 10
    R = np.array([[0.0, -1.0], [1.0, 0.0]]) if rotate else np.eye(2)
    small = matcore.facts(np.diag([5e-10, 1.0]) @ R)
    large = matcore.facts(np.diag([5e-10, 10.0]) @ R)
    assert small.hermitean != rotate and large.hermitean != rotate
    assert small.invertible and not large.invertible


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_reconstruction_property(dim, seed):
    H = matcore.random_hermitian(dim, seed=seed)
    lam, V = matcore.spectral_decompose(H)
    resid = matcore.operator_norm(H - (V * lam) @ V.conj().T)
    assert resid <= 1e-12 * max(matcore.operator_norm(H), 1.0)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_random_density_property(dim, seed):
    floor = 0.5 / dim / 2
    W = matcore.random_density(dim, floor, seed=seed)
    lam = np.linalg.eigvalsh(W)
    assert abs(np.trace(W).real - 1.0) < 1e-12
    assert lam.min() >= floor - 1e-12


def close_pair(dim, seed, lo, hi, step):
    """Positive A = U diag(lam) U* and B = V diag(mu) V* with spectra in [lo, hi],
    V a unitary near U and mu near lam, both at distance about step; the
    eigenbases are given so that A^t and B^t are read without eigh."""
    rng = np.random.Generator(np.random.Philox(seed))
    U = np.linalg.qr(matcore.random_matrix(dim, seed))[0]
    V = np.linalg.qr(U @ (np.eye(dim) + step * matcore.random_matrix(dim, seed + 1)))[0]
    lam = rng.uniform(lo, hi, dim)
    mu = np.clip(lam + step * (hi - lo) * rng.standard_normal(dim), lo, hi)
    return (U, lam), (V, mu)


def power_gap(pair_a, pair_b, t):
    """(||A^t - B^t||, ||A - B||) from the eigenbases."""
    (U, lam), (V, mu) = pair_a, pair_b
    power = lambda Q, e, p: (Q * np.power(e, p)) @ Q.conj().T
    return (matcore.operator_norm(power(U, lam, t) - power(V, mu, t)),
            matcore.operator_norm(power(U, lam, 1.0) - power(V, mu, 1.0)))


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 6), seed=st.integers(0, 10_000),
       t=st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0, 3.0]), lo=st.floats(0.01, 2.0),
       width=st.floats(0.0, 20.0), step=st.floats(1e-8, 1.0))
def test_power_lipschitz_bounds_powers_of_positive_pairs(dim, seed, t, lo, width, step):
    a, b = close_pair(dim, seed, lo, lo + width, step)
    m, M = min(a[1].min(), b[1].min()), max(a[1].max(), b[1].max())
    gap, dist = power_gap(a, b, t)
    assert gap <= matcore.power_lipschitz(t, m, M) * dist + 1e-12 * M ** t


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 6), seed=st.integers(0, 10_000), t=st.sampled_from([1.0, 2.0, 3.0]),
       hi=st.floats(0.1, 10.0), neg=st.floats(0.0, 10.0), step=st.floats(1e-8, 1.0))
def test_power_lipschitz_bounds_integer_powers_with_one_side_indefinite(dim, seed, t, hi, neg, step):
    a, (V, mu) = close_pair(dim, seed, 0.01, hi, step)
    mu[0] = -neg  # B has an eigenvalue <= 0
    m, M = min(a[1].min(), mu.min()), max(a[1].max(), mu.max())
    gap, dist = power_gap(a, (V, mu), t)
    assert matcore.power_lipschitz(t, m, M) == t * max(-m, M) ** (t - 1)
    assert gap <= matcore.power_lipschitz(t, m, M) * dist + 1e-12 * max(-m, M) ** t


def test_power_lipschitz_values():
    assert matcore.power_lipschitz(0.5, 4.0, 9.0) == 0.25  # 1 / (2 sqrt(m))
    assert matcore.power_lipschitz(1.0, 0.5, 3.0) == 1.0
    assert matcore.power_lipschitz(2.0, 0.5, 3.0) == 6.0  # 2M
    assert matcore.power_lipschitz(3.0, 0.5, 3.0) == 27.0  # 3M^2
    assert matcore.power_lipschitz(1.5, 4.0, 9.0) == 9.0 * 0.25 + 3.0  # M L_0.5 + M^0.5
    assert matcore.power_lipschitz(2.0, -5.0, 3.0) == 10.0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1e-12))
def test_the_diagonal_frame_bounds_products_and_commutators(dim, seed, eps):
    # A, B complex near-diagonal (not hermitean), C their product moved by eps off the diagonal:
    # frame reads them only without the hermiticity clause, and product_defect and
    # commutator_bound lie above the dense norms (up to the round-off of the diagonal products)
    A, B, C = (np.diag(np.diagonal(G)) + eps * G
               for G in matcore.random_matrix(dim, [seed, seed + 1, seed + 2]))
    C = A @ B + C - np.diag(np.diagonal(C))
    frames = [matcore.Operand(M, need_herm=False).frame for M in (A, B, C)]
    assert matcore.Operand(A).frame is None and None not in frames
    fa, fb, fc = frames
    slack = 8 * dim * np.finfo(float).eps * np.abs(fa[0]).max() * np.abs(fb[0]).max()
    assert matcore.operator_norm(C - A @ B) <= matcore.product_defect(fc, fa, fb) + slack
    assert matcore.operator_norm(A @ B - B @ A) <= matcore.commutator_bound(fa, fb) + slack
    assert matcore.product_defect(fc, fa, fb) <= matcore.operator_norm(C - A @ B) + fc[1] + 2 * slack + (
        matcore.remainder(np.abs(fa[0]).max(), fa[1], np.abs(fb[0]).max(), fb[1]))


# ---- the Operand record: a lone matrix's frame, facts and inverse, each read once ----

def operand_cases(dim=6, seed=5):
    """Cleared, planted (within and past the rule), rotated and non-hermitean matrices (complex;
    their real parts are the real cases)."""
    rng = np.random.Generator(np.random.Philox(seed))
    D = np.diag(rng.uniform(0.5, 2.0, dim))
    G = matcore.random_matrix(dim, seed)
    H = (G + G.conj().T) / 2.0
    U = np.linalg.qr(G)[0]
    return {"cleared": D, "planted-1e-12": D + 1e-12 * H.real, "planted-1e-3": D + 1e-3 * H.real,
            "rotated": U @ D @ U.conj().T, "non-hermitean-1e-12": D + 1e-12 * G, "non-hermitean": D + G,
            "complex-diagonal": np.diag(np.diagonal(G)) + 1e-12 * G}  # clears only without hermiticity


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("name", sorted(operand_cases()))
def test_the_operand_reads_the_former_frame_and_facts(name, dtype):
    A = operand_cases()[name]
    A = (A.real if dtype is np.float64 else A).astype(dtype)
    K = matcore.Operand(A)
    want = oracle_frame_facts(A)
    for field in ("sv", "herm", "eig", "err"):
        assert np.array_equal(getattr(K.facts, field), getattr(want, field)), field
    for need_herm in (True, False):
        got, want = matcore.Operand(A, need_herm=need_herm).frame, oracle_frame(A, need_herm)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_the_operand_reads_a_copy_of_a_writeable_array_and_adopts_a_read_only_one():
    A = np.diag([1.0, 2.0, 3.0])
    K = matcore.Operand(A)
    facts, frame = K.facts, K.frame
    A[:] = 7.0
    assert K.facts is facts and K.frame is frame
    assert K.facts.eig.tolist() == frame[0].tolist() == [1.0, 2.0, 3.0] and K.facts.norm == 3.0
    assert not K.A.flags.writeable and A.flags.writeable
    A.flags.writeable = False
    assert matcore.Operand(A).A is A
    with pytest.raises(AttributeError):
        K.A = A


def test_the_operand_inverse_is_formed_once_and_a_given_one_adopted():
    A = np.diag([1.0, 2.0, 4.0]) + 0.1 * np.eye(3, k=1)
    K = matcore.Operand(A)
    assert np.array_equal(K.inv.A, matcore.inv(A)) and K.inv is K.inv and K.inv.inv is K
    B = matcore.inv(A) * (1.0 + 1e-15)  # not inv(A) bit for bit: the given one is read
    given = matcore.Operand(A, B)
    assert np.array_equal(given.inv.A, B) and not np.array_equal(B, matcore.inv(A))
    assert given.inv.inv is given
    B.flags.writeable = False
    assert matcore.Operand(A, B).inv.A is B


@pytest.mark.parametrize("A", [np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 4.0]])])
def test_a_singular_operand_forms_no_inverse_until_it_is_read(A, monkeypatch):
    inverted, inv = [], matcore.inv
    monkeypatch.setattr(matcore, "inv", lambda B: inverted.append(B) or inv(B))
    K = matcore.Operand(A)
    assert not K.facts.invertible
    K.frame, K.split
    assert inverted == []
    with pytest.raises(np.linalg.LinAlgError):
        K.inv
    assert len(inverted) == 1


def test_an_operand_pair_is_freed_with_its_last_reader():
    # the inverse holds its record weakly: no reference cycle keeps a pair alive
    K = matcore.Operand(np.diag([1.0, 2.0]))
    ref, inverse = weakref.ref(K), K.inv
    assert inverse.inv is K
    del K
    assert ref() is None
    assert np.array_equal(inverse.inv.A, np.diag([1.0, 2.0])) and inverse.inv.inv is inverse
