"""Window products, pairing identity, and Cauchy diagnostics."""

import itertools

import numpy as np
import pytest

from quasinv import limits, matcore, states
from quasinv.errors import NotHermitian, RangeError, SingularWeight, SupportTooLarge
from quasinv.lattice import LocalOperator, Window

EXACT = 1e-12


def diagonal_sequence(n_terms, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    ws = []
    for _ in range(n_terms):
        p = rng.uniform(0.25, 0.75)
        ws.append(np.diag([p, 1.0 - p]))
    return limits.WindowProductSequence(np.eye(2) / 2.0, ws)


def random_density_sequence(n_terms, seed=0):
    ws = [matcore.random_density(2, floor=0.1, seed=seed * 1000 + k)
          for k in range(n_terms)]
    return limits.WindowProductSequence(np.eye(2) / 2.0, ws)


def test_flat_sequence_gives_identity():
    seq = limits.WindowProductSequence(np.eye(2) / 2.0, [np.eye(2) / 2.0] * 4)
    for N in range(1, 5):
        x = limits.x_window(seq, N)
        assert matcore.operator_norm(x.matrix - np.eye(2 ** N)) < EXACT


def test_single_window_is_first_factor():
    W1 = np.diag([0.7, 0.3])
    seq = limits.WindowProductSequence(np.eye(2) / 2.0, [W1])
    x = limits.x_window(seq, 1)
    assert np.max(np.abs(x.matrix - np.diag([1.4, 0.6]))) < EXACT


def test_window_product_matches_scalar_oracle():
    # diagonal data: every diagonal entry is a product of per-site scalars
    seq = diagonal_sequence(4, seed=3)
    x = limits.x_window(seq, 4).matrix
    diags = [np.diag(seq.factor(k)).real for k in range(1, 5)]
    for idx, bits in enumerate(itertools.product((0, 1), repeat=4)):
        expected = 1.0
        for k, b in enumerate(bits):
            expected *= diags[k][b]
        assert abs(x[idx, idx] - expected) < EXACT


def test_window_product_is_multiplicative_over_ranges():
    seq = random_density_sequence(4, seed=1)
    whole = limits.x_window(seq, 4).matrix
    left = seq.range_product(1, 2)
    right = seq.range_product(3, 4)
    assert matcore.operator_norm(whole - np.kron(left, right)) < EXACT
    embedded = np.kron(left, np.eye(4)) @ np.kron(np.eye(4), right)
    assert matcore.operator_norm(whole - embedded) < EXACT


def test_sequence_rejects_singular_weight():
    with pytest.raises(SingularWeight):
        limits.WindowProductSequence(np.eye(2) / 2.0, [np.diag([1.0, 0.0])])


def test_sequence_rejects_singular_reference():
    with pytest.raises(SingularWeight):
        limits.WindowProductSequence(np.diag([1.0, 0.0]), [np.eye(2) / 2.0])


def test_sequence_rejects_shape_mismatch():
    with pytest.raises(SingularWeight):
        limits.WindowProductSequence(np.eye(2) / 2.0, [np.eye(3) / 3.0])


def test_factor_index_bounds():
    seq = diagonal_sequence(3)
    with pytest.raises(RangeError):
        seq.factor(0)
    with pytest.raises(RangeError):
        seq.factor(4)
    with pytest.raises(RangeError):
        limits.x_window(seq, 5)


def test_pairing_identity_on_identity_observable():
    seq = diagonal_sequence(3, seed=5)
    a = LocalOperator(Window(2, 1), np.eye(2))
    for N in (1, 2, 3):
        assert limits.pairing_check(seq, a, N) < EXACT


def test_pairing_flat_sequence():
    seq = limits.WindowProductSequence(np.eye(2) / 2.0, [np.eye(2) / 2.0] * 3)
    a = LocalOperator(Window(2, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert limits.pairing_check(seq, a, 3) < EXACT


def test_pairing_is_window_independent():
    # the tail factors have unit trace against the reference, so every
    # window size N >= M gives the same (vanishing) residual
    seq = random_density_sequence(3, seed=7)
    rng = np.random.Generator(np.random.Philox(9))
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = LocalOperator(Window(2, 1), m)
    for N in (1, 2, 3):
        assert limits.pairing_check(seq, a, N) < EXACT


def test_pairing_two_site_observable():
    seq = random_density_sequence(3, seed=11)
    a = LocalOperator(Window(2, 2), matcore.random_hermitian(4, seed=2))
    for N in (2, 3):
        assert limits.pairing_check(seq, a, N) < EXACT


def test_pairing_rejects_oversized_support():
    seq = diagonal_sequence(3)
    a = LocalOperator(Window(2, 3), np.eye(8))
    with pytest.raises(SupportTooLarge):
        limits.pairing_check(seq, a, 2)


def test_cauchy_flat_sequence_is_zero():
    seq = limits.WindowProductSequence(np.eye(2) / 2.0, [np.eye(2) / 2.0] * 5)
    out = limits.cauchy_diagnostic(seq, 2, 5)
    assert out["diff"] < EXACT
    assert out["bound"] < EXACT
    assert out["summable_tail"] < EXACT


def test_cauchy_geometric_matches_scalar_oracle():
    seq = limits.preset_sequence("geometric", 12)
    eps = [0.25 * 4.0 ** (-k) for k in range(1, 13)]
    for M, N in ((0, 3), (2, 6), (3, 12), (6, 12)):
        out = limits.cauchy_diagnostic(seq, M, N)
        head = np.prod([1.0 + 2.0 * e for e in eps[:M]]) if M else 1.0
        grow = np.prod([1.0 + 2.0 * e for e in eps[M:N]])
        shrink = np.prod([1.0 - 2.0 * e for e in eps[M:N]])
        expected = head * max(grow - 1.0, 1.0 - shrink)
        assert abs(out["diff"] - expected) < EXACT
        assert abs(out["summable_tail"] - 2.0 * sum(eps[M:N])) < EXACT


def test_cauchy_diff_never_exceeds_bound():
    seq = random_density_sequence(6, seed=13)
    for M in range(6):
        for N in range(M + 1, 7):
            out = limits.cauchy_diagnostic(seq, M, N)
            assert out["diff"] <= out["bound"] + EXACT


def kronecker_diff(seq, M, N):
    """||x_[1,N] - x_[1,M]|| and ||x_[1,M]|| * ||x_[M+1,N] - 1|| from the
    explicit Kronecker products: the oracle for the spectral form."""
    tail = seq.range_product(M + 1, N)
    eye = np.eye(tail.shape[0])
    tail_dev = matcore.operator_norm(tail - eye)
    if M == 0:
        return tail_dev, tail_dev
    head = seq.range_product(1, M)
    diff = matcore.operator_norm(np.kron(head, tail) - np.kron(head, eye))
    return diff, matcore.operator_norm(head) * tail_dev


@pytest.mark.parametrize("seq", [limits.preset_sequence("geometric", 6),
                                 limits.preset_sequence("harmonic", 6),
                                 random_density_sequence(6, seed=17)],
                         ids=["geometric", "harmonic", "random"])
def test_cauchy_diff_matches_kronecker_oracle(seq):
    for M in range(6):
        for N in range(M + 1, 7):
            out = limits.cauchy_diagnostic(seq, M, N)
            diff, cross = kronecker_diff(seq, M, N)
            assert abs(out["diff"] - diff) <= EXACT
            assert cross <= out["bound"] + EXACT


def test_cauchy_geometric_decay_factor():
    seq = limits.preset_sequence("geometric", 12)
    diffs = [limits.cauchy_diagnostic(seq, M, 12)["diff"] for M in range(3, 11)]
    for a, b in zip(diffs, diffs[1:]):
        assert a / b >= 3.0


def test_cauchy_harmonic_tail_diverges():
    seq = limits.preset_sequence("harmonic", 20)
    t10 = limits.cauchy_diagnostic(seq, 0, 10)["summable_tail"]
    t20 = limits.cauchy_diagnostic(seq, 0, 20)["summable_tail"]
    assert t20 - t10 > 0.3


def test_cauchy_harmonic_differences_stall():
    # doubling windows: geometric differences vanish, harmonic ones do not
    geo = limits.preset_sequence("geometric", 16)
    har = limits.preset_sequence("harmonic", 16)
    for M in (4, 8):
        g = limits.cauchy_diagnostic(geo, M, 2 * M)["diff"]
        h = limits.cauchy_diagnostic(har, M, 2 * M)["diff"]
        assert g < 1e-3
        assert h > 0.05


def test_cauchy_range_errors():
    seq = diagonal_sequence(4)
    with pytest.raises(RangeError):
        limits.cauchy_diagnostic(seq, 3, 3)
    with pytest.raises(RangeError):
        limits.cauchy_diagnostic(seq, 0, 5)


@pytest.mark.parametrize("weight", [np.array([[0.5, 0.2], [0.0, 0.5]]),
                                    np.diag([0.5, -0.5])],
                         ids=["nonhermitean", "indefinite"])
def test_cauchy_rejects_nonpositive_factors(weight):
    seq = limits.WindowProductSequence(np.eye(2) / 2.0, [np.eye(2) / 2.0, weight])
    assert limits.cauchy_diagnostic(seq, 0, 1)["diff"] < EXACT
    with pytest.raises(NotHermitian):
        limits.cauchy_diagnostic(seq, 0, 2)


def test_diagnostic_series_shape_and_tail():
    seq = limits.preset_sequence("geometric", 8)
    series = limits.diagnostic_series(seq, 8)
    assert len(series) == 8
    tails = [row["tail"] for row in series]
    assert all(b >= a for a, b in zip(tails, tails[1:]))
    for row in series:
        assert row["diff"] <= row["bound"] + EXACT


def test_empirical_constant_matches_head_norms():
    seq = limits.preset_sequence("geometric", 10)
    eps = [0.25 * 4.0 ** (-k) for k in range(1, 11)]
    # diff(N-1, N) = ||x_[1,N-1]|| * dev_N, so C is the largest head norm
    expected = max(np.prod([1.0 + 2.0 * e for e in eps[:N - 1]])
                   for N in range(2, 11))
    got = limits.empirical_constant(seq, 10)
    assert abs(got - expected) < EXACT


def test_preset_rejects_unknown_kind():
    with pytest.raises(RangeError):
        limits.preset_sequence("cubic", 4)
    with pytest.raises(RangeError):
        limits.preset_sequence("geometric", 4, d=3)


def test_preset_harmonic_first_weight():
    seq = limits.preset_sequence("harmonic", 2)
    assert np.max(np.abs(seq.W_list[0] - np.diag([0.75, 0.25]))) < EXACT
