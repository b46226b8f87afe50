"""The one stacked group action and the checks that read it in blocks.

lattice.gather is the only place the permutation action is written: g(a) =
a[q][:, q] with q a row of lattice.group_index, g^-1 through a row of
lattice.inverse_index, for one matrix or a stack.  It is checked against
an oracle that never touches lattice's index arrays: the (d,)*2N tensor
of the matrix with its axes transposed, as perfbench's act_by_axes does.

The checks that used to loop over the group one element at a time
(states.is_exchangeable, qmc.y_cocycle and qmc.sandwich_residual, the gns
gram defects, sharp factors and the checks built on them) now move one
block of elements per stacked gather.  Their former per-element forms are
kept in tests/oracles.py; values agree bit for bit (np.array_equal, ==) on
real and complex128 inputs.
"""

import tracemalloc

import numpy as np
import pytest

from quasinv import cocycle, gns, lattice, matcore, qmc, states
from quasinv.cocycle import CocycleTable
from quasinv.lattice import (
    LocalOperator,
    Permutation,
    Window,
    act,
    act_inverse,
    enumerate_group,
    extend,
    gather,
    group_index,
    inverse_index,
)

from oracles import (
    cyclic_shift, generic_chain, gram_defect, lift_conditional_expectation, per_element_exchangeability,
    per_element_lift, per_element_sandwich, per_element_verify_unitaries, sharp_factor, svd_scaled_covariance, svd_scaled_lifted_expectation,
    y_from_chain,
)


# ---- the action against transposed tensor axes --------------------------------

def axes_act(image, a, d):
    """g(a) by moving tensor axes: the factor on site n goes to site g(n)."""
    N = len(image)
    inv = [0] * N
    for n, gn in enumerate(image):
        inv[gn - 1] = n
    t = np.asarray(a).reshape((d,) * (2 * N))
    return t.transpose(inv + [N + k for k in inv]).reshape(d ** N, d ** N)


def inverse_image(image):
    out = [0] * len(image)
    for n, gn in enumerate(image, start=1):
        out[gn - 1] = n
    return tuple(out)


def seeded_perms(N, count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return [Permutation(tuple(int(n) + 1 for n in rng.permutation(N))) for _ in range(count)]


ACTION_SIZES = [(d, N) for d in (2, 3) for N in (1, 2, 3, 4)]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("d,N", ACTION_SIZES)
def test_gather_moves_tensor_axes(d, N, complex_):
    window, D = Window(d, N), d ** N
    perms = seeded_perms(N, 5, seed=10 * d + N)
    seeds = [100 * d + 10 * N + k for k in range(len(perms))]
    stack = matcore.random_matrix(D, seeds)
    stack = stack if complex_ else stack.real.copy()
    a = stack[0]
    Q, Qi = group_index(perms, window), inverse_index(perms, window)
    moved, unmoved = gather(stack, Q), gather(stack, Qi)  # one matrix per row
    one, one_inv = gather(a, Q), gather(a, Qi)             # one matrix, every row
    for k, g in enumerate(perms):
        image, back = g.image, inverse_image(g.image)
        assert np.array_equal(gather(a, Q[k]), axes_act(image, a, d))
        assert np.array_equal(gather(a, Qi[k]), axes_act(back, a, d))
        assert np.array_equal(one[k], axes_act(image, a, d))
        assert np.array_equal(one_inv[k], axes_act(back, a, d))
        assert np.array_equal(moved[k], axes_act(image, stack[k], d))
        assert np.array_equal(unmoved[k], axes_act(back, stack[k], d))
        # one index row on a whole stack
        assert np.array_equal(gather(stack, Q[k])[-1], axes_act(image, stack[-1], d))
        # act and act_inverse are the one-row case
        assert np.array_equal(act(g, LocalOperator(window, a)).matrix, axes_act(image, a, d))
        assert np.array_equal(act_inverse(g, LocalOperator(window, a)).matrix, axes_act(back, a, d))
    assert moved.dtype == stack.dtype
    assert np.array_equal(gather(moved, Qi), stack)


def test_inverse_rows_are_those_of_the_inverse_elements():
    window = Window(2, 4)
    perms = seeded_perms(4, 8, seed=3)
    assert np.array_equal(inverse_index(perms, window),
                          group_index([g.inverse() for g in perms], window))
    assert not inverse_index(perms, window).flags.writeable
    assert inverse_index(perms, window) is inverse_index(list(perms), window)


# ---- qmc: the y stack and the sandwich ----------------------------------------

def markov_chain(N, complex_):
    return generic_chain(N, seed=N) if complex_ else qmc.MarkovState(
        2, np.eye(2) / 2.0, qmc.seeded_chain(N, seed=N))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("N", [3, 4, 5])
def test_y_stack_and_sandwich_equal_the_per_element_forms(N, complex_):
    M, group = markov_chain(N, complex_), enumerate_group(N)
    y = qmc.y_cocycle(M, group)
    assert y.dtype == (np.complex128 if complex_ else np.float64)
    got = qmc.sandwich_residual(M, group, y=y)
    assert np.array_equal(qmc.sandwich_residual(M, group), got)
    yy = y @ matcore.dagger(y)
    for k, g in enumerate(group):
        want = y_from_chain(M, g)
        assert np.array_equal(y[k], want)
        assert got[k] == per_element_sandwich(M, g)
        assert np.array_equal(yy[k], want @ want.conj().T)
    # blocks of the list give the rows of the whole list
    assert np.array_equal(np.concatenate([qmc.sandwich_residual(M, group[k:k + 5])
                                          for k in range(0, len(group), 5)]), got)


# ---- states: exchangeability ----------------------------------------------------

def exchange_states(d, N):
    rng = np.random.Generator(np.random.Philox(d * N))
    diag = [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, size=(N, d))]
    dense = [matcore.random_density(d, 0.1, seed=d * N + k) for k in range(N)]
    return (states.homogeneous_state(d, N, np.eye(d) / d), states.product_state(d, diag),
            states.product_state(d, dense))


@pytest.mark.parametrize("d,N", [(2, 2), (2, 4), (2, 6), (3, 3)])
def test_exchangeability_equals_the_per_element_form(d, N):
    for psi in exchange_states(d, N):
        for group in (enumerate_group(N), [cyclic_shift(N)], []):
            got = states.is_exchangeable(psi, group)
            assert type(got) is float and got == per_element_exchangeability(psi, group)
    assert states.full_density(exchange_states(d, N)[2]).dtype == np.complex128


# ---- gns: gram defects, sharp factors and the checks on them --------------------

GNS_SIZES = [(2, 4, 2), (2, 3, 3), (3, 2, 2), (2, 5, 5)]  # D 16 S_2, D 8 S_3, D 9 S_2, D 32 S_5


def gns_case(d, n, k, complex_, eps=0.0):
    rng = np.random.Generator(np.random.Philox(100 * d + 10 * n + k))
    ws = [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, size=(n, d))]
    if complex_:  # one unitary on every site: the entries stay strong, now dense and complex
        u = np.linalg.qr(matcore.random_matrix(d, seed=n))[0]
        ws = [u @ w @ u.conj().T for w in ws]
    phi = states.product_state(d, ws)
    group = [extend(g, n) for g in enumerate_group(k)]
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, cocycle.product_state_cocycle(phi, group))
    if eps:  # a hermitean plant on the first s_g, kept positive
        g0 = group[1].image
        s = U[g0].s.matrix.copy()
        s[0, -1] += eps
        s[-1, 0] += np.conj(eps)
        U = {**U, g0: gns.CovariantUnitary(U[g0].g, LocalOperator(phi.window, s))}
    return R, U, group


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("d,n,k", GNS_SIZES)
def test_gns_stacks_equal_the_per_element_forms(d, n, k, complex_, eps):
    R, U, group = gns_case(d, n, k, complex_, eps)
    s, q = gns._factors(R, U, group)
    assert s.dtype == (np.complex128 if complex_ else np.float64)
    C, t = gns._gram_defects(R, s, q), gns._sharp_factors(R, s, q)
    for j, g in enumerate(group):
        assert np.array_equal(C[j], gram_defect(R, U[g.image]))
        assert np.array_equal(t[j], sharp_factor(R, U[g.image]))
    got = gns.verify_unitaries(R, U, group)
    assert got == per_element_verify_unitaries(R, U, group)
    assert got["pass"] == (eps == 0.0)
    # the probe sets gns-dense passes: the row-norm scale of the matrix units is
    # their SVD scale, 1.0, so covariance and the lift keep the oracle's bits
    for probes in (None, states.matrix_unit_probes(R.window)):
        assert gns.verify_covariance(R, U, group, probes) == svd_scaled_covariance(R, U, group, probes)
        assert (gns.verify_lifted_expectation(R, U, group, probes)
                == svd_scaled_lifted_expectation(R, U, group, probes))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("d,n,k", GNS_SIZES)
def test_a_planted_factor_fails_covariance_and_the_lift_on_random_probes(d, n, k, complex_):
    R, U, group = gns_case(d, n, k, complex_, eps=1e-3)
    clean = gns_case(d, n, k, complex_)
    probes = [matcore.random_matrix(R.D, seed=40 + j, scale=0.3 + j) for j in range(3)]
    for check, oracle in ((gns.verify_covariance, svd_scaled_covariance),
                          (gns.verify_lifted_expectation, svd_scaled_lifted_expectation)):
        got, exact = check(R, U, group, probes), oracle(R, U, group, probes)
        assert not got["pass"] and not exact["pass"]
        assert exact["residual"] <= got["residual"] <= np.sqrt(R.D) * exact["residual"]
        assert check(*clean, probes)["pass"]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("d,n,k", GNS_SIZES[:3])
def test_lift_equals_the_per_element_form(d, n, k, complex_):
    R, U, group = gns_case(d, n, k, complex_)
    X = matcore.random_matrix(R.dim, seed=5)
    got, want = lift_conditional_expectation(R, U, group)(X), per_element_lift(R, U, group)(X)
    assert matcore.operator_norm(got - want) <= 1e-12 * matcore.operator_norm(want)


# ---- read-only table caches -----------------------------------------------------

def planted_product(N, eps):
    phi = states.product_state(2, [np.diag([0.3 + 0.05 * k, 0.7 - 0.05 * k]) for k in range(N)])
    T = cocycle.product_state_cocycle(phi, enumerate_group(N))
    stack = T.stack.copy()
    stack[1, 0, -1] += eps
    return phi, CocycleTable(T.group, stack, T.window)


def test_table_caches_are_read_only():
    phi, T = planted_product(4, 1e-3)
    assert not cocycle.verify_inverse_relation(T, tol=1e-9).passed
    with pytest.raises(ValueError):
        T.inverse_defects[:] = 0.0
    assert not cocycle.verify_inverse_relation(T, tol=1e-9).passed
    assert cocycle.verify_inverse_relation(T, tol=1e-9).residual >= 0.5e-3
    f = T.facts
    cached = {"sv": f.sv, "herm": f.herm, "eig": f.eig, "hermitean": f.hermitean,
              "norm": f.norm, "inverse_defects": T.inverse_defects,
              "mean_defects": T.mean_defects, "mean": T.mean, "mean_inv": T.mean_operand.inv.A}
    for name, a in cached.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


# ---- blocks: no check holds a table's worth of moved matrices ------------------

def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_markov_sandwich_runs_in_blocks():
    # the markov runner's pass at n 6: one y stack per block serves the sandwich and x = y y*
    M, group = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(6, 1)), enumerate_group(6)
    M.R_inv, M.density  # the chain's own matrices, built once, are not the check's
    table_bytes = len(group) * M.R.matrix.nbytes

    def sandwich():
        for r in lattice._blocks(len(group), M.R.matrix.nbytes):
            sub = [group[k] for k in r]
            y = qmc.y_cocycle(M, sub)
            qmc.sandwich_residual(M, sub, y=y)
            matcore.operator_norm(y @ matcore.dagger(y))
    assert traced_peak(sandwich) < table_bytes / 16


def test_exchangeability_runs_in_blocks():
    psi, group = states.homogeneous_state(2, 6, np.eye(2) / 2), enumerate_group(6)
    W = states.full_density(psi)
    assert traced_peak(lambda: states.is_exchangeable(psi, group)) < len(group) * W.nbytes / 16
