"""Every kernel runs in the dtype of its data.

matcore.promote lifts ints and float32 to float64 and complex64 to
complex128 and never demotes, so a real table, state or kappa stays real
through the table constructors, the means, the group average, the matrix
powers and the GNS factors, and a complex one stays complex.  No path may
drop an imaginary part (numpy discards one silently when a complex value is
assigned into a float array): a planted imaginary defect must fail.

The differential oracle runs every table check on real tables and on the
same tables cast to complex128, on D <= 16 windows: verdicts and witnesses
must be equal and residuals agree to 1e-13.
"""

import numpy as np
import pytest

from quasinv import cocycle, compact, gns, lattice, matcore, states
from quasinv.cocycle import CocycleTable
from quasinv.lattice import LocalOperator, Window, enumerate_group

from oracles import case_table, diag_table, family, matrix_power

AGREE = 1e-13

def as_complex(phi, T):
    """The same state and table with every array cast to complex128."""
    W = states.full_density(phi).astype(np.complex128)
    return (states.WeightedTraceState(phi.window, W, validate=False),
            CocycleTable(T.group, T.stack.astype(np.complex128), T.window))


# ---- the dtype contract ------------------------------------------------------

def test_real_inputs_stay_float64_everywhere():
    phi, T = diag_table(2, 3, 7)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    W = states.full_density(phi)
    assert T.stack.dtype == np.float64
    assert T.mean.dtype == np.float64 and T.mean_operand.inv.A.dtype == np.float64
    assert all(f.sv.dtype == np.float64 and f.eig.dtype == np.float64 for f in T.facts)
    assert compact.haar_average(T.group, LocalOperator(T.window, W)).matrix.dtype == np.float64
    for s in (0, 0.5, 2, -1):
        assert matrix_power(W, s).dtype == np.float64
    assert all(u.s.matrix.dtype == np.float64 for u in U.values())
    assert T.window.identity().matrix.dtype == np.float64
    assert lattice.embed(T.window, 2, np.eye(2)).matrix.dtype == np.float64
    for case in ("dtype:trivial-n4", "dtype:markov-n3"):
        assert case_table(case)[1].stack.dtype == np.float64


def test_complex_inputs_stay_complex128_everywhere():
    u = np.linalg.qr(matcore.random_matrix(2, seed=8))[0]
    phi, T = diag_table(2, 3, 7, rotation=u)
    R = gns.build_gns(phi)
    W = states.full_density(phi)
    assert T.stack.dtype == np.complex128 and T.mean.dtype == np.complex128
    assert compact.haar_average(T.group, LocalOperator(T.window, W)).matrix.dtype == np.complex128
    assert matrix_power(W, 0.5).dtype == np.complex128
    assert matrix_power(W, 0).dtype == np.complex128
    assert all(u.s.matrix.dtype == np.complex128 for u in gns.build_unitaries(R, T).values())
    assert lattice.embed(T.window, 2, u).matrix.dtype == np.complex128


def test_a_real_kappa_with_a_complex_inverse_gives_a_complex_table():
    group, window = enumerate_group(3), Window(2, 3)
    kappa = np.diag(np.linspace(1.0, 2.0, 8))
    real = cocycle._coboundary_table(group, window, matcore.Operand(kappa, np.linalg.inv(kappa)))
    phase = np.exp(0.3j)
    mixed = cocycle._coboundary_table(group, window, matcore.Operand(kappa, phase * np.linalg.inv(kappa)))
    assert real.stack.dtype == np.float64
    assert mixed.stack.dtype == np.complex128
    assert np.allclose(mixed.stack, phase * real.stack, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("given, promoted", [
    (np.int64, np.float64), (np.int32, np.float64), (np.float32, np.float64),
    (np.complex64, np.complex128), (np.float64, np.float64), (np.complex128, np.complex128),
])
def test_inputs_promote_and_are_never_demoted(given, promoted):
    window = Window(2, 2)
    a = (np.arange(16).reshape(4, 4) % 3 + 2 * np.eye(4, dtype=int)).astype(given)
    if np.issubdtype(given, np.complexfloating):
        a = a + (1j * np.eye(4)).astype(given)
    assert matcore.promote(a).dtype == promoted
    assert np.array_equal(matcore.promote(a), a)
    assert LocalOperator(window, a).matrix.dtype == promoted
    assert states.WeightedTraceState(window, a, validate=False).W.dtype == promoted
    assert CocycleTable(enumerate_group(2), np.stack([a, a]), window).stack.dtype == promoted
    assert matcore.inv(a).dtype == promoted
    assert lattice.embed(Window(4, 2), 1, a).matrix.dtype == promoted
    assert matcore.operator_norm(a) == matcore.operator_norm(a.astype(promoted))
    P = (a @ a.conj().T).astype(given)
    assert matrix_power(P, 1).dtype == promoted


def test_a_planted_imaginary_defect_is_kept_and_fails():
    phi, T = diag_table(2, 3, 11)
    stack = T.stack.astype(np.complex128)
    stack[1, 0, -1] += 1e-3j
    planted = CocycleTable(T.group, stack, T.window)
    assert planted.stack.dtype == np.complex128
    assert planted.stack[1, 0, -1].imag == 1e-3
    law = cocycle.verify_cocycle_law(planted)
    strong = cocycle.verify_strong(planted, phi)
    assert not law.passed and law.residual >= 1e-3
    assert not strong.passed and strong.details["hermiticity"] >= 1e-3
    assert strong.witness == {"g": list(T.group[1].image), "part": "hermiticity"}


# ---- the differential oracle: real against complex128 ------------------------

def table_checks(phi, T):
    """Every check of a strong table and its state, as (name, residual, passed,
    witness); the GNS checks give their dicts' residuals and pass flags."""
    moved = max(max(lattice.support(g), default=1) for g in T.group)
    x = T.entries[T.group[1].image]  # an entry of a strong table is in the centralizer
    sub = [g for g in T.group if g(1) == 1]
    reports = [
        cocycle.verify_normalization(T),
        cocycle.verify_cocycle_law(T),
        cocycle.verify_inverse_relation(T),
        cocycle.verify_quasi_invariance(phi, T),
        cocycle.verify_strong(T, phi),
        cocycle.verify_centralizer_transport(phi, T, x),
        cocycle.power_relation_check(T, s_list=(-1.0, 0.5, 1.0, 2.0)),
        *cocycle.locally_trivial_check(T, sorted({2, moved})),
        compact.verify_structure(phi, T),
        compact.restriction_consistency(phi, T, [sub, list(T.group)]),
    ]
    out = [(r.name, r.residual, r.passed, r.witness) for r in reports]
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    unit = gns.verify_unitaries(R, U, T.group)
    out += [(f"gns.{key}", unit[key], unit["pass"], None)
            for key in ("unitarity", "group_law", "adjoint", "residual")]
    for name, check in (("covariance", gns.verify_covariance),
                        ("lifted", gns.verify_lifted_expectation)):
        rep = check(R, U, T.group)
        out.append((f"gns.{name}", rep["residual"], rep["pass"], None))
    return out


@pytest.mark.parametrize("case", family("dtype"))
def test_real_and_complex_tables_give_the_same_verdicts(case):
    phi, T = case_table(case)
    assert T.window.total_dim <= 16 and T.stack.dtype == np.float64
    phi_c, T_c = as_complex(phi, T)
    real, cplx = table_checks(phi, T), table_checks(phi_c, T_c)
    assert [r[0] for r in real] == [c[0] for c in cplx]
    for (name, r_res, r_pass, r_wit), (_, c_res, c_pass, c_wit) in zip(real, cplx):
        assert r_pass and c_pass, name
        assert r_wit == c_wit, name
        assert abs(r_res - c_res) <= AGREE, (name, r_res, c_res)


@pytest.mark.parametrize("case", ["dtype:product-d2-n3", "dtype:markov-n3"])
def test_real_and_complex_tables_fail_alike_on_a_planted_defect(case):
    phi, T = case_table(case)
    stack = T.stack.copy()
    stack[1, 0, -1] += 1e-3
    planted = CocycleTable(T.group, stack, T.window)
    phi_c, planted_c = as_complex(phi, planted)
    for check in (lambda phi, T: cocycle.verify_cocycle_law(T),
                  lambda phi, T: cocycle.verify_inverse_relation(T),
                  cocycle.verify_quasi_invariance,
                  lambda phi, T: cocycle.verify_strong(T, phi)):
        r, c = check(phi, planted), check(phi_c, planted_c)
        assert not r.passed and not c.passed
        assert r.witness == c.witness
        assert abs(r.residual - c.residual) <= AGREE

