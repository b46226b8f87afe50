"""The factored GNS suite against the dense D^2 x D^2 construction.

`DenseGns` is the construction written out as matrices: the gram
W^T (x) 1, pi(a) = 1 (x) a and U_g = (P_g* s_g)^T (x) P_g, with P_g the dense
permutation unitary, and the verifiers as operator norms of D^2 x D^2
residuals.  It is kept only as the oracle: every factored residual must
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
from quasinv.lattice import LocalOperator, act, enumerate_group, extend
from test_lattice import permutation_unitary

TOL = gns.GNS_TOL
MATCH = 1e-12


def _m(a):
    return a.matrix if isinstance(a, LocalOperator) else np.asarray(a, dtype=complex)


class DenseGns:
    """The D^2 x D^2 representation of a faithful state and its verifiers."""

    def __init__(self, phi):
        W = states.full_density(phi)
        self.window = phi.window
        self.D = D = W.shape[0]
        self.gram = np.kron(W.T, np.eye(D))
        self.gram_inv = np.kron(np.linalg.inv(W.T), np.eye(D))
        self.Phi = gns.vec(np.eye(D))

    def pi(self, a):
        return np.kron(np.eye(self.D), _m(a))

    def adjoint(self, M):
        return self.gram_inv @ M.conj().T @ self.gram

    def orthonormal_form(self, M):
        L = np.linalg.cholesky(self.gram)
        return L.conj().T @ M @ np.linalg.inv(L.conj().T)

    def unitaries(self, T, tol=TOL):
        for g in T.group:
            x = T.entries[g.image].matrix
            if matcore.herm_defect(x) > tol * max(1.0, matcore.operator_norm(x)):
                raise NotStrongCocycle(f"entry for {g.image} is not hermitean")
            if np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0] <= 0:
                raise NotStrongCocycle(f"entry for {g.image} is not positive")
        out = {}
        for g in T.group:
            s = matcore.matrix_power(T.entries[g.inverse().image].matrix, 0.5)
            P = permutation_unitary(g, self.window)
            out[g.image] = np.kron((P.conj().T @ s).T, P)
        return out

    def verify_unitaries(self, U, group):
        I = np.eye(self.D * self.D)
        unit = law = adj = 0.0
        for g in group:
            Ug = U[g.image]
            unit = max(unit, matcore.operator_norm(self.adjoint(Ug) @ Ug - I))
            adj = max(adj, matcore.operator_norm(self.adjoint(Ug) - U[g.inverse().image]))
        for g in group:
            for h in group:
                law = max(law, matcore.operator_norm(U[g.image] @ U[h.image] - U[(g * h).image]))
        resid = max(unit, law, adj)
        return {"unitarity": unit, "group_law": law, "adjoint": adj, "residual": resid,
                "pass": resid <= TOL}

    def verify_covariance(self, U, group, probes):
        worst = 0.0
        for g in group:
            Ug = U[g.image]
            sharp = self.adjoint(Ug)
            for a in probes:
                lhs = sharp @ self.pi(a) @ Ug
                rhs = self.pi(act(g.inverse(), a))
                worst = max(worst, matcore.operator_norm(lhs - rhs))
        return {"residual": worst, "pass": worst <= TOL}

    def lift(self, U, subgroup):
        pairs = [(U[g.image], self.adjoint(U[g.image])) for g in subgroup]
        return lambda X: sum(sharp @ X @ Ug for Ug, sharp in pairs) / len(pairs)

    def verify_lifted_expectation(self, U, subgroup, probes):
        lifted = self.lift(U, subgroup)
        worst = 0.0
        for a in probes:
            average = sum(act(g, a).matrix for g in subgroup) / len(subgroup)
            worst = max(worst, matcore.operator_norm(lifted(self.pi(a)) - self.pi(average)))
        return {"residual": worst, "pass": worst <= TOL}

    def cyclicity_rank(self):
        cols = [self.pi(a) @ self.Phi for a in states.matrix_unit_probes(self.window)]
        return int(np.linalg.matrix_rank(np.column_stack(cols), tol=1e-10))


def seeded_weights(d, n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for _ in range(n):
        w = rng.uniform(0.2, 0.8, size=d)
        out.append(np.diag(w / w.sum()))
    return out


def seeded_case(d, n, k, seed):
    """A product state on d^n whose site densities are diagonal in one
    common non-standard basis (so the table is strong but W is not
    diagonal), and the product-state cocycle of S_k on its first k sites."""
    V, _ = np.linalg.qr(matcore.random_matrix(d, seed=seed))
    phi = states.product_state(d, [V @ w @ V.conj().T for w in seeded_weights(d, n, seed)])
    group = [extend(g, n) for g in enumerate_group(k)]
    return phi, cocycle.product_state_cocycle(phi, group)


def plant(T, eps):
    """Perturb the entry of the first non-identity element by eps e_00; the
    table stays strong (hermitean, positive) but breaks the cocycle law."""
    target = next(g for g in T.group if not g.is_identity())
    entries = dict(T.entries)
    m = entries[target.image].matrix.copy()
    m[0, 0] += eps
    entries[target.image] = LocalOperator(T.window, m)
    return CocycleTable(T.group, entries, T.window)


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
    phi, T = seeded_case(d, n, k, seed=d * 10 + n)
    factored, oracle = both(phi, T, probe_set(phi.window))
    assert_agree(factored, oracle)
    assert all(f["pass"] for f in factored)


@pytest.mark.parametrize("d, n, k", CASES)
def test_factored_suite_matches_dense_on_planted_defects(d, n, k):
    phi, T = seeded_case(d, n, k, seed=d * 10 + n)
    factored, oracle = both(phi, plant(T, 1e-2), probe_set(phi.window))
    assert_agree(factored, oracle)
    unit, cov, lift = factored
    assert not unit["pass"] and not cov["pass"] and not lift["pass"]
    assert unit["unitarity"] > 1e-3


def test_planted_defect_lifted_residual_is_tight_for_one_bad_element():
    # only C_t is nonzero, so the bound (1/|G|) ||C_t|| ||a|| is attained
    phi, T = seeded_case(2, 3, 3, seed=23)
    (_, _, lift), (_, _, lift_d) = both(phi, plant(T, 1e-2), probe_set(phi.window))
    assert abs(lift["residual"] - lift_d["residual"]) <= MATCH


def test_covariance_and_lift_without_probes_cover_the_unit_ball():
    phi, T = seeded_case(2, 3, 3, seed=5)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, plant(T, 1e-2))
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
    phi, T = seeded_case(d, n, k, seed=3)
    T_bad = make(phi, T.group)
    with pytest.raises(NotStrongCocycle):
        DenseGns(phi).unitaries(T_bad)
    with pytest.raises(NotStrongCocycle):
        gns.build_unitaries(gns.build_gns(phi), T_bad)


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_factored_unitary_is_the_dense_matrix(d, n, k):
    phi, T = seeded_case(d, n, k, seed=11)
    R = gns.build_gns(phi)
    U, Ud = gns.build_unitaries(R, T), DenseGns(phi).unitaries(T)
    for g in T.group:
        for a in states.matrix_unit_probes(phi.window):
            assert np.max(np.abs(gns.vec(U[g.image](a).matrix) - Ud[g.image] @ gns.vec(a.matrix))) <= MATCH


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_lift_matches_dense_lift(d, n, k):
    phi, T = seeded_case(d, n, k, seed=13)
    R, dense = gns.build_gns(phi), DenseGns(phi)
    U, Ud = gns.build_unitaries(R, plant(T, 1e-2)), dense.unitaries(plant(T, 1e-2))
    X = matcore.random_matrix(R.dim, seed=17)
    got = gns.lift_conditional_expectation(R, U, T.group)(X)
    want = dense.lift(Ud, T.group)(X)
    assert matcore.operator_norm(got - want) <= MATCH * max(1.0, matcore.operator_norm(want))


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_orthonormal_form_matches_dense(d, n, k):
    phi, _ = seeded_case(d, n, k, seed=19)
    R, dense = gns.build_gns(phi), DenseGns(phi)
    M = matcore.random_matrix(R.dim, seed=29)
    want = dense.orthonormal_form(M)
    assert matcore.operator_norm(R.orthonormal_form(M) - want) <= 1e-10 * matcore.operator_norm(want)


@pytest.mark.parametrize("d, n, k", CASES[:3])
def test_cyclicity_rank_matches_dense(d, n, k):
    phi, _ = seeded_case(d, n, k, seed=7)
    D = d ** n
    assert gns.cyclicity_rank(gns.build_gns(phi)) == DenseGns(phi).cyclicity_rank() == D * D


def test_gns_suite_passes_at_dimension_32():
    phi, T = seeded_case(2, 5, 3, seed=32)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    assert gns.verify_unitaries(R, U, T.group)["pass"]
    assert gns.verify_covariance(R, U, T.group)["pass"]
    assert gns.verify_lifted_expectation(R, U, T.group)["pass"]
    assert gns.cyclicity_rank(R) == 32 * 32
    planted = gns.build_unitaries(R, plant(T, 1e-6))
    assert not gns.verify_unitaries(R, planted, T.group)["pass"]
    assert not gns.verify_covariance(R, planted, T.group)["pass"]
