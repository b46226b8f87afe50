"""A diagonal table read in the standard basis, against its dense forms.

When every entry x_g = D_g + E_g (diagonal, off-diagonal) is hermitean with
||E_g||_F <= RHO max(1, max|D_g|), the table's matcore.Operand reads it off
its diagonals: the facts are sorted |D_g| and Re D_g within err = ||E_g||_F, and

    eps(g)   = max|d_g d_b[q_g] - 1| + ||E_g|| max|D_b| + max|D_g| ||E_b|| + ||E_g|| ||E_b||
    ||x_g - K g^-1(N)|| <= max|d_g - k n[q_g]| + ||E_g|| + max|k| ||E_N|| + ||E_K|| max|n| + ||E_K|| ||E_N||

(b = g^-1; K = diag(k) + E_K and N = K^-1 = diag(n) + E_N clearing the same
rule: the mean for the law's delta(g), a subgroup mean for local triviality,
the mean's hermitean part for the structure decomposition, W^-1 for the
restriction).  The dense forms, kept in tests/oracles.py, are the per-entry
SVDs and eigvalsh and the table read without the standard basis (`eigenframe`:
each entry decomposed, the strong check's commutators in T.basis).  On clean
tables, real and complex128, with and without spectator sites, every fact and
defect equals the dense value bit for bit, every check reports what the dense
reading and the per-entry forms report, and T.basis is never built.  Under an
off-diagonal plant below RHO each value lies between the exact one and the
exact one plus its stated terms, and each check reports the dense reading's
verdict and witness.  A 1e-3 plant, a negated entry and a singular entry give
the reports the dense reading gives; a diagonal
table against a rotated state gives the restriction's dense residual; and the
markov runner's ||x_g - y_g y_g*||, read off the diagonals, lies within its
stated terms of the dense value under plants in x and in y.
"""

import json

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, matcore, qmc, states
from quasinv.cocycle import CocycleTable, VerificationReport
from quasinv.lattice import embed_pair, enumerate_group, group_table, support

from oracles import (
    EPS, broken, close, converse_case, diag_product, eigenframe, markov_case, outcome,
    per_entry_coboundary_defects, per_entry_facts, per_entry_inverse_defects, per_entry_locally_trivial,
    per_entry_restriction, per_entry_structure, product_case, rotated_product,
)

CLEAN = {
    "product-d2-S4": lambda: product_case(diag_product, 2, 4, 4, 31),
    "product-d3-S3": lambda: product_case(diag_product, 3, 3, 3, 32),
    "product-d2-S3-in-5": lambda: product_case(diag_product, 2, 5, 3, 33),
    "markov-S4": lambda: markov_case(4, 34),
    "trivial-d2-S4": lambda: converse_case(2, 4, 35),
}
_built = {}


def clean_case(name, dtype):
    """A clean diagonal table, its stack in the dtype, caches cold."""
    if name not in _built:
        _built[name] = CLEAN[name]()
    phi, T = _built[name]
    return phi, CocycleTable(T.group, T.stack.astype(dtype), T.window)


CHECKS = {
    "normalization": lambda phi, T: cocycle.verify_normalization(T),
    "cocycle_law": lambda phi, T: cocycle.verify_cocycle_law(T),
    "inverse_relation": lambda phi, T: cocycle.verify_inverse_relation(T),
    "quasi_invariance": lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
    "strong": lambda phi, T: cocycle.verify_strong(T, phi),
    "power_relation": lambda phi, T: cocycle.power_relation_check(T),
    "locally_trivial": lambda phi, T: cocycle.locally_trivial_check(T, range(2, T.window.N + 1)),
    "kappa": lambda phi, T: compact.kappa(T).matrix.tolist(),
    "structure": lambda phi, T: compact.verify_structure(phi, T),
    "restriction": lambda phi, T: compact.restriction_consistency(phi, T, [stabilizer(T), T.group]),
}
DTYPES = [np.float64, np.complex128]


def stabilizer(T):
    """The elements that fix the highest site the group moves, as the structure scenario's subgroup."""
    top = max(max(support(g), default=1) for g in T.group)
    return [g for g in T.group if g(top) == top]


def dense_deltas(T):
    return np.array([r for _, r, *_ in per_entry_coboundary_defects(T, T.mean, T.mean_operand.inv.A)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_clean_table_reads_the_dense_values_bit_for_bit(name, dtype):
    phi, T = clean_case(name, dtype)
    assert T.frame() is not None and not T.facts.err.any()
    for f, want in zip(T.facts, per_entry_facts(T), strict=True):
        assert np.array_equal(f.sv, want.sv) and np.array_equal(f.eig, want.eig)
        assert f.herm == want.herm and (f.hermitean, f.invertible) == (want.hermitean, want.invertible)
    assert np.array_equal(T.inverse_defects, per_entry_inverse_defects(T))
    assert np.array_equal(T.mean_defects, dense_deltas(T))
    assert "basis" not in vars(T)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_clean_table_reports_what_its_eigenbasis_reports(name, dtype, check):
    phi, T = clean_case(name, dtype)
    assert outcome(CHECKS[check], phi, T) == outcome(CHECKS[check], phi, eigenframe(T))
    assert "basis" not in vars(T)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_clean_table_reports_the_dense_coboundary_forms(name, dtype):
    # the eigenframe reading bounds the commutation of kappa with g^-1(kappa^-1) as this one
    # does; the per-entry forms take the dense commutator and one SVD a row
    phi, T = clean_case(name, dtype)
    subgroups, sizes = [stabilizer(T), T.group], range(2, T.window.N + 1)
    W = states.full_density(phi)
    frames = matcore.Operand(np.linalg.inv(W)).frame, matcore.Operand(W).frame
    assert matcore.commutator_bound(*frames) == 0.0  # the restriction reads the diagonals
    assert compact.verify_structure(phi, T) == per_entry_structure(phi, T)
    assert compact.restriction_consistency(phi, T, subgroups) == per_entry_restriction(phi, T, subgroups)
    assert cocycle.locally_trivial_check(T, sizes) == per_entry_locally_trivial(T, sizes)
    assert "basis" not in vars(T)


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_rotated_state_against_a_diagonal_table_takes_the_dense_residual(dtype):
    # the table is read in the standard basis, W^-1 is not diagonal there: each row takes its
    # SVD, and the residual and witness are the per-entry form's
    T = clean_case("product-d2-S4", dtype)[1]
    phi, subgroups = rotated_product(2, 4, 31), [stabilizer(T), T.group]
    W = states.full_density(phi)
    assert T.frame() is not None and None in (matcore.Operand(np.linalg.inv(W)).frame, matcore.Operand(W).frame)
    got = compact.restriction_consistency(phi, T, subgroups)
    assert got == per_entry_restriction(phi, T, subgroups) == compact.restriction_consistency(
        phi, eigenframe(T), subgroups)
    assert not got.passed and got.witness is not None


def off_diagonal_plant(T, k, eps):
    """eps at m[i, j] and m[j, i] of entry k, i and j the basis vectors with a 1 on site 1
    or 2: hermitean, off the diagonal, at indices the group moves (m[0, -1] no
    permutation moves, so there the mean's off-diagonal part cancels out of delta)."""
    stack, i, j = T.stack.copy(), T.window.total_dim // T.window.d, T.window.total_dim // T.window.d ** 2
    stack[k, i, j] += eps
    stack[k, j, i] += eps
    return CocycleTable(T.group, stack, T.window)


def within(got, want, terms, D):
    """want <= got <= want + terms, up to 16 D eps of the largest exact value."""
    r = 16 * D * EPS * want.max()
    return np.all(want - r <= got) and np.all(got <= want + terms + r)


@pytest.mark.parametrize("involution", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_plant_below_rho_lies_within_its_stated_terms(name, dtype, involution):
    # a hermitean 1e-12 pair on the first moved element that is (or is not) its own inverse
    phi, T = clean_case(name, dtype)
    inv = group_table(T.group)[1]
    k = next(i for i in range(1, len(inv)) if (inv[i] == i) == involution)
    T = off_diagonal_plant(T, k, 1e-12)
    _, diag, off = T.split
    assert off[k] == pytest.approx(np.sqrt(2.0) * 1e-12) and np.count_nonzero(off) == 1
    for f, want in zip(T.facts, per_entry_facts(T), strict=True):
        r = f.err + 16 * len(T.stack[0]) * EPS * f.norm
        assert np.abs(f.sv - want.sv).max() <= r and np.abs(f.eig - want.eig).max() <= r
        assert want.herm <= f.herm and (f.hermitean, f.invertible) == (want.hermitean, want.invertible)
    eps, want = T.inverse_defects, per_entry_inverse_defects(T)
    assert within(eps, want, off * diag[inv] + diag * off[inv] + off * off[inv], len(T.stack[0]))
    assert want[[k, inv[k]]].min() > 1e-13
    (_, m, e_m), (_, n, e_n) = (matcore.split(a.copy()) for a in (T.mean, T.mean_operand.inv.A))
    assert e_m > 0.0 and e_n > 0.0
    assert within(T.mean_defects, dense_deltas(T), off + m * e_n + e_m * n + e_m * e_n, len(T.stack[0]))
    # the structure's kappa is the mean's hermitean part: its match lies within the same
    # terms, its commutation at 2 remainder(max|k|, ||E_K||, max|n|, ||E_N||)
    kap = (T.mean + T.mean.conj().T) / 2.0
    (h_k, m_k, e_k), (h_n, m_n, e_n) = (matcore.split(a.copy()) for a in (kap, np.linalg.inv(kap)))
    assert matcore.clears(np.r_[h_k, h_n], np.r_[m_k, m_n], np.r_[e_k, e_n])
    cross = matcore.remainder(m_k, e_k, m_n, e_n)
    got, want = (r.details for r in (compact.verify_structure(phi, T), per_entry_structure(phi, T)))
    assert within(np.array([got["cocycle_match"]]), np.array([want["cocycle_match"]]),
                  off.max() + cross, len(T.stack[0]))
    assert 0.0 < want["commutation"] <= got["commutation"] == 2.0 * cross


@pytest.mark.parametrize("e_y", [0.0, 1e-12])
def test_markov_reads_x_minus_y_y_star_within_its_stated_terms(tmp_path, monkeypatch, e_y):
    # a hermitean 1e-12 pair off the diagonal of one x_g, and e_y at one place off the
    # diagonal of every y_g (y need not be hermitean): the runner's residual lies between the
    # dense max ||x_g - y_g y_g*|| and that plus ||E_x||_F + 2 max|d_y| ||E_y||_F + ||E_y||_F^2
    tables, build_x, build_y = [], qmc.x_cocycle_table, qmc.y_cocycle

    def planted_y(M, group):
        y = build_y(M, group)
        y[:, 1, 2] += e_y
        return y
    monkeypatch.setattr(qmc, "x_cocycle_table", lambda M, group: tables.append(
        off_diagonal_plant(build_x(M, group), 1, 1e-12)) or tables[-1])
    monkeypatch.setattr(qmc, "y_cocycle", planted_y)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "markov", "--n-sites", "4", "--out", str(out)]) == 0
    (T,) = tables
    y = planted_y(qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(4, 1)), enumerate_group(4))
    dense = matcore.operator_norm(T.stack - y @ matcore.dagger(y)).max()
    checks = json.loads(out.read_text())["checks"]
    got = next(c["residual"] for c in checks if c["name"] == "x_equals_y_y_star")
    terms = T.split[2].max() + 2.0 * np.abs(np.diagonal(y, axis1=1, axis2=2)).max() * e_y + e_y * e_y
    assert T.frame() is not None and dense > 1e-13
    assert within(np.array([got]), np.array([dense]), terms, len(y[0]))


def test_a_chain_plant_below_rho_lies_within_its_stated_terms(monkeypatch):
    # a hermitean 1e-12 pair off the diagonal of K_1: each pair of embedded amplitudes is read
    # by its bound, with no SVD, between the dense max ||[a, b]|| and that plus the stated
    # terms 2 (max|d_a| ||E_b|| + ||E_a|| max|d_b| + ||E_a|| ||E_b||), computed here by hand
    chain = [K.copy() for K in qmc.seeded_chain(4, 1)]
    chain[0][1, 2] += 1e-12
    chain[0][2, 1] += 1e-12
    M = qmc.MarkovState(2, np.eye(2) / 2.0, tuple(chain), validate=False)
    emb = [embed_pair(M.window, n, K).matrix for n, K in enumerate(M.chain, start=1)]
    parts = [(np.abs(np.diagonal(a)).max(), np.linalg.norm(a - np.diag(np.diagonal(a)))) for a in emb]
    pairs = [(i, j) for i in range(len(emb)) for j in range(i + 1, len(emb))]
    dense = max(matcore.operator_norm(emb[i] @ emb[j] - emb[j] @ emb[i]) for i, j in pairs)
    terms = max(2.0 * (parts[i][0] * parts[j][1] + parts[i][1] * parts[j][0] + parts[i][1] * parts[j][1])
                for i, j in pairs)
    given, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda A, *args, **kw: given.append(A) or svd(A, *args, **kw))
    got = qmc.chain_commutation_residual(M)
    assert given == [] and dense > 1e-13 and parts[0][1] == pytest.approx(np.sqrt(2.0 * 8) * 1e-12)
    assert within(np.array([got]), np.array([dense]), terms, len(emb[0]))


def agree(got, want, r):
    """The same error, or the same verdicts and witnesses with every number within r."""
    if isinstance(want, list) and isinstance(want[0], VerificationReport):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            agree(a, b, r)
    elif isinstance(want, VerificationReport):
        assert (got.name, got.passed, got.witness) == (want.name, want.passed, want.witness)
        assert got.details.keys() == want.details.keys()
        close([got.residual, got.tolerance, *got.details.values()],
              [want.residual, want.tolerance, *want.details.values()], r)
    else:
        assert got == want


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("involution", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_plant_below_rho_reports_what_its_eigenbasis_reports(name, dtype, involution, check):
    # each number moves by its stated E terms: products of at most two entry norms and one
    # ||E_g||_F, the power relation's times its Lipschitz constant, within 32 scale^2 ||E||_F
    phi, T = clean_case(name, dtype)
    inv = group_table(T.group)[1]
    T = off_diagonal_plant(T, next(i for i in range(1, len(inv)) if (inv[i] == i) == involution), 1e-12)
    want = outcome(CHECKS[check], phi, eigenframe(T))
    agree(outcome(CHECKS[check], phi, T), want, 32 * T.scale() ** 2 * T.split[2].max())


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("plant", ["cli", "negated", "projected"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["product-d2-S4", "product-d2-S3-in-5", "trivial-d2-S4"])
def test_a_broken_entry_reports_what_its_eigenbasis_reports(name, dtype, plant, check):
    # the CLI's 1e-3 at m[0, -1] leaves the standard basis, so both readings decompose
    # each entry; a negated (not positive) or projected (singular) entry keeps the
    # table diagonal, and the standard basis reads it
    phi, T = clean_case(name, dtype)
    k = next(i for i, g in enumerate(T.group) if not g.is_identity())
    T = cli._plant_defect(T, 1e-3) if plant == "cli" else broken(T, [(k, plant)])
    assert (T.frame() is None) == (plant == "cli")
    assert outcome(CHECKS[check], phi, T) == outcome(CHECKS[check], phi, eigenframe(T))
