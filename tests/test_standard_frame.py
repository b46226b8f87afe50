"""A diagonal table read in the standard basis, against its dense forms: the stated terms.

When every entry x_g = D_g + E_g (diagonal, off-diagonal) is hermitean with
||E_g||_F <= RHO max(1, max|D_g|), the table's matcore.Operand reads it off
its diagonals: the facts are sorted |D_g| and Re D_g within err = ||E_g||_F, and

    eps(g)   = max|d_g d_b[q_g] - 1| + ||E_g|| max|D_b| + max|D_g| ||E_b|| + ||E_g|| ||E_b||
    ||x_g - K g^-1(N)|| <= max|d_g - k n[q_g]| + ||E_g|| + max|k| ||E_N|| + ||E_K|| max|n| + ||E_K|| ||E_N||

(b = g^-1; K = diag(k) + E_K and N = K^-1 = diag(n) + E_N clearing the same
rule: the mean for the law's delta(g), a subgroup mean for local triviality,
the mean's hermitean part for the structure decomposition, W^-1 for the
restriction).  The dense values and the eigenframe's reports, clean, planted
and below RHO, are rows of tests/test_differential.py.  Here each value under a
plant below RHO lies within its stated terms of the exact one (also the markov
runner's ||x_g - y_g y_g*|| and the chain's commutators), a clean state's
density reads off its diagonal, and a diagonal table against a rotated state
gives the restriction's dense residual.
"""

import json

import numpy as np
import pytest

from quasinv import cli, compact, matcore, qmc, states
from quasinv.lattice import embed_pair, enumerate_group, group_table

from oracles import (
    BOTH, EPS, case_table, dense_deltas, eigenframe, family, off_diagonal_plant, per_entry_facts,
    per_entry_inverse_defects, per_entry_restriction, per_entry_structure, rotated_product, stabilizer,
    within,
)


@pytest.mark.parametrize("name", family("clean"))
def test_a_clean_state_reads_its_density_off_the_diagonals(name):
    # the restriction reads W and W^-1 off their diagonals, whose commutator bound is 0
    W = states.full_density(case_table(name)[0])
    frames = matcore.Operand(np.linalg.inv(W)).frame, matcore.Operand(W).frame
    assert matcore.commutator_bound(*frames) == 0.0


@pytest.mark.parametrize("dtype", BOTH)
def test_a_rotated_state_against_a_diagonal_table_takes_the_dense_residual(dtype):
    # the table is read in the standard basis, W^-1 is not diagonal there: each row takes its
    # SVD, and the residual and witness are the per-entry form's
    T = case_table("clean:product-d2-S4", "clean", dtype)[1]
    phi, subgroups = rotated_product(2, 4, 31), [stabilizer(T), T.group]
    W = states.full_density(phi)
    assert T.frame() is not None and None in (matcore.Operand(np.linalg.inv(W)).frame, matcore.Operand(W).frame)
    got = compact.restriction_consistency(phi, T, subgroups)
    assert got == per_entry_restriction(phi, T, subgroups) == compact.restriction_consistency(
        phi, eigenframe(T), subgroups)
    assert not got.passed and got.witness is not None


@pytest.mark.parametrize("involution", [True, False])
@pytest.mark.parametrize("dtype", BOTH)
@pytest.mark.parametrize("name", family("clean"))
def test_a_plant_below_rho_lies_within_its_stated_terms(name, dtype, involution):
    # a hermitean 1e-12 pair on the first moved element that is (or is not) its own inverse
    phi, T = case_table(name, "clean", dtype)
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
    assert matcore.clears(np.r_[h_k, h_n], np.r_[m_k, m_n], np.r_[e_k, e_n]).all()
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
