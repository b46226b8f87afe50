"""A diagonal table read in the standard basis, against its dense forms.

When every entry x_g = D_g + E_g (diagonal, off-diagonal) is hermitean with
||E_g||_F <= RHO max(1, max|D_g|), CocycleTable reads the table off its
diagonals: the facts are sorted |D_g| and Re D_g within err = ||E_g||_F, and

    eps(g)   = max|d_g d_b[q_g] - 1| + ||E_g|| max|D_b| + max|D_g| ||E_b|| + ||E_g|| ||E_b||
    delta(g) = max|d_g - m n[q_g]| + ||E_g|| + max|m| ||E_N|| + ||E_M|| max|n| + ||E_M|| ||E_N||

(b = g^-1, m and n the diagonals of the mean M and of N = M^-1).  The dense
forms, kept in tests/oracles.py, are the per-entry SVDs and eigvalsh and the
table read in its eigenbasis (`eigenframe`).  On clean tables, real and
complex128, with and without spectator sites, every fact and defect equals
the dense value bit for bit and T.basis is never built.  Under an
off-diagonal plant below RHO each value lies between the exact one and the
exact one plus its stated terms.  A 1e-3 plant, a negated entry and a
singular entry give the reports the eigenbasis reading gives.
"""

import numpy as np
import pytest

from quasinv import cli, cocycle, compact
from quasinv.cocycle import CocycleTable
from quasinv.lattice import group_table

from oracles import (
    EPS, broken, converse_case, diag_product, eigenframe, markov_case, outcome,
    per_entry_coboundary_defects, per_entry_facts, per_entry_inverse_defects, product_case,
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
    "locally_trivial": lambda phi, T: cocycle.locally_trivial_check(T, [T.window.N]),
    "kappa": lambda phi, T: compact.kappa(T).matrix.tolist(),
}
DTYPES = [np.float64, np.complex128]


def dense_deltas(T):
    return np.array([r for _, r, *_ in per_entry_coboundary_defects(T, T.mean, T.mean_inv)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(CLEAN))
def test_a_clean_table_reads_the_dense_values_bit_for_bit(name, dtype):
    phi, T = clean_case(name, dtype)
    assert T.split is not None and not T.facts.err.any()
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
    T = clean_case(name, dtype)[1]
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
    (_, m, e_m), (_, n, e_n) = (cocycle._split(a.copy()) for a in (T.mean, T.mean_inv))
    assert e_m > 0.0 and e_n > 0.0
    assert within(T.mean_defects, dense_deltas(T), off + m * e_n + e_m * n + e_m * e_n, len(T.stack[0]))


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
    assert (T.split is None) == (plant == "cli")
    assert outcome(CHECKS[check], phi, T) == outcome(CHECKS[check], phi, eigenframe(T))
