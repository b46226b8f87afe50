"""Finite-group averaging and the structure of strongly quasi-invariant states.

Averaging over an enumerated finite group with counting measure produces the
conditional expectation E_G onto the fixed-point algebra.  For a strong
cocycle table the group average kappa of the Radon-Nikodym entries is a
positive invertible operator, the state factors as
phi(a) = phi_G(kappa^-1 a) through the invariant state phi_G = phi o E_G,
the table is recovered as x_g = kappa * g^-1(kappa^-1), and the average
satisfies E_G(kappa^-1) = 1.  The converse builds a quasi-invariant state
from any invariant base state and invertible kappa.

E_G is one gather through the group's index array and a pairwise tree sum.
On matrix units it is exact, g(e_ij) = e_{g.(i,j)}: E_G(e_ij) is the histogram
of g.(i,j) divided by |G|, and orbit indicators span the fixed-point algebra.
"""

import numpy as np

from . import lattice, matcore, states
from .cocycle import (
    PASS_TOL,
    _coboundary_defects,
    _coboundary_table,
    _report,
    require_strong_entries,
)
from .errors import (
    NotInvariantBase,
    NotNested,
    SingularKappa,
    SupportTooLarge,
)
from .lattice import LocalOperator, act_inverse

UMEGAKI_TOL = 1e-10
STRUCTURE_TOL = 1e-9
FIX_BASIS_CAP = 64  # largest D for dense stacks over all matrix units (D^4 entries)
N_FAITHFUL_SWEEP = 200


def _tree_sum(stack):
    """Pairwise reduction along the first axis, in place; deterministic."""
    n = len(stack)
    if not n:
        raise ValueError("empty sum")
    while n > 1:
        half = n // 2
        np.add(stack[0:2 * half:2], stack[1:2 * half:2], out=stack[:half])
        if n % 2:
            stack[half] = stack[n - 1]
        n = half + n % 2
    return stack[0]


def haar_average(group, a):
    """E_G(a): one gather through the group's index array, one pairwise tree."""
    Q = lattice.group_index(group, a.window)
    stack = a.matrix[Q[:, :, None], Q[:, None, :]]
    return LocalOperator(a.window, _tree_sum(stack) / len(group))


def _unit_averages(group, window):
    """(row of each matrix unit e_x, rows): |G| E_G(e_x) = rows[row[x]] is the
    histogram of g.x over the list, g(e_ij) = e_{g.x}, exact in counts."""
    D = window.total_dim
    if D > FIX_BASIS_CAP:
        raise SupportTooLarge(f"window dimension {D} exceeds the matrix-unit cap {FIX_BASIS_CAP}")
    p = np.argsort(lattice.group_index(group, window), axis=1)
    moved = (p[:, :, None] * D + p[:, None, :]).reshape(len(group), D * D)
    _, x, row = np.unique(np.sort(moved, axis=0).T, axis=0, return_index=True, return_inverse=True)
    hits = np.bincount((np.arange(len(x)) * D * D + moved[:, x]).ravel(), minlength=len(x) * D * D)
    return row.reshape(-1), hits.reshape(len(x), D * D).astype(float)


def _moves(group, window, stack):
    """g(s) for each element g of the list, s the flattened matrices of a
    (K, D*D) stack, one g at a time; their sum is exact on integer entries."""
    for q in lattice.group_index(group, window):
        yield np.take(stack, (q[:, None] * len(q) + q).ravel(), axis=1)


def _norms(stack, D):
    return np.linalg.norm(stack.reshape(-1, D, D), 2, axis=(1, 2))


def invariant_state(phi, group):
    """phi o E_G as a weighted-trace state: the density is E_G applied to
    the density of phi (the group is closed under inversion)."""
    window = phi.window
    W = states.full_density(phi)
    avg = haar_average(group, LocalOperator(window, W)).matrix
    return states.WeightedTraceState(window, (avg + avg.conj().T) / 2.0)


def fixed_point_basis(group, window):
    """An orthonormal (Hilbert-Schmidt) basis of the fixed-point algebra: a is
    fixed iff constant on each orbit of index pairs, and over a group the
    histogram of g.x covers the orbit of x; the basis is 1_O / sqrt(|O|)."""
    D = window.total_dim
    orbits = _unit_averages(group, window)[1] > 0
    basis = orbits / np.sqrt(orbits.sum(axis=1))[:, None]
    return [LocalOperator(window, b.reshape(D, D)) for b in basis]


def verify_umegaki(group, window, tol=UMEGAKI_TOL, seed=0):
    """Conditional-expectation laws for E_G on all matrix units in one batch:
    idempotence, unitality, positivity, the bimodule property over every
    fixed-point basis element and the whole unit ball, and a seeded sweep
    certifying that E_G does not annihilate any a*a."""
    n, D = len(group), window.total_dim
    unital = matcore.operator_norm(haar_average(group, window.identity()).matrix - np.eye(D))

    # in exact counts: |G|^2 E(E(e_x)) is the histogram |G| E(e_x) moved once
    # more by every g; positivity on e_ij* e_ij = e_jj, a diagonal histogram
    row, units = _unit_averages(group, window)
    idem = _norms(sum(_moves(group, window, units)) - n * units, D).max() / n**2
    lam = np.linalg.eigvalsh(units[np.unique(row[::D + 1])].reshape(-1, D, D) / n)
    pos_defect = max(0.0, -float(lam.min()))

    # E(bac) - b E(a) c = (1/|G|) sum_g [(g(b) - b) g(a) g(c) + b g(a) (g(c) - c)]:
    # over the unit ball its norm is at most drift_b |c| + |b| drift_c, with
    # drift_b = (1/|G|) sum_g |g(b) - b|; Frobenius norms bound both from above
    fix = fixed_point_basis(group, window)
    B = np.array([b.matrix.ravel() for b in fix])
    drift = sum(np.linalg.norm(m - B, axis=1) for m in _moves(group, window, B)) / n
    size = np.linalg.norm(B, axis=1)
    module = float(np.max(np.outer(drift, size) + np.outer(size, drift)))

    sweep = np.array([a.matrix for a in states.random_hermitian_probes(
        window, count=N_FAITHFUL_SWEEP, seed=seed)])
    sweep /= _norms(sweep, D)[:, None, None]
    squares = (sweep.conj().transpose(0, 2, 1) @ sweep).reshape(-1, D * D)
    faithful_min = _norms(sum(_moves(group, window, squares)), D).min() / n

    resid = max(idem, unital, pos_defect, module)
    details = {
        "idempotence": float(idem),
        "unitality": unital,
        "positivity_defect": pos_defect,
        "module": module,
        "faithfulness_min": float(faithful_min),
        "fixed_point_rank": len(fix),
    }
    passed = resid <= tol and faithful_min > tol
    return _report("umegaki_expectation", resid, tol, details=details, passed=passed)


def kappa(T):
    """The group average of the cocycle entries; hermitean, positive and
    invertible whenever the table is strong."""
    require_strong_entries(T, PASS_TOL)
    avg = _tree_sum(T.stack.copy()) / len(T.group)
    return LocalOperator(T.window, (avg + avg.conj().T) / 2.0)


def intrinsic_entry(phi, g):
    """The unique solution of phi(g(a)) = phi(x_g a) for a faithful state:
    x_g = W^-1 * g^-1(W) in terms of the full-window density W."""
    W = LocalOperator(phi.window, states.faithful_density(phi))
    return LocalOperator(phi.window, matcore.inv(W.matrix) @ act_inverse(g, W).matrix)


def verify_structure(phi, T, probes=None, tol=STRUCTURE_TOL, decomposition=None):
    """The factorization phi(a) = phi_G(kappa^-1 a) together with the
    reconstruction x_g = kappa g^-1(kappa^-1), the normalization
    E_G(kappa^-1) = 1, hermiticity of kappa, and the commutation of kappa
    with g^-1(kappa^-1).  A (phi_G, kappa) pair may be supplied explicitly;
    by default both are computed from the table.  The factorization is checked
    on the defect matrix W - W_G kappa^-1 (on every a, or on the probes)."""
    group = T.group
    window = T.window
    if decomposition is None:
        kap = kappa(T)
        phi_G = invariant_state(phi, group)
    else:
        phi_G, kap = decomposition
    kinv = matcore.inv(kap.matrix)

    recon, where = states.pairing_residual(
        states.full_density(phi) - states.full_density(phi_G) @ kinv, probes)

    match, match_wit = 0.0, None
    commut = 0.0
    for i, r, moved, rebuilt in _coboundary_defects(T, kap.matrix, kinv):
        if r > match:
            match, match_wit = r, {"g": list(group[i].image)}
        commut = max(commut, matcore.operator_norm(rebuilt - moved @ kap.matrix))

    normal = matcore.operator_norm(
        haar_average(group, LocalOperator(window, kinv)).matrix - np.eye(window.total_dim))
    herm = matcore.herm_defect(kap.matrix)

    resid = max(recon, match, normal, herm, commut)
    details = {
        "reconstruction": recon,
        "cocycle_match": match,
        "normalization": normal,
        "kappa_hermiticity": herm,
        "commutation": commut,
        "kappa_min_eig": float(np.linalg.eigvalsh((kap.matrix + kap.matrix.conj().T) / 2.0)[0]),
    }
    witness = match_wit if match > tol else (where if recon > tol else None)
    return _report("structure_decomposition", resid, tol, witness=witness, details=details)


def converse_construct(phi_G, kap, group, tol=STRUCTURE_TOL):
    """From an invariant base state and an invertible kappa with
    E_G(kappa^-1) = 1, build phi(a) = phi_G(kappa^-1 a) and its trivial
    cocycle table x_g = kappa g^-1(kappa^-1)."""
    window = phi_G.window
    inv_resid = states.is_exchangeable(phi_G, group)
    if inv_resid > tol:
        raise NotInvariantBase(f"base state moves under the group: {inv_resid:.3e}")
    if not matcore.facts(kap.matrix).invertible:
        raise SingularKappa("kappa is not invertible")
    kinv = matcore.inv(kap.matrix)
    normal = matcore.operator_norm(
        haar_average(group, LocalOperator(window, kinv)).matrix - np.eye(window.total_dim))
    if normal > 1e-8 * max(1.0, matcore.operator_norm(kinv)):
        raise SingularKappa(f"E_G(kappa^-1) differs from 1 by {normal:.3e}")
    W_G = states.full_density(phi_G)
    phi = states.WeightedTraceState(window, W_G @ kinv, validate=False)
    return phi, _coboundary_table(group, window, kap.matrix, kinv)


def projective_family_check(group_small, group_big, window, tol=UMEGAKI_TOL):
    """Nested averages absorb: E_big o E_small = E_big, and the fixed-point
    algebra of the bigger group sits inside that of the smaller; the laws
    hold on every matrix unit of the window, checked in exact counts."""
    if (lattice.positions(group_big, group_small) < 0).any():
        raise NotNested("the first group is not contained in the second")
    n_small, n_big, D = len(group_small), len(group_big), window.total_dim
    row_small, units_small = _unit_averages(group_small, window)
    row_big, units_big = _unit_averages(group_big, window)

    # E_big(E_small(e_x)) depends on x through its small row, E_big(e_x) through its big row
    _, x = np.unique(row_small * len(units_big) + row_big, return_index=True)
    double = sum(_moves(group_big, window, units_small[row_small[x]]))
    double = _norms(double - n_small * units_big[row_big[x]], D).max() / (n_small * n_big)
    absorb = sum(_moves(group_small, window, units_big))
    absorb = _norms(absorb - n_small * units_big, D).max() / (n_small * n_big)

    resid = max(double, absorb)
    details = {
        "double_average": float(double),
        "range_absorption": float(absorb),
        "rank_small": len(units_small),
        "rank_big": len(units_big),
    }
    passed = resid <= tol and len(units_big) <= len(units_small)
    return _report("projective_family", resid, tol, details=details, passed=passed)


def restriction_consistency(phi, T, subgroups, tol=STRUCTURE_TOL):
    """Against each subgroup, the table must agree with the cocycle
    recomputed intrinsically from the state alone, the intrinsic_entry
    W^-1 g^-1(W) with W and W^-1 built once."""
    W = states.faithful_density(phi)
    W_inv = matcore.inv(W)
    worst, witness = 0.0, None
    per_subgroup = []
    for idx, sub in enumerate(subgroups):
        rows = lattice.positions(T.group, sub)
        if (rows < 0).any():
            raise NotNested(f"{sub[np.argmin(rows)].image} is missing from the table")
        local = 0.0
        for i, r, *_ in _coboundary_defects(T, W_inv, W, rows):
            local = max(local, r)
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(T.group[i].image)}
        per_subgroup.append(local)
    details = {"per_subgroup": per_subgroup}
    return _report("restriction_consistency", worst, tol,
                   witness=witness if worst > tol else None, details=details)


def nonuniqueness_demo(phi, T, probes=None, tol=STRUCTURE_TOL):
    """Two distinct decompositions of the same state.  A positive invertible
    fixed point k (the average of diag(1..2), not a multiple of 1) yields the
    alternative pair (phi_G(k .), kappa k): reconstruction and the cocycle
    identity hold for both pairs, while E_G(kappa^-1) = 1 singles out the
    canonical one."""
    group = T.group
    window = T.window
    kap = kappa(T)
    phi_G = invariant_state(phi, group)
    seed = np.diag(np.linspace(1.0, 2.0, window.total_dim))
    k0 = haar_average(group, LocalOperator(window, seed)).matrix
    weight = states.evaluate(phi_G, LocalOperator(window, k0)).real
    k = k0 / weight
    W_G = states.full_density(phi_G)
    phi_G_alt = states.WeightedTraceState(window, W_G @ k)
    kap_alt = LocalOperator(window, kap.matrix @ k)

    canonical = verify_structure(phi, T, probes=probes, tol=tol, decomposition=(phi_G, kap))
    alternative = verify_structure(phi, T, probes=probes, tol=tol,
                                   decomposition=(phi_G_alt, kap_alt))
    separation = matcore.operator_norm(kap_alt.matrix - kap.matrix)
    return {
        "canonical": canonical,
        "alternative": alternative,
        "fixed_point": k,
        "separation": separation,
    }
