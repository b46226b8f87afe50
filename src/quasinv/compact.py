"""Finite-group averaging and the structure of strongly quasi-invariant states.

Averaging over an enumerated finite group with counting measure produces the
conditional expectation E_G onto the fixed-point algebra.  For a strong
cocycle table the group average kappa of the Radon-Nikodym entries is a
positive invertible operator, the state factors as
phi(a) = phi_G(kappa^-1 a) through the invariant state phi_G = phi o E_G,
the table is recovered as x_g = kappa * g^-1(kappa^-1), and the average
satisfies E_G(kappa^-1) = 1.  The converse builds a quasi-invariant state
from any invariant base state and invertible kappa.

All group sums use a pairwise tree reduction so that results are bitwise
reproducible regardless of how the terms might later be scheduled.
"""

from functools import partial

import numpy as np

from . import matcore, states
from .cocycle import PASS_TOL, _report, require_strong_entries, trivial_cocycle
from .errors import (
    NotFaithful,
    NotInvariantBase,
    NotNested,
    SingularKappa,
    SupportTooLarge,
)
from .lattice import LocalOperator, act

UMEGAKI_TOL = 1e-10
STRUCTURE_TOL = 1e-9
FIX_BASIS_CAP = 64  # largest window dimension for complete fixed-point spans
N_FAITHFUL_SWEEP = 200


def _tree_sum(mats):
    """Pairwise reduction; deterministic and schedule-independent."""
    items = list(mats)
    if not items:
        raise ValueError("empty sum")
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def haar_average(group, a):
    """E_G(a), the uniform average of the group action."""
    total = _tree_sum([act(g, a).matrix for g in group])
    return LocalOperator(a.window, total / len(group))


def invariant_state(phi, group):
    """phi o E_G as a weighted-trace state: the density is E_G applied to
    the density of phi (the group is closed under inversion)."""
    window = phi.window
    W = states.full_density(phi)
    avg = haar_average(group, LocalOperator(window, W)).matrix
    return states.WeightedTraceState(window, (avg + avg.conj().T) / 2.0)


def fixed_point_basis(group, window, tol=1e-10):
    """An orthonormal (Hilbert-Schmidt) basis of the fixed-point algebra,
    obtained by averaging every matrix unit and re-spanning."""
    if window.total_dim > FIX_BASIS_CAP:
        raise SupportTooLarge(
            f"window dimension {window.total_dim} exceeds the fixed-point span cap")
    rows = [haar_average(group, a).matrix.flatten() for a in states.matrix_unit_probes(window)]
    M = np.array(rows)
    _, sing, vh = np.linalg.svd(M)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    rank = int(np.sum(sing > tol * scale))
    dim = window.total_dim
    return [LocalOperator(window, vh[i].reshape(dim, dim)) for i in range(rank)]


def verify_umegaki(group, probes, tol=UMEGAKI_TOL, seed=0):
    """Conditional-expectation laws for E_G on the given probes: idempotence,
    unitality, positivity, the bimodule property over fixed points, and a
    seeded sweep certifying that E_G does not annihilate any a*a."""
    window = probes[0].window
    E = partial(haar_average, group)
    eye = LocalOperator(window, np.eye(window.total_dim))

    unital = matcore.operator_norm(E(eye).matrix - np.eye(window.total_dim))

    idem = 0.0
    pos_defect = 0.0
    for a in probes:
        Ea = E(a)
        idem = max(idem, matcore.operator_norm(E(Ea).matrix - Ea.matrix))
        sq = E(a.dagger() @ a).matrix
        lam = np.linalg.eigvalsh((sq + sq.conj().T) / 2.0)
        pos_defect = max(pos_defect, max(0.0, -float(lam[0])))

    fix = fixed_point_basis(group, window)
    module = 0.0
    for b in fix[: min(4, len(fix))]:
        for c in fix[: min(4, len(fix))]:
            for a in probes[:: max(1, len(probes) // 8)]:
                lhs = E(b @ a @ c).matrix
                rhs = b.matrix @ E(a).matrix @ c.matrix
                module = max(module, matcore.operator_norm(lhs - rhs))

    faithful_min = np.inf
    rng_probes = states.random_hermitian_probes(window, count=N_FAITHFUL_SWEEP, seed=seed)
    for a in rng_probes:
        m = a.matrix / matcore.operator_norm(a.matrix)
        unit = LocalOperator(window, m)
        faithful_min = min(faithful_min, matcore.operator_norm(E(unit.dagger() @ unit).matrix))

    resid = max(idem, unital, pos_defect, module)
    details = {
        "idempotence": idem,
        "unitality": unital,
        "positivity_defect": pos_defect,
        "module": module,
        "faithfulness_min": float(faithful_min),
        "fixed_point_rank": len(fix),
    }
    passed = resid <= tol and faithful_min > tol
    return _report("umegaki_expectation", resid, tol, details=details, passed=passed)


def spectrum_bounds(T):
    """[S1, S2] containing the spectrum of every entry; S1 > 0 for a
    strong table."""
    require_strong_entries(T, PASS_TOL)
    s1, s2 = np.inf, -np.inf
    for g in T.group:
        x = T.entries[g.image].matrix
        lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
        s1, s2 = min(s1, float(lam[0])), max(s2, float(lam[-1]))
    return s1, s2


def kappa(T):
    """The group average of the cocycle entries; hermitean, positive and
    invertible whenever the table is strong."""
    require_strong_entries(T, PASS_TOL)
    avg = _tree_sum([T.entries[g.image].matrix for g in T.group]) / len(T.group)
    return LocalOperator(T.window, (avg + avg.conj().T) / 2.0)


def intrinsic_entry(phi, g):
    """The unique solution of phi(g(a)) = phi(x_g a) for a faithful state:
    x_g = W^-1 * g^-1(W) in terms of the full-window density W."""
    ok, min_eig = states.is_faithful(phi)
    if not ok:
        raise NotFaithful(f"state density has min eigenvalue {min_eig:.3e}")
    window = phi.window
    W = states.full_density(phi)
    moved = act(g.inverse(), LocalOperator(window, W)).matrix
    return LocalOperator(window, matcore.inv(W) @ moved)


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
    kinv_local = LocalOperator(window, kinv)

    recon, where = states.pairing_residual(
        states.full_density(phi) - states.full_density(phi_G) @ kinv, probes)

    match, match_wit = 0.0, None
    commut = 0.0
    for g in group:
        moved = act(g.inverse(), kinv_local).matrix
        rebuilt = kap.matrix @ moved
        r = matcore.operator_norm(T.entries[g.image].matrix - rebuilt)
        if r > match:
            match, match_wit = r, {"g": list(g.image)}
        commut = max(commut, matcore.operator_norm(rebuilt - moved @ kap.matrix))

    normal = matcore.operator_norm(
        haar_average(group, kinv_local).matrix - np.eye(window.total_dim))
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
    if not matcore.classify(kap.matrix).invertible:
        raise SingularKappa("kappa is not invertible")
    kinv = matcore.inv(kap.matrix)
    normal = matcore.operator_norm(
        haar_average(group, LocalOperator(window, kinv)).matrix - np.eye(window.total_dim))
    if normal > 1e-8 * max(1.0, matcore.operator_norm(kinv)):
        raise SingularKappa(f"E_G(kappa^-1) differs from 1 by {normal:.3e}")
    W_G = states.full_density(phi_G)
    phi = states.WeightedTraceState(window, W_G @ kinv, validate=False)
    return phi, trivial_cocycle(kap, group)


def projective_family_check(group_small, group_big, probes, tol=UMEGAKI_TOL):
    """Nested averages absorb: E_big o E_small = E_big, and the fixed-point
    algebra of the bigger group sits inside that of the smaller."""
    window = probes[0].window
    small = {g.image for g in group_small}
    big = {g.image for g in group_big}
    if not small <= big:
        raise NotNested("the first group is not contained in the second")
    E_small = partial(haar_average, group_small)
    E_big = partial(haar_average, group_big)

    double = 0.0
    absorb = 0.0
    for a in probes:
        Eb = E_big(a)
        double = max(double, matcore.operator_norm(E_big(E_small(a)).matrix - Eb.matrix))
        absorb = max(absorb, matcore.operator_norm(E_small(Eb).matrix - Eb.matrix))

    rank_small = len(fixed_point_basis(group_small, window))
    rank_big = len(fixed_point_basis(group_big, window))

    resid = max(double, absorb)
    details = {
        "double_average": double,
        "range_absorption": absorb,
        "rank_small": rank_small,
        "rank_big": rank_big,
    }
    passed = resid <= tol and rank_big <= rank_small
    return _report("projective_family", resid, tol, details=details, passed=passed)


def restriction_consistency(phi, T, subgroups, tol=STRUCTURE_TOL):
    """Against each subgroup, the table must agree with the cocycle
    recomputed intrinsically from the state alone."""
    worst, witness = 0.0, None
    per_subgroup = []
    for idx, sub in enumerate(subgroups):
        local = 0.0
        for g in sub:
            if g.image not in T.entries:
                raise NotNested(f"{g.image} is missing from the table")
            fresh = intrinsic_entry(phi, g)
            r = matcore.operator_norm(T.entries[g.image].matrix - fresh.matrix)
            if r > local:
                local = r
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(g.image)}
        per_subgroup.append(local)
    details = {"per_subgroup": per_subgroup}
    return _report("restriction_consistency", worst, tol,
                   witness=witness if worst > tol else None, details=details)


def nonuniqueness_demo(phi, T, k0=None, probes=None, tol=STRUCTURE_TOL):
    """Two distinct decompositions of the same state.  A positive invertible
    fixed point k (not a multiple of 1) yields the alternative pair
    (phi_G(k .), kappa k): reconstruction and the cocycle identity hold for
    both pairs, while E_G(kappa^-1) = 1 singles out the canonical one."""
    group = T.group
    window = T.window
    kap = kappa(T)
    phi_G = invariant_state(phi, group)
    if k0 is None:
        D = window.total_dim
        seed = np.diag(np.linspace(1.0, 2.0, D))
        k0 = haar_average(group, LocalOperator(window, seed)).matrix
    weight = states.evaluate(phi_G, LocalOperator(window, k0)).real
    k = k0 / weight
    W_G = states.full_density(phi_G)
    phi_G_alt = states.WeightedTraceState(window, W_G @ k)
    kap_alt = LocalOperator(window, kap.matrix @ k)

    canonical = verify_structure(phi, T, probes=probes, tol=tol)
    alternative = verify_structure(phi, T, probes=probes, tol=tol,
                                   decomposition=(phi_G_alt, kap_alt))
    separation = matcore.operator_norm(kap_alt.matrix - kap.matrix)
    return {
        "canonical": canonical,
        "alternative": alternative,
        "fixed_point": k,
        "separation": separation,
    }
