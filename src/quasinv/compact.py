"""Finite-group averaging and the structure of strongly quasi-invariant states.

Averaging over an enumerated finite group with counting measure produces the
conditional expectation E_G onto the fixed-point algebra.  For a strong
cocycle table the group average kappa of the Radon-Nikodym entries is a
positive invertible operator, the state factors as
phi(a) = phi_G(kappa^-1 a) through the invariant state phi_G = phi o E_G,
the table is recovered as x_g = kappa * g^-1(kappa^-1), and the average
satisfies E_G(kappa^-1) = 1.  The converse builds a quasi-invariant state
from any invariant base state and invertible kappa^-1.  kappa and the density W are each
one matcore.Operand, read once; the decomposition and the restriction (kappa = W^-1) read
||x_g - kappa g^-1(kappa^-1)|| as cocycle._coboundary_defects does.

E_G sums the gathers through the group's index array pairwise, one block of
rows at a time, in the kernel the cocycle mean shares; it holds no (|G|, D, D) stack.
On matrix units it is exact, g(e_ij) = e_{g.(i,j)}, so a list L of
permutations is checked in integers alone: its moves label each index pair
by its orbit under the group L generates, and the list's own average
E_L(e_x), the histogram of g.x over L divided by |L|, must be the orbit
mean 1_O(x) / |O(x)|.  Then E_L is the orbit projection, the conditional
expectation onto the fixed-point algebra that the orbit indicators span.
"""

import numpy as np

from . import lattice, matcore, states
from .cocycle import (
    PASS_TOL,
    _coboundary_defects,
    _coboundary_table,
    _first_worst,
    _report,
    require_strong_entries,
)
from .errors import NotInvariantBase, NotNested, SingularKappa
from .lattice import LocalOperator, act_inverse, gather

UMEGAKI_TOL = 1e-10
STRUCTURE_TOL = 1e-9


def haar_average(group, a):
    """E_G(a): the pairwise sum of g(a) over the group, gathered a block of rows at a time."""
    Q = lattice.group_index(group, a.window)
    moved = (gather(a.matrix, Q[r]) for r in matcore._blocks(len(Q), a.matrix.nbytes))
    return LocalOperator(a.window, lattice._pairwise_sum(moved) / len(group))


def _unit_moves(group, window):
    """The (|L|, D*D) integer moves of the list: g(e_x) = e_{g.x}, x = i*D + j."""
    D, q = window.total_dim, lattice.inverse_index(group, window)
    return gather(np.arange(D * D).reshape(D, D), q).reshape(len(group), D * D)


def orbit_labels(group, window, moves=None):
    """The (D, D) integer label of each matrix unit, numbered 0, 1, ... in
    row-major order of first appearance: the connected components of x ~ g.x
    over the list's moves (built unless given), which are the orbits of the
    group the list generates (a permutation's inverse is one of its powers)."""
    moves = _unit_moves(group, window) if moves is None else moves
    low = np.arange(moves.shape[1])
    while True:
        # the least label one move reaches, then that label's own label:
        # a fixed point is constant on each component and equals its least unit
        step = np.minimum(low, low[moves].min(axis=0))
        step = step[step]
        if np.array_equal(step, low):
            break
        low = step
    D = window.total_dim
    return np.unique(low, return_inverse=True)[1].reshape(D, D)


def _average_defect(group, window):
    """(defect, worst unit [i, j], number of labels) of the list's own average
    against the orbit mean, max_x ||E_L(e_x) - 1_O(x) / |O(x)|||_F.  With the
    integer counts c(x, y) = #{g in L : g.x = y}, E_L(e_x) = (1/n) sum_y c e_y,
    so (n |O| defect)^2 = |O|^2 sum_y c^2 - 2 n |O| s + n^2 |O| exactly, with
    s = #{g : g.x in O(x)}; it is 0 for a closed list."""
    moves = _unit_moves(group, window)
    labels = orbit_labels(group, window, moves).ravel()
    n, D2 = moves.shape
    size = np.bincount(labels)[labels]
    inside = np.count_nonzero(labels[moves] == labels, axis=0)
    pairs, count = np.unique(moves + D2 * np.arange(D2), return_counts=True)
    squares = np.bincount(pairs // D2, weights=count * count, minlength=D2).astype(np.int64)
    num = size * size * squares - 2 * n * size * inside + n * n * size
    x = int(np.argmax(num / (size * size)))
    D = window.total_dim
    return float(np.sqrt(num[x]) / (n * size[x])), [x // D, x % D], int(labels.max()) + 1


def invariant_state(phi, group):
    """phi o E_G as a weighted-trace state: the density is E_G applied to
    the density of phi (the group is closed under inversion)."""
    window = phi.window
    W = states.full_density(phi)
    avg = haar_average(group, LocalOperator(window, W)).matrix
    return states.WeightedTraceState(window, (avg + avg.conj().T) / 2.0)


def verify_umegaki(group, window, tol=UMEGAKI_TOL):
    """E_L, the list's own average, against the orbit projection: when every
    matrix unit averages to its orbit mean, E_L is the conditional expectation
    onto the fixed points of the generated group (unital, positive,
    idempotent, faithful, a bimodule map over the fixed points); the witness
    is the matrix unit with the largest defect."""
    return _umegaki(_average_defect(group, window), tol)


def _umegaki(average, tol):
    defect, entry, rank = average
    return _report("umegaki_expectation", defect, tol, witness={"entry": entry} if defect > tol else None,
                   details={"average_defect": defect, "fixed_point_rank": rank})


def kappa(T):
    """The hermitean part of T.mean, the group average of the cocycle entries;
    hermitean, positive and invertible whenever the table is strong."""
    require_strong_entries(T, PASS_TOL)
    return LocalOperator(T.window, (T.mean + T.mean.conj().T) / 2.0)


def intrinsic_entry(phi, g):
    """The unique solution of phi(g(a)) = phi(x_g a) for a faithful state:
    x_g = W^-1 * g^-1(W) in terms of the full-window density W."""
    W = states.faithful_density(phi, phi.window)
    return LocalOperator(phi.window, W.inv.A @ act_inverse(g, LocalOperator(phi.window, W.A)).matrix)


def verify_structure(phi, T, *, tol=STRUCTURE_TOL, decomposition=None):
    """The factorization phi(a) = phi_G(kappa^-1 a) together with the
    reconstruction x_g = kappa g^-1(kappa^-1), the normalization
    E_G(kappa^-1) = 1, hermiticity of kappa, and the commutation of kappa
    with g^-1(kappa^-1).  A (phi_G, kappa) pair may be supplied explicitly;
    by default both are computed from the table.  The factorization is checked
    on the defect matrix W - W_G kappa^-1, on every a, the reconstruction as
    _coboundary_defects reads it, the commutation by matcore.commutator_bound, each side its frame
    where it clears (g^-1 gathers kappa^-1's diagonal), else dense: all off kappa's Operand."""
    group, window, W = T.group, T.window, states.density(phi, T.window).A
    K = matcore.Operand(kappa(T).matrix if decomposition is None else decomposition[1].matrix)
    phi_G = invariant_state(phi, group) if decomposition is None else decomposition[0]
    f, kap, kinv, n, Qi = K.facts, K.A, K.inv.A, K.inv.frame, lattice.inverse_index(group, window)

    recon, where = states.pairing_residual(W - states.density(phi_G, window).A @ kinv)
    match, k = _first_worst(_coboundary_defects(T, K))
    commut = float(T.rowwise(lambda r: matcore.commutator_bound(
        kap if K.frame is None else K.frame, gather(kinv, Qi[r]) if n is None else (n[0][Qi[r]], n[1]))).max())
    normal = matcore.operator_norm(haar_average(group, LocalOperator(window, kinv)).matrix - np.eye(len(kap)))

    resid = max(recon, match, normal, float(f.herm), commut)
    details = {"reconstruction": recon, "cocycle_match": match, "normalization": normal,
               "kappa_hermiticity": float(f.herm), "commutation": commut, "kappa_min_eig": float(f.lo)}
    witness = {"g": list(group[k].image)} if match > tol else (where if recon > tol else None)
    return _report("structure_decomposition", resid, tol, witness=witness, details=details)


def converse_construct(phi_G, kinv, group, tol=STRUCTURE_TOL):
    """From an invariant base state and an invertible kappa^-1 with
    E_G(kappa^-1) = 1, build phi(a) = phi_G(kappa^-1 a) and its trivial
    cocycle table x_g = kappa g^-1(kappa^-1); kappa^-1 is one matcore.Operand, whose facts
    screen it and scale the E_G(kappa^-1) = 1 screen, and whose inv is the table's kappa."""
    window = phi_G.window
    inv_resid = states.is_exchangeable(phi_G, group)
    if inv_resid > tol:
        raise NotInvariantBase(f"base state moves under the group: {inv_resid:.3e}")
    K = matcore.Operand(kinv.matrix)
    if not K.facts.invertible:
        raise SingularKappa("kappa^-1 is not invertible")
    normal = matcore.operator_norm(haar_average(group, kinv).matrix - np.eye(window.total_dim))
    if normal > 1e-8 * max(1.0, K.facts.norm):  # >= ||kappa^-1||, its sv[0] on a diagonal
        raise SingularKappa(f"E_G(kappa^-1) differs from 1 by {normal:.3e}")
    phi = states.WeightedTraceState(window, states.full_density(phi_G) @ K.A, validate=False)
    return phi, _coboundary_table(group, window, K.inv)


def projective_family_check(group_small, group_big, window, tol=UMEGAKI_TOL):
    """Nested averages absorb, E_big o E_small = E_big: the small list sits in
    the big one, and each list's own average is its orbit mean (the Umegaki
    defect of both); nesting makes every big orbit a union of small orbits,
    so the two orbit projections then compose exactly."""
    return averaging_checks(group_small, group_big, window, tol)[1]


def averaging_checks(group_small, group_big, window, tol=UMEGAKI_TOL):
    """(verify_umegaki of the big list, projective_family_check of the pair),
    the big list's average defect computed once for both."""
    if (lattice.positions(group_big, group_small) < 0).any():
        raise NotNested("the first group is not contained in the second")
    small, big = _average_defect(group_small, window), _average_defect(group_big, window)
    which, (resid, entry, _) = max(("small", small), ("big", big), key=lambda r: r[1][0])
    details = {"average_defect_small": small[0], "average_defect_big": big[0],
               "rank_small": small[2], "rank_big": big[2]}
    witness = {"list": which, "entry": entry} if resid > tol else None
    return _umegaki(big, tol), _report("projective_family", resid, tol, witness=witness,
                                       details=details)


def restriction_consistency(phi, T, subgroups, tol=STRUCTURE_TOL):
    """Against each subgroup, the table must agree with the cocycle
    recomputed intrinsically from the state alone, the intrinsic_entry
    W^-1 g^-1(W), kappa = W^-1 the inverse of the density's Operand; each row's
    defect is computed once over the union of the subgroups' rows."""
    W = states.faithful_density(phi, T.window)
    rows, used = [], np.zeros(len(T.group), bool)
    for sub in subgroups:
        rows.append(r := lattice.positions(T.group, sub))
        if (r < 0).any():
            raise NotNested(f"{sub[np.argmin(r)].image} is missing from the table")
        used[r] = True
    defects = np.zeros(len(T.group))
    defects[used] = _coboundary_defects(T, W.inv, np.flatnonzero(used)) if used.any() else 0.0
    worst, witness, per_subgroup = 0.0, None, []
    for idx, r in enumerate(rows):
        local, k = _first_worst(defects[r])
        if local > worst:
            worst, witness = local, {"subgroup": idx, "g": list(T.group[r[k]].image)}
        per_subgroup.append(local)
    return _report("restriction_consistency", worst, tol, witness=witness if worst > tol else None,
                   details={"per_subgroup": per_subgroup})

