"""Cocycle constructors and the quasi-invariance verification engine.

A cocycle table maps group elements g to window operators x_g.  The checks
here verify the defining identities numerically:

    normalization      x_e = 1
    cocycle law        x_{g2 g1} = x_{g1} * g1^-1(x_{g2})
    inverse relation   x_g^-1 = g^-1(x_{g^-1})
    quasi-invariance   phi(g(a)) = phi(x_g a)
    strong case        every x_g hermitean, hence positive, invertible,
                       mutually commuting, and in the centralizer of phi
    transport          phi(g(x) a) = phi(a g(x_g x x_g^-1))
    power relation     x_g^-s = g^-1(x_{g^-1}^s)

Every table constructor is one coboundary x_g = kappa g^-1(kappa^-1), written
block by block by one kernel: the one-kappa, the product-state (kappa the tensor
product of the inverse weights on the sites the group moves) and the Markov
chain cocycles (qmc, kappa = Q^-1), each kappa one matcore.Operand that carries its
inverse.  One function, _coboundary_defects, measures
a table against a coboundary: the law's delta(g) and local triviality here, the
structure decomposition and the restriction to subgroups (kappa = W^-1) in
compact.  Besides: the solution set of W x = x* W on a single factor.  The laws
on all |G|^2 pairs are bounded from |G| entries (verify_cocycle_law, verify_strong
on the rows that clear the frame), the power relation from the inverse relation's per-entry defects
by the operator-Lipschitz constants of t -> t^s (Bhatia, Matrix Analysis, X.3).

A table's stack is one matcore.Operand, as kappa, the mean and the state density are: its
facts, eps(g) and delta(g) are read off the diagonals where every entry clears matcore's
diagonal-frame rule in the standard basis, else each entry is decomposed, exact; verify_strong
reads the rule row by row, exact where neither row of a pair clears it.  Checks read blocks of rows.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lattice, matcore, states
from .errors import (
    GroupNotClosed,
    GroupTooLarge,
    MissingIdentityEntry,
    NotInCentralizer,
    NotHermitianZ,
    NotStrongCocycle,
    SingularEntry,
    SingularKappa,
    SingularWeight,
)
from .lattice import LocalOperator, gather, support

# residuals pass at 1e-8 absolute after scaling by the largest entry norm;
# planted defects in the tests are >= 1e-3, five decades away
PASS_TOL = 1e-8
TAU_STATE = 1e-8
EXHAUSTIVE_ORDER_CAP = 120  # pair by pair up to |S_5|: a law without a certificate, rows off the frame


def _first_worst(r):
    """(largest residual, its position), the first in order; (0.0, None) if none is positive."""
    k = int(np.argmax(r))
    return (float(r[k]), k) if r[k] > 0.0 else (0.0, None)


class CocycleTable:
    """x_g over a list of permutations, stored once as the read-only (|G|, D, D) array `stack`
    in group order, the array of the matcore.Operand `operand`, whose readings are `split`,
    `frame(rows)`, `facts` and `rowwise`.  The entries arrive as that array (adopted if read-only,
    else copied) or as a mapping from image tuples to operators; `entries`, `entry(g)` and iteration
    are views onto the rows of the stack.  The mean M is the Operand `mean_operand`, whose inverse is M^-1."""

    def __init__(self, group, entries, window):
        self.group, self.window = tuple(group), window
        if not any(g.is_identity() for g in self.group):
            raise MissingIdentityEntry("group enumeration lacks the identity")
        if not isinstance(entries, np.ndarray):
            if missing := [g.image for g in self.group if g.image not in entries]:
                raise GroupNotClosed(f"no entry for {missing[0]}")
            entries = matcore._frozen(np.array([entries[g.image].matrix for g in self.group]))
        self.operand = matcore.Operand(entries)
        self.stack = self.operand.A
        self.operand.split  # every check reads it: a table with a NaN or inf entry is refused as it is made

    @cached_property
    def entries(self):
        return {g.image: LocalOperator(self.window, x) for g, x in zip(self.group, self.stack)}

    def entry(self, g):
        return self.entries[g.image]

    def __iter__(self):
        return iter((g, self.entries[g.image]) for g in self.group)

    split = property(lambda self: self.operand.split)
    facts = property(lambda self: self.operand.facts)
    rowwise = property(lambda self: self.operand.rowwise)

    def frame(self, rows=slice(None)):
        """The record's frame, (diagonals, ||E_g||_F), of the listed rows (all by default); None unless it clears."""
        return None if (f := self.operand.frame) is None else (f[0][rows], f[1][rows])

    def scale(self):
        return max(1.0, float(self.facts.norm.max()))

    def row_mean(self, rows):
        """The mean of the listed entries in E_G's pairwise order, streamed one block copy at a time."""
        return lattice._pairwise_sum(self.stack[r] for r in matcore._blocks(rows, self.stack[0].nbytes)) / len(rows)

    mean = cached_property(lambda self: matcore._frozen(self.row_mean(np.arange(len(self.stack)))))
    mean_operand = cached_property(lambda self: matcore.Operand(self.mean))
    # delta(g) = ||x_g - M g^-1(M^-1)|| for the mean M: the law's certificate
    mean_defects = cached_property(lambda self: matcore._frozen(_coboundary_defects(self, self.mean_operand)))

    @cached_property
    def inverse_defects(self):
        """eps(g) = ||x_g g^-1(x_b) - 1||, b = g^-1, of every entry: in the standard basis
        (self.frame) matcore.product_defect with c = 1, else one stacked call a block."""
        inv, x = lattice.group_table(self.group)[1], self.stack
        Qi = lattice.inverse_index(self.group, self.window)
        if (f := self.frame()) is not None:
            return matcore._frozen(matcore.product_defect((1.0, 0.0), f, (f[0][inv[:, None], Qi], f[1][inv])))
        return matcore._frozen(self.rowwise(lambda r, I=np.eye(x.shape[1]): matcore.operator_norm(
            x[r] @ gather(x[inv[r]], Qi[r]) - I)))


def _coboundary(q, kappa):
    """The stack kappa g^-1(kappa^-1) of the Operand kappa for the elements g with inverse index arrays
    q (rows of lattice.inverse_index): the one place the rule x_g = kappa g^-1(kappa^-1) is written."""
    return kappa.A @ gather(kappa.inv.A, q)


def _coboundary_table(group, window, kappa):
    """The table x_g = kappa g^-1(kappa^-1) of the Operand kappa, block by block into one stack."""
    stack = np.empty((len(group),) + kappa.A.shape, np.result_type(kappa.A, kappa.inv.A))
    Qi = lattice.inverse_index(group, window)
    for r in matcore._blocks(len(group), stack[0].nbytes):
        stack[r] = _coboundary(Qi[r], kappa)
    return CocycleTable(group, matcore._frozen(stack), window)


def _coboundary_defects(T, kappa, rows=None):
    """||x_g - kappa g^-1(kappa^-1)|| of the listed rows (all by default), the one place it is computed:
    matcore.product_defect where T, kappa and kappa^-1 clear the standard basis, else one SVD a row."""
    Qi, rows = lattice.inverse_index(T.group, T.window), np.arange(len(T.stack)) if rows is None else rows
    if None not in (x := T.frame(rows), k := kappa.frame, n := kappa.inv.frame):
        return matcore.product_defect(x, k, (n[0][Qi[rows]], n[1]))
    return T.rowwise(lambda r: matcore.operator_norm(T.stack[r] - _coboundary(Qi[r], kappa)), rows)


@dataclass(frozen=True)
class VerificationReport:
    name: str
    residual: float
    tolerance: float
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: residual={self.residual:.3e} tol={self.tolerance:.1e} [{status}]"


def _report(name, residual, tolerance, witness=None, details=None, passed=None):
    if passed is None:
        passed = residual <= tolerance
    return VerificationReport(name, float(residual), float(tolerance), bool(passed),
                              witness, details or {})


def verify_normalization(T, tol=None):
    """|| x_e - 1 ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    e = next(i for i, g in enumerate(T.group) if g.is_identity())
    I = np.eye(T.window.total_dim)
    resid = matcore.operator_norm(T.stack[e] - I)
    return _report("normalization", resid, tol)


def _worst_pairs(T, b, a):
    """(max, first witness) of the exact law defect over the (g2, g1) position pairs (b, a)."""
    mul, x, Qi = lattice.group_table(T.group)[0], T.stack, lattice.inverse_index(T.group, T.window)
    def defects(p):
        return matcore.operator_norm(x[mul[b[p], a[p]]] - x[a[p]] @ gather(x[b[p]], Qi[a[p]]))
    r, k = _first_worst(T.rowwise(defects, np.arange(len(b))))
    return r, None if k is None else {"g2": list(T.group[b[k]].image), "g1": list(T.group[a[k]].image)}


def verify_cocycle_law(T, tol=None):
    """max over pairs of || x_{g2 g1} - x_{g1} g1^-1(x_{g2}) ||, bounded by
    delta (1 + 2C + delta), delta = max_g || x_g - kappa g^-1(kappa^-1) || for the
    mean kappa, C = max ||x_g|| + delta; witness: the worst exact pair holding the
    worst-delta g.  Without a certificate (kappa singular) see EXHAUSTIVE_ORDER_CAP."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    n = len(lattice.group_table(T.group)[1])
    f = T.mean_operand.facts  # the screen, before any inverse is formed
    if not f.invertible:
        if n > EXHAUSTIVE_ORDER_CAP:
            raise SingularKappa(f"the mean of the {n} entries is singular: no certificate")
        worst, witness = _worst_pairs(T, *np.divmod(np.arange(n * n), n))
        return _report("cocycle_law", worst, tol, witness=witness if worst > tol else None,
                       details={"method": "exhaustive"})
    k = int(np.argmax(T.mean_defects))
    delta = float(T.mean_defects[k])
    C = float(T.facts.norm.max()) + delta
    bound = delta * (1.0 + 2.0 * C + delta)
    pairs = np.r_[np.full(n, k), np.arange(n)], np.r_[np.arange(n), np.full(n, k)]
    details = {"delta": delta, "C": C, "kappa_cond": float(f.sv[0] / f.sv[-1]), "method": "certificate"}
    return _report("cocycle_law", bound, tol, details=details,
                   witness=_worst_pairs(T, *pairs)[1] if bound > tol else None)


def verify_inverse_relation(T, tol=None):
    """max over g of || x_g g^-1(x_{g^-1}) - 1 ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    lattice.group_table(T.group)  # a list without inverses is refused first
    if (k := _first_worst(~T.facts.invertible)[1]) is not None:
        raise SingularEntry(f"x_g singular for g = {T.group[k].image}")
    worst, k = _first_worst(T.inverse_defects)
    return _report("inverse_relation", worst, tol,
                   witness={"g": list(T.group[k].image)} if worst > tol else None)


def verify_quasi_invariance(phi, T, *, tol=None):
    """max over g and a of |phi(g(a)) - phi(x_g a)| from the defect matrices
    g^-1(W) - W x_g, on every a; witness: the worst g and its matrix unit.

    Also folds in |phi(x_g) - 1| and the positivity phi(x_g a*a) >= -tol of a
    Radon-Nikodym family: min eig of the hermitean part of W x_g >= -tol, by Weyl where
    ||g^-1(W) - W x_g||_F < lo / 2 - 4 D eps max(-lo, hi) (eigvalsh's error), else eigvalsh,
    with lo <= lambda_min(W) and hi >= lambda_max(W) the Facts of W's Operand.
    """
    tol = PASS_TOL * T.scale() if tol is None else tol
    K, Qi = states.density(phi, T.window), lattice.inverse_index(T.group, T.window)
    W, lo, hi = K.A, K.facts.lo, K.facts.hi
    margin = lo / 2.0 - 4.0 * len(W) * np.finfo(float).eps * max(-lo, hi)
    def block(rows):  # the pairing of g^-1(W) - W x_g, then W x_g's normalization and positivity
        Wx = W @ T.stack[rows]
        M, z, pos = gather(W, Qi[rows]) - Wx, np.trace(Wx, axis1=1, axis2=2) - 1.0, np.zeros(len(rows))
        if (rest := np.flatnonzero(np.linalg.norm(M, axis=(1, 2)) > margin)).size:
            pos[rest] = -np.linalg.eigvalsh((Wx[rest] + matcore.dagger(Wx[rest])) / 2.0)[:, 0]
        return *states.pairing_residual(M), np.hypot(z.real, z.imag), pos
    pair, units, norm, pos = T.rowwise(block)
    worst, k = _first_worst(pair)
    witness = None if k is None else {"g": list(T.group[k].image), "entry": units[k].tolist()}
    norm_worst, pos_worst = float(norm.max()), max(0.0, float(pos.max()))
    resid = max(worst, norm_worst)
    details = {"pairing": worst, "normalization": norm_worst, "positivity_defect": pos_worst}
    passed = resid <= tol and pos_worst <= tol
    return _report("quasi_invariance", resid, tol, witness=witness if not passed else None,
                   details=details, passed=passed)


def require_strong_entries(T, tol):
    """Raise NotStrongCocycle unless every entry is hermitean (to tol, scaled
    by its norm) and positive definite: the precondition of the square roots
    and averages built on a strong table."""
    skew = T.facts.herm > tol * np.maximum(1.0, T.facts.norm)
    if (k := _first_worst(skew | (T.facts.lo <= 0.0))[1]) is not None:  # first in group order
        part = "hermitean" if skew[k] else "positive"
        raise NotStrongCocycle(f"entry for {T.group[k].image} is not {part}")


def verify_strong(T, phi, probes=None, tol=None):
    """The strong-case bundle: hermiticity, positivity, pairwise commutation, centralizer membership and the
    bounds [S1, S2] of every Spec(x_g).  ||[x_g, x_h]||, g < h, is matcore.commutator_bound of the frames of
    the rows that clear the rule (T.operand.mask), else of the dense rows, exact where neither clears, up to
    EXHAUSTIVE_ORDER_CAP such rows (GroupTooLarge above).  Witness: the worst pair {g, h} of that reading,
    first in order, if its exact commutator exceeds tol; else {g, part}, the worst entry of the first failing
    part."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    f, x, W, (_, diag, off), clear = T.facts, T.stack, states.density(phi, T.window).A, T.split, T.operand.mask
    if (dense := np.flatnonzero(~clear)).size > EXHAUSTIVE_ORDER_CAP:
        raise GroupTooLarge(f"{dense.size} entries off the diagonal frame, over {EXHAUSTIVE_ORDER_CAP} to pair")
    found, d = [(0.0, 0, 0)], np.diagonal(x, axis1=1, axis2=2)  # the worst (reading, g, h) of each part
    for r in matcore._blocks(len(x), 4 * off.nbytes):  # both rows clear: the scalars, a block of rows at a time
        R = np.triu(np.where(clear[r][:, None] & clear, 2.0 * matcore.remainder(
            diag[r][:, None], off[r][:, None], diag, off), 0.0), r[0] + 1)
        g, h = divmod(int(np.argmax(R)), len(x))
        found.append((R[g, h], r[g], h))
    for i, k in enumerate(dense):  # a dense row against each clearing row, then each later dense row
        for rows, side in ((np.flatnonzero(clear), lambda r: (d[r], off[r])), (dense[i + 1:], lambda r: x[r])):
            if rows.size:  # rows ascend, and so do their pairs with k
                j = np.argmax(v := T.rowwise(lambda r: matcore.commutator_bound(x[k], side(r)), rows))
                found.append((v[j], min(rows[j], k), max(rows[j], k)))
    comm, g, h = max(found, key=lambda t: (t[0], -t[1], -t[2]))
    herm, s1, s2, comm = float(f.herm.max()), float(f.lo.min()), float(f.hi.max()), float(comm)
    centrs = T.rowwise(lambda r: states.centralizer_residual(W, x[r], probes))
    resid, positive = max(herm, comm, centr := float(centrs.max())), s1 > 0.0
    details = {"hermiticity": herm, "min_eig": s1, "max_eig": s2, "commutators": comm,
               "centralizer": centr, "spectrum_bounds": (s1, s2)}
    passed = resid <= tol and positive
    witness = ({"g": list(T.group[g].image), "h": list(T.group[h].image)}
               if comm > tol and matcore.commutator_bound(x[g], x[h]) > tol else None)  # the pair, confirmed
    for part, r, fails in (("hermiticity", f.herm, herm > tol),
                           ("positivity", -f.lo, not positive),
                           ("centralizer", centrs, centr > tol)):
        if witness is None and fails:
            witness = {"g": list(T.group[int(np.argmax(r))].image), "part": part}
    return _report("strong_quasi_invariance", resid, tol, witness=witness, details=details, passed=passed)


def verify_centralizer_transport(phi, T, x, *, tol=None, tau_state=TAU_STATE):
    """phi(g(x) a) = phi(a g(x_g x x_g^-1)) for x in the centralizer of phi,
    from the defect matrices W g(x) - g(x_g x x_g^-1) W, on every a."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    W, Q = states.density(phi, T.window).A, lattice.group_index(T.group, T.window)
    membership = states.centralizer_residual(W, x)
    if membership > tau_state:
        raise NotInCentralizer(f"centralizer residual {membership:.3e} exceeds {tau_state:.1e}")
    def block(rows):
        x_g = T.stack[rows]
        return states.pairing_residual(
            W @ gather(x.matrix, Q[rows]) - gather(x_g @ x.matrix @ matcore.inv(x_g), Q[rows]) @ W)
    pair, units = T.rowwise(block)
    worst, k = _first_worst(pair)
    witness = None if k is None else {"g": list(T.group[k].image), "entry": units[k].tolist()}
    return _report("centralizer_transport", worst, tol, witness=witness if worst > tol else None)


def trivial_cocycle(kappa, group):
    """x_g = kappa * g^-1(kappa^-1), the cocycle attached to one invertible kappa."""
    if not (K := matcore.Operand(kappa.matrix)).facts.invertible:
        raise SingularKappa("kappa is not invertible")
    return _coboundary_table(group, kappa.window, K)


def product_state_cocycle(phi, group):
    """The cocycle making a product state quasi-invariant: the coboundary of
    kappa = (x)_n W_n^-1 over the sites the group moves, 1 on the others, so
    that x_g = (prod_{n in supp g} j_n(W_n^-1)) * g^-1(prod_{n in supp g} j_n(W_n))."""
    for W in phi.weights:
        lam = np.linalg.eigvalsh(W)
        if lam[0] <= matcore.TAU_POS:
            raise SingularWeight(f"weight with min eigenvalue {lam[0]:.3e}")
    moved = set().union(*map(support, group))
    one = np.eye(phi.window.d)
    kappa = kappa_inv = np.eye(1)
    for n, W in enumerate(phi.weights, start=1):
        kappa = np.kron(kappa, matcore.inv(W) if n in moved else one)
        kappa_inv = np.kron(kappa_inv, W if n in moved else one)
    return _coboundary_table(group, phi.window, matcore.Operand(matcore._frozen(kappa), matcore._frozen(kappa_inv)))


def solve_SW(W, z):
    """The solution x = W^-1 z of W x = x* W for a hermitean z, per matrix of a stack."""
    z = matcore.promote(z)
    if not np.all(matcore.hermitean(matcore.herm_defect(z), matcore.operator_norm(z))):
        raise NotHermitianZ("z must be hermitean")
    return matcore.inv(W) @ z


def check_SW(W, x, tol=1e-10):
    """Whether x solves W x = x* W, per matrix of a stack; returns (ok, residual, z)
    with z = W x, which is hermitean exactly when x is a solution."""
    W, x = matcore.promote(W), matcore.promote(x)
    z = W @ x
    residual = matcore.operator_norm(z - matcore.dagger(x) @ W)
    return (residual <= tol) & (matcore.herm_defect(z) <= tol), residual, z


def locally_trivial_check(T, window_sizes, tol=None):
    """Per truncation size N: average the entries over the permutations
    supported in [1,N] to get a candidate kappa and report
    max || x_g - kappa g^-1(kappa^-1) || over that subgroup; SingularKappa if kappa is singular."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    out, moved = [], np.array([g.image for g in T.group]) != np.arange(1, T.group[0].N + 1)
    for N in window_sizes:  # the elements that move no site above N, in group order
        sub = np.flatnonzero(~(moved & (np.arange(moved.shape[1]) >= N)).any(axis=1))
        K = T.mean_operand if len(sub) == len(T.group) else matcore.Operand(matcore._frozen(T.row_mean(sub)))
        try:  # LAPACK refuses a singular mean, the kappa candidate
            K.inv
        except np.linalg.LinAlgError:
            raise SingularKappa(f"the mean of the {len(sub)} entries is singular: no certificate") from None
        worst = (T.mean_defects if K is T.mean_operand else _coboundary_defects(T, K, sub)).max()
        out.append(_report(f"locally_trivial[N={N}]", worst, tol, details={"subgroup_order": len(sub)}))
    return out


def power_relation_check(T, s_list=(0.5, 1.0, 2.0), tol=None):
    """max over g and s of || x_g^-s - g^-1(x_b^s) ||, b = g^-1, certified from the
    inverse relation (g^-1 commutes with t -> t^s): for H the hermitean parts and
    e = ||x_g g^-1(x_b) - 1|| + (||x_g - x_g*|| ||x_b|| + ||H_g|| ||x_b - x_b*||) / 2,
    A = H_g^-1, B = g^-1(H_b) (s > 0) or A = H_g, B = g^-1(H_b)^-1 (s < 0) lie within
    e / lambda_min of the inverted side, and ||A^|s| - B^|s||| within power_lipschitz
    times that, from the spectra in T.facts; s = 0 gives 0.  The errors of x_g^-s,
    then of x_b^s, for each s in turn, are raised for the first entry in group order."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    inv, f, on = lattice.group_table(T.group)[1], T.facts, [(c, s) for c, s in enumerate(s_list) if s]
    a, lo, hi, resid = np.arange(len(inv)), f.lo, f.hi, np.zeros((len(inv), len(s_list)))
    floor_g, floor_b = (any(s != int(s) or s * sign > 0 for _, s in on) for sign in (1, -1))
    low = lo <= matcore.TAU_ABS  # t^s needs a floor for fractional s, x_g^-s if s > 0, x_b^s if s < 0
    broken = ~f.hermitean | ~f.hermitean[inv] | low & floor_g | low[inv] & floor_b
    for a0 in np.flatnonzero(broken)[:1]:  # the first broken entry's screens, in order, raise
        for k, t in [(k, t) for _, s in on for k, t in ((a0, -s), (inv[a0], s))]:
            matcore.require_hermitean(f[k])
            matcore.require_floor(f[k].eig - f[k].err, t)
    e = T.inverse_defects + (f.herm * f.norm[inv] + np.maximum(-lo, hi) * f.herm[inv]) / 2.0
    for c, s in on:
        k, o = (a, inv) if s > 0 else (inv, a)  # x_k the side inverted
        m, M = np.minimum(1.0 / hi[k], lo[o]), np.maximum(1.0 / lo[k], hi[o])
        resid[:, c] = [matcore.power_lipschitz(abs(s), *mM) for mM in zip(m, M)] * e / lo[k]
    worst, k = _first_worst(resid.ravel()) if resid.size else (0.0, None)
    return _report("power_relation", worst, tol, witness={"g": list(T.group[k // len(s_list)].image),
                   "s": s_list[k % len(s_list)]} if worst > tol else None)
