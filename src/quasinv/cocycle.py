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
row by row by one kernel: the one-kappa cocycles, the product-state cocycles
(kappa the tensor product of the inverse weights on the sites the group
moves), and the Markov chain cocycles (qmc, kappa = Q^-1).  The checks that
compare a table with a coboundary (local triviality here, the structure
decomposition and the restriction to subgroups in compact, kappa = W^-1 there)
read the same kernel.  Besides: the solution set of W x = x* W on a single
factor, and propagation along the powers of a single generator.  The laws on
all |G|^2 pairs are bounded from |G| entries (verify_cocycle_law, verify_strong).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import lattice, matcore, states
from .errors import (
    GroupNotClosed,
    MissingIdentityEntry,
    NotInCentralizer,
    NotHermitianZ,
    NotStrongCocycle,
    OrderExceeded,
    QuasinvError,
    SingularEntry,
    SingularKappa,
    SingularWeight,
)
from .lattice import LocalOperator, act, act_inverse, gather, support

# residuals pass at 1e-8 absolute after scaling by the largest entry norm;
# planted defects in the tests are >= 1e-3, five decades away
PASS_TOL = 1e-8
TAU_STATE = 1e-8
EXHAUSTIVE_ORDER_CAP = 120  # a law without a certificate is checked pair by pair up to |S_5|


class CocycleTable:
    """x_g over a list of permutations, stored once as the read-only (|G|, D, D)
    array `stack` in group order.  The entries arrive as that array (adopted if
    read-only, else copied) or as a mapping from image tuples to operators;
    `entries`, `entry(g)` and iteration are views onto the rows of the stack."""

    def __init__(self, group, entries, window):
        self.group, self.window = tuple(group), window
        if not any(g.is_identity() for g in self.group):
            raise MissingIdentityEntry("group enumeration lacks the identity")
        if not isinstance(entries, np.ndarray):
            missing = [g.image for g in self.group if g.image not in entries]
            if missing:
                raise GroupNotClosed(f"no entry for {missing[0]}")
            entries = np.array([entries[g.image].matrix for g in self.group])
        elif entries.flags.writeable:
            entries = entries.copy()
        self.stack = matcore.promote(entries)
        self.stack.flags.writeable = False

    @cached_property
    def entries(self):
        return {g.image: LocalOperator(self.window, x) for g, x in zip(self.group, self.stack)}

    def entry(self, g):
        return self.entries[g.image]

    def __iter__(self):
        return iter((g, self.entries[g.image]) for g in self.group)

    @cached_property
    def facts(self):
        """matcore.Facts of each entry in group order, built in one loop on
        first use: every norm, hermiticity defect and hermitean-part spectrum
        of an entry that a check reads comes from here."""
        return tuple(matcore.facts(x) for x in self.stack)

    def scale(self):
        return max(1.0, max(f.norm for f in self.facts))

    @cached_property
    def mean(self):
        """(1/|G|) sum_g x_g in compact._tree_sum's pairwise order, with no stack copy."""
        def tree(lo, k):  # rows [lo, lo + k), k a power of 2
            if k == 1 or lo + k // 2 >= n:
                return self.stack[lo] if k == 1 else tree(lo, k // 2)
            return tree(lo, k // 2) + tree(lo + k // 2, k // 2)
        n = len(self.stack)
        return tree(0, 1 << (n - 1).bit_length()) / n

    mean_inv = cached_property(lambda self: matcore.inv(self.mean))


def _coboundary(group, window, kappa, kappa_inv, rows=None):
    """Yield (i, g_i^-1(kappa^-1), kappa g_i^-1(kappa^-1)) for the listed rows of
    the group list (all by default), one row at a time: the one place the rule
    x_g = kappa g^-1(kappa^-1) is written.  kappa and kappa_inv are bare
    matrices, g^-1 the gather through the argsort of g's index array."""
    Q_inv = np.argsort(lattice.group_index(group, window), axis=1)
    for i in range(len(group)) if rows is None else rows:
        moved = gather(kappa_inv, Q_inv[i])
        yield i, moved, kappa @ moved


def _coboundary_table(group, window, kappa, kappa_inv):
    """The table x_g = kappa g^-1(kappa^-1), row by row into one stack in their dtype."""
    stack = np.empty((len(group),) + kappa.shape, np.result_type(kappa, kappa_inv, np.float64))
    for i, _, x in _coboundary(group, window, kappa, kappa_inv):
        stack[i] = x
    stack.flags.writeable = False
    return CocycleTable(group, stack, window)


def _coboundary_defects(T, kappa, kappa_inv, rows=None):
    """Yield (i, ||x_{g_i} - kappa g_i^-1(kappa^-1)||, g_i^-1(kappa^-1),
    kappa g_i^-1(kappa^-1)) for the listed rows of the table (all by default)."""
    for i, moved, x in _coboundary(T.group, T.window, kappa, kappa_inv, rows):
        yield i, matcore.operator_norm(T.stack[i] - x), moved, x


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


def _worst_pairs(T, pairs):
    """(max, first witness) of the exact law defect over (g2, g1) position pairs."""
    (mul, inv), x = lattice.group_table(T.group), T.stack
    Q = lattice.group_index(T.group, T.window)
    r, b, a = max(((matcore.operator_norm(x[mul[b, a]] - x[a] @ gather(x[b], Q[inv[a]])), b, a)
                   for b, a in pairs), key=lambda t: t[0])
    return r, {"g2": list(T.group[b].image), "g1": list(T.group[a].image)} if r else None


def verify_cocycle_law(T, tol=None):
    """max over pairs of || x_{g2 g1} - x_{g1} g1^-1(x_{g2}) ||, bounded by
    delta (1 + 2C + delta), delta = max_g || x_g - kappa g^-1(kappa^-1) || for the
    mean kappa, C = max ||x_g|| + delta; witness: the worst exact pair holding the
    worst-delta g.  Without a certificate (kappa singular) see EXHAUSTIVE_ORDER_CAP."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    n, f = len(lattice.group_table(T.group)[1]), matcore.facts(T.mean)
    if not f.invertible:
        if n > EXHAUSTIVE_ORDER_CAP:
            raise SingularKappa(f"the mean of the {n} entries is singular: no certificate")
        worst, witness = _worst_pairs(T, np.ndindex(n, n))
        return _report("cocycle_law", worst, tol, witness=witness if worst > tol else None,
                       details={"method": "exhaustive"})
    deltas = [r for _, r, *_ in _coboundary_defects(T, T.mean, T.mean_inv)]
    k = int(np.argmax(deltas))
    C = max(f.norm for f in T.facts) + deltas[k]
    bound = deltas[k] * (1.0 + 2.0 * C + deltas[k])
    pairs = [(k, a) for a in range(n)] + [(b, k) for b in range(n)]
    details = {"delta": deltas[k], "C": C, "kappa_cond": float(f.sv[0] / f.sv[-1]),
               "method": "certificate"}
    return _report("cocycle_law", bound, tol, details=details,
                   witness=_worst_pairs(T, pairs)[1] if bound > tol else None)


def verify_inverse_relation(T, tol=None):
    """max over g of || x_g g^-1(x_{g^-1}) - 1 ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    inv, x = lattice.group_table(T.group)[1], T.stack
    Q = lattice.group_index(T.group, T.window)
    I = np.eye(T.window.total_dim)
    for g, f in zip(T.group, T.facts):
        if not f.invertible:
            raise SingularEntry(f"x_g singular for g = {g.image}")
    worst, witness = 0.0, None
    for i, g in enumerate(T.group):
        r = matcore.operator_norm(x[i] @ gather(x[inv[i]], Q[inv[i]]) - I)
        if r > worst:
            worst, witness = r, {"g": list(g.image)}
    return _report("inverse_relation", worst, tol, witness=witness if worst > tol else None)


def verify_quasi_invariance(phi, T, probes=None, tol=None):
    """max over g and a of |phi(g(a)) - phi(x_g a)| from the defect matrices
    g^-1(W) - W x_g: on every a by default, otherwise on the probes.

    Also folds in |phi(x_g) - 1| and the positivity phi(x_g a*a) >= -tol of a
    Radon-Nikodym family: min eig of the hermitean part of W x_g >= -tol.
    """
    tol = PASS_TOL * T.scale() if tol is None else tol
    W = LocalOperator(T.window, states.full_density(phi))
    worst, witness = 0.0, None
    norm_worst = 0.0
    pos_worst = 0.0
    for g, x in zip(T.group, T.stack):
        Wx = W.matrix @ x
        norm_worst = max(norm_worst, abs(np.trace(Wx) - 1.0))
        r, where = states.pairing_residual(act_inverse(g, W).matrix - Wx, probes)
        if r > worst:
            worst, witness = r, {"g": list(g.image), **where}
        pos_worst = max(pos_worst, -float(np.linalg.eigvalsh((Wx + Wx.conj().T) / 2.0)[0]))
    resid = max(worst, norm_worst)
    details = {"pairing": worst, "normalization": norm_worst, "positivity_defect": max(pos_worst, 0.0)}
    passed = resid <= tol and pos_worst <= tol
    return _report("quasi_invariance", resid, tol, witness=witness if not passed else None,
                   details=details, passed=passed)


def require_strong_entries(T, tol):
    """Raise NotStrongCocycle unless every entry is hermitean (to tol, scaled
    by its norm) and positive definite: the precondition of the square roots
    and averages built on a strong table."""
    for g, f in zip(T.group, T.facts):
        if f.herm > tol * max(1.0, f.norm):
            raise NotStrongCocycle(f"entry for {g.image} is not hermitean")
        if f.eig[0] <= 0.0:
            raise NotStrongCocycle(f"entry for {g.image} is not positive")


def verify_strong(T, phi, probes=None, tol=None):
    """The strong-case bundle: hermiticity, positivity, pairwise commutation,
    centralizer membership, and the bounds [S1, S2] of every Spec(x_g).  With
    V* x_g V = D_g + E_g (diagonal, off-diagonal) in the eigenbasis V of a seeded
    combination, ||[x_g, x_h]|| <= 2 (|D_g| |E_h| + |E_g| |D_h| + |E_g| |E_h|).
    Witness: a non-commuting pair {g, h}; else {g, part}, the worst entry of the
    first failing part (hermiticity, positivity, centralizer)."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    herm = max(f.herm for f in T.facts)
    s1 = min(float(f.eig[0]) for f in T.facts)
    s2 = max(float(f.eig[-1]) for f in T.facts)
    x = T.stack  # H below is a seeded combination sum_g c_g x_g, summed without a copy
    H = np.tensordot(np.random.Generator(np.random.Philox(0)).standard_normal(len(x)), x, 1)
    V = np.linalg.eigh((H + H.conj().T) / 2.0)[1]
    diag, off = np.array([(np.abs(np.diagonal(y)).max(), matcore.operator_norm(
        y - np.diag(np.diagonal(y)))) for y in (V.conj().T @ x_g @ V for x_g in x)]).T
    comm = float(np.triu(2.0 * (np.outer(diag, off) + np.outer(off, diag + off)), 1).max())
    W = states.full_density(phi)
    centrs = [states.centralizer_residual(W, x, probes) for x in T.stack]
    centr = max(centrs)
    resid = max(herm, comm, centr)
    positive = s1 > 0.0
    details = {
        "hermiticity": herm,
        "min_eig": s1,
        "max_eig": s2,
        "commutators": comm,
        "centralizer": centr,
        "spectrum_bounds": (s1, s2),
    }
    passed = resid <= tol and positive
    witness = None
    if comm > tol:  # the worst exact commutator of the entry with the largest E_g
        k = int(np.argmax(off))
        exact = [matcore.operator_norm(x[k] @ y - y @ x[k]) for y in x]
        g, h = (list(T.group[i].image) for i in sorted((k, int(np.argmax(exact)))))
        witness = {"g": g, "h": h} if max(exact) > tol else None
    for part, r, fails in (("hermiticity", [f.herm for f in T.facts], herm > tol),
                           ("positivity", [-f.eig[0] for f in T.facts], not positive),
                           ("centralizer", centrs, centr > tol)):
        if witness is None and fails:
            witness = {"g": list(T.group[int(np.argmax(r))].image), "part": part}
    return _report("strong_quasi_invariance", resid, tol, witness=witness, details=details, passed=passed)


def verify_centralizer_transport(phi, T, x, probes=None, tol=None, tau_state=TAU_STATE):
    """phi(g(x) a) = phi(a g(x_g x x_g^-1)) for x in the centralizer of phi,
    from the defect matrices W g(x) - g(x_g x x_g^-1) W."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    W = states.full_density(phi)
    membership = states.centralizer_residual(W, x, probes)
    if membership > tau_state:
        raise NotInCentralizer(f"centralizer residual {membership:.3e} exceeds {tau_state:.1e}")
    worst, witness = 0.0, None
    for g, x_g in zip(T.group, T.stack):
        core = x_g @ x.matrix @ matcore.inv(x_g)
        transported = act(g, LocalOperator(T.window, core)).matrix
        r, where = states.pairing_residual(W @ act(g, x).matrix - transported @ W, probes)
        if r > worst:
            worst, witness = r, {"g": list(g.image), **where}
    return _report("centralizer_transport", worst, tol, witness=witness if worst > tol else None)


def trivial_cocycle(kappa, group):
    """x_g = kappa * g^-1(kappa^-1), the cocycle attached to one invertible kappa."""
    if not matcore.facts(kappa.matrix).invertible:
        raise SingularKappa("kappa is not invertible")
    return _coboundary_table(group, kappa.window, kappa.matrix, matcore.inv(kappa.matrix))


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
    return _coboundary_table(group, phi.window, kappa, kappa_inv)


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


def propagate_single_generator(x0, g0, n_max):
    """Entries along the powers of one generator:
    x_{g0^n} = x_{g0} g0^-1(x_{g0}) ... g0^-(n-1)(x_{g0})."""
    powers = lattice.cyclic_group(g0)
    m = len(powers)
    if n_max > m:
        raise OrderExceeded(f"n_max {n_max} exceeds generator order {m}")
    window = x0.window
    entries = {powers[0].image: window.identity()}
    current = x0
    for n in range(1, n_max + 1):
        entries[powers[n % m].image] = current
        current = current @ act_inverse(powers[n % m], x0)
    return CocycleTable(powers[:n_max + 1], entries, window)


def locally_trivial_check(T, window_sizes, tol=None):
    """Per truncation size N: average the entries over the permutations
    supported in [1,N] to get a candidate kappa and report
    max || x_g - kappa g^-1(kappa^-1) || over that subgroup."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    out = []
    for N in window_sizes:
        sub = [i for i, g in enumerate(T.group) if support(g) <= set(range(1, N + 1))]
        avg = T.mean if len(sub) == len(T.group) else sum(T.stack[i] for i in sub) / len(sub)
        avg_inv = T.mean_inv if avg is T.mean else matcore.inv(avg)
        worst = max(r for _, r, *_ in _coboundary_defects(T, avg, avg_inv, sub))
        out.append(_report(f"locally_trivial[N={N}]", worst, tol,
                           details={"subgroup_order": len(sub)}))
    return out


def power_relation_check(T, s_list=(0.5, 1.0, 2.0), tol=None):
    """max over g and s of || x_g^-s - g^-1(x_{g^-1}^s) || = || L^-s - M L'^s M* ||
    for x_g = V L V*, x_{g^-1} = V' L' V'* and M = V* g^-1(V'), g^-1 a row gather
    of V' (it commutes with functional calculus); s = 0 gives 0 undecomposed.
    Taken together with g^-1, each entry is decomposed once, each M formed once.
    Errors are kept and the first in group order is raised."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    inv, x = lattice.group_table(T.group)[1], T.stack
    Q = lattice.group_index(T.group, T.window)
    resid = [None] * len(x)
    for i, j in enumerate(inv.tolist()):
        if j < i:
            continue
        spectrum = cache(lambda k: matcore.spectral_decompose(x[k], facts=T.facts[k]))
        overlap = cache(lambda a, b: spectrum(a)[1].conj().T @ spectrum(b)[1][Q[b]])

        def residual(a, b, s):
            mu = matcore.spectral_power(spectrum(a)[0], -s)
            nu = matcore.spectral_power(spectrum(b)[0], s)
            M = overlap(a, b)
            R = (M * nu) @ M.conj().T
            R.flat[::len(R) + 1] -= mu
            return matcore.operator_norm(R)

        for a, b in [(i, j)] if i == j else [(i, j), (j, i)]:
            try:
                resid[a] = [residual(a, b, s) if s else 0.0 for s in s_list]
            except QuasinvError as exc:
                resid[a] = exc
    worst, witness = 0.0, None
    for g, rs in zip(T.group, resid):
        if isinstance(rs, QuasinvError):
            raise rs
        for s, r in zip(s_list, rs):
            if r > worst:
                worst, witness = r, {"g": list(g.image), "s": s}
    return _report("power_relation", worst, tol, witness=witness if worst > tol else None)
