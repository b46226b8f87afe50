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

Constructors: trivial cocycles kappa * g^-1(kappa^-1), product-state
cocycles on the support of g, the solution set of W x = x* W on a single
factor, and propagation along the powers of a single generator.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matcore, states
from .errors import (
    GroupNotClosed,
    MissingIdentityEntry,
    NotInCentralizer,
    NotHermitianZ,
    NotStrongCocycle,
    OrderExceeded,
    SingularEntry,
    SingularKappa,
    SingularWeight,
)
from .lattice import LocalOperator, Permutation, act, embed, identity_permutation, support

# residuals pass at 1e-8 absolute after scaling by the largest entry norm;
# planted defects in the tests are >= 1e-3, five decades away
PASS_TOL = 1e-8
TAU_STATE = 1e-8


@dataclass(frozen=True)
class CocycleTable:
    group: tuple
    entries: dict
    window: object

    def __post_init__(self):
        if not any(g.is_identity() for g in self.group):
            raise MissingIdentityEntry("group enumeration lacks the identity")

    def entry(self, g):
        return self.entries[g.image]

    def __iter__(self):
        return iter((g, self.entries[g.image]) for g in self.group)

    def max_entry_norm(self):
        return max(matcore.operator_norm(x.matrix) for x in self.entries.values())

    def scale(self):
        return max(1.0, self.max_entry_norm())


def build_table(group, window, builder):
    """Tabulate x_g = builder(g) over the whole group."""
    entries = {g.image: builder(g) for g in group}
    return CocycleTable(tuple(group), entries, window)


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
    e = identity_permutation(T.group[0].N)
    if e.image not in T.entries:
        raise MissingIdentityEntry("no entry for the identity permutation")
    I = np.eye(T.window.total_dim)
    resid = matcore.operator_norm(T.entries[e.image].matrix - I)
    return _report("normalization", resid, tol)


def verify_cocycle_law(T, tol=None):
    """max over pairs of || x_{g2 g1} - x_{g1} g1^-1(x_{g2}) ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    worst, witness = 0.0, None
    for g2 in T.group:
        for g1 in T.group:
            prod = g2 * g1
            if prod.image not in T.entries:
                raise GroupNotClosed(f"{g2.image} o {g1.image} = {prod.image} missing from table")
            lhs = T.entries[prod.image].matrix
            rhs = (T.entries[g1.image] @ act(g1.inverse(), T.entries[g2.image])).matrix
            r = matcore.operator_norm(lhs - rhs)
            if r > worst:
                worst, witness = r, {"g2": list(g2.image), "g1": list(g1.image)}
    return _report("cocycle_law", worst, tol, witness=witness if worst > tol else None)


def verify_inverse_relation(T, tol=None):
    """max over g of || x_g g^-1(x_{g^-1}) - 1 ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    I = np.eye(T.window.total_dim)
    worst, witness = 0.0, None
    for g in T.group:
        x_g = T.entries[g.image]
        if not matcore.classify(x_g.matrix).invertible:
            raise SingularEntry(f"x_g singular for g = {g.image}")
        x_ginv = T.entries[g.inverse().image]
        r = matcore.operator_norm((x_g @ act(g.inverse(), x_ginv)).matrix - I)
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
    for g in T.group:
        Wx = W.matrix @ T.entries[g.image].matrix
        norm_worst = max(norm_worst, abs(np.trace(Wx) - 1.0))
        r, where = states.pairing_residual(act(g.inverse(), W).matrix - Wx, probes)
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
    for g in T.group:
        x = T.entries[g.image].matrix
        if matcore.herm_defect(x) > tol * max(1.0, matcore.operator_norm(x)):
            raise NotStrongCocycle(f"entry for {g.image} is not hermitean")
        if np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0] <= 0.0:
            raise NotStrongCocycle(f"entry for {g.image} is not positive")


def verify_strong(T, phi, probes=None, tol=None):
    """The strong-case bundle: hermiticity, positivity, pairwise
    commutation, centralizer membership, and the spectrum bounds
    [S1, S2] that contain every Spec(x_g)."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    herm = 0.0
    s1, s2 = np.inf, -np.inf
    for g in T.group:
        x = T.entries[g.image].matrix
        herm = max(herm, matcore.herm_defect(x))
        lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
        s1, s2 = min(s1, float(lam[0])), max(s2, float(lam[-1]))
    comm, comm_wit = 0.0, None
    for g in T.group:
        for h in T.group:
            xg, xh = T.entries[g.image].matrix, T.entries[h.image].matrix
            r = matcore.operator_norm(xg @ xh - xh @ xg)
            if r > comm:
                comm, comm_wit = r, {"g": list(g.image), "h": list(h.image)}
    W = states.full_density(phi)
    centr = max(states.centralizer_residual(W, x, probes) for _, x in T)
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
    witness = comm_wit if comm > tol else None
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
    for g in T.group:
        x_g = T.entries[g.image].matrix
        core = x_g @ x.matrix @ matcore.inv(x_g)
        transported = act(g, LocalOperator(T.window, core)).matrix
        r, where = states.pairing_residual(W @ act(g, x).matrix - transported @ W, probes)
        if r > worst:
            worst, witness = r, {"g": list(g.image), **where}
    return _report("centralizer_transport", worst, tol, witness=witness if worst > tol else None)


def trivial_cocycle(kappa, group):
    """x_g = kappa * g^-1(kappa^-1), the cocycle attached to one invertible kappa."""
    if not matcore.classify(kappa.matrix).invertible:
        raise SingularKappa("kappa is not invertible")
    kinv = LocalOperator(kappa.window, matcore.inv(kappa.matrix))
    return build_table(group, kappa.window,
                       lambda g: kappa @ act(g.inverse(), kinv))


def product_state_cocycle(phi, group):
    """The cocycle making a product state quasi-invariant:
    x_g = (prod_{n in supp g} j_n(W_n^-1)) * g^-1(prod_{n in supp g} j_n(W_n))."""
    window = phi.window
    inverses = []
    for W in phi.weights:
        lam = np.linalg.eigvalsh(W)
        if lam[0] <= matcore.TAU_POS:
            raise SingularWeight(f"weight with min eigenvalue {lam[0]:.3e}")
        inverses.append(matcore.inv(W))

    def builder(g):
        sites = sorted(support(g))
        x = window.identity()
        for n in sites:
            x = x @ embed(window, n, inverses[n - 1])
        y = window.identity()
        for n in sites:
            y = y @ embed(window, n, phi.weights[n - 1])
        return x @ act(g.inverse(), y)

    return build_table(group, window, builder)


def solve_SW(W, z):
    """The solution x = W^-1 z of W x = x* W attached to a hermitean z."""
    z = np.asarray(z, dtype=complex)
    if not matcore.is_hermitian(z):
        raise NotHermitianZ("z must be hermitean")
    return matcore.inv(W) @ z


def check_SW(W, x, tol=1e-10):
    """Whether x solves W x = x* W; returns (ok, residual, z) with z = W x,
    which is hermitean exactly when x is a solution."""
    W = np.asarray(W, dtype=complex)
    x = np.asarray(x, dtype=complex)
    residual = matcore.operator_norm(W @ x - x.conj().T @ W)
    z = W @ x
    ok = residual <= tol and matcore.herm_defect(z) <= tol
    return ok, float(residual), z


def propagate_single_generator(x0, g0, n_max):
    """Entries along the powers of one generator:
    x_{g0^n} = x_{g0} g0^-1(x_{g0}) ... g0^-(n-1)(x_{g0})."""
    m = g0.order()
    if n_max > m:
        raise OrderExceeded(f"n_max {n_max} exceeds generator order {m}")
    window = x0.window
    entries = {identity_permutation(g0.N).image: window.identity()}
    group = [identity_permutation(g0.N)]
    g0_inv = g0.inverse()
    current = x0
    power = g0
    conj = g0_inv
    for n in range(1, n_max + 1):
        entries[power.image] = current
        if power.image not in [g.image for g in group]:
            group.append(power)
        current = current @ act(conj, x0)
        power = g0 * power
        conj = g0_inv * conj
    return CocycleTable(tuple(group), entries, window)


def locally_trivial_check(T, window_sizes, tol=None):
    """Per truncation size N: average the entries over the permutations
    supported in [1,N] to get a candidate kappa and report
    max || x_g - kappa g^-1(kappa^-1) || over that subgroup."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    out = []
    for N in window_sizes:
        sub = [g for g in T.group if support(g) <= set(range(1, N + 1))]
        avg = sum(T.entries[g.image].matrix for g in sub) / len(sub)
        kappa = LocalOperator(T.window, avg)
        kinv = LocalOperator(T.window, matcore.inv(avg))
        worst = 0.0
        for g in sub:
            r = matcore.operator_norm(
                T.entries[g.image].matrix - (kappa @ act(g.inverse(), kinv)).matrix)
            worst = max(worst, r)
        out.append(_report(f"locally_trivial[N={N}]", worst, tol,
                           details={"kappa": kappa, "subgroup_order": len(sub)}))
    return out


def power_relation_check(T, s_list=(0.5, 1.0, 2.0), tol=None):
    """max over g and s of || x_g^-s - g^-1(x_{g^-1}^s) ||."""
    tol = PASS_TOL * T.scale() if tol is None else tol
    worst, witness = 0.0, None
    for g in T.group:
        x_g = T.entries[g.image].matrix
        x_ginv = T.entries[g.inverse().image]
        for s in s_list:
            lhs = matcore.matrix_power(x_g, -s)
            rhs = act(g.inverse(), LocalOperator(T.window, matcore.matrix_power(x_ginv.matrix, s)))
            r = matcore.operator_norm(lhs - rhs.matrix)
            if r > worst:
                worst, witness = r, {"g": list(g.image), "s": s}
    return _report("power_relation", worst, tol, witness=witness if worst > tol else None)
