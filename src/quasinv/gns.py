"""Finite-dimensional GNS construction and the covariant unitaries, kept as
D x D factors.

The representation space for a faithful state phi on a window of dimension
D is C^(D^2) = vec(M_D) with the inner product <vec(a), vec(b)> = phi(a* b).
Column-stacked, the gram is W^T (x) 1, the left regular representation is
pi(a) = 1 (x) a and the cyclic vector is vec(1).  For a strong cocycle table
U_g vec(a) = vec(g(a) s_g), with s_g = x_{g^-1}^(1/2), is (P_g* s_g)^T (x) P_g.
All of these are elementary tensors, so nothing here forms a D^2 x D^2
matrix: the representation keeps W, pi(a) is a itself, and U_g is the pair
(g, s_g).

The gram adjoint of U_g is b -> g^-1(b) t_g with t_g = g^-1(W s_g*) W^-1, so
U_g# U_g is right multiplication by 1 + C_g, C_g = g^-1(s_g W s_g*) W^-1 - 1.
Each identity of the covariant representation is then one D x D defect whose
operator norm equals (for the group law: bounds) the D^2 x D^2 residual:

    gram-unitarity    U_g# U_g = 1                ||C_g||
    group law         U_g U_h = U_{gh}            ||g(s_h) s_g - s_{gh}||
    adjoint           U_g# = U_{g^-1}             ||t_g - s_{g^-1}||
    covariance        U_g# pi(a) U_g = pi(g^-1(a))  ||C_g^T (x) g^-1(a)|| = ||C_g|| ||a||

and the lifted average (1/|G|) sum_g U_g# pi(a) U_g - pi(E_G(a)) =
(1/|G|) sum_g C_g^T (x) g^-1(a) is at most (1/|G|) sum_g ||C_g|| ||a||.
The t_g and C_g of a block of elements are one stacked lattice.gather and one
stacked SVD.  Covariance and the lift share ||C_g|| and scale it over a probe
list by max ||a||_F, one row norm a probe: ||a|| <= ||a||_F <= sqrt(rank a) ||a||.
"""

from dataclasses import dataclass

import numpy as np

from . import cocycle, lattice, matcore, states
from .lattice import LocalOperator, Permutation, _pairwise_sum, act, gather

GNS_TOL = 1e-9


def vec(m):
    """Column-stacking vectorization."""
    return matcore.promote(m).flatten(order="F")


def _matrix(a):
    return a.matrix if isinstance(a, LocalOperator) else matcore.promote(a)


@dataclass(frozen=True)
class GnsRepresentation:
    window: object
    W: np.ndarray          # full-window density of the state; the gram is W^T (x) 1
    W_inv: np.ndarray

    @property
    def D(self):
        return self.window.total_dim

    @property
    def dim(self):
        return self.D * self.D

    def inner(self, a, b):
        """<vec(a), vec(b)> = phi(a* b) for D x D matrices a, b."""
        return complex(np.trace(self.W @ _matrix(a).conj().T @ _matrix(b)))


@dataclass(frozen=True)
class CovariantUnitary:
    """U_g vec(a) = vec(g(a) s) with s = x_{g^-1}^(1/2), kept as its factors."""
    g: Permutation
    s: LocalOperator

    def __call__(self, a):
        return act(self.g, a) @ self.s


def build_gns(phi):
    """The cyclic representation of a faithful state on its window."""
    W = states.faithful_density(phi, phi.window)
    return GnsRepresentation(phi.window, W.A, W.inv.A)


def build_unitaries(R, T, tol=GNS_TOL):
    """U_g on vec(a) = vec(g(a) x_{g^-1}^(1/2)) for a strong table.  The square roots V lam^(1/2) V* of a
    block of entries x_{g^-1} come from one stacked eigh of their hermitean parts; the first entry in that
    order that fails names the error, NotHermitian (matcore.require_hermitean) before NotPositive (the floor)."""
    cocycle.require_strong_entries(T, tol)

    def roots(rows):
        x = T.stack[rows]
        lam, V = np.linalg.eigh((x + matcore.dagger(x)) / 2.0)
        if (bad := ~T.facts.hermitean[rows] | (lam[:, 0] <= matcore.TAU_ABS)).any():
            k = int(np.argmax(bad))
            matcore.require_hermitean(T.facts[rows[k]])
            matcore.require_floor(lam[k], 0.5)
        M = (V * np.power(lam, 0.5)[:, None, :]) @ matcore.dagger(V)
        return (M + matcore.dagger(M)) / 2.0
    s = T.rowwise(roots, lattice.group_table(T.group)[1])
    return {g.image: CovariantUnitary(g, LocalOperator(R.window, m)) for g, m in zip(T.group, s)}


def _factors(R, U, group):
    """The stack of the s_g of the list and its inverse index arrays."""
    return np.array([U[g.image].s.matrix for g in group]), lattice.inverse_index(group, R.window)


def _sharp_factors(R, s, q):
    """t_g with U_g# vec(b) = vec(g^-1(b) t_g): t_g = g^-1(W s*) W^-1, per row of s and q."""
    return gather(R.W @ matcore.dagger(s), q) @ R.W_inv


def _gram_defects(R, s, q):
    """C_g = g^-1(s W s*) W^-1 - 1, with U_g# U_g vec(a) = vec(a (1 + C_g)), per row of s and q."""
    return gather(s @ R.W @ matcore.dagger(s), q) @ R.W_inv - np.eye(R.D)


def _gram_norms(R, U, group):
    """||C_g|| over the list, one stacked gather and SVD a block of elements."""
    s, q = _factors(R, U, group)
    return matcore._rowwise(lambda r: matcore.operator_norm(_gram_defects(R, s[r], q[r])),
                            len(s), R.W.nbytes)


def verify_unitaries(R, U, group, tol=GNS_TOL):
    """Gram-unitarity, U_g# = U_{g^-1}, and g(s_h) s_g = s_{gh}, bounded as in
    cocycle.verify_cocycle_law by the coboundary g(sigma^-1) sigma, sigma = mean s_g."""
    inv, Q = lattice.group_table(group)[1], lattice.group_index(group, R.window)
    s, q = _factors(R, U, group)
    sigma_inv = matcore.inv(sigma := _pairwise_sum(s[r] for r in matcore._blocks(len(s), s[0].nbytes)) / len(s))
    unit, adj, delta, norm = (float(v.max()) for v in matcore._rowwise(
        lambda r: tuple(map(matcore.operator_norm, (
            _gram_defects(R, s[r], q[r]), _sharp_factors(R, s[r], q[r]) - s[inv[r]],
            s[r] - gather(sigma_inv, Q[r]) @ sigma, s[r]))), len(s), R.W.nbytes))
    law = delta * (1.0 + 2.0 * (norm + delta) + delta)
    resid = max(unit, law, adj)
    return {"unitarity": unit, "group_law": law, "adjoint": adj, "residual": resid,
            "pass": resid <= tol, "delta": delta}


def _probe_scale(probes):
    """max ||a||_F over the probes, the largest row norm of the states.probe_blocks blocks; 1 when None."""
    if probes is None:
        return 1.0
    probes = list(probes)
    D = _matrix(probes[0]).shape[-1] if probes else 1
    return max(float(np.linalg.norm(P, axis=1).max()) for P in states.probe_blocks(probes, D))


def verify_covariance(R, U, group, probes=None, tol=GNS_TOL):
    """max over g, probes of || U_g# pi(a) U_g - pi(g^-1(a)) || <= ||C_g|| max ||a||_F;
    with probes=None, exactly ||C_g|| over the whole unit ball of the window."""
    worst = _probe_scale(probes) * float(_gram_norms(R, U, group).max())
    return {"residual": worst, "pass": worst <= tol}


def verify_lifted_expectation(R, U, subgroup, probes=None, tol=GNS_TOL):
    """The lift agrees with the algebra-level average: for every probe a,
    || (1/|G|) sum U_g# pi(a) U_g - pi(E_G(a)) || <= (1/|G|) sum_g ||C_g|| ||a||_F,
    the bound reported as the residual; with probes=None, over the unit ball."""
    worst = sum(_gram_norms(R, U, subgroup).tolist()) / len(subgroup) * _probe_scale(probes)
    return {"residual": worst, "pass": worst <= tol}


def cyclicity_rank(R):
    """Rank of the span of {pi(e_ij) vec(1)} = {vec(e_ij)} in the gram
    geometry W^T (x) 1, which is D rank W; D^2 certifies the cyclic vector."""
    return R.D * int(np.linalg.matrix_rank(R.W, tol=1e-10))
