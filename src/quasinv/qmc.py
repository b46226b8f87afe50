"""Quantum Markov chains built from commuting conditional density amplitudes.

A chain of N two-site amplitudes K_1..K_N lives on a window of N+1 sites
over a homogeneous reference state psi with weight W_inf.  The state is

    phi(a) = psi( R* a R ),    R = j_[1,2](K_1) ... j_[N,N+1](K_N)

for observables a supported in [1,N].  Each K_n is normalized so the
psi-slice of K*K is the identity, which makes phi(1) = 1 and makes the
value of phi(a) independent of appending further normalized amplitudes.

Quasi-invariance comes in sandwich form phi(g(a)) = phi(y* a y) with
y = g^-1(R) R^-1, and in the commuting-centralizer case collapses to the
left form phi(g(a)) = phi(x_g a) with x_g = y y* built from |K_n|^2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice, matcore, states
from .errors import (
    NotCommutingChain,
    NotInCentralizer,
    SingularCDA,
    SizeMismatch,
    SupportTooLarge,
)
from .lattice import LocalOperator, Window, embed_pair, extend, gather, support
from .states import homogeneous_state, slice_expectation

CDA_TOL = 1e-8


def cda_normalize_check(K, W_inf):
    """|| Tr_2[ K*K (1 (x) W_inf) ] - I ||, the conditional normalization."""
    K, W_inf = matcore.promote(K), matcore.promote(W_inf)
    d = W_inf.shape[0]
    if K.shape != (d * d, d * d):
        raise SizeMismatch(f"amplitude shape {K.shape} does not match d={d}")
    out = slice_expectation(W_inf, K.conj().T @ K)
    return matcore.operator_norm(out - np.eye(d))


def diagonal_cda(d=2, delta=0.0):
    """The diagonal amplitude diag(alpha, beta, beta, alpha) with
    alpha^2 = 3/2 + delta, beta^2 = 1/2 - delta, normalized against W = I/2."""
    if d != 2:
        raise SizeMismatch("the diagonal sampler is a d=2 construction")
    a2, b2 = 1.5 + delta, 0.5 - delta
    if min(a2, b2) <= 0:
        raise SingularCDA(f"delta {delta} drives the amplitude singular")
    a, b = np.sqrt(a2), np.sqrt(b2)
    return np.diag([a, b, b, a])


def seeded_chain(N, seed):
    """N diagonal amplitudes, detunings seeded in [-0.2, 0.2], normalized against I/2."""
    rng = np.random.Generator(np.random.Philox(seed))
    deltas = 0.2 * (2.0 * rng.random(N) - 1.0)
    return tuple(diagonal_cda(2, float(dl)) for dl in deltas)


@dataclass(frozen=True)
class MarkovState:
    """A chain of amplitudes over the homogeneous state psi; the chain product
    R, its inverse and the density R Psi R* are built on first use and kept."""

    d: int
    W_inf: np.ndarray
    chain: tuple
    validate: bool = True

    def __post_init__(self):
        W = matcore.promote(self.W_inf)
        object.__setattr__(self, "W_inf", W)
        ks = tuple(matcore.promote(K) for K in self.chain)
        object.__setattr__(self, "chain", ks)
        if self.validate:
            for n, K in enumerate(ks, start=1):
                sv = np.linalg.svd(K, compute_uv=False)
                if sv.min() <= matcore.TAU_POS:
                    raise SingularCDA(f"amplitude {n} has min singular value {sv.min():.3e}")
                r = cda_normalize_check(K, W)
                if r > CDA_TOL:
                    raise SingularCDA(f"amplitude {n} normalization residual {r:.3e}")

    @property
    def N(self):
        return len(self.chain)

    @property
    def window(self):
        return Window(self.d, self.N + 1)

    def psi(self):
        return homogeneous_state(self.d, self.N + 1, self.W_inf)

    @cached_property
    def R(self):
        """The chain product j_[1,2](K_1) ... j_[N,N+1](K_N), built once."""
        out = self.window.identity()
        for n, K in enumerate(self.chain, start=1):
            out = out @ embed_pair(self.window, n, K)
        return out

    @cached_property
    def R_inv(self):
        try:
            return LocalOperator(self.window, matcore.inv(self.R.matrix))
        except np.linalg.LinAlgError as exc:
            raise SingularCDA("chain product is singular") from exc

    @cached_property
    def density(self):
        """The window density implementing phi: phi(a) = Tr(R Psi R* a)."""
        R = self.R.matrix
        return R @ states.full_density(self.psi()) @ R.conj().T


def _extend_perm(group, M):
    """The list on the chain's window, checked once: every element fixes the boundary site."""
    if (n := max((g.N for g in group), default=0)) > M.N + 1:
        raise SupportTooLarge(f"permutation moves {n} sites, window has {M.N + 1}")
    if max(set().union(*map(support, group)), default=0) > M.N:
        raise SupportTooLarge("permutation must fix the boundary site")
    return [extend(g, M.N + 1) for g in group]


def markov_functional(M):
    """phi as a weighted-trace state on the full window."""
    return states.WeightedTraceState(M.window, M.density, validate=False)


def _marginal(X, window, n):
    """X traced over every site of the window after the first n."""
    k, r = window.d ** n, window.d ** (window.N - n)
    return np.einsum("...iaja->...ij", X.reshape(X.shape[:-2] + (k, r, k, r)))


def extension_residual(M, K_next):
    """max over a in A_[1,N] of |phi_N(a) - phi_{N+1}(a)| after appending one
    more normalized amplitude, from the difference of the two chain
    densities reduced to [1,N]; the well-definedness diagnostic."""
    M_ext = MarkovState(M.d, M.W_inf, M.chain + (K_next,), validate=M.validate)
    diff = _marginal(M.density, M.window, M.N) - _marginal(M_ext.density, M_ext.window, M.N)
    return states.pairing_residual(diff)[0]


def y_cocycle(M, group):
    """The stack of y_g = g^-1(R) R^-1 over the list, the sandwich cocycle at the window scale."""
    q = lattice.inverse_index(_extend_perm(group, M), M.window)
    return gather(M.R.matrix, q) @ M.R_inv.matrix


def sandwich_residual(M, group, *, y=None):
    """Per element of the list, max over a in A_[1,N] of |phi(g(a)) - phi(y* a y)|, from the
    defect matrix g^-1(W) - y W y* reduced to [1,N]; the stack y defaults to y_cocycle(M, group)."""
    y = y_cocycle(M, group) if y is None else y
    W, q = M.density, lattice.inverse_index(_extend_perm(group, M), M.window)
    defect = gather(W, q) - y @ W @ matcore.dagger(y)
    return states.pairing_residual(_marginal(defect, M.window, M.N))[0]


def chain_commutation_residual(M):
    """max pairwise commutator norm of the embedded amplitudes: matcore.commutator_bound, else one SVD."""
    emb = [matcore.Operand(embed_pair(M.window, n, K).matrix) for n, K in enumerate(M.chain, start=1)]
    return max((matcore.commutator_bound(a.frame, b.frame) if None not in (a.frame, b.frame) else
                matcore.operator_norm(a.A @ b.A - b.A @ a.A) for i, a in enumerate(emb) for b in emb[i + 1:]),
               default=0.0)


def chain_centralizer_residual(M):
    """max over amplitudes of the centralizer residual of K_n in the
    two-site reference state."""
    W2 = states.full_density(homogeneous_state(M.d, 2, M.W_inf))
    return max(states.centralizer_residual(W2, K) for K in M.chain)


def x_cocycle_table(M, group, tol=CDA_TOL):
    """Tabulate x_g = Q^-1 g^-1(Q), the coboundary of kappa = Q^-1 with Q the
    chain product of the K_n* K_n, over a group acting on the sites [1,N]; it
    equals y y* for commuting chains whose amplitudes centralize the reference
    state, hypotheses checked first."""
    from .cocycle import _coboundary_table
    group = _extend_perm(group, M)
    comm = chain_commutation_residual(M)
    if comm > tol:
        raise NotCommutingChain(f"pairwise commutator norm {comm:.3e}")
    centr = chain_centralizer_residual(M)
    if centr > tol:
        raise NotInCentralizer(f"amplitude centralizer residual {centr:.3e}")
    Q = MarkovState(M.d, M.W_inf, tuple(K.conj().T @ K for K in M.chain), validate=False)
    return _coboundary_table(group, M.window, matcore.Operand(Q.R_inv.matrix, Q.R.matrix))
