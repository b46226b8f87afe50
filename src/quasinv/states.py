"""States on tensor windows: weighted traces, product states, centralizers.

A product state is phi = (x) Tr(W_n .) with per-site density matrices W_n;
a weighted-trace state carries one full-window density.  Both evaluate as
Tr(W a).  The slice expectation is the conditional expectation induced by a
homogeneous product state onto the first factor of an adjacent pair,
realized as the weighted partial trace Tr_2[X (1 (x) W)].
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import matcore
from .errors import NotFaithful, NotFinite, NotHomogeneous, SizeMismatch
from .lattice import LocalOperator, Window, gather, inverse_index


@dataclass(frozen=True)
class ProductState:
    window: Window
    weights: tuple

    def __post_init__(self):
        ws = tuple(matcore.promote(W) for W in self.weights)
        if len(ws) != self.window.N:
            raise SizeMismatch(f"{len(ws)} weights for {self.window.N} sites")
        for W in ws:
            if W.shape != (self.window.d, self.window.d):
                raise SizeMismatch(f"weight shape {W.shape}, site dimension {self.window.d}")
        object.__setattr__(self, "weights", ws)

    def is_homogeneous(self):
        return all(np.array_equal(W, self.weights[0]) for W in self.weights[1:])


@dataclass(frozen=True)
class WeightedTraceState:
    window: Window
    W: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        W = matcore.promote(self.W)
        if W.shape != (self.window.total_dim, self.window.total_dim):
            raise SizeMismatch(f"density shape {W.shape}, window dim {self.window.total_dim}")
        object.__setattr__(self, "W", W)
        if self.validate:
            if abs(np.trace(W) - 1.0) > 1e-9:
                raise SizeMismatch(f"trace {np.trace(W):.6f} is not 1")


def product_state(d, weights):
    ws = tuple(np.asarray(W) for W in weights)
    return ProductState(Window(d, len(ws)), ws)


def homogeneous_state(d, N, W):
    return ProductState(Window(d, N), tuple(np.asarray(W) for _ in range(N)))


def full_density(phi):
    """The full-window density matrix of the state: a product state's, built here, read-only."""
    if isinstance(phi, WeightedTraceState):
        return phi.W
    if isinstance(phi, ProductState):
        return matcore._frozen(reduce(np.kron, phi.weights[1:], phi.weights[0].copy()))
    return matcore.promote(phi)


def density(phi, window):
    """The matcore.Operand of the state's full-window density; SizeMismatch unless it is on the window, and
    NotFinite for a NaN or inf entry, which would give NaN residuals, and NaN compares false with any tol."""
    if not np.isfinite(W := LocalOperator(window, full_density(phi)).matrix).all():
        raise NotFinite("a state density with a NaN or inf entry")
    return matcore.Operand(W)


def evaluate(phi, a):
    """phi(a) = Tr(W a)."""
    m = a.matrix if isinstance(a, LocalOperator) else matcore.promote(a)
    W = full_density(phi)
    if W.shape != m.shape:
        raise SizeMismatch(f"state on dim {W.shape[0]}, operator on dim {m.shape[0]}")
    return complex(np.trace(W @ m))


def is_faithful(phi):
    """Whether the density's least eigenvalue exceeds TAU_POS; returns (flag, its Operand's facts.lo)."""
    lo = float(density(phi, phi.window).facts.lo)
    return lo > matcore.TAU_POS, lo


def faithful_density(phi, window):
    """The Operand of the density on the window, refused unless it is positive definite."""
    W = density(phi, window)
    if (lo := float(W.facts.lo)) <= matcore.TAU_POS:
        raise NotFaithful(f"state density has min eigenvalue {lo:.3e}")
    return W


def matrix_unit_probes(window):
    """All matrix units e_ij of the window; complete, so linear identities
    verified on them hold on the whole algebra."""
    n = window.total_dim
    return [LocalOperator(window, np.eye(1, n * n, k).reshape(n, n)) for k in range(n * n)]


def probe_blocks(probes, D):
    """The probes as (k, D*D) blocks of at most BLOCK_BYTES at complex width, row
    k of a block vec(a_k), each block built as it is read; an empty list is one
    zero probe.  SizeMismatch, raised on the call, names the first probe not D x D."""
    mats = [a.matrix if isinstance(a, LocalOperator) else np.asarray(a) for a in probes]
    if (bad := next((m for m in mats if m.shape != (D, D)), None)) is not None:
        raise SizeMismatch(f"probe on dim {bad.shape[0]}, identity on dim {D}")
    mats = mats or [np.zeros((D, D))]
    return (np.concatenate(mats[r[0]:r[-1] + 1]).reshape(len(r), D * D)
            for r in matcore._blocks(len(mats), 16 * D * D))


def pairing_residual(M, probes=None):
    """(residual, where) of a linear identity whose defect matrix M has
    Tr(M a) = lhs(a) - rhs(a) = vec(M^T) . vec(a).  With probes=None it is complete
    on the whole algebra: max |M_ij| = max |Tr(M e_ij)| over the matrix units, where
    = {"entry": [i, j]} naming the first maximizing e_ij in row-major order, and a
    (n, D, D) stack gives each matrix's residual and the (n, 2) array of its [i, j];
    a lone matrix is the stack of one: both agree bit for bit.  Otherwise max_k
    |Tr(M a_k)| and no where, each row vec(M^T) paired with a probe block in one product."""
    M = np.asarray(M)
    stack, D = (M if M.ndim == 3 else M[None]), M.shape[-1]
    flat = stack.swapaxes(1, 2).reshape(len(stack), 1, D * D)
    pair = flat[:, 0] if probes is None else np.hstack(
        [(flat @ P.T)[:, 0] for P in probe_blocks(probes, D)])
    mag = np.hypot(pair.real, pair.imag) if np.iscomplexobj(pair) else np.abs(pair)
    k = mag.argmax(axis=1)
    resid = mag[np.arange(len(stack)), k]
    units = None if probes is not None else np.stack(np.divmod(k, D), axis=1)
    if M.ndim == 3:
        return resid, units
    return float(resid[0]), None if units is None else {"entry": units[0].tolist()}


def centralizer_residual(phi, c, probes=None):
    """max over a of |phi(ac) - phi(ca)| from the defect matrix cW - Wc; zero
    certifies centralizer membership (on every a, or on the probes), per matrix of a stack c."""
    cm = c.matrix if isinstance(c, LocalOperator) else np.asarray(c)
    W = full_density(phi)
    return pairing_residual(cm @ W - W @ cm, probes)[0]


def slice_expectation(psi, X):
    """(id (x) psi_0)(X) for a homogeneous product state: Tr_2[X (1 (x) W)].

    X lives on an adjacent pair of sites (a d^2 x d^2 block); the result is
    the d x d block left on the first site of the pair.
    """
    if isinstance(psi, ProductState):
        if not psi.is_homogeneous():
            raise NotHomogeneous("slice expectation needs a homogeneous product state")
        W = psi.weights[0]
        d = psi.window.d
    else:
        W = matcore.promote(psi)
        d = W.shape[0]
    Xm = X.matrix if isinstance(X, LocalOperator) else matcore.promote(X)
    if Xm.shape != (d * d, d * d):
        raise SizeMismatch(f"expected a {d * d}x{d * d} pair block, got {Xm.shape}")
    X4 = Xm.reshape(d, d, d, d)
    return np.einsum("ijkm,mj->ik", X4, W)


def is_exchangeable(psi, group):
    """max over group elements g and a of |psi(g(a)) - psi(a)|, from the
    defect matrices g^-1(W) - W, one stacked gather a block of elements."""
    W = LocalOperator(psi.window, full_density(psi)).matrix
    q = inverse_index(group, psi.window)
    return max((float(pairing_residual(gather(W, q[r]) - W)[0].max())
                for r in matcore._blocks(len(group), W.nbytes)), default=0.0)

