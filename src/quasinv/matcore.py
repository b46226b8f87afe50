"""Dense matrix kernel, run in the dtype of its data: promote() lifts ints and
float32 to float64 and complex64 to complex128 and demotes nothing.  Hermitian
spectral decomposition and functional calculus, the Lipschitz constants of powers,
operator norms, seeded random densities with a spectral floor, and the per-matrix
facts the strong-case checks read (singular values, hermiticity defect, hermitean-part
spectrum, invertibility, within err), each over stacks (..., d, d) too.  The diagonal
frame: A = D + E (diagonal, off-diagonal) hermitean with ||E||_F <= RHO max(1, max|D|)
is read off D, its facts within err ||E||_F and each product or commutator by the
diagonals plus remainder, a lone matrix through its Operand, which reads them once.
All linear algebra funnels through here: one home for tolerances.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FloorTooLarge, NotHermitian, NotPositive

# absolute tolerances, scale-adjusted by the operator norm where noted
TAU_HERM = 1e-10   # hermiticity: ||A - A*|| <= TAU_HERM * ||A||
TAU_POS = 1e-10    # positivity threshold on eigenvalues
TAU_REL = 1e-9     # relative residual for reconstructions
TAU_ABS = 1e-12    # absolute residual (traces, normalization)
RHO = 1e-10        # diagonal frame: ||E|| <= RHO * max(1, max|D|); rotated tables read <= 5.6e-12 (D 243)


def promote(a):
    """a as an array of dtype result_type(a, float64): complex only where a is."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.float64), copy=False)


def dagger(A):
    """Conjugate transpose (of each matrix of a stack)."""
    return np.asarray(A).conj().swapaxes(-1, -2)


def herm_defect(A):
    """Operator-norm distance from A to its own adjoint (per matrix of a stack)."""
    A = np.asarray(A)
    return operator_norm(A - dagger(A))


def operator_norm(A):
    """Largest singular value, sv[0] of np.linalg.norm(A, 2)'s SVD: a float, or one per stacked matrix."""
    A = promote(A)
    sv = np.linalg.svd(A, compute_uv=False)[..., 0] if A.size else np.zeros(A.shape[:-2])
    return float(sv) if A.ndim == 2 else sv


def hermitean(herm, norm):
    """The hermiticity rule ||A - A*|| <= TAU_HERM * max(||A||, 1), elementwise."""
    return herm <= TAU_HERM * np.maximum(norm, 1.0)


def spectral_decompose(H, facts=None):
    """Eigenvalues (ascending) and a unitary V of eigenvectors of one hermitian H, as
    eigh gives them, with no phase convention: read only what no column phase moves.
    NotHermitian from require_hermitean, on the Facts of H if at hand."""
    H = promote(H)
    require_hermitean(Facts(np.array([operator_norm(H)]), herm_defect(H), None) if facts is None else facts)
    return np.linalg.eigh((H + dagger(H)) / 2.0)


def require_hermitean(f):
    """NotHermitian unless the matrix with Facts f passes the hermiticity rule."""
    if not f.hermitean:
        raise NotHermitian(
            f"hermiticity defect {f.herm:.3e} exceeds {TAU_HERM:.1e} * {max(f.norm, 1.0):.3e}")


def require_floor(lam, s):
    """NotPositive unless min lam clears TAU_ABS where t^s needs it: s < 0 or not an integer."""
    if (s != int(s) or s < 0) and lam.min() <= TAU_ABS:
        raise NotPositive(f"min eigenvalue {lam.min():.3e} <= floor tolerance {TAU_ABS:.1e}")


def power_lipschitz(t, m, M):
    """L with ||A^t - B^t|| <= L ||A - B|| for hermitean A, B with spectra in [m, M], t > 0:
    t m^(t-1) for t <= 1 (Bhatia, Matrix Analysis, Thm X.3.8), M L_{t-1} + M^(t-1) above
    (A^t - B^t = A (A^(t-1) - B^(t-1)) + (A - B) B^(t-1)), t max(-m, M)^(t-1) for m <= 0."""
    if m <= 0.0:
        return t * max(-m, M) ** (t - 1)
    return t * m ** (t - 1) if t <= 1 else M * power_lipschitz(t - 1, m, M) + M ** (t - 1)


def matrix_power(P, s, spectrum=None):
    """Spectral power V lam^s V* for positive hermitian P, real s, under require_floor.

    Symmetrized to (M + M*)/2 against round-off asymmetry.  matrix_power(P, 0) is
    the identity, undecomposed; matrix_power(P, 1) is P's hermitian part.  A
    `spectrum` (lam, V) = spectral_decompose(P) at hand serves several powers.
    """
    P = promote(P)
    if s == 0:
        return np.eye(P.shape[0], dtype=P.dtype)
    lam, V = spectral_decompose(P) if spectrum is None else spectrum
    require_floor(lam, s)
    M = (V * np.power(lam, float(s))) @ dagger(V)
    return (M + dagger(M)) / 2.0


def inv(A):
    """Plain matrix inverse (not restricted to hermitian input)."""
    return np.linalg.inv(promote(A))


def random_density(dim, floor, seed):
    """Seeded random density matrix with all eigenvalues >= floor.

    Recipe: complex Gaussian G, form GG*, normalize to trace 1 - dim*floor,
    add floor * I.  The Philox counter-based generator makes the output a
    pure function of (dim, floor, seed); a sequence of seeds gives their stack.
    """
    if not 0 < floor < 1.0 / dim:
        raise FloorTooLarge(f"need 0 < floor < 1/dim = {1.0 / dim:.4f}, got {floor}")
    G = random_matrix(dim, seed)
    A = G @ dagger(G)
    A = A * ((1.0 - dim * floor) / np.trace(A, axis1=-2, axis2=-1).real)[..., None, None]
    W = A + floor * np.eye(dim)
    return (W + dagger(W)) / 2.0


def random_hermitian(dim, seed):
    """Seeded random hermitian matrix (GUE-style, not normalized), or a stack of them."""
    G = random_matrix(dim, seed)
    return (G + dagger(G)) / 2.0


def random_matrix(dim, seed, scale=1.0):
    """Seeded random complex matrix, or the stack of one per seed (a Philox generator each)."""
    draws = np.array([np.random.Generator(np.random.Philox(s)).standard_normal((2, dim, dim))
                      for s in np.atleast_1d(seed)]).reshape(-1, 2, dim, dim)
    G = scale * (draws[:, 0] + 1j * draws[:, 1])
    return G if np.ndim(seed) else G[0]


@dataclass(frozen=True)
class Facts:
    """What the strong-case checks read of a matrix A, or of each matrix of a
    stack (then elementwise, f[j] the Facts of matrix j): its singular values
    (descending), ||A - A*|| and the eigenvalues of (A + A*)/2 (ascending), each within err
    (0: decomposed); norm, lo and hi widen by err to bounds on ||A|| and on that spectrum."""
    sv: np.ndarray
    herm: float | np.ndarray
    eig: np.ndarray
    err: float | np.ndarray = 0.0

    norm = cached_property(lambda self: self.sv[..., 0] + self.err if self.sv.ndim > 1
                           else float(self.sv[0] + self.err))
    hermitean = cached_property(lambda self: hermitean(self.herm, self.norm))
    lo = property(lambda self: self.eig[..., 0] - self.err)
    hi = property(lambda self: self.eig[..., -1] + self.err)

    @property
    def invertible(self):
        """The least |eigenvalue| (A hermitean) or singular value exceeds TAU_POS max(1, ||A||)."""
        least = np.where(self.hermitean, np.abs(self.eig).min(-1), self.sv[..., -1]) - self.err
        return least > TAU_POS * np.maximum(self.norm, 1.0)

    def __len__(self):
        return len(self.herm)

    def __getitem__(self, j):
        return Facts(self.sv[j], float(self.herm[j]), self.eig[j], float(np.take(self.err, j, mode="wrap")))


def spectra(A):
    """(singular values, eigenvalues of (A + A*)/2) of A or of each matrix of a stack."""
    return np.linalg.svd(A, compute_uv=False), np.linalg.eigvalsh((A + dagger(A)) / 2.0)


def facts(A):
    """The decomposed Facts of a lone matrix (or of each of a stack): two SVDs (A, A - A*), one eigvalsh."""
    A = promote(A)
    (sv, eig), herm = spectra(A), herm_defect(A)
    return Facts(sv, herm, eig)


def split(y):
    """(||y - y*||_F, max|D|, ||E||_F) of each y = D + E (diagonal, off-diagonal) of the owned stack y,
    whose diagonal it zeroes: the rule's scalars, O(D^2) and no LAPACK call."""
    d = np.arange(y.shape[-1])
    herm, diag = np.linalg.norm(y - dagger(y), axis=(-2, -1)), np.abs(y[..., d, d]).max(-1)
    y[..., d, d] = 0.0
    return herm, diag, np.linalg.norm(y, axis=(-2, -1))


def clears(herm, diag, off):
    """The rule: every D + E hermitean (not asked if herm is None), ||E|| <= RHO max(1, max|D|)."""
    return bool(np.all((off <= RHO * np.maximum(1.0, diag)) & (herm is None or hermitean(herm, diag + off))))


def diagonal_facts(x, herm, off):
    """The Facts of x = D + E (or of each of a stack) from split's herm and off: |D|, Re D, err ||E||_F."""
    D = np.diagonal(x, axis1=-2, axis2=-1)
    return Facts(np.sort(np.abs(D))[..., ::-1], herm, np.sort(D.real), off)


@dataclass(frozen=True, eq=False)
class Operand:
    """A lone matrix A (or a stack) held read-only, a read-only array adopted and a writeable one copied,
    with what the checks read of it, each formed on first read and kept: split's scalars, the frame
    (need_herm=False drops the rule's hermiticity clause), the Facts (off the diagonal where A clears
    the rule, else decomposed) and inv, the record of the given inverse or of inv(A), its inv this one."""

    def __init__(self, A, inv=None, need_herm=True):
        if (A := promote(A)).flags.writeable:
            (A := A.copy()).flags.writeable = False
        self.__dict__.update(A=A, _given=inv, need_herm=need_herm)

    split = cached_property(lambda self: split(self.A.copy()))
    facts = cached_property(lambda self: diagonal_facts(self.A, *self.split[::2]) if clears(*self.split)
                            else facts(self.A))

    @cached_property
    def frame(self):
        herm, diag, off = self.split
        if clears(herm if self.need_herm else None, diag, off):
            return np.diagonal(self.A, axis1=-2, axis2=-1), off

    @property
    def inv(self):
        """Formed on first read and kept; it holds this record weakly, so a pair makes no reference cycle."""
        if (K := self.__dict__.get("_inv")) is None or isinstance(K, weakref.ref) and (K := K()) is None:
            K = Operand(inv(self.A) if self._given is None else self._given, self.A)
            K.__dict__["_inv"], self.__dict__["_inv"] = weakref.ref(self), K
        return K


def remainder(m_a, e_a, m_b, e_b):
    """m_a e_b + e_a (m_b + e_b) >= ||(D_a + E_a)(D_b + E_b) - D_a D_b|| for max|D| = m, ||E||_F = e."""
    return m_a * e_b + e_a * (m_b + e_b)


def product_defect(c, a, b):
    """max|d_c - d_a d_b| + e_c + remainder >= ||C - A B||, C, A and B (or stacks) as Operand.frame."""
    return np.abs(c[0] - a[0] * b[0]).max(-1) + c[1] + remainder(
        np.abs(a[0]).max(-1), a[1], np.abs(b[0]).max(-1), b[1])


def commutator_bound(a, b):
    """2 remainder >= ||[A, B]||, A and B as Operand.frame: their diagonals commute."""
    return 2.0 * remainder(np.abs(a[0]).max(-1), a[1], np.abs(b[0]).max(-1), b[1])
