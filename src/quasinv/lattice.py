"""Sites, embeddings, and the permutation action on tensor windows.

A window is the algebra of d^N x d^N matrices acting on (C^d)^(x N).
Site 1 is the most significant digit in the row-major mixed-radix index,
so embed(window, 1, b) = b (x) I (x) ... (x) I as a Kronecker product.
Permutations are 1-based bijections of {1..N} and act by conjugation with
the permutation unitary P_g that moves factor n to factor g(n).  P_g only
relabels basis vectors, so the action is an index gather, g(a) = a[q][:, q],
and P_g itself is never formed.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GroupTooLarge, SiteOutOfRange, SizeMismatch, SupportTooLarge

TOTAL_DIM_CAP = 4096
GROUP_ORDER_CAP = 720


@dataclass(frozen=True)
class Window:
    d: int
    N: int

    def __post_init__(self):
        if self.d < 2 or self.N < 1:
            raise SizeMismatch(f"need d >= 2 and N >= 1, got d={self.d}, N={self.N}")
        if self.total_dim > TOTAL_DIM_CAP:
            raise SizeMismatch(f"window dimension {self.d}^{self.N} exceeds cap {TOTAL_DIM_CAP}")

    @property
    def total_dim(self):
        return self.d ** self.N

    def identity(self):
        return LocalOperator(self, np.eye(self.total_dim, dtype=complex))


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..N}, stored as the 1-based image tuple (g(1), ..., g(N))."""

    image: tuple

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise SizeMismatch(f"not a bijection of 1..{len(self.image)}: {self.image}")

    @property
    def N(self):
        return len(self.image)

    def __call__(self, n):
        return self.image[n - 1]

    def inverse(self):
        inv = [0] * self.N
        for n, gn in enumerate(self.image, start=1):
            inv[gn - 1] = n
        return Permutation(tuple(inv))

    def compose(self, other):
        """(self * other)(n) = self(other(n))."""
        if self.N != other.N:
            raise SizeMismatch("permutation sizes differ")
        return Permutation(tuple(self(other(n)) for n in range(1, self.N + 1)))

    def __mul__(self, other):
        return self.compose(other)

    def is_identity(self):
        return all(self(n) == n for n in range(1, self.N + 1))

    def order(self):
        k, g = 1, self
        while not g.is_identity():
            g = g.compose(self)
            k += 1
        return k


def identity_permutation(N):
    return Permutation(tuple(range(1, N + 1)))


def transposition(N, i, j):
    img = list(range(1, N + 1))
    img[i - 1], img[j - 1] = j, i
    return Permutation(tuple(img))


def cyclic_shift(N):
    """n -> n+1 mod N, the N-cycle (1 2 ... N)."""
    return Permutation(tuple((n % N) + 1 for n in range(1, N + 1)))


def support(g):
    """Sites the permutation moves."""
    return frozenset(n for n in range(1, g.N + 1) if g(n) != n)


def extend(g, N):
    """The same permutation viewed inside S_N, fixing the added sites."""
    if N < g.N:
        raise SizeMismatch(f"cannot extend S_{g.N} element to N={N}")
    return Permutation(tuple(g.image) + tuple(range(g.N + 1, N + 1)))


def enumerate_group(N):
    """All of S_N in lexicographic order of image tuples, identity first."""
    if N > 6:
        raise GroupTooLarge(f"S_{N} exceeds the {GROUP_ORDER_CAP}-element cap (S_6)")
    return [Permutation(img) for img in itertools.permutations(range(1, N + 1))]


@dataclass(frozen=True)
class LocalOperator:
    window: Window
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.window.total_dim, self.window.total_dim):
            raise SizeMismatch(f"matrix shape {m.shape} does not match window dim {self.window.total_dim}")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        _check_same_window(self, other)
        return LocalOperator(self.window, self.matrix @ other.matrix)

    def dagger(self):
        return LocalOperator(self.window, self.matrix.conj().T)


def _check_same_window(a, b):
    if a.window != b.window:
        raise SizeMismatch(f"windows differ: {a.window} vs {b.window}")


def extend_operator(a, window):
    """View an operator on [1,M] inside a longer window, identity on the rest."""
    if a.window.d != window.d or a.window.N > window.N:
        raise SupportTooLarge(f"operator on {a.window.N} sites, window has {window.N}")
    if a.window.N == window.N:
        return a
    pad = window.d ** (window.N - a.window.N)
    return LocalOperator(window, np.kron(a.matrix, np.eye(pad)))


def embed(window, n, b):
    """I^(n-1) (x) b (x) I^(N-n): the d x d matrix b placed on site n."""
    if not 1 <= n <= window.N:
        raise SiteOutOfRange(f"site {n} outside [1, {window.N}]")
    b = np.asarray(b, dtype=complex)
    if b.shape != (window.d, window.d):
        raise SizeMismatch(f"expected {window.d}x{window.d} block, got {b.shape}")
    left = np.eye(window.d ** (n - 1), dtype=complex)
    right = np.eye(window.d ** (window.N - n), dtype=complex)
    return LocalOperator(window, np.kron(np.kron(left, b), right))


def embed_pair(window, n, K):
    """The d^2 x d^2 matrix K placed on adjacent sites (n, n+1)."""
    if not 1 <= n <= window.N - 1:
        raise SiteOutOfRange(f"pair ({n},{n + 1}) outside window of {window.N} sites")
    K = np.asarray(K, dtype=complex)
    dd = window.d ** 2
    if K.shape != (dd, dd):
        raise SizeMismatch(f"expected {dd}x{dd} block, got {K.shape}")
    left = np.eye(window.d ** (n - 1), dtype=complex)
    right = np.eye(window.d ** (window.N - n - 1), dtype=complex)
    return LocalOperator(window, np.kron(np.kron(left, K), right))


@lru_cache(maxsize=4096)
def _index_map(image, d):
    # q[r] carries at site k the digit that r carries at site g(k): the
    # row-major index array with its axes permuted by g^-1
    N = len(image)
    axes = Permutation(image).inverse().image
    q = np.arange(d ** N).reshape((d,) * N).transpose([n - 1 for n in axes]).reshape(-1)
    q.flags.writeable = False
    return np.ix_(q, q)


def index_map(g, window):
    """The index pair (rows, cols) with g(a) = a[rows, cols] = a[q][:, q]:
    one length-D integer array q per permutation, cached, since the action
    only relabels basis vectors.  It indexes the first two axes of a stack
    of D x D matrices as well."""
    if g.N != window.N:
        raise SizeMismatch(f"permutation on {g.N} sites, window has {window.N}")
    return _index_map(g.image, window.d)


def group_index(group, window):
    """The (|G|, D) array of the index arrays q of the list's elements,
    g(a) = a[q][:, q]: the whole group's action for one gather."""
    return np.array([index_map(g, window)[1][0] for g in group])


def act(g, a):
    """The automorphism a -> P_g a P_g*, sending embed(n, b) to embed(g(n), b),
    computed as the gather a[q][:, q] without forming P_g."""
    return LocalOperator(a.window, a.matrix[index_map(g, a.window)])
