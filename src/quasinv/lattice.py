"""Sites, embeddings, and the permutation action on tensor windows.

A window is the algebra of d^N x d^N matrices acting on (C^d)^(x N).
Site 1 is the most significant digit in the row-major mixed-radix index,
so embed(window, 1, b) = b (x) I (x) ... (x) I as a Kronecker product.
Permutations are 1-based bijections of {1..N} and act by conjugation with
the permutation unitary P_g that moves factor n to factor g(n).  P_g only
relabels basis vectors, so the action is an index gather, g(a) = a[q][:, q],
written once in gather() for the rows q of group_index or inverse_index;
act and act_inverse are its one-row case, and the checks read it in blocks.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import matcore
from .errors import GroupNotClosed, GroupTooLarge, SiteOutOfRange, SizeMismatch, SupportTooLarge

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
        return LocalOperator(self, np.eye(self.total_dim))


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
        return Permutation(tuple(int(n) + 1 for n in np.argsort(self.image)))

    def compose(self, other):
        """(self * other)(n) = self(other(n))."""
        if self.N != other.N:
            raise SizeMismatch("permutation sizes differ")
        return Permutation(tuple(self(other(n)) for n in range(1, self.N + 1)))

    __mul__ = compose

    def is_identity(self):
        return all(self(n) == n for n in range(1, self.N + 1))


def identity_permutation(N):
    return Permutation(tuple(range(1, N + 1)))


def transposition(N, i, j):
    img = list(range(1, N + 1))
    img[i - 1], img[j - 1] = j, i
    return Permutation(tuple(img))


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
        m = matcore.promote(self.matrix)
        if m.shape != (self.window.total_dim, self.window.total_dim):
            raise SizeMismatch(f"matrix shape {m.shape} does not match window dim {self.window.total_dim}")
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        if self.window != other.window:
            raise SizeMismatch(f"windows differ: {self.window} vs {other.window}")
        return LocalOperator(self.window, self.matrix @ other.matrix)

    def dagger(self):
        return LocalOperator(self.window, self.matrix.conj().T)


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
    return _embed_block(window, n, 1, b)


def embed_pair(window, n, K):
    """The d^2 x d^2 matrix K placed on adjacent sites (n, n+1)."""
    return _embed_block(window, n, 2, K)


def _embed_block(window, n, k, b):
    """I (x) b (x) I with the d^k x d^k matrix b on the sites n, ..., n+k-1."""
    if not 1 <= n <= window.N - k + 1:
        raise SiteOutOfRange(f"sites {n}..{n + k - 1} outside [1, {window.N}]")
    b, dk = matcore.promote(b), window.d ** k
    if b.shape != (dk, dk):
        raise SizeMismatch(f"expected {dk}x{dk} block, got {b.shape}")
    left = np.eye(window.d ** (n - 1))
    right = np.eye(window.d ** (window.N - n - k + 1))
    return LocalOperator(window, np.kron(np.kron(left, b), right))


@lru_cache(maxsize=4096)
def _group_index(images, window, inverse=False):
    if any(len(image) != window.N for image in images):
        raise SizeMismatch(f"permutations on other than the window's {window.N} sites")
    # q[r] carries at site k the digit that r carries at site g(k): the
    # row-major index array with its axes permuted by g^-1, and by g for g^-1
    grid = np.arange(window.total_dim).reshape((window.d,) * window.N)
    return matcore._frozen(np.array([grid.transpose(np.subtract(image, 1) if inverse else np.argsort(image))
                             .reshape(-1) for image in images]))


def group_index(group, window):
    """The (|G|, D) array of the index arrays q of the list's elements,
    g(a) = gather(a, q), built once per list and window."""
    return _group_index(tuple(g.image for g in group), window)


def inverse_index(group, window):
    """group_index of the inverse elements, row k undoing row k of group_index:
    g^-1(a) = gather(a, q)."""
    return _group_index(tuple(g.image for g in group), window, True)


def _positions(A, B):
    """The row of A equal to each row of B (0-based images, in the last
    axis), -1 where none is; a row is coded by its images as base-N digits."""
    digits = A.shape[1] ** np.arange(A.shape[1])
    keys, codes = A @ digits, B @ digits
    order = np.argsort(keys)
    pos = order[np.searchsorted(keys, codes, sorter=order) % len(keys)]
    return np.where(keys[pos] == codes, pos, -1)


def positions(group, elements):
    """The position of each element in the group list, -1 where it is absent."""
    A = np.array([g.image for g in group]) - 1
    return _positions(A, np.array([g.image for g in elements]).reshape(-1, A.shape[1]) - 1)


@lru_cache(maxsize=64)
def _group_table(images):
    A = np.array(images) - 1
    # the k-th image of g_i g_j is A[i, A[j, k]]; argsort inverts each row
    return matcore._frozen(_positions(A, A[:, A])), matcore._frozen(_positions(A, np.argsort(A, axis=1)))


def group_table(group):
    """(mul, inv) of a group list, built once per list: mul[i, j] is the
    position of g_i g_j and inv[i] that of g_i^-1 (-1 where the list lacks
    it).  A list that lacks a product is refused; closed under products, a
    finite list holds every inverse."""
    mul, inv = _group_table(tuple(g.image for g in group))
    bad = np.argwhere(mul < 0)
    if len(bad):
        i, j = bad[0]
        raise GroupNotClosed(f"{group[i].image} o {group[j].image} is missing from the list")
    return mul, inv


def gather(m, q):
    """g(m) = m[q][:, q], the one place the action is written: for one index
    array q, or a row of q per matrix, on one matrix m or a stack of them."""
    if q.ndim == 2 and np.ndim(m) == 3:  # row k of q moves matrix k
        return m[np.arange(len(q))[:, None, None], q[:, :, None], q[:, None, :]]
    return m[..., q[..., :, None], q[..., None, :]]


def act(g, a):
    """The automorphism a -> P_g a P_g*, sending embed(n, b) to embed(g(n), b),
    computed as the gather a[q][:, q] without forming P_g."""
    return LocalOperator(a.window, gather(a.matrix, group_index([g], a.window)[0]))


def act_inverse(g, a):
    """g^-1(a) = P_g* a P_g."""
    return LocalOperator(a.window, gather(a.matrix, inverse_index([g], a.window)[0]))


def _pairwise_sum(blocks):
    """The sum of the rows of the owned blocks, rows 2k and 2k+1 first, then pairs of pairs, an odd
    one carried: each row is added in place into a binary counter of O(log n) partial sums."""
    sums, n = [], 0
    for block in blocks:
        for row in block:
            n += 1
            for _ in range((n & -n).bit_length() - 1):  # a carry per trailing zero bit of n
                row = np.add(sums.pop(), row, out=row)
            sums.append(row)
    if not sums:
        raise ValueError("empty sum")
    # the partial sums left, folded from right to left
    return reduce(lambda total, s: np.add(s, total, out=total), reversed(sums))

