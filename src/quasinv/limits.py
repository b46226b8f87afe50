"""Finite-window products, the pairing identity, and the norm-Cauchy study.

For a reference single-site density W_inf and a sequence W_1, W_2, ... the
window products x_[1,N] = prod_k j_k(W_inf^-1 W_k) are elementary tensors,
so they can be formed explicitly for small N and tracked through per-site
spectral data for larger N.  The difference of two windows factors as
x_[1,N] - x_[1,M] = x_[1,M] (x) (x_[M+1,N] - 1), whose cross norm gives
the Cauchy estimate; summability of ||W_inf^-1 W_k - 1|| decides whether
the sequence converges.
"""

from functools import reduce

import numpy as np

from . import matcore, states
from .errors import NotHermitian, RangeError, SingularWeight, SupportTooLarge
from .lattice import LocalOperator, Window

EXPLICIT_N_CAP = 6
FACTORED_N_CAP = 20


class WindowProductSequence:
    """The factors W_inf^-1 W_k with cached window products."""

    def __init__(self, W_inf, W_list):
        self.W_inf = np.asarray(W_inf, dtype=complex)
        self.W_list = [np.asarray(W, dtype=complex) for W in W_list]
        self.d = self.W_inf.shape[0]
        if not matcore.classify(self.W_inf).invertible:
            raise SingularWeight("reference weight is not invertible")
        ref_inv = matcore.inv(self.W_inf)
        self.factors = []
        for k, W in enumerate(self.W_list):
            if W.shape != self.W_inf.shape:
                raise SingularWeight(f"weight {k + 1} has shape {W.shape}")
            f = ref_inv @ W
            if not matcore.classify(f).invertible:
                raise SingularWeight(f"factor {k + 1} is not invertible")
            self.factors.append(f)
        self._cache = {}

    def __len__(self):
        return len(self.factors)

    def factor(self, k):
        """W_inf^-1 W_k, 1-based."""
        if not 1 <= k <= len(self.factors):
            raise RangeError(f"factor index {k} outside [1, {len(self.factors)}]")
        return self.factors[k - 1]

    def factor_deviation(self, k):
        """|| W_inf^-1 W_k - 1 ||."""
        return matcore.operator_norm(self.factor(k) - np.eye(self.d))

    def range_product(self, lo, hi):
        """The elementary tensor of factors lo..hi as one explicit matrix."""
        if not 1 <= lo <= hi <= len(self.factors):
            raise RangeError(f"range [{lo}, {hi}] outside [1, {len(self.factors)}]")
        return reduce(np.kron, self.factors[lo - 1: hi])

    def x_matrix(self, N):
        if N not in self._cache:
            self._cache[N] = self.range_product(1, N)
        return self._cache[N]


def x_window(seq, N):
    """x_[1,N] as a local operator on the N-site window."""
    if not 1 <= N <= len(seq):
        raise RangeError(f"window size {N} outside [1, {len(seq)}]")
    return LocalOperator(Window(seq.d, N), seq.x_matrix(N))


def pairing_check(seq, a, N, phi=None, psi=None):
    """|phi(a) - psi(x_[1,N] a)| for a supported in a window of size <= N;
    phi carries the weights W_k, psi the homogeneous reference weight."""
    M = a.window.N
    if M > N:
        raise SupportTooLarge(f"observable lives on {M} sites, window has {N}")
    if N > len(seq):
        raise RangeError(f"window size {N} exceeds the {len(seq)} stored weights")
    if phi is None:
        phi = states.product_state(seq.d, seq.W_list[:N])
    if psi is None:
        psi = states.homogeneous_state(seq.d, N, seq.W_inf)
    window = Window(seq.d, N)
    pad = np.kron(a.matrix, np.eye(seq.d ** (N - M))) if N > M else a.matrix
    a_full = LocalOperator(window, pad)
    lhs = states.evaluate(phi, a_full)
    rhs = states.evaluate(psi, x_window(seq, N) @ a_full)
    return abs(lhs - rhs)


def telescoping_check(factors, M=0, N=None):
    """|| prod a_h - 1 - sum_h (prod_{j<h} a_j)(a_h - 1) || on factors[M:N];
    an algebraic identity, so the residual is pure round-off."""
    chosen = list(factors)[M:N]
    if not chosen:
        return 0.0
    dim = chosen[0].shape[0]
    eye = np.eye(dim)
    lhs = reduce(lambda x, y: x @ y, chosen) - eye
    rhs = np.zeros_like(lhs)
    prefix = eye
    for a in chosen:
        rhs = rhs + prefix @ (a - eye)
        prefix = prefix @ a
    return matcore.operator_norm(lhs - rhs)


def _spectral_range(f):
    """(min, max) eigenvalue of a hermitean factor."""
    if matcore.herm_defect(f) > 1e-10 * max(1.0, matcore.operator_norm(f)):
        raise NotHermitian("factored path needs hermitean factors")
    lam = np.linalg.eigvalsh((f + f.conj().T) / 2.0)
    return float(lam[0]), float(lam[-1])


def _factored_tail_deviation(seq, lo, hi):
    """|| x_[lo,hi] - 1 || from per-site spectra of positive hermitean
    factors: eigenvalues of the tensor multiply, so the extreme deviation
    is attained at an extreme product."""
    prod_min, prod_max = 1.0, 1.0
    for k in range(lo, hi + 1):
        lmin, lmax = _spectral_range(seq.factor(k))
        if lmin <= 0:
            raise NotHermitian("factored path needs positive factors")
        prod_min *= lmin
        prod_max *= lmax
    return max(prod_max - 1.0, 1.0 - prod_min)


def _factored_head_norm(seq, M):
    out = 1.0
    for k in range(1, M + 1):
        _, lmax = _spectral_range(seq.factor(k))
        out *= lmax
    return out


def cauchy_diagnostic(seq, M, N, method="auto"):
    """diff = ||x_[1,N] - x_[1,M]||, the cross-norm bound
    ||x_[1,M]|| * ||x_[M+1,N] - 1||, and the summable tail
    sum_{k=M+1}^N ||W_inf^-1 W_k - 1||."""
    if not 0 <= M < N <= len(seq):
        raise RangeError(f"need 0 <= M < N <= {len(seq)}, got M={M} N={N}")
    if method == "auto":
        method = "explicit" if N <= EXPLICIT_N_CAP else "factored"
    if method == "explicit":
        tail = seq.range_product(M + 1, N)
        tail_dev = matcore.operator_norm(tail - np.eye(tail.shape[0]))
        if M == 0:
            head_norm = 1.0
            diff = tail_dev
        else:
            head = seq.x_matrix(M)
            head_norm = matcore.operator_norm(head)
            diff = matcore.operator_norm(np.kron(head, tail) -
                                         np.kron(head, np.eye(tail.shape[0])))
    elif method == "factored":
        if N > FACTORED_N_CAP:
            raise RangeError(f"window size {N} exceeds the factored cap {FACTORED_N_CAP}")
        tail_dev = _factored_tail_deviation(seq, M + 1, N)
        head_norm = _factored_head_norm(seq, M)
        diff = head_norm * tail_dev
    else:
        raise RangeError(f"unknown method {method!r}")
    bound = head_norm * tail_dev
    summable_tail = sum(seq.factor_deviation(k) for k in range(M + 1, N + 1))
    return {"diff": diff, "bound": bound, "summable_tail": summable_tail,
            "method": method}


def diagnostic_series(seq, N_max, method="auto"):
    """Per-step records (N, diff from N-1, bound, cumulative tail) for export."""
    if not 1 <= N_max <= len(seq):
        raise RangeError(f"series length {N_max} outside [1, {len(seq)}]")
    out = []
    tail = 0.0
    for N in range(1, N_max + 1):
        step = cauchy_diagnostic(seq, N - 1, N, method=method)
        tail += seq.factor_deviation(N)
        out.append({"N": N, "diff": step["diff"], "bound": step["bound"],
                    "tail": tail})
    return out


def empirical_constant(seq, N_max, method="auto"):
    """The observed C with ||x_[1,N] - x_[1,N-1]|| <= C ||W_inf^-1 W_N - 1||."""
    best = 0.0
    for N in range(2, N_max + 1):
        dev = seq.factor_deviation(N)
        if dev <= 1e-15:
            continue
        step = cauchy_diagnostic(seq, N - 1, N, method=method)
        best = max(best, step["diff"] / dev)
    return best


def preset_sequence(kind, n_terms, d=2):
    """Named weight sequences around the flat reference W_inf = 1/d:
    'geometric' has deviations eps_k = 4^-k / 4 (summable), 'harmonic' has
    eps_k = 1/(4k) (log-divergent tail)."""
    if d != 2:
        raise RangeError("presets are two-dimensional")
    W_inf = np.eye(2) / 2.0
    ws = []
    for k in range(1, n_terms + 1):
        if kind == "geometric":
            eps = 0.25 * 4.0 ** (-k)
        elif kind == "harmonic":
            eps = 1.0 / (4.0 * k)
        else:
            raise RangeError(f"unknown preset {kind!r}")
        ws.append(np.diag([0.5 + eps, 0.5 - eps]))
    return WindowProductSequence(W_inf, ws)
