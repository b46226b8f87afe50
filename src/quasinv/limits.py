"""Finite-window products, the pairing identity, and the norm-Cauchy study.

For a reference single-site density W_inf and a sequence W_1, W_2, ... the
window products x_[1,N] = prod_k j_k(W_inf^-1 W_k) are elementary tensors.
The difference of two windows factors as
x_[1,N] - x_[1,M] = x_[1,M] (x) (x_[M+1,N] - 1).  For hermitean positive
factors its norm follows exactly from per-site spectra, and the telescoping
step bounds it by ||x_[1,M]|| * (prod_k (1 + eps_k) - 1) with
eps_k = ||W_inf^-1 W_k - 1||; summability of the eps_k decides whether the
sequence converges.
"""

from functools import reduce

import numpy as np

from . import matcore, states
from .errors import NotHermitian, RangeError, SingularWeight
from .lattice import LocalOperator, Window, extend_operator


class WindowProductSequence:
    """The factors W_inf^-1 W_k with their matcore.Facts and deviations."""

    def __init__(self, W_inf, W_list):
        self.W_inf = matcore.promote(W_inf)
        self.W_list = [matcore.promote(W) for W in W_list]
        self.d = self.W_inf.shape[0]
        if not (ref := matcore.Operand(self.W_inf)).facts.invertible:
            raise SingularWeight("reference weight is not invertible")
        self.factors, self.facts = [], []
        for k, W in enumerate(self.W_list):
            if W.shape != self.W_inf.shape:
                raise SingularWeight(f"weight {k + 1} has shape {W.shape}")
            self.factors.append(ref.inv.A @ W)
            self.facts.append(matcore.facts(self.factors[-1]))
            if not self.facts[-1].invertible:
                raise SingularWeight(f"factor {k + 1} is not invertible")
        self.deviations = [matcore.operator_norm(f - np.eye(self.d)) for f in self.factors]

    def __len__(self):
        return len(self.factors)

    def factor(self, k):
        """W_inf^-1 W_k, 1-based."""
        if not 1 <= k <= len(self.factors):
            raise RangeError(f"factor index {k} outside [1, {len(self.factors)}]")
        return self.factors[k - 1]

    def spectrum(self, k):
        """(min eigenvalue, max eigenvalue, ||W_inf^-1 W_k - 1||) of factor k,
        read from its facts; the factor must be hermitean and positive."""
        self.factor(k)  # raises RangeError outside [1, len]
        f = self.facts[k - 1]
        if not f.hermitean:
            raise NotHermitian(f"factor {k} is not hermitean")
        if f.eig[0] <= 0:
            raise NotHermitian(f"factor {k} is not positive")
        return float(f.eig[0]), float(f.eig[-1]), self.deviations[k - 1]

    def range_product(self, lo, hi):
        """The elementary tensor of factors lo..hi as one explicit matrix."""
        if not 1 <= lo <= hi <= len(self.factors):
            raise RangeError(f"range [{lo}, {hi}] outside [1, {len(self.factors)}]")
        return reduce(np.kron, self.factors[lo - 1: hi])


def x_window(seq, N):
    """x_[1,N] as a local operator on the N-site window."""
    if not 1 <= N <= len(seq):
        raise RangeError(f"window size {N} outside [1, {len(seq)}]")
    return LocalOperator(Window(seq.d, N), seq.range_product(1, N))


def pairing_check(seq, a, N):
    """|phi(a) - psi(x_[1,N] a)| for a supported in a window of size <= N;
    phi carries the weights W_k, psi the homogeneous reference weight."""
    if N > len(seq):
        raise RangeError(f"window size {N} exceeds the {len(seq)} stored weights")
    phi = states.product_state(seq.d, seq.W_list[:N])
    psi = states.homogeneous_state(seq.d, N, seq.W_inf)
    a_full = extend_operator(a, Window(seq.d, N))
    lhs = states.evaluate(phi, a_full)
    rhs = states.evaluate(psi, x_window(seq, N) @ a_full)
    return abs(lhs - rhs)


def cauchy_diagnostic(seq, M, N):
    """diff = ||x_[1,N] - x_[1,M]||, the bound
    ||x_[1,M]|| * (prod_{k=M+1}^N (1 + eps_k) - 1), and the summable tail
    sum_{k=M+1}^N eps_k, with eps_k = ||W_inf^-1 W_k - 1||.

    The eigenvalues of a tensor of positive factors are the products of the
    per-site eigenvalues, so diff = prod_{k<=M} max_k *
    max(prod max_k - 1, 1 - prod min_k) over the tail is exact.  The bound
    is the telescoping estimate of ||x_[M+1,N] - 1|| through the deviations
    eps_k, so diff <= bound is a law the data can fail.  The last row of cauchy_sweep."""
    return cauchy_sweep(seq, M, N)[-1]


def cauchy_sweep(seq, M, N):
    """cauchy_diagnostic(seq, M, n) for n = M+1..N from one read of the spectra 1..N:
    running products and sums (left to right, as a loop would) carry n to n + 1."""
    if not 0 <= M < N <= len(seq):
        raise RangeError(f"need 0 <= M < N <= {len(seq)}, got M={M} N={N}")
    lmin, lmax, dev = np.array([seq.spectrum(k) for k in range(1, N + 1)]).T
    head_norm = np.cumprod([1.0, *lmax[:M]])[-1]
    prod_min, prod_max, growth = (np.cumprod(v[M:]) for v in (lmin, lmax, 1.0 + dev))
    diff, bound = head_norm * np.maximum(prod_max - 1.0, 1.0 - prod_min), head_norm * (growth - 1.0)
    return [{"diff": a, "bound": b, "summable_tail": t}
            for a, b, t in zip(diff.tolist(), bound.tolist(), np.cumsum(dev[M:]).tolist())]


def diagnostic_series(seq, N_max):
    """Per-step records (N, diff from N-1, bound, cumulative tail) for export: the
    rows of cauchy_diagnostic(seq, N-1, N) from one read of the spectra 1..N_max,
    the head norms ||x_[1,N-1]|| a running product multiplied as cauchy_sweep does."""
    if not 1 <= N_max <= len(seq):
        raise RangeError(f"series length {N_max} outside [1, {len(seq)}]")
    lmin, lmax, dev = np.array([seq.spectrum(k) for k in range(1, N_max + 1)]).T
    head = np.cumprod([1.0, *lmax[:-1]])
    diff, bound = head * np.maximum(lmax - 1.0, 1.0 - lmin), head * ((1.0 + dev) - 1.0)
    return [{"N": N, "diff": a, "bound": b, "tail": t} for N, a, b, t in
            zip(range(1, N_max + 1), diff.tolist(), bound.tolist(), np.cumsum(dev).tolist())]


def empirical_constant(seq, N_max):
    """The observed C with ||x_[1,N] - x_[1,N-1]|| <= C ||W_inf^-1 W_N - 1||."""
    eps, rows = seq.deviations, diagnostic_series(seq, N_max)[1:] if N_max > 1 else []
    return max([0.0] + [r["diff"] / eps[r["N"] - 1] for r in rows if eps[r["N"] - 1] > 1e-15])


def preset_sequence(kind, n_terms, d=2):
    """Named weight sequences around the flat reference W_inf = 1/d:
    'geometric' has deviations eps_k = 4^-k / 4 (summable), 'harmonic' has
    eps_k = 1/(4k) (log-divergent tail)."""
    if d != 2:
        raise RangeError("presets are two-dimensional")
    if kind not in ("geometric", "harmonic"):
        raise RangeError(f"unknown preset {kind!r}")
    eps = [0.25 * 4.0 ** (-k) if kind == "geometric" else 1.0 / (4.0 * k) for k in range(1, n_terms + 1)]
    return WindowProductSequence(np.eye(2) / 2.0, [np.diag([0.5 + e, 0.5 - e]) for e in eps])
