"""The table checks in blocked stacked form against their per-entry loops.

Every check reads the (|G|, D, D) table in blocks of rows, one stacked
LAPACK/BLAS call per block.  A stacked call runs the routine of one matrix on
each, so the per-entry loops the blocks replaced, kept here only as oracles,
must give the same reports bit for bit: residuals, verdicts, witnesses and
details, or the same error type and message.  The power relation is the one
exception: it is certified from the inverse relation, so against its exact
per-entry loop it raises the same error, or gives the same verdict with a
residual at least the exact one (within AGREE of it where both pass, both
then round-off), and it equals the certified bound's own (entry, s) loop bit
for bit.  The tables are D <= 16 windows and S_5 at D 32, real and
complex, clean and with the 1e-3 plant the CLI's --defect puts at m[0, -1] of
the first moved entry.  The same holds for the convergence series read from
one pass over the spectra, and each check's temporaries stay a fraction of the
table.
"""

import tracemalloc

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, limits, matcore, qmc, states
from quasinv.cocycle import PASS_TOL, CocycleTable, VerificationReport, _report
from quasinv.errors import (
    NotInCentralizer,
    NotStrongCocycle,
    QuasinvError,
    SingularEntry,
    SizeMismatch,
)
from quasinv.lattice import (
    LocalOperator,
    Window,
    act,
    act_inverse,
    enumerate_group,
    extend,
    gather,
    group_index,
    group_table,
    positions,
    support,
)

AGREE = 1e-12
EPS = np.finfo(float).eps

# ---- oracles: the per-entry loops the blocks replaced ----------------------------


def old_facts(T):
    return tuple(matcore.Facts(np.linalg.svd(x, compute_uv=False), matcore.herm_defect(x),
                               np.linalg.eigvalsh((x + x.conj().T) / 2.0)) for x in T.stack)


def old_tol(T, F):
    return PASS_TOL * max(1.0, max(f.norm for f in F))


def old_coboundary_defects(T, kappa, kappa_inv, rows=None):
    Q_inv = np.argsort(group_index(T.group, T.window), axis=1)
    for i in range(len(T.group)) if rows is None else rows:
        moved = gather(kappa_inv, Q_inv[i])
        x = kappa @ moved
        yield i, matcore.operator_norm(T.stack[i] - x), moved, x


def old_inverse_defects(T):
    inv, x = group_table(T.group)[1], T.stack
    Q = group_index(T.group, T.window)
    I = np.eye(T.window.total_dim)
    return np.array([matcore.operator_norm(x[i] @ gather(x[inv[i]], Q[inv[i]]) - I)
                     for i in range(len(x))])


def old_worst_pairs(T, pairs):
    (mul, inv), x = group_table(T.group), T.stack
    Q = group_index(T.group, T.window)
    r, b, a = max(((matcore.operator_norm(x[mul[b, a]] - x[a] @ gather(x[b], Q[inv[a]])), b, a)
                   for b, a in pairs), key=lambda t: t[0])
    return r, {"g2": list(T.group[b].image), "g1": list(T.group[a].image)} if r else None


def old_cocycle_law(T):
    F = old_facts(T)
    tol = old_tol(T, F)
    n, f = len(T.group), matcore.facts(T.mean)
    if not f.invertible:
        worst, witness = old_worst_pairs(T, np.ndindex(n, n))
        return _report("cocycle_law", worst, tol, witness=witness if worst > tol else None,
                       details={"method": "exhaustive"})
    deltas = [r for _, r, *_ in old_coboundary_defects(T, T.mean, T.mean_inv)]
    k = int(np.argmax(deltas))
    C = max(f.norm for f in F) + deltas[k]
    bound = deltas[k] * (1.0 + 2.0 * C + deltas[k])
    pairs = [(k, a) for a in range(n)] + [(b, k) for b in range(n)]
    details = {"delta": deltas[k], "C": C, "kappa_cond": float(f.sv[0] / f.sv[-1]),
               "method": "certificate"}
    return _report("cocycle_law", bound, tol, details=details,
                   witness=old_worst_pairs(T, pairs)[1] if bound > tol else None)


def old_inverse_relation(T):
    F = old_facts(T)
    tol = old_tol(T, F)
    inv, x = group_table(T.group)[1], T.stack
    Q = group_index(T.group, T.window)
    I = np.eye(T.window.total_dim)
    for g, f in zip(T.group, F):
        if not f.invertible:
            raise SingularEntry(f"x_g singular for g = {g.image}")
    worst, witness = 0.0, None
    for i, g in enumerate(T.group):
        r = matcore.operator_norm(x[i] @ gather(x[inv[i]], Q[inv[i]]) - I)
        if r > worst:
            worst, witness = r, {"g": list(g.image)}
    return _report("inverse_relation", worst, tol, witness=witness if worst > tol else None)


def old_quasi_invariance(phi, T):
    tol = old_tol(T, old_facts(T))
    W = LocalOperator(T.window, states.full_density(phi))
    worst, witness = 0.0, None
    norm_worst = 0.0
    pos_worst = 0.0
    for g, x in zip(T.group, T.stack):
        Wx = W.matrix @ x
        norm_worst = max(norm_worst, abs(np.trace(Wx) - 1.0))
        r, where = states.pairing_residual(act_inverse(g, W).matrix - Wx)
        if r > worst:
            worst, witness = r, {"g": list(g.image), **where}
        pos_worst = max(pos_worst, -float(np.linalg.eigvalsh((Wx + Wx.conj().T) / 2.0)[0]))
    resid = max(worst, norm_worst)
    details = {"pairing": worst, "normalization": norm_worst, "positivity_defect": max(pos_worst, 0.0)}
    passed = resid <= tol and pos_worst <= tol
    return _report("quasi_invariance", resid, tol, witness=witness if not passed else None,
                   details=details, passed=passed)


def old_strong(T, phi, probes=None):
    F = old_facts(T)
    tol = old_tol(T, F)
    herm = max(f.herm for f in F)
    s1 = min(float(f.eig[0]) for f in F)
    s2 = max(float(f.eig[-1]) for f in F)
    x = T.stack
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
    details = {"hermiticity": herm, "min_eig": s1, "max_eig": s2, "commutators": comm,
               "centralizer": centr, "spectrum_bounds": (s1, s2)}
    passed = resid <= tol and positive
    witness = None
    if comm > tol:
        k = int(np.argmax(off))
        exact = [matcore.operator_norm(x[k] @ y - y @ x[k]) for y in x]
        g, h = (list(T.group[i].image) for i in sorted((k, int(np.argmax(exact)))))
        witness = {"g": g, "h": h} if max(exact) > tol else None
    for part, r, fails in (("hermiticity", [f.herm for f in F], herm > tol),
                           ("positivity", [-f.eig[0] for f in F], not positive),
                           ("centralizer", centrs, centr > tol)):
        if witness is None and fails:
            witness = {"g": list(T.group[int(np.argmax(r))].image), "part": part}
    return _report("strong_quasi_invariance", resid, tol, witness=witness, details=details,
                   passed=passed)


def old_transport(phi, T, x, tau_state=cocycle.TAU_STATE):
    tol = old_tol(T, old_facts(T))
    W = states.full_density(phi)
    membership = states.centralizer_residual(W, x)
    if membership > tau_state:
        raise NotInCentralizer(f"centralizer residual {membership:.3e} exceeds {tau_state:.1e}")
    worst, witness = 0.0, None
    for g, x_g in zip(T.group, T.stack):
        core = x_g @ x.matrix @ matcore.inv(x_g)
        transported = act(g, LocalOperator(T.window, core)).matrix
        r, where = states.pairing_residual(W @ act(g, x).matrix - transported @ W)
        if r > worst:
            worst, witness = r, {"g": list(g.image), **where}
    return _report("centralizer_transport", worst, tol, witness=witness if worst > tol else None)


def old_locally_trivial(T, window_sizes):
    tol = old_tol(T, old_facts(T))
    out = []
    for N in window_sizes:
        sub = [i for i, g in enumerate(T.group) if support(g) <= set(range(1, N + 1))]
        avg = T.mean if len(sub) == len(T.group) else sum(T.stack[i] for i in sub) / len(sub)
        avg_inv = T.mean_inv if avg is T.mean else matcore.inv(avg)
        worst = max(r for _, r, *_ in old_coboundary_defects(T, avg, avg_inv, sub))
        out.append(_report(f"locally_trivial[N={N}]", worst, tol,
                           details={"subgroup_order": len(sub)}))
    return out


def power(lam, s):
    matcore.require_floor(lam, s)
    return np.power(lam, float(s))


def old_power_relation(T, s_list=(0.5, 1.0, 2.0)):
    """The exact form, ||x_g^-s - g^-1(x_{g^-1}^s)|| in each entry's eigenbasis."""
    F = old_facts(T)
    tol = old_tol(T, F)
    inv, x = group_table(T.group)[1], T.stack
    Q = group_index(T.group, T.window)
    resid = [None] * len(x)
    for i, j in enumerate(inv.tolist()):
        if j < i:
            continue
        spectra, overlaps = {}, {}

        def spectrum(k):
            if k not in spectra:
                spectra[k] = matcore.spectral_decompose(x[k], facts=F[k])
            return spectra[k]

        def overlap(a, b):
            if (a, b) not in overlaps:
                overlaps[a, b] = spectrum(a)[1].conj().T @ spectrum(b)[1][Q[b]]
            return overlaps[a, b]

        def residual(a, b, s):
            mu = power(spectrum(a)[0], -s)
            nu = power(spectrum(b)[0], s)
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


def loop_power_relation(T, s_list=(0.5, 1.0, 2.0)):
    """The certified bound as an (entry, s) loop over the table's facts, each
    spectrum widened by its err: what the array form must equal bit for bit,
    errors included.  The facts against the decomposed ones: see
    test_facts_equal_the_per_entry_facts."""
    F = T.facts
    tol = old_tol(T, F)
    inv, eps = group_table(T.group)[1], old_inverse_defects(T)
    resid = np.zeros((len(F), len(s_list)))
    for a, b in enumerate(inv.tolist()):
        for c, s in enumerate(s_list):
            if not s:
                continue
            for k, t in ((a, -s), (b, s)):
                matcore.require_hermitean(F[k])
                matcore.require_floor(F[k].eig - F[k].err, t)
            e = eps[a] + (F[a].herm * F[b].norm + max(-F[a].lo, F[a].hi) * F[b].herm) / 2.0
            k, o = (a, b) if s > 0 else (b, a)
            m, M = min(1.0 / F[k].hi, F[o].lo), max(1.0 / F[k].lo, F[o].hi)
            resid[a, c] = matcore.power_lipschitz(abs(s), m, M) * e / F[k].lo
    worst, witness = 0.0, None
    for g, rs in zip(T.group, resid):
        for s, r in zip(s_list, rs):
            if r > worst:
                worst, witness = r, {"g": list(g.image), "s": s}
    return _report("power_relation", worst, tol, witness=witness if worst > tol else None)


def old_structure(phi, T, tol=compact.STRUCTURE_TOL):
    for g, f in zip(T.group, old_facts(T)):
        if f.herm > PASS_TOL * max(1.0, f.norm):
            raise NotStrongCocycle(f"entry for {g.image} is not hermitean")
        if f.eig[0] <= 0.0:
            raise NotStrongCocycle(f"entry for {g.image} is not positive")
    kap = LocalOperator(T.window, (T.mean + T.mean.conj().T) / 2.0)
    phi_G = compact.invariant_state(phi, T.group)
    kinv = matcore.inv(kap.matrix)
    recon, where = states.pairing_residual(
        states.full_density(phi) - states.full_density(phi_G) @ kinv)
    match, match_wit, commut = 0.0, None, 0.0
    for i, r, moved, rebuilt in old_coboundary_defects(T, kap.matrix, kinv):
        if r > match:
            match, match_wit = r, {"g": list(T.group[i].image)}
        commut = max(commut, matcore.operator_norm(rebuilt - moved @ kap.matrix))
    normal = matcore.operator_norm(compact.haar_average(
        T.group, LocalOperator(T.window, kinv)).matrix - np.eye(T.window.total_dim))
    herm = matcore.herm_defect(kap.matrix)
    resid = max(recon, match, normal, herm, commut)
    details = {"reconstruction": recon, "cocycle_match": match, "normalization": normal,
               "kappa_hermiticity": herm, "commutation": commut,
               "kappa_min_eig": float(np.linalg.eigvalsh(
                   (kap.matrix + kap.matrix.conj().T) / 2.0)[0])}
    witness = match_wit if match > tol else (where if recon > tol else None)
    return _report("structure_decomposition", resid, tol, witness=witness, details=details)


def old_restriction(phi, T, subgroups, tol=compact.STRUCTURE_TOL):
    W = states.faithful_density(phi)
    W_inv = matcore.inv(W)
    worst, witness = 0.0, None
    per_subgroup = []
    for idx, sub in enumerate(subgroups):
        rows = positions(T.group, sub)
        local = 0.0
        for i, r, *_ in old_coboundary_defects(T, W_inv, W, rows):
            local = max(local, r)
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(T.group[i].image)}
        per_subgroup.append(local)
    return _report("restriction_consistency", worst, tol,
                   witness=witness if worst > tol else None,
                   details={"per_subgroup": per_subgroup})


def old_steps(seq, N_max):
    """diagnostic_series and empirical_constant through one cauchy_diagnostic per N."""
    out, tail = [], 0.0
    for N in range(1, N_max + 1):
        step = limits.cauchy_diagnostic(seq, N - 1, N)
        tail += seq.spectrum(N)[2]
        out.append({"N": N, "diff": step["diff"], "bound": step["bound"], "tail": tail})
    best = 0.0
    for N in range(2, N_max + 1):
        dev = seq.spectrum(N)[2]
        if dev <= 1e-15:
            continue
        best = max(best, limits.cauchy_diagnostic(seq, N - 1, N)["diff"] / dev)
    return out, best


# ---- tables -----------------------------------------------------------------------


def diag_product(d, N, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return states.product_state(d, [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, (N, d))])


def rotated_product(d, N, seed):
    """diag_product turned by one seeded unitary: complex, strong, not diagonal."""
    u = np.linalg.qr(matcore.random_matrix(d, seed))[0]
    return states.product_state(d, [u @ w @ u.conj().T for w in diag_product(d, N, seed).weights])


def generic_product(d, N, seed):
    """Non-diagonal site densities: complex entries neither hermitean nor commuting."""
    return states.product_state(
        d, [matcore.random_density(d, 0.05, seed=seed * 31 + k) for k in range(N)])


def product(make, d, N, k, seed):
    phi = make(d, N, seed)
    return phi, cocycle.product_state_cocycle(phi, [extend(g, N) for g in enumerate_group(k)])


def markov(N, seed):
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(N, seed))
    return qmc.markov_functional(M), qmc.x_cocycle_table(M, enumerate_group(N))


def trivial(d, N, seed):
    window, group = Window(d, N), enumerate_group(N)
    rng = np.random.Generator(np.random.Philox(seed))
    h = np.diag(rng.uniform(0.0, 1.0, size=window.total_dim))
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    kinv = np.eye(window.total_dim) + 0.5 * centered / max(1.0, matcore.operator_norm(centered))
    phi_G = states.homogeneous_state(d, N, np.eye(d) / d)
    return compact.converse_construct(phi_G, LocalOperator(window, kinv), group)


BUILD = {
    "product-d2-S3": lambda: product(diag_product, 2, 3, 3, 1),
    "product-d2-S4": lambda: product(diag_product, 2, 4, 4, 2),
    "product-d2-S3-in-4": lambda: product(diag_product, 2, 4, 3, 3),
    "product-d3-S2": lambda: product(diag_product, 3, 2, 2, 4),
    "rotated-d2-S3": lambda: product(rotated_product, 2, 3, 3, 5),
    "rotated-d2-S4": lambda: product(rotated_product, 2, 4, 4, 6),
    "generic-d2-S3": lambda: product(generic_product, 2, 3, 3, 7),
    "generic-d2-S4": lambda: product(generic_product, 2, 4, 4, 8),
    "markov-S3": lambda: markov(3, 9),
    "trivial-d2-S3": lambda: trivial(2, 3, 10),
    "trivial-d2-S4": lambda: trivial(2, 4, 11),
    "product-d2-S5-D32": lambda: product(diag_product, 2, 5, 5, 12),
    "rotated-d2-S5-D32": lambda: product(rotated_product, 2, 5, 5, 13),
}
SMALL = sorted(name for name in BUILD if "D32" not in name)
LARGE = sorted(name for name in BUILD if "D32" in name)
_made = {}


def case(name, planted):
    """The table of a case, clean, with the CLI's --defect 1e-3 plant (True), or
    with its first moved entry "negated" (see broken)."""
    if name not in _made:
        _made[name] = BUILD[name]()
    phi, T = _made[name]
    if planted == "negated":
        return phi, broken(T, [(next(i for i, g in enumerate(T.group) if not g.is_identity()), planted)])
    return phi, cli._plant_defect(T, 1e-3) if planted else CocycleTable(T.group, T.stack, T.window)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QuasinvError as exc:
        return type(exc), str(exc)


def probes(window, count=3):
    return [LocalOperator(window, matcore.random_hermitian(window.total_dim, seed=41 + k))
            for k in range(count)]


def roundoff(T, s_list):
    """AGREE Lambda^(t+1), t the largest |s| and Lambda the largest ||H_g||,
    1/min |eig H_g| or 1: how far round-off moves the exact residual and the
    bound on a table whose true residual is round-off."""
    with np.errstate(divide="ignore"):  # a singular entry: no round-off bound
        lam = max(max(np.abs(f.eig).max(), 1.0 / np.abs(f.eig).min(), 1.0) for f in T.facts)
    return AGREE * lam ** (max(map(abs, s_list), default=0.0) + 1.0)


def assert_certifies(got, want, T, planted=(), s_list=(0.5, 1.0, 2.0)):
    """The certified power relation against the exact loop's outcome: the same
    error; else the same verdict, within roundoff of the exact residual where
    both pass and at least it (to AGREE relative) where both fail, with a
    witness g at a planted position or its inverse."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.passed == want.passed
    close(got.tolerance, want.tolerance, radius(T))
    if want.passed:
        assert abs(got.residual - want.residual) <= roundoff(T, s_list) and got.witness is None
    else:
        assert got.residual >= want.residual * (1.0 - AGREE)
        at = [*planted, *group_table(T.group)[1][list(planted)]]
        assert got.witness["g"] in [list(T.group[k].image) for k in at]


def radius(T):
    """How far a number read off T.facts, or a report built on one, may sit from
    the decomposed form's: twice the largest err (the certificate, then the
    widening by it) plus eigvalsh's own round-off, 16 D eps ||x_g||.  0 when no
    entry has an err: the facts are then the decomposed values bit for bit."""
    f = T.facts
    return float((2.0 * f.err + 16 * len(T.stack[0]) * EPS * f.norm).max()) if np.any(f.err) else 0.0


def close(got, want, r):
    """Numbers within r, relative above 1; anything else equal."""
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            close(a, b, r)
    elif isinstance(want, float):
        assert abs(got - want) <= r * max(1.0, abs(want)), (got, want, r)
    else:
        assert got == want


def same(got, want, T):
    """Bit for bit when no entry has an err; else the same verdict, witness or
    error, and every number within radius(T)."""
    if not radius(T) or not isinstance(want, VerificationReport):
        assert got == want
        return
    assert (got.name, got.passed, got.witness) == (want.name, want.passed, want.witness)
    close((got.residual, got.tolerance), (want.residual, want.tolerance), radius(T))
    assert got.details.keys() == want.details.keys()
    close(list(got.details.values()), list(want.details.values()), radius(T))


# ---- the checks against their oracles ---------------------------------------------

CHECKS = {
    "cocycle_law": (lambda phi, T: cocycle.verify_cocycle_law(T), lambda phi, T: old_cocycle_law(T),
                    same),
    "inverse_relation": (lambda phi, T: cocycle.verify_inverse_relation(T),
                         lambda phi, T: old_inverse_relation(T), same),
    "quasi_invariance": (lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
                         old_quasi_invariance, same),
    "strong": (lambda phi, T: cocycle.verify_strong(T, phi), lambda phi, T: old_strong(T, phi),
               same),
    "power_relation": (lambda phi, T: cocycle.power_relation_check(T),
                       lambda phi, T: old_power_relation(T), assert_certifies),
    "structure": (lambda phi, T: compact.verify_structure(phi, T), old_structure, same),
}


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_facts_equal_the_per_entry_facts(name, planted):
    # every listed value within its entry's err (and eigvalsh's own round-off) of
    # the decomposed one, and bit for bit where err is 0
    _, T = case(name, planted)
    for f, want in zip(T.facts, old_facts(T), strict=True):
        r = f.err + 16 * len(T.stack[0]) * EPS * f.norm if f.err else 0.0
        assert np.abs(f.sv - want.sv).max() <= r and np.abs(f.eig - want.eig).max() <= r
        assert f.herm == want.herm and type(f.herm) is float
        assert (f.hermitean, f.invertible) == (want.hermitean, want.invertible)


@pytest.mark.parametrize("planted", [False, True, "negated"])
@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_check_equals_its_per_entry_loop(name, check, planted):
    phi, T = case(name, planted)
    new, old, compare = CHECKS[check]
    compare(outcome(new, phi, T), outcome(old, phi, T), T)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_checks_on_probes_equal_their_per_entry_loops(name, planted):
    phi, T = case(name, planted)
    P = probes(T.window)
    same(cocycle.verify_strong(T, phi, P), old_strong(T, phi, P), T)
    x = LocalOperator(T.window, states.full_density(phi))  # W is in its own centralizer
    same(outcome(cocycle.verify_centralizer_transport, phi, T, x), outcome(old_transport, phi, T, x), T)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_matrix_unit_probes_pair_as_the_complete_form(name, planted):
    # Tr(M e_ij) = M_ji exactly: one nonzero product in each pairing
    phi, T = case(name, planted)
    D, units, W = T.window.total_dim, states.matrix_unit_probes(T.window), states.full_density(phi)
    for M in (T.stack, T.stack @ W - W @ T.stack, T.stack + 1j * np.roll(T.stack, 1, axis=0)):
        assert np.array_equal(states.pairing_residual(M, units)[0], states.pairing_residual(M)[0])
        for m in M:
            r, where = states.pairing_residual(m, units)
            assert r == states.pairing_residual(m)[0] and type(r) is float and where is None
    assert outcome(cocycle.verify_strong, T, phi, units) == outcome(cocycle.verify_strong, T, phi)
    moved = next(g for g in T.group if not g.is_identity())
    for x in (LocalOperator(T.window, W), T.entry(moved)):  # central; a failing transport
        for tau in (cocycle.TAU_STATE, np.inf):
            same(outcome(cocycle.verify_centralizer_transport, phi, T, x, tau_state=tau),
                 outcome(old_transport, phi, T, x, tau), T)


def test_a_probe_of_another_size_is_refused_by_name():
    D = 4
    M = matcore.random_matrix(D, seed=3)
    probes = [np.eye(D), LocalOperator(Window(2, 2), np.eye(D)), np.eye(8), np.eye(2)]
    for m in (M, np.array([M, 2.0 * M, M.real])):
        with pytest.raises(SizeMismatch, match=r"^probe on dim 8, identity on dim 4$"):
            states.pairing_residual(m, probes)
        with pytest.raises(SizeMismatch, match=r"^probe on dim 2, identity on dim 4$"):
            states.pairing_residual(m, [probes[0], LocalOperator(Window(2, 1), np.eye(2))])


def test_probe_blocks_hold_the_budget_and_the_probes_in_order():
    window = Window(2, 4)
    probes = [LocalOperator(window, matcore.random_matrix(16, seed=k)) for k in range(40)]
    probes += [matcore.random_hermitian(16, seed=99).real, np.arange(256).reshape(16, 16)]
    blocks = list(states.probe_blocks(probes, 16))
    assert len(blocks) > 1 and all(P.nbytes <= cocycle.BLOCK_BYTES for P in blocks)
    rows = np.concatenate(blocks)
    want = [a.matrix if isinstance(a, LocalOperator) else a for a in probes]
    assert np.array_equal(rows, np.array([a.reshape(-1) for a in want]))
    # the empty list pairs as one zero probe: residual 0, and a probe list names no unit
    assert states.pairing_residual(matcore.random_matrix(16, seed=1), []) == (0.0, None)
    assert gns._probe_scale([]) == 0.0


def test_pairing_holds_no_second_copy_of_the_probes():
    window = Window(2, 5)
    probes = [LocalOperator(window, matcore.random_matrix(32, seed=k)) for k in range(64)]
    M = matcore.random_matrix(32, seed=100) + np.zeros((8, 1, 1))
    states.pairing_residual(M[:1], probes[:2])  # what numpy loads on first use
    tracemalloc.start()
    try:
        got = states.pairing_residual(M, probes)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the transposed rows of M and a few probe blocks, far from a second copy of the probes
    assert peak < M.nbytes + 4 * cocycle.BLOCK_BYTES < sum(a.matrix.nbytes for a in probes)
    want = [max(abs(np.einsum("ij,ji->", m, a.matrix)) for a in probes) for m in M]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_subgroup_rows_equal_the_per_entry_loops(name, planted):
    phi, T = case(name, planted)
    sizes = list(range(1, T.window.N + 2))  # N 1: the identity alone; past the window: all
    for got, want in zip(cocycle.locally_trivial_check(T, sizes), old_locally_trivial(T, sizes), strict=True):
        same(got, want, T)
    assert states.is_faithful(phi)[0]
    m = max(max(support(g), default=1) for g in T.group)
    subgroups = [[g for g in T.group if g(m) == m][::-1], [g for g in T.group if g(1) == 1],
                 list(T.group)]
    assert outcome(compact.restriction_consistency, phi, T, subgroups) == outcome(
        old_restriction, phi, T, subgroups)


S_LISTS = [(0.5, 1.0, 2.0), (0.0,), (0.0, 1.0), (-1.0, 0.5), (2.0, -0.5, 0.0, 3.0), (-2.0, 1.0),
           (-1.0,)]


def broken(T, changes):
    """T with entry k "negated" to -(k + 1) x_k (hermitean, not positive, its
    min eigenvalue naming k), "projected" to diag(0, 1, ..., 1) (hermitean and
    singular: under the floor with no negative eigenvalue) or "skewed" off
    hermitean."""
    stack = T.stack.copy()
    for k, kind in changes:
        if kind == "projected":
            stack[k] = np.diag(np.r_[0.0, np.ones(len(stack[k]) - 1)])
        else:
            stack[k] = -(k + 1.0) * stack[k] if kind == "negated" else stack[k] + np.triu(
                np.full_like(stack[k], 1e-3), 1)
    return CocycleTable(T.group, stack, T.window)


@pytest.mark.parametrize("s_list", S_LISTS)
@pytest.mark.parametrize("name", ["product-d2-S3", "rotated-d2-S3", "trivial-d2-S3"])
def test_power_relation_raises_the_first_error_in_group_order(name, s_list):
    # two broken entries in either order, among them a floor failure before or
    # after a non-hermitean entry; a list with two s that need the floor fails
    # both on one entry, and the first s in order names the error.  The exact
    # loop gives the error and verdict, the certified loop the report bit for bit
    _, T = case(name, False)
    kinds = ("negated", "skewed")
    n = len(T.group)
    for a in range(n):
        for b in range(n):
            for changes in ([(a, kinds[a % 2])], [(a, "negated"), (b, "skewed")],
                            [(a, "skewed"), (b, "negated")], [(a, "negated"), (b, "negated")],
                            [(a, "projected"), (b, "skewed")], [(a, "projected"), (b, "negated")]):
                U = broken(T, changes)
                got = outcome(cocycle.power_relation_check, U, s_list)
                assert_certifies(got, outcome(old_power_relation, U, s_list), U,
                                 {k for k, _ in changes}, s_list)
                assert got == outcome(loop_power_relation, U, s_list)
                same(outcome(cocycle.verify_inverse_relation, U), outcome(old_inverse_relation, U), U)


@pytest.mark.parametrize("s_list", [(0.5, 1.0, 2.0), (-1.0, 0.5)])
def test_power_relation_screens_each_entry_with_its_inverse(s_list):
    # in S_4 an element g can follow its inverse in group order with another
    # broken entry, and that entry's inverse, between them; the screen of g^-1
    # reads x_g, so a skewed x_g names its error there, before the floor
    # failure in between
    _, T = case("product-d2-S4", False)
    inv, n = group_table(T.group)[1], len(T.group)
    cases = [(a, b) for b in range(n) for a in range(n) if inv[b] < min(a, inv[a]) < b]
    assert cases
    for a, b in cases:
        U = broken(T, [(a, "negated"), (b, "skewed")])
        got = outcome(cocycle.power_relation_check, U, s_list)
        assert got == outcome(loop_power_relation, U, s_list)
        assert got[0] is matcore.NotHermitian


def hermitean_plant(T, eps):
    """eps at m[0, -1] and m[-1, 0] of the first moved entry: the entry stays
    hermitean and positive, so the power relation reports a residual."""
    k = next(i for i, g in enumerate(T.group) if not g.is_identity())
    stack = T.stack.copy()
    stack[k, 0, -1] += eps
    stack[k, -1, 0] += eps
    return k, CocycleTable(T.group, stack, T.window)


@pytest.mark.parametrize("s_list", S_LISTS)
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_power_relation_on_s_lists_equals_the_per_entry_loop(name, s_list):
    # clean, with the CLI's plant (off hermitean: an error), and with a hermitean
    # plant of 1e-6 (a failing report wherever the clean table passes)
    for planted in (False, True):
        _, T = case(name, planted)
        got = outcome(cocycle.power_relation_check, T, s_list)
        assert_certifies(got, outcome(old_power_relation, T, s_list), T, s_list=s_list)
        assert got == outcome(loop_power_relation, T, s_list)
    k, U = hermitean_plant(case(name, False)[1], 1e-6)
    want, got = outcome(old_power_relation, U, s_list), outcome(cocycle.power_relation_check, U, s_list)
    assert_certifies(got, want, U, [k], s_list)
    assert got == outcome(loop_power_relation, U, s_list)
    assert isinstance(want, tuple) or want.passed == (not any(s_list))


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_stored_defects_equal_the_per_entry_loops(name, planted):
    # the inverse-relation defects eps(g) and the defects delta(g) against the
    # mean, each computed once per table, against the loops they replaced
    _, T = case(name, planted)
    assert np.array_equal(T.inverse_defects, old_inverse_defects(T))
    deltas = np.array([r for _, r, *_ in old_coboundary_defects(T, T.mean, T.mean_inv)])
    assert np.array_equal(T.mean_defects, deltas)
    assert T.inverse_defects.dtype == T.mean_defects.dtype == np.float64


def test_the_differential_set_holds_real_and_complex_tables():
    assert {case(name, False)[1].stack.dtype for name in SMALL} == {np.dtype(float), np.dtype(complex)}


@pytest.mark.parametrize("planted", [False, True])
def test_exhaustive_law_equals_the_per_pair_loop(planted):
    # the sign cocycle x_g = sign(g) 1 has mean 0: the law runs pair by pair
    group = enumerate_group(4)
    signs = [round(np.linalg.det(np.eye(4)[np.array(g.image) - 1])) for g in group]
    T = CocycleTable(group, np.array([s * np.eye(16) for s in signs]), Window(2, 4))
    T = cli._plant_defect(T, 1e-3) if planted else T
    assert not matcore.facts(T.mean).invertible
    rep = cocycle.verify_cocycle_law(T)
    assert rep == old_cocycle_law(T) and rep.details == {"method": "exhaustive"}
    assert rep.passed != planted


# ---- the blocks ---------------------------------------------------------------


def test_blocks_hold_the_budget_and_cover_the_rows():
    _, T = case("rotated-d2-S5-D32", False)
    blocks = cocycle._blocks(len(T.group), T.stack[0].nbytes)
    assert np.array_equal(np.concatenate(blocks), np.arange(len(T.group)))
    assert all(len(r) * T.stack[0].nbytes <= cocycle.BLOCK_BYTES for r in blocks)
    assert len(blocks) > 1
    rows = [7, 3, 100, 5, 9, 11]
    assert np.concatenate(cocycle._blocks(rows, T.stack[0].nbytes)).tolist() == rows
    # one row a block when a row alone passes the budget
    assert [len(r) for r in cocycle._blocks(3, 2 * cocycle.BLOCK_BYTES)] == [1, 1, 1]
    # rowwise joins per-row outputs, single arrays and tuples, in row order
    assert T.rowwise(lambda r: r * 2, rows).tolist() == [2 * k for k in rows]
    got = T.rowwise(lambda r: (r, matcore.operator_norm(T.stack[r])))
    assert got[0].tolist() == list(range(len(T.group)))
    assert got[1].tolist() == [matcore.operator_norm(x) for x in T.stack]


TRACED = {
    "facts": lambda phi, T: T.facts,
    "cocycle_law": lambda phi, T: cocycle.verify_cocycle_law(T),
    "inverse_relation": lambda phi, T: cocycle.verify_inverse_relation(T),
    "quasi_invariance": lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
    "strong": lambda phi, T: cocycle.verify_strong(T, phi),
    "power_relation": lambda phi, T: cocycle.power_relation_check(T),
}


@pytest.mark.parametrize("make", [generic_product, rotated_product])
@pytest.mark.parametrize("check", sorted(TRACED))
def test_check_temporaries_stay_below_a_quarter_of_the_table(check, make):
    # the complex S_5 table at D 32 of the kernel's one-stack test, after a run
    # on a small table has loaded what numpy imports on first use
    outcome(TRACED[check], *product(make, 2, 3, 3, 7))
    phi, T = product(make, 2, 5, 5, 7)
    assert T.stack.dtype == complex and T.stack.nbytes == 120 * 32 * 32 * 16
    if check != "facts":
        T.facts, T.mean_inv  # cached before the trace: facts is traced on its own
    group_table(T.group), group_index(T.group, T.window)
    tracemalloc.start()
    try:
        outcome(TRACED[check], phi, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * T.stack.nbytes


# ---- the convergence series from one read of the spectra ----------------------


@pytest.mark.parametrize("preset", ["geometric", "harmonic"])
def test_series_and_constant_equal_the_per_step_diagnostics(preset):
    for n in range(2, 21):
        seq = limits.preset_sequence(preset, n)
        series, best = old_steps(seq, n)
        assert limits.diagnostic_series(seq, n) == series
        assert limits.empirical_constant(seq, n) == best
        assert type(limits.empirical_constant(seq, n)) is float


def test_series_reads_each_spectrum_once(monkeypatch):
    seq = limits.preset_sequence("geometric", 20)
    reads = []
    spectrum = limits.WindowProductSequence.spectrum
    monkeypatch.setattr(limits.WindowProductSequence, "spectrum",
                        lambda self, k: reads.append(k) or spectrum(self, k))
    limits.diagnostic_series(seq, 20)
    assert reads == list(range(1, 21))
