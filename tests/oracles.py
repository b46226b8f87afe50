"""The test fixtures and reference forms, each kept once.

Table builders and the one case registry (CASES), the plants that break a table
(PLANTS), the check table (CHECKS: each check with its reference form and
comparator, read by the harness in tests/test_differential.py), the comparators,
and the reference forms: the per-entry, per-pair, per-element and probe-loop
computations that a blocked or certified check replaced, the per-entry GNS square
roots and the dense D^2 x D^2 GNS construction, and the few constructions no
program path calls (cyclic groups, propagation along one generator, the second
structure decomposition, one-site marginals, the chain's evaluation, the GNS lift
and export forms), kept for the facts their tests state.  A plain module: pytest
collects nothing from it, and the test modules import it as `oracles`.  A builder
returns a fresh table, its caches cold; case_table builds each case once, in one
memo, and wraps the stored stack in a new table on each call.
"""

from collections import namedtuple
from dataclasses import replace
from functools import cached_property

import numpy as np

from quasinv import cli, cocycle, compact, gns, limits, matcore, qmc, states
from quasinv.cocycle import PASS_TOL, CocycleTable, VerificationReport, _report
from quasinv.errors import (
    NotInCentralizer,
    NotStrongCocycle,
    QuasinvError,
    SingularEntry,
    SupportTooLarge,
)
from quasinv.lattice import (
    LocalOperator,
    Permutation,
    Window,
    act,
    act_inverse,
    embed,
    embed_pair,
    enumerate_group,
    extend,
    extend_operator,
    gather,
    group_index,
    group_table,
    identity_permutation,
    inverse_index,
    positions,
    support,
)

AGREE = 1e-12
EPS = np.finfo(float).eps


# ---- states and tables ------------------------------------------------------

def anchor_state():
    """The hand-worked two-site anchor: weights diag(1/2, 1/2) and diag(3/4, 1/4)."""
    return states.product_state(2, [np.diag([0.5, 0.5]), np.diag([0.75, 0.25])])


def anchor_table():
    return cocycle.product_state_cocycle(anchor_state(), enumerate_group(2))


def seeded_dense_S3(seed):
    """Three non-diagonal site densities."""
    return states.product_state(2, [matcore.random_density(2, 0.1, seed=seed * 7 + k) for k in range(3)])


def seeded_diagonal_S3(seed):
    """Three diagonal site densities diag(p, 1 - p), p uniform in [0.2, 0.8]."""
    rng = np.random.Generator(np.random.Philox(seed))
    ws = []
    for _ in range(3):
        p = rng.uniform(0.2, 0.8)
        ws.append(np.diag([p, 1.0 - p]))
    return states.product_state(2, ws)


def diag_product(d, N, seed, rotation=None):
    """Diagonal site weights, uniform in [0.2, 0.8] and normalized; with a
    rotation u each weight is u w u*."""
    rng = np.random.Generator(np.random.Philox(seed))
    ws = [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, (N, d))]
    return states.product_state(d, ws if rotation is None else [rotation @ w @ rotation.conj().T
                                                                for w in ws])


def rotated_product(d, N, seed):
    """diag_product turned by one seeded unitary: complex, strong, not diagonal."""
    return diag_product(d, N, seed, rotation=np.linalg.qr(matcore.random_matrix(d, seed))[0])


def generic_product(d, N, seed):
    """Non-diagonal site densities: complex entries neither hermitean nor commuting."""
    return states.product_state(
        d, [matcore.random_density(d, 0.05, seed=seed * 31 + k) for k in range(N)])


def dense_product(d, N, seed):
    """Non-diagonal site densities, so no identity holds by sparsity."""
    return states.product_state(
        d, [matcore.random_density(d, 0.1, seed=seed * 31 + k) for k in range(N)])


def diag_table(d, n, seed, rotation=None):
    """diag_product and its table over S_n."""
    phi = diag_product(d, n, seed, rotation)
    return phi, cocycle.product_state_cocycle(phi, enumerate_group(n))


def product_case(make, d, N, k, seed):
    """The state make(d, N, seed) and its table over S_k on the first k sites."""
    phi = make(d, N, seed)
    return phi, cocycle.product_state_cocycle(phi, [extend(g, N) for g in enumerate_group(k)])


def product_on_sites(n, k):
    """A diagonal product state on n qubits, seeded by n + 10 k, and its table over S_k."""
    rng = np.random.default_rng(n + 10 * k)
    phi = states.product_state(2, [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, (n, 2))])
    return phi, cocycle.product_state_cocycle(phi, [extend(g, n) for g in enumerate_group(k)])


def rotated_case(d, N, k, seed, real):
    """A diagonal product table turned by one seeded on-site orthogonal (real) or
    unitary u: u^(x)N commutes with every site permutation, so the table stays
    strong, and its entries are not diagonal."""
    G = matcore.random_matrix(d, seed)
    u = np.linalg.qr(G.real if real else G)[0]
    w = np.random.default_rng(seed).uniform(0.2, 0.8, (N, d))
    phi = states.product_state(d, [u @ np.diag(v / v.sum()) @ u.conj().T for v in w])
    return phi, cocycle.product_state_cocycle(phi, [extend(g, N) for g in enumerate_group(k)])


def markov_case(N, seed):
    """The chain state of N seeded diagonal amplitudes and its x table over S_N."""
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(N, seed))
    return qmc.markov_functional(M), qmc.x_cocycle_table(M, enumerate_group(N))


def generic_chain(N, seed):
    """Invertible amplitudes with no normalization or commutation."""
    ks = tuple(np.eye(4) + 0.3 * matcore.random_matrix(4, seed=seed * 17 + n) for n in range(N))
    return qmc.MarkovState(2, np.eye(2) / 2, ks, validate=False)


def converse_case(d, N, seed):
    """The trivial scenario's pair: kappa^-1 = 1 + h/2 with h a centered seeded
    diagonal, over the flat state, by the converse construction."""
    window, group = Window(d, N), enumerate_group(N)
    rng = np.random.Generator(np.random.Philox(seed))
    h = np.diag(rng.uniform(0.0, 1.0, size=window.total_dim))
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    kinv = np.eye(window.total_dim) + 0.5 * centered / max(1.0, matcore.operator_norm(centered))
    phi_G = states.homogeneous_state(d, N, np.eye(d) / d)
    return compact.converse_construct(phi_G, LocalOperator(window, kinv), group)


def nonhermitean_kappa_case():
    """The one-kappa table of a seeded non-hermitean kappa over S_3, and the flat state."""
    kap = np.eye(8) + 0.3 * matcore.random_matrix(8, seed=5)
    T = cocycle.trivial_cocycle(LocalOperator(Window(2, 3), kap), enumerate_group(3))
    return states.homogeneous_state(2, 3, np.eye(2) / 2.0), T


def sign_table(N):
    """x_g = sgn(g) 1 over S_N: a scalar character, so a cocycle, whose mean is 0."""
    group, w = enumerate_group(N), Window(2, N)
    signs = [(-1.0) ** sum(a > b for i, a in enumerate(g.image) for b in g.image[i + 1:]) for g in group]
    return CocycleTable(group, np.array([s * np.eye(w.total_dim) for s in signs]), w)


def complex_sign_table(n):
    """sign_table with the signs read off permutation-matrix determinants, as complex128."""
    group = enumerate_group(n)
    sign = np.array([np.linalg.det(np.eye(n)[np.array(g.image) - 1]) for g in group])
    window = Window(2, n)
    stack = sign[:, None, None] * np.eye(window.total_dim, dtype=complex)
    return CocycleTable(group, stack, window)


# ---- the case registry ---------------------------------------------------------

# build() gives (phi, T); the dtypes the table is read in; whether the clean table clears RHO's frame
Case = namedtuple("Case", "build dtypes diagonal")
REAL, COMPLEX, BOTH = ("float64",), ("complex128",), ("float64", "complex128")
BROKEN_KINDS = ("skewed", "negated", "projected", "dropped")


def entry_broken(kind):
    """The D 8 product table with entries 1 and 4 broken by kind (see broken)."""
    phi, T = product_on_sites(3, 3)
    return phi, broken(T, [(1, kind), (4, kind)])


def identity_table(phi, group):
    return CocycleTable(tuple(group), {g.image: phi.window.identity() for g in group}, phi.window)


def trivial_pair(d, N, seed):
    """A converse-constructed state and its one-kappa table, kappa^-1 = 1 + h/2 with h a centered
    seeded hermitean matrix (complex, not diagonal)."""
    window, group = Window(d, N), enumerate_group(N)
    h = matcore.random_hermitian(window.total_dim, seed=seed)
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    kinv = np.eye(window.total_dim) + 0.5 * centered / max(1.0, matcore.operator_norm(centered))
    phi_G = states.homogeneous_state(d, N, np.eye(d) / d)
    return compact.converse_construct(phi_G, LocalOperator(window, kinv), group)


def dual_form_case(d, N, variant):
    """The dual-form product case at (d, N): the table of dense_product (variant ""), it with the
    CLI's plant at 1e-6 ("-defect"), or the identity table of the same state ("-identity-table")."""
    phi, T = product_case(dense_product, d, N, N, d * 10 + N)
    if variant == "-defect":
        return phi, cli._plant_defect(T, 1e-6)
    return phi, identity_table(phi, T.group) if variant else T


# name: Case; the prefix before ":" names the family a test reads
CASES = {
    # the blocked checks against their per-entry loops: D <= 16 windows and S_5 at D 32, real and complex
    "blocked:product-d2-S3": Case(lambda: product_case(diag_product, 2, 3, 3, 1), REAL, True),
    "blocked:product-d2-S4": Case(lambda: product_case(diag_product, 2, 4, 4, 2), REAL, True),
    "blocked:product-d2-S3-in-4": Case(lambda: product_case(diag_product, 2, 4, 3, 3), REAL, True),
    "blocked:product-d3-S2": Case(lambda: product_case(diag_product, 3, 2, 2, 4), REAL, True),
    "blocked:rotated-d2-S3": Case(lambda: product_case(rotated_product, 2, 3, 3, 5), COMPLEX, False),
    "blocked:rotated-d2-S4": Case(lambda: product_case(rotated_product, 2, 4, 4, 6), COMPLEX, False),
    "blocked:generic-d2-S3": Case(lambda: product_case(generic_product, 2, 3, 3, 7), COMPLEX, False),
    "blocked:generic-d2-S4": Case(lambda: product_case(generic_product, 2, 4, 4, 8), COMPLEX, False),
    "blocked:markov-S3": Case(lambda: markov_case(3, 9), REAL, True),
    "blocked:trivial-d2-S3": Case(lambda: converse_case(2, 3, 10), REAL, True),
    "blocked:trivial-d2-S4": Case(lambda: converse_case(2, 4, 11), REAL, True),
    "blocked:product-d2-S5-D32": Case(lambda: product_case(diag_product, 2, 5, 5, 12), REAL, True),
    "blocked:rotated-d2-S5-D32": Case(lambda: product_case(rotated_product, 2, 5, 5, 13), COMPLEX, False),
    # the standard basis against the eigenframe: clean diagonal tables, one with spectator sites,
    # each read real and cast to complex128
    "clean:product-d2-S4": Case(lambda: product_case(diag_product, 2, 4, 4, 31), BOTH, True),
    "clean:product-d3-S3": Case(lambda: product_case(diag_product, 3, 3, 3, 32), BOTH, True),
    "clean:product-d2-S3-in-5": Case(lambda: product_case(diag_product, 2, 5, 3, 33), BOTH, True),
    "clean:markov-S4": Case(lambda: markov_case(4, 34), BOTH, True),
    "clean:trivial-d2-S4": Case(lambda: converse_case(2, 4, 35), BOTH, True),
    # diagonal products turned by one seeded on-site orthogonal (real) or unitary: every entry decomposed
    "rotated:real-d2-S4": Case(lambda: rotated_case(2, 4, 4, 21, True), REAL, False),
    "rotated:complex-d2-S4": Case(lambda: rotated_case(2, 4, 4, 22, False), COMPLEX, False),
    "rotated:real-d2-S3": Case(lambda: rotated_case(2, 3, 3, 23, True), REAL, False),
    "rotated:complex-d2-S3": Case(lambda: rotated_case(2, 3, 3, 24, False), COMPLEX, False),
    "rotated:real-d2-S5-D32": Case(lambda: rotated_case(2, 5, 5, 25, True), REAL, False),
    "rotated:complex-d2-S5-D32": Case(lambda: rotated_case(2, 5, 5, 26, False), COMPLEX, False),
    # the image-keyed per-pair forms' tables: D <= 16, diagonal entries, and non-diagonal site
    # densities whose entries are neither hermitean nor commuting
    "array:product-S2": Case(lambda: diag_table(2, 2, 1), REAL, True),
    "array:product-S3": Case(lambda: diag_table(2, 3, 2), REAL, True),
    "array:product-S4": Case(lambda: diag_table(2, 4, 3), REAL, True),
    "array:trivial-S3": Case(lambda: converse_case(2, 3, 4), REAL, True),
    "array:trivial-S4": Case(lambda: converse_case(2, 4, 5), REAL, True),
    "array:markov-S3": Case(lambda: markov_case(3, 6), REAL, True),
    "array:rotated-S3": Case(lambda: product_case(dense_product, 2, 3, 3, 7), COMPLEX, False),
    # diagonal weights turned by one seeded unitary: strong tables whose entries are not diagonal,
    # so the eigenbasis overlaps of the power relation are dense
    "strong:rotated-S3": Case(lambda: product_case(rotated_product, 2, 3, 3, 11), COMPLEX, False),
    "strong:rotated-S4": Case(lambda: product_case(rotated_product, 2, 4, 4, 12), COMPLEX, False),
    "strong:rotated-d3-S2": Case(lambda: product_case(rotated_product, 3, 2, 2, 13), COMPLEX, False),
    # the entry-facts tables: diagonal at D 8 and 16, a chain, a non-hermitean kappa, and the D 8
    # product with entries 1 and 4 broken by each kind
    "entry:product-D8": Case(lambda: product_on_sites(3, 3), REAL, True),
    "entry:product-D16": Case(lambda: product_on_sites(4, 4), REAL, True),
    "entry:markov-D16": Case(lambda: markov_case(3, 1), REAL, True),
    "entry:trivial-nonhermitean-kappa": Case(nonhermitean_kappa_case, COMPLEX, False),
    **{f"entry:product-{kind}": Case(lambda kind=kind: entry_broken(kind), REAL, kind != "skewed")
       for kind in BROKEN_KINDS},
    # real tables at D <= 16, read again cast to complex128 by the dtype tests
    "dtype:product-d2-n3": Case(lambda: diag_table(2, 3, 1), REAL, True),
    "dtype:product-d2-n4": Case(lambda: diag_table(2, 4, 2), REAL, True),
    "dtype:product-d3-n2": Case(lambda: diag_table(3, 2, 3), REAL, True),
    "dtype:trivial-n4": Case(lambda: converse_case(2, 4, 4), REAL, True),
    "dtype:markov-n3": Case(lambda: markov_case(3, 5), REAL, True),
    # the dual-form verifiers against their probe loops
    **{f"qi:product-d{d}-n{N}{v}": Case(lambda d=d, N=N, v=v: dual_form_case(d, N, v),
                                        *((REAL, True) if v == "-identity-table" else (COMPLEX, False)))
       for d, N in ((2, 2), (2, 3), (2, 4), (3, 2)) for v in ("", "-defect", "-identity-table")},
    "qi:trivial-n2": Case(lambda: trivial_pair(2, 2, 2), COMPLEX, False),
    "qi:trivial-n3": Case(lambda: trivial_pair(2, 3, 3), COMPLEX, False),
    "qi:markov-n2": Case(lambda: markov_case(2, 2), REAL, True),
    "qi:markov-n3": Case(lambda: markov_case(3, 3), REAL, True),
}
_built = {}


def family(prefix):
    """The sorted names of the cases whose prefix before ":" is the one given."""
    return sorted(name for name in CASES if name.split(":")[0] == prefix)


def first_moved(T):
    """The position of the first element that is not the identity."""
    return next(i for i, g in enumerate(T.group) if not g.is_identity())


def below_rho(T, involution):
    """off_diagonal_plant's 1e-12 pair on the first moved element that is (or is not) its own inverse."""
    inv = group_table(T.group)[1]
    return off_diagonal_plant(T, next(i for i in range(1, len(inv)) if (inv[i] == i) == involution), 1e-12)


# name: (the plant, at the first moved entry; whether a diagonal table still clears the standard basis)
PLANTS = {
    "clean": (lambda T: T, True),
    "cli": (lambda T: cli._plant_defect(T, 1e-3), False),  # the CLI's --defect 1e-3, at m[0, -1]
    **{kind: (lambda T, kind=kind: broken(T, [(first_moved(T), kind)]), kind != "skewed")
       for kind in BROKEN_KINDS},
    "mixed": (lambda T: hermitean_plant(T, 1e-3)[1], False),  # hermitean, not commuting on a rotated table
    "hermitean": (lambda T: hermitean_plant(T, 1e-6)[1], False),
    "below_rho_involution": (lambda T: below_rho(T, True), True),
    "below_rho_pair": (lambda T: below_rho(T, False), True),
}


def case_table(name, plant="clean", dtype=None):
    """The case's state and a fresh table, its stack in the dtype (as built by default) and the
    plant applied, its caches cold; each case is built once."""
    if name not in _built:
        _built[name] = CASES[name].build()
    phi, T = _built[name]
    assert dtype is None or np.can_cast(T.stack.dtype, dtype)
    stack = T.stack if dtype is None else T.stack.astype(dtype, copy=False)
    return phi, PLANTS[plant][0](CocycleTable(T.group, stack, T.window))


# ---- plants -------------------------------------------------------------------

def broken(T, changes):
    """T with entry k "negated" to -(k + 1) x_k (hermitean, not positive, its
    min eigenvalue naming k), "projected" to diag(0, 1, ..., 1) (hermitean and
    singular: under the floor with no negative eigenvalue), "dropped" to x_k
    with its last row zeroed (singular, not hermitean) or "skewed" off
    hermitean by 1e-3 above the diagonal."""
    stack = T.stack.copy()
    for k, kind in changes:
        if kind == "projected":
            stack[k] = np.diag(np.r_[0.0, np.ones(len(stack[k]) - 1)])
        elif kind == "dropped":
            stack[k, -1] = 0.0
        else:
            stack[k] = -(k + 1.0) * stack[k] if kind == "negated" else stack[k] + np.triu(
                np.full_like(stack[k], 1e-3), 1)
    return CocycleTable(T.group, stack, T.window)


def hermitean_plant(T, eps):
    """eps at m[0, -1] and m[-1, 0] of the first moved entry: the entry stays
    hermitean and positive, so the power relation reports a residual."""
    k, stack = first_moved(T), T.stack.copy()
    stack[k, 0, -1] += eps
    stack[k, -1, 0] += eps
    return k, CocycleTable(T.group, stack, T.window)


def off_diagonal_plant(T, k, eps):
    """eps at m[i, j] and m[j, i] of entry k, i and j the basis vectors with a 1 on site 1
    or 2: hermitean, off the diagonal, at indices the group moves (m[0, -1] no
    permutation moves, so there the mean's off-diagonal part cancels out of delta)."""
    stack, i, j = T.stack.copy(), T.window.total_dim // T.window.d, T.window.total_dim // T.window.d ** 2
    stack[k, i, j] += eps
    stack[k, j, i] += eps
    return CocycleTable(T.group, stack, T.window)


def diagonal_plant(T, eps):
    """eps e_00 on the entry of the first moved element: the table stays strong
    (hermitean, positive) but breaks the cocycle law."""
    target = next(g for g in T.group if not g.is_identity())
    entries = dict(T.entries)
    m = entries[target.image].matrix.copy()
    m[0, 0] += eps
    entries[target.image] = LocalOperator(T.window, m)
    return CocycleTable(T.group, entries, T.window)


# ---- comparators --------------------------------------------------------------

def outcome(fn, *args, **kwargs):
    """fn's result, or the (type, message) of the QuasinvError it raises."""
    try:
        return fn(*args, **kwargs)
    except QuasinvError as exc:
        return type(exc), str(exc)


def raised(fn, *args):
    """The (type, message) of a strong-entry or singular-entry screen's error, or None."""
    try:
        fn(*args)
    except (NotStrongCocycle, SingularEntry) as exc:
        return type(exc), str(exc)
    return None


def list_tree_sum(mats):
    """The sum of a list by a pairwise tree: rows 2k and 2k+1 first, an odd one carried."""
    items = list(mats)
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


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


def reads_exact(got, want, T):
    """The strong bundle against its exact pairwise loop: the commutator reading at least the exact maximum c,
    less round-off, and at most sqrt(D) c (a Frobenius norm's reach over the operator norm) plus its E terms,
    4 sqrt(D) scale e + 2 e^2 for e the largest ||E_g||_F of a row that clears; the rest as same, with c in the
    reading's place."""
    if isinstance(want, VerificationReport):
        D, c, got_c = len(T.stack[0]), want.details["commutators"], got.details["commutators"]
        r, e = 16 * D * EPS * T.scale() ** 2, float(np.where(T.operand.mask, T.split[2], 0.0).max())
        assert c - r <= got_c <= np.sqrt(D) * (c + 4 * T.scale() * e) + 2 * e * e + r, (got_c, c)
        details = {**got.details, "commutators": c}
        got = replace(got, residual=max(details["hermiticity"], c, details["centralizer"]), details=details)
    same(got, want, T)


def equal(got, want):
    """Bit for bit: arrays of the same dtype and values, anything else equal."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


def within(got, want, terms, D):
    """want <= got <= want + terms, up to 16 D eps of the largest exact value."""
    r = 16 * D * EPS * want.max()
    return np.all(want - r <= got) and np.all(got <= want + terms + r)


def agree(got, want, r):
    """The same error, or the same verdicts and witnesses with every number within r."""
    if isinstance(want, list) and isinstance(want[0], VerificationReport):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            agree(a, b, r)
    elif isinstance(want, VerificationReport):
        assert (got.name, got.passed, got.witness) == (want.name, want.passed, want.witness)
        assert got.details.keys() == want.details.keys()
        close([got.residual, got.tolerance, *got.details.values()],
              [want.residual, want.tolerance, *want.details.values()], r)
    else:
        assert got == want


# ---- the table checks as per-entry loops over the stack -------------------------
# Each gives the blocked check's report, residual, verdict, witness and details.

def per_entry_facts(T):
    """Each entry's singular values, hermiticity defect and hermitean-part spectrum."""
    return tuple(matcore.Facts(np.linalg.svd(x, compute_uv=False), matcore.herm_defect(x),
                               np.linalg.eigvalsh((x + x.conj().T) / 2.0)) for x in T.stack)


class EigenframeTable(CocycleTable):
    """A table read without the standard basis: its facts decomposed entry by entry, and eps(g)
    and delta(g) one SVD an entry."""
    facts = cached_property(lambda self: matcore.facts(self.stack))

    def frame(self, rows=None):
        return None


def eigenframe(T):
    """T's stack as an EigenframeTable, its caches cold."""
    return EigenframeTable(T.group, T.stack, T.window)


def per_entry_tol(T, F):
    return PASS_TOL * max(1.0, max(f.norm for f in F))


def per_entry_coboundary_defects(T, kappa, kappa_inv, rows=None):
    """(i, ||x_i - kappa g_i^-1(kappa^-1)||, g_i^-1(kappa^-1), kappa g_i^-1(kappa^-1)) per row."""
    Q_inv = np.argsort(group_index(T.group, T.window), axis=1)
    for i in range(len(T.group)) if rows is None else rows:
        moved = gather(kappa_inv, Q_inv[i])
        x = kappa @ moved
        yield i, matcore.operator_norm(T.stack[i] - x), moved, x


def per_entry_inverse_defects(T):
    """eps(g) = ||x_g g^-1(x_{g^-1}) - 1||, one entry at a time."""
    inv, x = group_table(T.group)[1], T.stack
    Q = group_index(T.group, T.window)
    I = np.eye(T.window.total_dim)
    return np.array([matcore.operator_norm(x[i] @ gather(x[inv[i]], Q[inv[i]]) - I)
                     for i in range(len(x))])


def worst_law_pair(T, pairs):
    """The largest ||x_{ba} - x_a a^-1(x_b)|| over the (b, a) pairs, and its pair when nonzero."""
    (mul, inv), x = group_table(T.group), T.stack
    Q = group_index(T.group, T.window)
    r, b, a = max(((matcore.operator_norm(x[mul[b, a]] - x[a] @ gather(x[b], Q[inv[a]])), b, a)
                   for b, a in pairs), key=lambda t: t[0])
    return r, {"g2": list(T.group[b].image), "g1": list(T.group[a].image)} if r else None


def per_entry_cocycle_law(T):
    """The blocked certificate of the law replayed entry by entry: the bound
    from the largest coboundary defect delta against the mean, its witness the
    worst pair through that entry; exhaustive over all pairs when the mean is singular."""
    F = per_entry_facts(T)
    tol = per_entry_tol(T, F)
    n, f = len(T.group), matcore.facts(T.mean)
    if not f.invertible:
        worst, witness = worst_law_pair(T, np.ndindex(n, n))
        return _report("cocycle_law", worst, tol, witness=witness if worst > tol else None,
                       details={"method": "exhaustive"})
    deltas = [r for _, r, *_ in per_entry_coboundary_defects(T, T.mean, T.mean_operand.inv.A)]
    k = int(np.argmax(deltas))
    C = max(f.norm for f in F) + deltas[k]
    bound = deltas[k] * (1.0 + 2.0 * C + deltas[k])
    pairs = [(k, a) for a in range(n)] + [(b, k) for b in range(n)]
    details = {"delta": deltas[k], "C": C, "kappa_cond": float(f.sv[0] / f.sv[-1]),
               "method": "certificate"}
    return _report("cocycle_law", bound, tol, details=details,
                   witness=worst_law_pair(T, pairs)[1] if bound > tol else None)


def per_entry_inverse_relation(T):
    F = per_entry_facts(T)
    tol = per_entry_tol(T, F)
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


def per_entry_quasi_invariance(phi, T):
    tol = per_entry_tol(T, per_entry_facts(T))
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


def per_entry_strong(T, phi, probes=None):
    """The strong bundle with every commutator exact, pair by pair: its witness the worst pair."""
    F = per_entry_facts(T)
    tol = per_entry_tol(T, F)
    herm = max(f.herm for f in F)
    s1 = min(float(f.eig[0]) for f in F)
    s2 = max(float(f.eig[-1]) for f in F)
    x, comm, pair = T.stack, 0.0, None
    for g in range(len(x)):
        for h in range(g + 1, len(x)):
            r = matcore.operator_norm(x[g] @ x[h] - x[h] @ x[g])
            if r > comm:
                comm, pair = r, (g, h)
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
        witness = {"g": list(T.group[pair[0]].image), "h": list(T.group[pair[1]].image)}
    for part, r, fails in (("hermiticity", [f.herm for f in F], herm > tol),
                           ("positivity", [-f.eig[0] for f in F], not positive),
                           ("centralizer", centrs, centr > tol)):
        if witness is None and fails:
            witness = {"g": list(T.group[int(np.argmax(r))].image), "part": part}
    return _report("strong_quasi_invariance", resid, tol, witness=witness, details=details,
                   passed=passed)


def per_entry_transport(phi, T, x, tau_state=cocycle.TAU_STATE):
    tol = per_entry_tol(T, per_entry_facts(T))
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


def per_entry_locally_trivial(T, window_sizes):
    """Per N, the subgroup mean (the table's own mean for the whole group, else
    the list tree sum of the subgroup's entries) and its coboundary defects."""
    tol = per_entry_tol(T, per_entry_facts(T))
    out = []
    for N in window_sizes:
        sub = [i for i, g in enumerate(T.group) if support(g) <= set(range(1, N + 1))]
        avg = T.mean if len(sub) == len(T.group) else list_tree_sum([T.stack[i] for i in sub]) / len(sub)
        avg_inv = T.mean_operand.inv.A if avg is T.mean else matcore.inv(avg)
        worst = max(r for _, r, *_ in per_entry_coboundary_defects(T, avg, avg_inv, sub))
        out.append(_report(f"locally_trivial[N={N}]", worst, tol,
                           details={"subgroup_order": len(sub)}))
    return out


def spectral_decompose(H, facts=None):
    """eigh's ascending eigenvalues and eigenvectors (no phase convention) of one hermitian H;
    NotHermitian from require_hermitean, on the Facts of H if at hand."""
    H = matcore.promote(H)
    matcore.require_hermitean(matcore.Facts(np.array([matcore.operator_norm(H)]), matcore.herm_defect(H), None)
                              if facts is None else facts)
    return np.linalg.eigh((H + matcore.dagger(H)) / 2.0)


def matrix_power(P, s, spectrum=None):
    """V lam^s V*, symmetrized, for positive hermitian P under require_floor, from the spectrum
    (lam, V) = spectral_decompose(P) if given; the identity, undecomposed, at s 0."""
    P = matcore.promote(P)
    if s == 0:
        return np.eye(P.shape[0], dtype=P.dtype)
    lam, V = spectral_decompose(P) if spectrum is None else spectrum
    matcore.require_floor(lam, s)
    M = (V * np.power(lam, float(s))) @ matcore.dagger(V)
    return (M + matcore.dagger(M)) / 2.0


def per_entry_unitaries(R, T, tol=gns.GNS_TOL):
    """gns.build_unitaries one entry at a time: s_g = x_{g^-1}^(1/2) through each entry's own eigh."""
    cocycle.require_strong_entries(T, tol)
    inv, x = group_table(T.group)[1], T.stack
    return {g.image: gns.CovariantUnitary(g, LocalOperator(R.window, matrix_power(
                x[j], 0.5, spectrum=spectral_decompose(x[j], facts=T.facts[j]))))
            for g, j in zip(T.group, inv)}


def floored_power(lam, s):
    matcore.require_floor(lam, s)
    return np.power(lam, float(s))


def eigenbasis_power_relation(T, s_list=(0.5, 1.0, 2.0)):
    """The exact form, ||x_g^-s - g^-1(x_{g^-1}^s)|| in each entry's eigenbasis."""
    F = per_entry_facts(T)
    tol = per_entry_tol(T, F)
    inv, x = group_table(T.group)[1], T.stack
    Q = group_index(T.group, T.window)
    resid = [None] * len(x)
    for i, j in enumerate(inv.tolist()):
        if j < i:
            continue
        spectra, overlaps = {}, {}

        def spectrum(k):
            if k not in spectra:
                spectra[k] = spectral_decompose(x[k], facts=F[k])
            return spectra[k]

        def overlap(a, b):
            if (a, b) not in overlaps:
                overlaps[a, b] = spectrum(a)[1].conj().T @ spectrum(b)[1][Q[b]]
            return overlaps[a, b]

        def residual(a, b, s):
            mu = floored_power(spectrum(a)[0], -s)
            nu = floored_power(spectrum(b)[0], s)
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
    tol = per_entry_tol(T, F)
    inv, eps = group_table(T.group)[1], per_entry_inverse_defects(T)
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


def per_entry_structure(phi, T, tol=compact.STRUCTURE_TOL):
    for g, f in zip(T.group, per_entry_facts(T)):
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
    for i, r, moved, rebuilt in per_entry_coboundary_defects(T, kap.matrix, kinv):
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


def per_entry_restriction(phi, T, subgroups, tol=compact.STRUCTURE_TOL):
    W = states.faithful_density(phi, phi.window).A
    W_inv = matcore.inv(W)
    worst, witness = 0.0, None
    per_subgroup = []
    for idx, sub in enumerate(subgroups):
        rows = positions(T.group, sub)
        local = 0.0
        for i, r, *_ in per_entry_coboundary_defects(T, W_inv, W, rows):
            local = max(local, r)
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(T.group[i].image)}
        per_subgroup.append(local)
    return _report("restriction_consistency", worst, tol,
                   witness=witness if worst > tol else None,
                   details={"per_subgroup": per_subgroup})


def stepwise_series(seq, N_max):
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


# ---- the check table -------------------------------------------------------------

def stabilizer(T):
    """The elements that fix the highest site the group moves, as the structure scenario's subgroup."""
    top = max(max(support(g), default=1) for g in T.group)
    return [g for g in T.group if g(top) == top]


def dense_deltas(T):
    """delta(g) = ||x_g - M g^-1(M^-1)|| against the mean, one SVD an entry."""
    return np.array([r for _, r, *_ in per_entry_coboundary_defects(T, T.mean, T.mean_operand.inv.A)])


def fact_rows(F):
    """Each entry's Facts as plain values, compared bit for bit: the singular values, the hermiticity
    defect and its type, the hermitean-part spectrum, err and the two rules."""
    return [(f.sv.tolist(), f.herm, type(f.herm), f.eig.tolist(), f.err, bool(f.hermitean), bool(f.invertible))
            for f in F]


def unitary_factors(U):
    """The factors s_g of the GNS unitaries as plain values, by image, compared bit for bit."""
    return {image: (u.g.image, u.s.matrix.dtype, u.s.matrix.tolist()) for image, u in U.items()}


# name: (the check, its reference form, the comparator between them), each called as (phi, T); a
# check of the package's public checks also takes their keyword arguments (tol)
CHECKS = {
    "normalization": (lambda phi, T, **kw: cocycle.verify_normalization(T, **kw), None, None),
    "cocycle_law": (lambda phi, T, **kw: cocycle.verify_cocycle_law(T, **kw),
                    lambda phi, T: per_entry_cocycle_law(T), "same"),
    "inverse_relation": (lambda phi, T, **kw: cocycle.verify_inverse_relation(T, **kw),
                         lambda phi, T: per_entry_inverse_relation(T), "same"),
    "quasi_invariance": (lambda phi, T, **kw: cocycle.verify_quasi_invariance(phi, T, **kw),
                         per_entry_quasi_invariance, "same"),
    "strong": (lambda phi, T, **kw: cocycle.verify_strong(T, phi, **kw), lambda phi, T: per_entry_strong(T, phi),
               "reads_exact"),
    "strong_entries": (lambda phi, T: raised(cocycle.require_strong_entries, T, PASS_TOL),
                       lambda phi, T: raised(oracle_require_strong, T, PASS_TOL), "same"),
    "strong_entries_gns": (lambda phi, T: raised(cocycle.require_strong_entries, T, gns.GNS_TOL),
                           lambda phi, T: raised(oracle_require_strong, T, gns.GNS_TOL), "same"),
    "strong_bounds": (lambda phi, T: [cocycle.verify_strong(T, phi).details[k] for k in ("hermiticity", "min_eig",
                                                                                          "max_eig")],
                      lambda phi, T: list(oracle_strong_bounds(T)), "equal"),
    "singular_screen": (lambda phi, T: raised(cocycle.verify_inverse_relation, T),
                        lambda phi, T: raised(oracle_singular_screen, T), "equal"),
    # the certified bound against the exact form, and against its own (entry, s) loop
    "power_relation": (lambda phi, T, **kw: cocycle.power_relation_check(T, **kw),
                       lambda phi, T: eigenbasis_power_relation(T), "assert_certifies"),
    "power_relation_bound": (lambda phi, T: cocycle.power_relation_check(T),
                             lambda phi, T: loop_power_relation(T), "equal"),
    "locally_trivial": (lambda phi, T, **kw: cocycle.locally_trivial_check(T, range(2, T.window.N + 1), **kw),
                        lambda phi, T: per_entry_locally_trivial(T, range(2, T.window.N + 1)), "same"),
    "kappa": (lambda phi, T: compact.kappa(T).matrix.tolist(), None, None),
    "structure": (lambda phi, T, **kw: compact.verify_structure(phi, T, **kw), per_entry_structure, "same"),
    "restriction": (lambda phi, T, **kw: compact.restriction_consistency(phi, T, [stabilizer(T), T.group], **kw),
                    lambda phi, T: per_entry_restriction(phi, T, [stabilizer(T), T.group]), "same"),
    "transport": (lambda phi, T, **kw: cocycle.verify_centralizer_transport(phi, T, T.window.identity(), **kw),
                  lambda phi, T: per_entry_transport(phi, T, T.window.identity()), "same"),
    "unitaries": (lambda phi, T, **kw: unitary_factors(gns.build_unitaries(gns.build_gns(phi), T, **kw)),
                  lambda phi, T: unitary_factors(per_entry_unitaries(gns.build_gns(phi), T)), "same"),
    "facts": (lambda phi, T: fact_rows(T.facts), lambda phi, T: fact_rows(per_entry_facts(T)), "equal"),
    "inverse_defects": (lambda phi, T: T.inverse_defects, lambda phi, T: per_entry_inverse_defects(T), "equal"),
    "mean_defects": (lambda phi, T: T.mean_defects, lambda phi, T: dense_deltas(T), "equal"),
}


# ---- the table laws as per-pair forms over image-keyed entries --------------------
# Each gives (worst residual, witness) or the residual alone.

def pairwise_cocycle_law(T):
    """max ||x_{g2 g1} - x_g1 g1^-1(x_g2)|| over all |G|^2 pairs."""
    worst, witness = 0.0, None
    for g2 in T.group:
        for g1 in T.group:
            lhs = T.entries[(g2 * g1).image].matrix
            rhs = (T.entries[g1.image] @ act(g1.inverse(), T.entries[g2.image])).matrix
            r = matcore.operator_norm(lhs - rhs)
            if r > worst:
                worst, witness = r, {"g2": list(g2.image), "g1": list(g1.image)}
    return worst, witness


def per_element_inverse_relation(T):
    I = np.eye(T.window.total_dim)
    worst, witness = 0.0, None
    for g in T.group:
        x_g, x_ginv = T.entries[g.image], T.entries[g.inverse().image]
        r = matcore.operator_norm((x_g @ act(g.inverse(), x_ginv)).matrix - I)
        if r > worst:
            worst, witness = r, {"g": list(g.image)}
    return worst, witness


def matrix_power_relation(T, s_list=(0.5, 1.0, 2.0)):
    """max ||x_g^-s - g^-1(x_{g^-1}^s)|| through matrix_power."""
    worst, witness = 0.0, None
    for g in T.group:
        x_ginv = T.entries[g.inverse().image].matrix
        for s in s_list:
            lhs = matrix_power(T.entries[g.image].matrix, -s)
            rhs = act(g.inverse(), LocalOperator(T.window, matrix_power(x_ginv, s)))
            r = matcore.operator_norm(lhs - rhs.matrix)
            if r > worst:
                worst, witness = r, {"g": list(g.image), "s": s}
    return worst, witness


def pairwise_strong_parts(T):
    """The largest hermiticity defect, and the largest commutator over all pairs with its pair."""
    herm = max(matcore.herm_defect(T.entries[g.image].matrix) for g in T.group)
    comm, witness = 0.0, None
    for g in T.group:
        for h in T.group:
            xg, xh = T.entries[g.image].matrix, T.entries[h.image].matrix
            r = matcore.operator_norm(xg @ xh - xh @ xg)
            if r > comm:
                comm, witness = r, {"g": list(g.image), "h": list(h.image)}
    return herm, comm, witness


def per_subgroup_locally_trivial(T, N):
    sub = [g for g in T.group if support(g) <= set(range(1, N + 1))]
    avg = sum(T.entries[g.image].matrix for g in sub) / len(sub)
    kappa = LocalOperator(T.window, avg)
    kinv = LocalOperator(T.window, matcore.inv(avg))
    return max(matcore.operator_norm(T.entries[g.image].matrix
                                     - (kappa @ act(g.inverse(), kinv)).matrix) for g in sub)


def per_element_structure_match(T, kap):
    kinv = LocalOperator(T.window, matcore.inv(kap.matrix))
    match, witness, commut = 0.0, None, 0.0
    for g in T.group:
        moved = act(g.inverse(), kinv).matrix
        rebuilt = kap.matrix @ moved
        r = matcore.operator_norm(T.entries[g.image].matrix - rebuilt)
        if r > match:
            match, witness = r, {"g": list(g.image)}
        commut = max(commut, matcore.operator_norm(rebuilt - moved @ kap.matrix))
    return match, witness, commut


def intrinsic_restriction(phi, T, subgroups):
    """max ||x_g - compact.intrinsic_entry(phi, g)|| over the subgroups."""
    worst, witness = 0.0, None
    for idx, sub in enumerate(subgroups):
        for g in sub:
            r = matcore.operator_norm(T.entries[g.image].matrix
                                      - compact.intrinsic_entry(phi, g).matrix)
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(g.image)}
    return worst, witness


def tree_sum_kappa(T):
    """The hermitean part of the list tree mean of the entries."""
    avg = list_tree_sum([T.entries[g.image].matrix for g in T.group]) / len(T.group)
    return (avg + avg.conj().T) / 2.0


def power_unitaries(R, T):
    """s_g = x_{g^-1}^(1/2), by image."""
    return {g.image: matrix_power(T.entries[g.inverse().image].matrix, 0.5)
            for g in T.group}


def pairwise_verify_unitaries(R, U, group):
    """(unitarity, group law over all pairs, adjoint) of the GNS unitaries."""
    unit = adj = law = 0.0
    for g in group:
        Ug = U[g.image]
        unit = max(unit, matcore.operator_norm(gram_defect(R, Ug)))
        adj = max(adj, matcore.operator_norm(sharp_factor(R, Ug)
                                             - U[g.inverse().image].s.matrix))
    for g in group:
        for h in group:
            lhs = act(g, U[h.image].s) @ U[g.image].s
            law = max(law, matcore.operator_norm(lhs.matrix - U[(g * h).image].s.matrix))
    return unit, law, adj


# ---- the entry-fact screens as per-check computations ---------------------------

def oracle_invertible(A):
    """The invertibility rule of the former matcore.classify."""
    A = np.asarray(A, dtype=complex)
    scale = max(matcore.operator_norm(A), 1.0)
    if matcore.herm_defect(A) <= matcore.TAU_HERM * scale:
        lam = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
        return float(np.abs(lam).min()) > matcore.TAU_POS * scale
    return float(np.linalg.svd(A, compute_uv=False).min()) > matcore.TAU_POS * scale


def oracle_frame(A, need_herm=True):
    """The former free matcore.frame: (diagonal, ||E||_F) of A if it clears the rule, else None."""
    herm, diag, off = matcore.split(matcore.promote(A).copy())
    if matcore.clears(herm if need_herm else None, diag, off):
        return np.diagonal(A, axis1=-2, axis2=-1), off


def oracle_frame_facts(A):
    """The former matcore.frame_facts: a lone matrix's Facts off its diagonal if it clears the rule."""
    herm, diag, off = matcore.split(matcore.promote(A).copy())
    return matcore.diagonal_facts(A, herm, off) if matcore.clears(herm, diag, off) else matcore.facts(A)


def oracle_require_strong(T, tol):
    for g, x in zip(T.group, T.stack):
        if matcore.herm_defect(x) > tol * max(1.0, matcore.operator_norm(x)):
            raise NotStrongCocycle(f"entry for {g.image} is not hermitean")
        if np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0] <= 0.0:
            raise NotStrongCocycle(f"entry for {g.image} is not positive")


def oracle_singular_screen(T):
    for g, x in zip(T.group, T.stack):
        if not oracle_invertible(x):
            raise SingularEntry(f"x_g singular for g = {g.image}")


def oracle_strong_bounds(T):
    herm = 0.0
    s1, s2 = np.inf, -np.inf
    for x in T.stack:
        herm = max(herm, matcore.herm_defect(x))
        lam = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
        s1, s2 = min(s1, float(lam[0])), max(s2, float(lam[-1]))
    return herm, s1, s2


# ---- the linear identities as probe loops -------------------------------------
# Both sides through states.evaluate, one probe at a time, on the density built once a call.

def oracle_quasi_invariance(phi, T, probes):
    """max |phi(g(a)) - phi(x_g a)| and the (g, probe index) attaining it."""
    W = states.full_density(phi)
    worst, where = 0.0, None
    for g in T.group:
        x_g = T.entries[g.image]
        for k, a in enumerate(probes):
            r = abs(states.evaluate(W, act(g, a)) - states.evaluate(W, x_g @ a))
            if r > worst:
                worst, where = r, (list(g.image), k)
    return worst, where


def oracle_centralizer(phi, c, probes):
    W = states.full_density(phi)
    return max(abs(states.evaluate(W, a @ c) - states.evaluate(W, c @ a)) for a in probes)


def oracle_exchangeable(psi, group, probes):
    W = states.full_density(psi)
    return max(abs(states.evaluate(W, act(g, a)) - states.evaluate(W, a))
               for g in group for a in probes)


def oracle_transport(phi, T, x, probes):
    W = states.full_density(phi)
    worst = 0.0
    for g in T.group:
        x_g = T.entries[g.image].matrix
        transported = act(g, LocalOperator(T.window, x_g @ x.matrix @ matcore.inv(x_g)))
        gx = act(g, x)
        for a in probes:
            worst = max(worst, abs(states.evaluate(W, gx @ a)
                                   - states.evaluate(W, a @ transported)))
    return worst


def oracle_sandwich(M, g, probes):
    g_full = extend(g, M.N + 1)
    y = LocalOperator(M.window, qmc.y_cocycle(M, [g])[0])
    phi = qmc.markov_functional(M)
    worst = 0.0
    for a in probes:
        a_full = extend_operator(a, M.window)
        worst = max(worst, abs(states.evaluate(phi, act(g_full, a_full))
                               - states.evaluate(phi, y.dagger() @ a_full @ y)))
    return worst


def oracle_extension(M, K_next, probes):
    M_ext = qmc.MarkovState(M.d, M.W_inf, M.chain + (K_next,), validate=M.validate)
    return max(abs(markov_eval(M, a) - markov_eval(M_ext, a)) for a in probes)


def oracle_reconstruction(phi, phi_G, kap, probes):
    W, W_G = states.full_density(phi), states.full_density(phi_G)
    kinv = LocalOperator(phi.window, matcore.inv(kap.matrix))
    return max(abs(states.evaluate(W, a) - states.evaluate(W_G, kinv @ a)) for a in probes)


# ---- the group-action checks one element at a time -------------------------------

def partial_trace_marginal(X, window, n):
    """The marginal of X on the first n sites: the remaining sites traced out."""
    k, r = window.d ** n, window.d ** (window.N - n)
    return np.einsum("iaja->ij", X.reshape(k, r, k, r))


def y_from_chain(M, g):
    """y_g = g^-1(R) R^-1 from the chain's own R and R^-1."""
    return (act_inverse(extend(g, M.N + 1), M.R) @ M.R_inv).matrix


def per_element_sandwich(M, g):
    y, W = y_from_chain(M, g), M.density
    defect = act_inverse(extend(g, M.N + 1), LocalOperator(M.window, W)).matrix - y @ W @ y.conj().T
    return states.pairing_residual(partial_trace_marginal(defect, M.window, M.N))[0]


def per_element_exchangeability(psi, group):
    W = LocalOperator(psi.window, states.full_density(psi))
    return max((states.pairing_residual(act_inverse(g, W).matrix - W.matrix)[0]
                for g in group), default=0.0)


def sharp_factor(R, Ug):
    """g^-1(W s_g*) W^-1."""
    return act_inverse(Ug.g, LocalOperator(R.window, R.W @ Ug.s.dagger().matrix)).matrix @ R.W_inv


def gram_defect(R, Ug):
    """C_g = g^-1(s_g W s_g*) W^-1 - 1."""
    moved = act_inverse(Ug.g, LocalOperator(R.window, Ug.s.matrix @ R.W @ Ug.s.dagger().matrix))
    return moved.matrix @ R.W_inv - np.eye(R.D)


def per_element_verify_unitaries(R, U, group, tol=gns.GNS_TOL):
    """verify_unitaries one element at a time, sigma the list tree mean of the s_g."""
    inv = group_table(group)[1]
    Q = group_index(group, R.window)
    s = [U[g.image].s.matrix for g in group]
    sigma_inv = matcore.inv(sigma := list_tree_sum(s) / len(s))
    unit = adj = delta = norm = 0.0
    for i, g in enumerate(group):
        unit = max(unit, matcore.operator_norm(gram_defect(R, U[g.image])))
        adj = max(adj, matcore.operator_norm(sharp_factor(R, U[g.image]) - s[inv[i]]))
        delta = max(delta, matcore.operator_norm(s[i] - gather(sigma_inv, Q[i]) @ sigma))
        norm = max(norm, matcore.operator_norm(s[i]))
    law = delta * (1.0 + 2.0 * (norm + delta) + delta)
    resid = max(unit, law, adj)
    return {"unitarity": unit, "group_law": law, "adjoint": adj, "residual": resid,
            "pass": resid <= tol, "delta": delta}


def svd_scale(probes):
    """max ||a|| over the probes, one SVD each; the unit ball when None."""
    if probes is None:
        return 1.0
    return max((matcore.operator_norm(a.matrix if isinstance(a, LocalOperator) else np.asarray(a))
                for a in probes), default=0.0)


def svd_scaled_covariance(R, U, group, probes=None, tol=gns.GNS_TOL):
    worst = svd_scale(probes) * max(
        (matcore.operator_norm(gram_defect(R, U[g.image])) for g in group), default=0.0)
    return {"residual": worst, "pass": worst <= tol}


def svd_scaled_lifted_expectation(R, U, subgroup, probes=None, tol=gns.GNS_TOL):
    total = sum(matcore.operator_norm(gram_defect(R, U[g.image])) for g in subgroup)
    worst = total / len(subgroup) * svd_scale(probes)
    return {"residual": worst, "pass": worst <= tol}


def per_element_lift(R, U, subgroup):
    D = R.D

    def right_apply(q, m, X):
        cols = X.reshape(D, D, -1, order="F")[q[:, None], q]
        return np.einsum("ijc,jk->ikc", cols, m).reshape(D * D, -1, order="F")

    factors = [(q, gather(U[g.image].s.dagger().matrix, q), sharp_factor(R, U[g.image]))
               for g, q in zip(subgroup, inverse_index(subgroup, R.window))]

    def lifted(X):
        total = 0.0
        for q, s_moved, t in factors:
            total = total + right_apply(q, t, right_apply(q, s_moved, X.conj().T).conj().T)
        return total / len(factors)
    return lifted


# ---- the chain's matrices rebuilt per element ----------------------------------

def rebuilt_chain_product(M):
    w = M.window
    out = w.identity()
    for n in range(1, M.N + 1):
        out = out @ embed_pair(w, n, M.chain[n - 1])
    return out


def rebuilt_markov_density(M):
    R = rebuilt_chain_product(M).matrix
    return R @ states.full_density(M.psi()) @ R.conj().T


def rebuilt_y(M, g):
    R = rebuilt_chain_product(M)
    return act_inverse(extend(g, M.N + 1), R) @ LocalOperator(M.window, matcore.inv(R.matrix))


def rebuilt_x(M, g):
    Q = rebuilt_chain_product(qmc.MarkovState(M.d, M.W_inf, tuple(K.conj().T @ K for K in M.chain),
                                              validate=False))
    Q_inv = LocalOperator(M.window, matcore.inv(Q.matrix))
    return Q_inv @ act_inverse(extend(g, M.N + 1), Q)


# ---- the table constructors per element ------------------------------------------

def support_product_table(phi, group):
    """x_g = (prod_{n in supp g} j_n(W_n^-1)) g^-1(prod_{n in supp g} j_n(W_n))."""
    window = phi.window
    stack = []
    for g in group:
        sites = sorted(support(g))
        x = window.identity()
        for n in sites:
            x = x @ embed(window, n, matcore.inv(phi.weights[n - 1]))
        y = window.identity()
        for n in sites:
            y = y @ embed(window, n, phi.weights[n - 1])
        stack.append((x @ act_inverse(g, y)).matrix)
    return np.array(stack)


def per_element_trivial_table(kappa, group):
    kinv = LocalOperator(kappa.window, matcore.inv(kappa.matrix))
    return np.array([(kappa @ act_inverse(g, kinv)).matrix for g in group])


def per_element_markov_table(M, group):
    Q = qmc.MarkovState(M.d, M.W_inf, tuple(K.conj().T @ K for K in M.chain), validate=False)
    return np.array([(Q.R_inv @ act_inverse(extend(g, M.N + 1), Q.R)).matrix for g in group])


# ---- the group average as a list, and its checks as probe loops --------------------

N_SWEEP = 200


def list_average(group, a):
    return LocalOperator(a.window, list_tree_sum([act(g, a).matrix for g in group]) / len(group))


def svd_basis(group, window, tol=1e-10):
    """The fixed-point basis: the SVD of the D^2 x D^2 matrix of averaged matrix units."""
    rows = [compact.haar_average(group, a).matrix.flatten() for a in states.matrix_unit_probes(window)]
    _, sing, vh = np.linalg.svd(np.array(rows))
    rank = int(np.sum(sing > tol * sing[0]))
    D = window.total_dim
    return [LocalOperator(window, vh[i].reshape(D, D)) for i in range(rank)]


def loop_module(group, basis, probes):
    """max |E(b a c) - b E(a) c| over the given basis elements and probes
    (E is haar_average, bit-identical to the list form)."""
    E = [compact.haar_average(group, a).matrix for a in probes]
    worst = 0.0
    for b in basis:
        for c in basis:
            for a, Ea in zip(probes, E):
                lhs = compact.haar_average(group, b @ a @ c).matrix
                worst = max(worst, matcore.operator_norm(lhs - b.matrix @ Ea @ c.matrix))
    return worst


def loop_umegaki(group, window, seed=0):
    """The probe-loop Umegaki suite on all matrix units, with the module
    part sampled as it was (four basis elements, every len/8-th probe)."""
    probes = states.matrix_unit_probes(window)
    D = window.total_dim
    E = lambda a: compact.haar_average(group, a)  # noqa: E731
    unital = matcore.operator_norm(E(window.identity()).matrix - np.eye(D))
    idem = pos = 0.0
    for a in probes:
        Ea = E(a)
        idem = max(idem, matcore.operator_norm(E(Ea).matrix - Ea.matrix))
        sq = E(a.dagger() @ a).matrix
        pos = max(pos, max(0.0, -float(np.linalg.eigvalsh((sq + sq.conj().T) / 2.0)[0])))
    fix = svd_basis(group, window)
    module = loop_module(group, fix[:4], probes[::max(1, len(probes) // 8)])
    faithful = np.inf
    for k in range(N_SWEEP):
        a = matcore.random_hermitian(D, seed=seed * 100_003 + k)
        u = LocalOperator(window, a / matcore.operator_norm(a))
        faithful = min(faithful, matcore.operator_norm(E(u.dagger() @ u).matrix))
    return {"idempotence": idem, "unitality": unital, "positivity_defect": pos,
            "module": module, "faithfulness_min": faithful, "fixed_point_rank": len(fix)}


def loop_umegaki_passes(group, window, tol=compact.UMEGAKI_TOL):
    """The probe loop's verdict; a list that is not closed fails idempotence
    at some matrix unit, screened first with the stacked average."""
    for a in states.matrix_unit_probes(window):
        Ea = compact.haar_average(group, a)
        if matcore.operator_norm(compact.haar_average(group, Ea).matrix - Ea.matrix) > tol:
            return False
    laws = loop_umegaki(group, window)
    worst = max(laws["idempotence"], laws["unitality"], laws["positivity_defect"], laws["module"])
    return worst <= tol and laws["faithfulness_min"] > tol


def loop_projective(group_small, group_big, window):
    double = absorb = 0.0
    E = compact.haar_average
    for a in states.matrix_unit_probes(window):
        Eb = E(group_big, a)
        double = max(double, matcore.operator_norm(E(group_big, E(group_small, a)).matrix - Eb.matrix))
        absorb = max(absorb, matcore.operator_norm(E(group_small, Eb).matrix - Eb.matrix))
    return {"double_average": double, "range_absorption": absorb,
            "rank_small": len(svd_basis(group_small, window)),
            "rank_big": len(svd_basis(group_big, window))}


def loop_projective_passes(group_small, group_big, window, tol=compact.UMEGAKI_TOL):
    laws = loop_projective(group_small, group_big, window)
    return (max(laws["double_average"], laws["range_absorption"]) <= tol
            and laws["rank_big"] <= laws["rank_small"])


# ---- the GNS suite as dense D^2 x D^2 matrices ---------------------------------

def permutation_unitary(g, window):
    """The dense oracle: P_g (v_1 (x) ... (x) v_N) = v_{g^-1(1)} (x) ... (x) v_{g^-1(N)}."""
    d, N = window.d, window.N
    dim = d ** N
    ginv = g.inverse()
    # column j with digits (j_1..j_N), site 1 most significant, maps to the
    # basis vector whose digit at site k is the digit of j at site g^-1(k)
    digits = np.empty((dim, N), dtype=np.int64)
    idx = np.arange(dim)
    for k in range(N - 1, -1, -1):
        digits[:, k] = idx % d
        idx = idx // d
    rows = np.zeros(dim, dtype=np.int64)
    for k in range(1, N + 1):
        rows = rows * d + digits[:, ginv(k) - 1]
    P = np.zeros((dim, dim), dtype=complex)
    P[rows, np.arange(dim)] = 1.0
    return P


def _m(a):
    return a.matrix if isinstance(a, LocalOperator) else np.asarray(a, dtype=complex)


class DenseGns:
    """The D^2 x D^2 representation of a faithful state and its verifiers: the
    gram W^T (x) 1, pi(a) = 1 (x) a and U_g = (P_g* s_g)^T (x) P_g, with P_g the
    dense permutation unitary, and each residual the operator norm of a
    D^2 x D^2 matrix."""

    TOL = gns.GNS_TOL

    def __init__(self, phi):
        W = states.full_density(phi)
        self.window = phi.window
        self.D = D = W.shape[0]
        self.gram = np.kron(W.T, np.eye(D))
        self.gram_inv = np.kron(np.linalg.inv(W.T), np.eye(D))
        self.Phi = gns.vec(np.eye(D))

    def pi(self, a):
        return np.kron(np.eye(self.D), _m(a))

    def adjoint(self, M):
        return self.gram_inv @ M.conj().T @ self.gram

    def orthonormal_form(self, M):
        L = np.linalg.cholesky(self.gram)
        return L.conj().T @ M @ np.linalg.inv(L.conj().T)

    def unitaries(self, T, tol=TOL):
        oracle_require_strong(T, tol)
        out = {}
        for g in T.group:
            s = matrix_power(T.entries[g.inverse().image].matrix, 0.5)
            P = permutation_unitary(g, self.window)
            out[g.image] = np.kron((P.conj().T @ s).T, P)
        return out

    def verify_unitaries(self, U, group):
        I = np.eye(self.D * self.D)
        unit = law = adj = 0.0
        for g in group:
            Ug = U[g.image]
            unit = max(unit, matcore.operator_norm(self.adjoint(Ug) @ Ug - I))
            adj = max(adj, matcore.operator_norm(self.adjoint(Ug) - U[g.inverse().image]))
        for g in group:
            for h in group:
                law = max(law, matcore.operator_norm(U[g.image] @ U[h.image] - U[(g * h).image]))
        resid = max(unit, law, adj)
        return {"unitarity": unit, "group_law": law, "adjoint": adj, "residual": resid,
                "pass": resid <= self.TOL}

    def verify_covariance(self, U, group, probes):
        worst = 0.0
        for g in group:
            Ug = U[g.image]
            sharp = self.adjoint(Ug)
            for a in probes:
                lhs = sharp @ self.pi(a) @ Ug
                rhs = self.pi(act(g.inverse(), a))
                worst = max(worst, matcore.operator_norm(lhs - rhs))
        return {"residual": worst, "pass": worst <= self.TOL}

    def lift(self, U, subgroup):
        pairs = [(U[g.image], self.adjoint(U[g.image])) for g in subgroup]
        return lambda X: sum(sharp @ X @ Ug for Ug, sharp in pairs) / len(pairs)

    def verify_lifted_expectation(self, U, subgroup, probes):
        lifted = self.lift(U, subgroup)
        worst = 0.0
        for a in probes:
            average = sum(act(g, a).matrix for g in subgroup) / len(subgroup)
            worst = max(worst, matcore.operator_norm(lifted(self.pi(a)) - self.pi(average)))
        return {"residual": worst, "pass": worst <= self.TOL}

    def cyclicity_rank(self):
        cols = [self.pi(a) @ self.Phi for a in states.matrix_unit_probes(self.window)]
        return int(np.linalg.matrix_rank(np.column_stack(cols), tol=1e-10))


# ---- constructions no program path calls, kept for the facts their tests state ----

class OrderExceeded(QuasinvError):
    pass


def cyclic_shift(N):
    """n -> n+1 mod N, the N-cycle (1 2 ... N)."""
    return Permutation(tuple((n % N) + 1 for n in range(1, N + 1)))


def cyclic_group(g):
    """[g^0, g^1, ..., g^(m-1)] with m the order of g."""
    out = [identity_permutation(g.N)]
    while not (power := g.compose(out[-1])).is_identity():
        out.append(power)
    return out


def propagate_single_generator(x0, g0, n_max):
    """Entries along the powers of one generator:
    x_{g0^n} = x_{g0} g0^-1(x_{g0}) ... g0^-(n-1)(x_{g0})."""
    powers = cyclic_group(g0)
    m = len(powers)
    if n_max > m:
        raise OrderExceeded(f"n_max {n_max} exceeds generator order {m}")
    window = x0.window
    entries = {powers[0].image: window.identity()}
    current = x0
    for n in range(1, n_max + 1):
        entries[powers[n % m].image] = current
        current = current @ act_inverse(powers[n % m], x0)
    return CocycleTable(powers[:n_max + 1], entries, window)


def nonuniqueness_demo(phi, T, *, tol=compact.STRUCTURE_TOL):
    """Two distinct decompositions of the same state.  A positive invertible
    fixed point k (the average of diag(1..2), not a multiple of 1) yields the
    alternative pair (phi_G(k .), kappa k): reconstruction and the cocycle
    identity hold for both pairs, while E_G(kappa^-1) = 1 singles out the
    canonical one."""
    group, window = T.group, T.window
    kap = compact.kappa(T)
    phi_G = compact.invariant_state(phi, group)
    seed = np.diag(np.linspace(1.0, 2.0, window.total_dim))
    k0 = compact.haar_average(group, LocalOperator(window, seed)).matrix
    weight = states.evaluate(phi_G, LocalOperator(window, k0)).real
    k = k0 / weight
    W_G = states.full_density(phi_G)
    phi_G_alt = states.WeightedTraceState(window, W_G @ k)
    kap_alt = LocalOperator(window, kap.matrix @ k)

    canonical = compact.verify_structure(phi, T, tol=tol, decomposition=(phi_G, kap))
    alternative = compact.verify_structure(phi, T, tol=tol, decomposition=(phi_G_alt, kap_alt))
    return {"canonical": canonical, "alternative": alternative, "fixed_point": k,
            "separation": matcore.operator_norm(kap_alt.matrix - kap.matrix)}


def partial_trace_site(W_full, window, site):
    """Reduced density on one site: trace out every other factor."""
    d, N = window.d, window.N
    T = np.asarray(W_full).reshape((d,) * (2 * N))
    keep = site - 1
    others = [k for k in range(N) if k != keep]
    T2 = T.transpose([keep, N + keep] + others + [N + k for k in others])
    T3 = T2.reshape(d, d, d ** (N - 1), d ** (N - 1))
    return np.einsum("ijkk->ij", T3)


def markov_eval(M, a):
    """phi(a) = psi(R* a R) for a supported in [1,N]."""
    if a.window.N > M.N:
        raise SupportTooLarge(f"observable on {a.window.N} sites, chain supports [1,{M.N}]")
    return states.evaluate(M.psi(), M.R.dagger() @ extend_operator(a, M.window) @ M.R)


def unvec(v, D):
    """The inverse of gns.vec: column-stacked v back to a D x D matrix."""
    return matcore.promote(v).reshape((D, D), order="F")


def state_value(R, a):
    """<vec(1), pi(a) vec(1)> = phi(a)."""
    return R.inner(np.eye(R.D), a)


def orthonormal_form(R, M):
    """A D^2 x D^2 operator written in an orthonormalized basis, for
    export: gram-unitaries become plain unitaries.  The Cholesky factor of
    the gram W^T (x) 1 is L (x) 1 with L that of W^T, so the change of
    frame acts on one index of the (D, D, D, D) reshape on each side."""
    D = R.D
    L = np.linalg.cholesky(R.W.T)
    M4 = matcore.promote(M).reshape(D, D, D, D)
    out = np.einsum("ja,aibk,bl->jilk", L.conj().T, M4, np.linalg.inv(L.conj().T),
                    optimize=True)
    return out.reshape(D * D, D * D)


def lift_conditional_expectation(R, U, subgroup):
    """The averaged conjugation X -> (1/|G|) sum_g U_g# X U_g on D^2 x D^2
    operators.  U_g# and U_g* are both b -> g^-1(b) m for a D x D factor m
    (t_g and g^-1(s*)), applied to every column vec(b) of a D^2 x D^2 matrix
    as one stacked gather of its (D^2, D, D) reshape; X U_g = (U_g* X*)*."""
    D = R.D
    s, q = gns._factors(R, U, subgroup)
    s_moved, t = gather(matcore.dagger(s), q), gns._sharp_factors(R, s, q)

    def right_apply(k, m, X):
        return (gather(X.T.reshape(-1, D, D, order="F"), q[k]) @ m[k]).reshape(-1, D * D, order="F").T

    def lifted(X):
        X = matcore.promote(X)
        return sum(right_apply(k, t, right_apply(k, s_moved, X.conj().T).conj().T)
                   for k in range(len(q))) / len(q)

    return lifted
