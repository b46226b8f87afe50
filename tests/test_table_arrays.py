"""The array-backed cocycle table and the group's integer arrays.

The group arrays (product table, inverses, index arrays) are checked
against Permutation.compose, Permutation.inverse and the per-element index
map built by transposing tensor axes.  The table verifiers, which read the
(|G|, D, D) stack through these arrays, are checked against their former
per-pair forms, kept here only as oracles, on D <= 16 tables, clean and with
a planted defect.  Where a check reads every element, residuals agree to
1e-12 and verdicts and witnesses are equal.  Where it certifies all |G|^2
pairs from |G| entries (the cocycle law, the commutators of the strong
bundle, the GNS group law), its residual is an upper bound: it must be at
least the exact per-pair residual, with the same verdict, and a failing
witness must hold the planted element.  The power relation, certified from
the inverse relation, is an upper bound on the exact per-element form in the
same way (its witness the planted element or its inverse); it raises the same
error, and on a clean table, where both are round-off, the two agree to
AGREE scaled by the spectral range (roundoff).
"""

import numpy as np
import pytest

from quasinv import cocycle, compact, gns, lattice, matcore, qmc, states
from quasinv.cocycle import CocycleTable
from quasinv.errors import GroupNotClosed, QuasinvError
from quasinv.lattice import (
    LocalOperator,
    Window,
    act,
    cyclic_shift,
    enumerate_group,
    extend,
    identity_permutation,
    support,
    transposition,
)

from test_group_action import old_gram_defect, old_sharp_factor
from test_group_average import list_tree_sum

AGREE = 1e-12
TOL = 1e-8


# ---- the group arrays -------------------------------------------------------

def axes_index_map(g, d):
    """q with g(a) = a[q][:, q]: the row-major index array with its tensor
    axes permuted by g^-1, one permutation at a time."""
    axes = g.inverse().image
    return np.arange(d ** g.N).reshape((d,) * g.N).transpose([n - 1 for n in axes]).reshape(-1)


def position_oracle(group):
    at = {g.image: i for i, g in enumerate(group)}
    mul = np.array([[at.get(g.compose(h).image, -1) for h in group] for g in group])
    inv = np.array([at.get(g.inverse().image, -1) for g in group])
    return mul, inv


GROUPS = {
    **{f"S{k}": (enumerate_group(k), k) for k in range(1, 7)},
    "S4-stabilizer": ([g for g in enumerate_group(4) if g(4) == 4], 4),
    "S3-in-4-sites": ([extend(g, 4) for g in enumerate_group(3)], 4),
    "S2-in-5-sites": ([extend(g, 5) for g in enumerate_group(2)], 5),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_table_matches_compose_and_inverse(name):
    group, _ = GROUPS[name]
    mul, inv = lattice.group_table(group)
    want_mul, want_inv = position_oracle(group)
    assert np.array_equal(mul, want_mul)
    assert np.array_equal(inv, want_inv)
    assert not mul.flags.writeable and not inv.flags.writeable


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("d", [2, 3])
def test_group_index_matches_the_axes_index_map(name, d):
    group, N = GROUPS[name]
    if d ** N > 256:
        pytest.skip("window above the size this check covers")
    Q = lattice.group_index(group, Window(d, N))
    assert Q.shape == (len(group), d ** N)
    assert not Q.flags.writeable
    for q, g in zip(Q, group):
        assert np.array_equal(q, axes_index_map(g, d))


def test_argsort_of_an_index_row_is_the_inverse_index():
    group = enumerate_group(4)
    Q = lattice.group_index(group, Window(2, 4))
    _, inv = lattice.group_table(group)
    assert np.array_equal(np.argsort(Q, axis=1), Q[inv])


def test_non_closed_lists_mark_what_they_lack():
    c = cyclic_shift(3)
    t12, t23 = transposition(3, 1, 2), transposition(3, 2, 3)
    for group in ([identity_permutation(3), c], [identity_permutation(3), t12, t23]):
        mul, inv = lattice._group_table(tuple(g.image for g in group))
        want_mul, want_inv = position_oracle(group)
        assert np.array_equal(mul, want_mul) and np.array_equal(inv, want_inv)
        assert (mul < 0).any()
        with pytest.raises(GroupNotClosed):
            lattice.group_table(group)
    # closed under inverses but not under products
    assert (lattice._group_table(((1, 2, 3), (2, 1, 3), (1, 3, 2)))[1] >= 0).all()


def test_positions_of_elements_in_a_list():
    group = enumerate_group(3)
    sub = [g for g in group if g(3) == 3][::-1] + [transposition(3, 1, 2)]
    pos = lattice.positions(group, sub)
    assert [group[i] for i in pos] == sub
    assert list(lattice.positions(sub[:2], group)).count(-1) == len(group) - 2
    assert lattice.positions(group, []).shape == (0,)


def test_group_arrays_are_built_once_per_list():
    group, window = enumerate_group(5), Window(2, 5)
    assert lattice.group_index(group, window) is lattice.group_index(list(group), window)
    assert lattice.group_table(group)[0] is lattice.group_table(tuple(group))[0]
    hits = lattice._group_index.cache_info().hits
    lattice.group_index(group, window)
    assert lattice._group_index.cache_info().hits == hits + 1


def test_cyclic_group_lists_the_powers():
    c = cyclic_shift(4)
    powers = lattice.cyclic_group(c)
    assert len(powers) == 4 and powers[0].is_identity()
    for k in range(1, 4):
        assert powers[k] == c.compose(powers[k - 1])
    assert lattice.cyclic_group(identity_permutation(3)) == [identity_permutation(3)]


# ---- the stack --------------------------------------------------------------

def diag_product(N, seed, d=2):
    rng = np.random.Generator(np.random.Philox(seed))
    ws = []
    for _ in range(N):
        w = rng.uniform(0.2, 0.8, size=d)
        ws.append(np.diag(w / w.sum()))
    return states.product_state(d, ws)


def test_entries_are_read_only_views_of_the_stack():
    phi = diag_product(3, 1)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    assert T.stack.shape == (6, 8, 8) and not T.stack.flags.writeable
    for i, (g, x) in enumerate(T):
        assert x is T.entry(g) is T.entries[g.image]
        assert np.shares_memory(x.matrix, T.stack) and np.array_equal(x.matrix, T.stack[i])
    with pytest.raises(ValueError):
        T.entries[T.group[1].image].matrix[0, 0] = 2.0


def test_a_mapping_is_copied_into_one_stack():
    phi = diag_product(2, 2)
    T = cocycle.product_state_cocycle(phi, enumerate_group(2))
    T2 = CocycleTable(T.group[::-1], dict(T.entries), T.window)
    assert np.array_equal(T2.stack, T.stack[::-1])
    assert not np.shares_memory(T2.stack, T.stack)


def test_a_group_element_without_an_entry_is_refused():
    T = cocycle.product_state_cocycle(diag_product(2, 3), enumerate_group(2))
    entries = {T.group[0].image: T.entry(T.group[0])}
    with pytest.raises(GroupNotClosed):
        CocycleTable(T.group, entries, T.window)


def test_scale_is_computed_once():
    T = cocycle.product_state_cocycle(diag_product(3, 4), enumerate_group(3))
    want = max(1.0, max(matcore.operator_norm(x.matrix) for _, x in T))
    assert T.scale() == want
    assert "rotated" in vars(T)  # the pass that holds the facts


def test_verifiers_refuse_a_list_without_inverses():
    T = cocycle.propagate_single_generator(Window(2, 3).identity(), cyclic_shift(3), 1)
    assert len(T.group) == 2
    for check in (cocycle.verify_cocycle_law, cocycle.verify_inverse_relation,
                  cocycle.power_relation_check):
        with pytest.raises(GroupNotClosed):
            check(T)


# ---- oracles: the per-pair forms over image-keyed entries --------------------

def old_cocycle_law(T):
    worst, witness = 0.0, None
    for g2 in T.group:
        for g1 in T.group:
            lhs = T.entries[(g2 * g1).image].matrix
            rhs = (T.entries[g1.image] @ act(g1.inverse(), T.entries[g2.image])).matrix
            r = matcore.operator_norm(lhs - rhs)
            if r > worst:
                worst, witness = r, {"g2": list(g2.image), "g1": list(g1.image)}
    return worst, witness


def old_inverse_relation(T):
    I = np.eye(T.window.total_dim)
    worst, witness = 0.0, None
    for g in T.group:
        x_g, x_ginv = T.entries[g.image], T.entries[g.inverse().image]
        r = matcore.operator_norm((x_g @ act(g.inverse(), x_ginv)).matrix - I)
        if r > worst:
            worst, witness = r, {"g": list(g.image)}
    return worst, witness


def old_power_relation(T, s_list=(0.5, 1.0, 2.0)):
    worst, witness = 0.0, None
    for g in T.group:
        x_ginv = T.entries[g.inverse().image].matrix
        for s in s_list:
            lhs = matcore.matrix_power(T.entries[g.image].matrix, -s)
            rhs = act(g.inverse(), LocalOperator(T.window, matcore.matrix_power(x_ginv, s)))
            r = matcore.operator_norm(lhs - rhs.matrix)
            if r > worst:
                worst, witness = r, {"g": list(g.image), "s": s}
    return worst, witness


def old_strong_parts(T):
    herm = max(matcore.herm_defect(T.entries[g.image].matrix) for g in T.group)
    comm, witness = 0.0, None
    for g in T.group:
        for h in T.group:
            xg, xh = T.entries[g.image].matrix, T.entries[h.image].matrix
            r = matcore.operator_norm(xg @ xh - xh @ xg)
            if r > comm:
                comm, witness = r, {"g": list(g.image), "h": list(h.image)}
    return herm, comm, witness


def old_locally_trivial(T, N):
    sub = [g for g in T.group if support(g) <= set(range(1, N + 1))]
    avg = sum(T.entries[g.image].matrix for g in sub) / len(sub)
    kappa = LocalOperator(T.window, avg)
    kinv = LocalOperator(T.window, matcore.inv(avg))
    return max(matcore.operator_norm(T.entries[g.image].matrix
                                     - (kappa @ act(g.inverse(), kinv)).matrix) for g in sub)


def old_structure_match(T, kap):
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


def old_restriction(phi, T, subgroups):
    worst, witness = 0.0, None
    for idx, sub in enumerate(subgroups):
        for g in sub:
            r = matcore.operator_norm(T.entries[g.image].matrix
                                      - compact.intrinsic_entry(phi, g).matrix)
            if r > worst:
                worst, witness = r, {"subgroup": idx, "g": list(g.image)}
    return worst, witness


def old_unitaries(R, T):
    return {g.image: matcore.matrix_power(T.entries[g.inverse().image].matrix, 0.5)
            for g in T.group}


def old_verify_unitaries(R, U, group):
    unit = adj = law = 0.0
    for g in group:
        Ug = U[g.image]
        unit = max(unit, matcore.operator_norm(old_gram_defect(R, Ug)))
        adj = max(adj, matcore.operator_norm(old_sharp_factor(R, Ug)
                                             - U[g.inverse().image].s.matrix))
    for g in group:
        for h in group:
            lhs = act(g, U[h.image].s) @ U[g.image].s
            law = max(law, matcore.operator_norm(lhs.matrix - U[(g * h).image].s.matrix))
    return unit, law, adj


# ---- inputs: D <= 16 tables -------------------------------------------------

def product_case(k, seed):
    phi = diag_product(k, seed)
    return phi, cocycle.product_state_cocycle(phi, enumerate_group(k))


def trivial_case(N, seed):
    window, group = Window(2, N), enumerate_group(N)
    rng = np.random.Generator(np.random.Philox(seed))
    h = np.diag(rng.uniform(0.0, 1.0, size=window.total_dim))
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    kinv = np.eye(window.total_dim) + 0.5 * centered / max(1.0, matcore.operator_norm(centered))
    phi_G = states.homogeneous_state(2, N, np.eye(2) / 2)
    return compact.converse_construct(phi_G, LocalOperator(window, kinv), group)


def markov_case(N, seed):
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(N, seed))
    return qmc.markov_functional(M), qmc.x_cocycle_table(M, enumerate_group(N))


def plant(T, eps):
    """eps on the (0, -1) and (-1, 0) entries of the first non-identity
    entry: still hermitean and positive, so every check can run."""
    i = next(i for i, g in enumerate(T.group) if not g.is_identity())
    stack = T.stack.copy()
    stack[i, 0, -1] += eps
    stack[i, -1, 0] += eps
    return CocycleTable(T.group, stack, T.window)


CASES = {
    "product-S2": lambda: product_case(2, 1),
    "product-S3": lambda: product_case(3, 2),
    "product-S4": lambda: product_case(4, 3),
    "trivial-S3": lambda: trivial_case(3, 4),
    "trivial-S4": lambda: trivial_case(4, 5),
    "markov-S3": lambda: markov_case(3, 6),
}
# non-diagonal site densities: entries neither hermitean nor commuting
ROTATED = {
    "rotated-S3": lambda: rotated_case(3, 7),
}
EPS = [0.0, 1e-3]


def rotated_case(N, seed):
    phi = states.product_state(
        2, [matcore.random_density(2, 0.1, seed=seed * 31 + k) for k in range(N)])
    return phi, cocycle.product_state_cocycle(phi, enumerate_group(N))


def case(name, eps):
    phi, T = {**CASES, **ROTATED}[name]()
    return phi, (plant(T, eps) if eps else T)


def assert_same(rep, want, witness):
    assert abs(rep.residual - want) <= AGREE
    assert rep.passed == (want <= TOL)
    assert rep.witness == (witness if want > TOL else None)


def planted_element(T):
    return list(next(g for g in T.group if not g.is_identity()).image)


def assert_bounds_law(rep, want, T, eps):
    """The certified law residual bounds the exact one, with the same verdict;
    a failing witness is a pair that holds the planted element."""
    assert rep.residual >= want
    assert rep.passed == (want <= TOL)
    assert rep.details["method"] == "certificate"
    assert (rep.witness is None) == rep.passed
    if eps:
        assert planted_element(T) in rep.witness.values()


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_table_laws_match_the_per_pair_forms(name, eps):
    phi, T = case(name, eps)
    assert_bounds_law(cocycle.verify_cocycle_law(T, tol=TOL), old_cocycle_law(T)[0], T, eps)
    assert_same(cocycle.verify_inverse_relation(T, tol=TOL), *old_inverse_relation(T))
    assert_certifies(T, planted=[planted_position(T)] if eps else [])
    if eps:
        assert old_cocycle_law(T)[0] > TOL and old_inverse_relation(T)[0] > TOL


def outcome(check, T, s_list):
    try:
        return check(T, s_list)
    except QuasinvError as exc:
        return type(exc), str(exc)


def new_power_relation(T, s_list):
    rep = cocycle.power_relation_check(T, s_list, tol=TOL)
    return rep.residual, rep.witness


def roundoff(T, s_list):
    """AGREE Lambda^(t+1), t the largest |s| and Lambda the largest ||H_g||,
    1/min |eig H_g| or 1: how far round-off moves the exact residual and the
    bound on a table whose true residual is round-off."""
    lam = max(max(np.abs(f.eig).max(), 1.0 / np.abs(f.eig).min(), 1.0) for f in T.facts)
    return AGREE * lam ** (max(map(abs, s_list), default=0.0) + 1.0)


def planted_position(T):
    return next(i for i, g in enumerate(T.group) if not g.is_identity())


def assert_certifies(T, s_list=(0.5, 1.0, 2.0), planted=()):
    """The certified power relation against the per-element form: the same
    error (type and message); else the same verdict, within roundoff where both
    pass, and where both fail a residual at least the exact one (to AGREE
    relative) with the witness g at a planted position or its inverse."""
    want = outcome(old_power_relation, T, s_list)
    got = outcome(new_power_relation, T, s_list)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    (r, witness), (w, _) = got, want
    assert (r <= TOL) == (w <= TOL)
    if w <= TOL:
        assert abs(r - w) <= roundoff(T, s_list) and witness is None
    else:
        assert r >= w * (1.0 - AGREE)
        inv = lattice.group_table(T.group)[1]
        assert witness["g"] in [list(T.group[k].image) for k in [*planted, *inv[list(planted)]]]


def broken(T, changes):
    """T with entry k replaced: "negated" to -(k + 1) x_k, hermitean but not
    positive, with a min eigenvalue that names k; "skewed" off hermitean."""
    stack = T.stack.copy()
    for k, kind in changes:
        stack[k] = -(k + 1.0) * stack[k] if kind == "negated" else stack[k] + np.triu(
            np.full_like(stack[k], 1e-3), 1)
    return CocycleTable(T.group, stack, T.window)


S_LISTS = [(0.5, 1.0, 2.0), (1.0, 2.0), (-1.0, 0.0, 2.0)]


def rotated_strong_case(N, seed, d=2):
    """diag_product with every weight turned to u w u* by one seeded unitary u:
    the entries u^(x)N diag u^(x)N* are strong but not diagonal, so the
    eigenbasis overlaps of the power relation are dense."""
    u = np.linalg.qr(matcore.random_matrix(d, seed))[0]
    phi = states.product_state(d, [u @ w @ u.conj().T for w in diag_product(N, seed, d).weights])
    return cocycle.product_state_cocycle(phi, enumerate_group(N))


ROTATED_STRONG = {
    "rotated-strong-S3": lambda: rotated_strong_case(3, 11),
    "rotated-strong-S4": lambda: rotated_strong_case(4, 12),
    "rotated-strong-d3-S2": lambda: rotated_strong_case(2, 13, d=3),
}


@pytest.mark.parametrize("eps", [0.0, 1e-6])
@pytest.mark.parametrize("name", sorted(ROTATED_STRONG))
def test_power_relation_on_non_diagonal_strong_tables_matches_the_per_element_form(name, eps):
    T = ROTATED_STRONG[name]()
    assert max(matcore.operator_norm(x - np.diag(np.diag(x))) for x in T.stack) > 1e-2
    T = plant(T, eps) if eps else T
    planted = [planted_position(T)] if eps else []
    assert_certifies(T, planted=planted)
    assert (old_power_relation(T)[0] > TOL) == bool(eps)
    for s_list in S_LISTS:
        assert_certifies(T, s_list, planted)


def test_power_relation_decomposes_no_entry(monkeypatch):
    # the bound reads the spectra in T.facts: no eigh, no decomposition, no power
    _, T = product_case(4, 3)
    T = plant(T, 1e-3)
    T.facts
    calls = []
    for module, name in ((matcore, "spectral_decompose"), (matcore, "matrix_power"),
                         (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
    for s_list in S_LISTS:
        assert not cocycle.power_relation_check(T, s_list).passed
    assert not calls


def test_power_relation_at_s_zero_is_exactly_zero_undecomposed(monkeypatch):
    # x^0 = 1 on both sides, for any entry: nothing is decomposed, nothing raised
    _, T = product_case(3, 2)
    T = broken(T, [(1, "skewed"), (2, "negated")])
    calls = []
    monkeypatch.setattr(matcore, "spectral_decompose", lambda H, **kw: calls.append(1))
    rep = cocycle.power_relation_check(T, (0.0,))
    assert rep.residual == 0.0 and rep.passed and not calls


@pytest.mark.parametrize("s_list", S_LISTS)
def test_power_relation_raises_what_the_per_element_form_raises(s_list):
    # the relations of g^-1 are taken together with those of g; whichever
    # error the per-element form meets first must still be the one raised
    _, T = product_case(3, 2)
    kinds = ("negated", "skewed")
    for a in range(len(T.group)):
        for b in range(len(T.group)):
            for kind_a in kinds:
                for kind_b in kinds:
                    assert_certifies(broken(T, [(a, kind_a), (b, kind_b)]), s_list, [a, b])


@pytest.mark.parametrize("s_list", S_LISTS)
def test_power_relation_defers_the_error_of_an_inverse_met_early(s_list):
    # S_4 has pairs g, g^-1 far apart in the list: with x_{g^-1} and an entry
    # between them broken, the entry between is met first
    _, T = product_case(4, 3)
    inv = lattice.group_table(T.group)[1]
    pairs = [(i, j) for i, j in enumerate(inv) if j > i + 1]
    assert pairs
    for i, j in pairs:
        for k in range(i + 1, j):
            assert_certifies(broken(T, [(j, "negated"), (k, "negated")]), s_list, [j, k])


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ROTATED))
def test_laws_on_non_hermitean_tables_match_the_per_pair_forms(name, eps):
    phi, T = case(name, eps)
    assert_bounds_law(cocycle.verify_cocycle_law(T, tol=TOL), old_cocycle_law(T)[0], T, eps)
    assert_same(cocycle.verify_inverse_relation(T, tol=TOL), *old_inverse_relation(T))


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES) + sorted(ROTATED))
def test_strong_bundle_matches_the_per_pair_form(name, eps):
    # the hermitean plant commutes with the diagonal entries of CASES; a
    # failing witness is a pair of entries that do not commute, or, with no
    # such pair, the planted entry as the worst of a failing sub-law
    phi, T = case(name, eps)
    rep = cocycle.verify_strong(T, phi, tol=TOL)
    herm, comm, _ = old_strong_parts(T)
    assert abs(rep.details["hermiticity"] - herm) <= AGREE
    assert rep.details["commutators"] >= comm
    assert (rep.details["commutators"] > TOL) == (comm > TOL)
    if comm > TOL:
        xg, xh = (T.entries[tuple(rep.witness[k])].matrix for k in ("g", "h"))
        assert matcore.operator_norm(xg @ xh - xh @ xg) > TOL
    elif rep.passed:
        assert rep.witness is None
    else:
        assert rep.witness == {"g": planted_element(T), "part": rep.witness["part"]}
    if name in ROTATED:
        assert comm > TOL and herm > TOL


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_locally_trivial_matches_the_per_subgroup_form(name, eps):
    phi, T = case(name, eps)
    N = T.window.N
    sizes = list(range(2, min(N, T.group[0].N) + 1))
    for rep, n in zip(cocycle.locally_trivial_check(T, sizes, tol=TOL), sizes):
        assert abs(rep.residual - old_locally_trivial(T, n)) <= AGREE


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_structure_checks_match_the_per_element_forms(name, eps):
    phi, T_clean = case(name, 0.0)
    T = plant(T_clean, eps) if eps else T_clean
    kap = compact.kappa(T_clean)
    want = _tree_sum_oracle(T_clean)
    assert np.array_equal(kap.matrix, want)
    decomposition = (compact.invariant_state(phi, T.group), kap)
    rep = compact.verify_structure(phi, T, decomposition=decomposition)
    match, witness, commut = old_structure_match(T, kap)
    assert abs(rep.details["cocycle_match"] - match) <= AGREE
    assert abs(rep.details["commutation"] - commut) <= AGREE
    if match > compact.STRUCTURE_TOL:
        assert rep.witness == witness
    sub = [g for g in T.group if g(1) == 1]
    got = compact.restriction_consistency(phi, T, [sub, list(T.group)])
    want_r, want_w = old_restriction(phi, T, [sub, list(T.group)])
    assert abs(got.residual - want_r) <= AGREE
    assert got.witness == (want_w if want_r > compact.STRUCTURE_TOL else None)


def _tree_sum_oracle(T):
    avg = list_tree_sum([T.entries[g.image].matrix for g in T.group]) / len(T.group)
    return (avg + avg.conj().T) / 2.0


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_gns_unitaries_match_the_per_pair_forms(name, eps):
    phi, T = case(name, eps)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    want = old_unitaries(R, T)
    for g in T.group:
        assert np.array_equal(U[g.image].s.matrix, want[g.image])
    got = gns.verify_unitaries(R, U, T.group)
    unit, law, adj = old_verify_unitaries(R, U, T.group)
    assert (got["unitarity"], got["adjoint"]) == (unit, adj)
    assert got["group_law"] >= law
    assert (got["group_law"] <= gns.GNS_TOL) == (law <= gns.GNS_TOL)
    if eps:
        assert law > gns.GNS_TOL

