"""The array-backed cocycle table and the group's integer arrays.

The group arrays (product table, inverses, index arrays) are checked
against Permutation.compose, Permutation.inverse and the per-element index
map built by transposing tensor axes.  The table verifiers, which read the
(|G|, D, D) stack through these arrays, are checked against their former
per-pair forms, kept in tests/oracles.py, on D <= 16 tables, clean and with
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

from quasinv import cocycle, compact, gns, lattice, matcore
from quasinv.cocycle import CocycleTable
from quasinv.errors import GroupNotClosed
from quasinv.lattice import (
    Window,
    enumerate_group,
    extend,
    identity_permutation,
    transposition,
)

from oracles import (
    AGREE, ARRAY_CASES, ARRAY_ROTATED, ROTATED_STRONG, array_case, broken, cyclic_group, cyclic_shift,
    diag_product, diag_table, hermitean_plant, intrinsic_restriction, matrix_power_relation, outcome, pairwise_cocycle_law,
    pairwise_strong_parts, pairwise_verify_unitaries, per_element_inverse_relation,
    per_element_structure_match, per_subgroup_locally_trivial, power_unitaries,
    propagate_single_generator, roundoff, tree_sum_kappa,
)

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
    powers = cyclic_group(c)
    assert len(powers) == 4 and powers[0].is_identity()
    for k in range(1, 4):
        assert powers[k] == c.compose(powers[k - 1])
    assert cyclic_group(identity_permutation(3)) == [identity_permutation(3)]


# ---- the stack --------------------------------------------------------------

def test_entries_are_read_only_views_of_the_stack():
    phi = diag_product(2, 3, 1)
    T = cocycle.product_state_cocycle(phi, enumerate_group(3))
    assert T.stack.shape == (6, 8, 8) and not T.stack.flags.writeable
    for i, (g, x) in enumerate(T):
        assert x is T.entry(g) is T.entries[g.image]
        assert np.shares_memory(x.matrix, T.stack) and np.array_equal(x.matrix, T.stack[i])
    with pytest.raises(ValueError):
        T.entries[T.group[1].image].matrix[0, 0] = 2.0


def test_a_mapping_is_copied_into_one_stack():
    phi = diag_product(2, 2, 2)
    T = cocycle.product_state_cocycle(phi, enumerate_group(2))
    T2 = CocycleTable(T.group[::-1], dict(T.entries), T.window)
    assert np.array_equal(T2.stack, T.stack[::-1])
    assert not np.shares_memory(T2.stack, T.stack)


def test_a_group_element_without_an_entry_is_refused():
    T = cocycle.product_state_cocycle(diag_product(2, 2, 3), enumerate_group(2))
    entries = {T.group[0].image: T.entry(T.group[0])}
    with pytest.raises(GroupNotClosed):
        CocycleTable(T.group, entries, T.window)


def test_scale_is_computed_once():
    T = cocycle.product_state_cocycle(diag_product(2, 3, 4), enumerate_group(3))
    want = max(1.0, max(matcore.operator_norm(x.matrix) for _, x in T))
    assert T.scale() == want
    assert "rotated" in vars(T)  # the pass that holds the facts


def test_verifiers_refuse_a_list_without_inverses():
    T = propagate_single_generator(Window(2, 3).identity(), cyclic_shift(3), 1)
    assert len(T.group) == 2
    for check in (cocycle.verify_cocycle_law, cocycle.verify_inverse_relation,
                  cocycle.power_relation_check):
        with pytest.raises(GroupNotClosed):
            check(T)


# ---- the table laws against their per-pair forms -----------------------------

EPS = [0.0, 1e-3]


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
@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_table_laws_match_the_per_pair_forms(name, eps):
    phi, T = array_case(name, eps)
    assert_bounds_law(cocycle.verify_cocycle_law(T, tol=TOL), pairwise_cocycle_law(T)[0], T, eps)
    assert_same(cocycle.verify_inverse_relation(T, tol=TOL), *per_element_inverse_relation(T))
    assert_certifies_matrix_power(T, planted=[planted_position(T)] if eps else [])
    if eps:
        assert pairwise_cocycle_law(T)[0] > TOL and per_element_inverse_relation(T)[0] > TOL


def new_power_relation(T, s_list):
    rep = cocycle.power_relation_check(T, s_list, tol=TOL)
    return rep.residual, rep.witness


def planted_position(T):
    return next(i for i, g in enumerate(T.group) if not g.is_identity())


def assert_certifies_matrix_power(T, s_list=(0.5, 1.0, 2.0), planted=()):
    """The certified power relation against the per-element form: the same
    error (type and message); else the same verdict, within roundoff where both
    pass, and where both fail a residual at least the exact one (to AGREE
    relative) with the witness g at a planted position or its inverse."""
    want = outcome(matrix_power_relation, T, s_list)
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


S_LISTS = [(0.5, 1.0, 2.0), (1.0, 2.0), (-1.0, 0.0, 2.0)]


@pytest.mark.parametrize("eps", [0.0, 1e-6])
@pytest.mark.parametrize("name", sorted(ROTATED_STRONG))
def test_power_relation_on_non_diagonal_strong_tables_matches_the_per_element_form(name, eps):
    T = ROTATED_STRONG[name]()
    assert max(matcore.operator_norm(x - np.diag(np.diag(x))) for x in T.stack) > 1e-2
    T = hermitean_plant(T, eps)[1] if eps else T
    planted = [planted_position(T)] if eps else []
    assert_certifies_matrix_power(T, planted=planted)
    assert (matrix_power_relation(T)[0] > TOL) == bool(eps)
    for s_list in S_LISTS:
        assert_certifies_matrix_power(T, s_list, planted)


def test_power_relation_decomposes_no_entry(monkeypatch):
    # the bound reads the spectra in T.facts: no eigh, no decomposition, no power
    _, T = diag_table(2, 4, 3)
    T = hermitean_plant(T, 1e-3)[1]
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
    _, T = diag_table(2, 3, 2)
    T = broken(T, [(1, "skewed"), (2, "negated")])
    calls = []
    monkeypatch.setattr(matcore, "spectral_decompose", lambda H, **kw: calls.append(1))
    rep = cocycle.power_relation_check(T, (0.0,))
    assert rep.residual == 0.0 and rep.passed and not calls


@pytest.mark.parametrize("s_list", S_LISTS)
def test_power_relation_raises_what_the_per_element_form_raises(s_list):
    # the relations of g^-1 are taken together with those of g; whichever
    # error the per-element form meets first must still be the one raised
    _, T = diag_table(2, 3, 2)
    kinds = ("negated", "skewed")
    for a in range(len(T.group)):
        for b in range(len(T.group)):
            for kind_a in kinds:
                for kind_b in kinds:
                    assert_certifies_matrix_power(broken(T, [(a, kind_a), (b, kind_b)]), s_list, [a, b])


@pytest.mark.parametrize("s_list", S_LISTS)
def test_power_relation_defers_the_error_of_an_inverse_met_early(s_list):
    # S_4 has pairs g, g^-1 far apart in the list: with x_{g^-1} and an entry
    # between them broken, the entry between is met first
    _, T = diag_table(2, 4, 3)
    inv = lattice.group_table(T.group)[1]
    pairs = [(i, j) for i, j in enumerate(inv) if j > i + 1]
    assert pairs
    for i, j in pairs:
        for k in range(i + 1, j):
            assert_certifies_matrix_power(broken(T, [(j, "negated"), (k, "negated")]), s_list, [j, k])


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ARRAY_ROTATED))
def test_laws_on_non_hermitean_tables_match_the_per_pair_forms(name, eps):
    phi, T = array_case(name, eps)
    assert_bounds_law(cocycle.verify_cocycle_law(T, tol=TOL), pairwise_cocycle_law(T)[0], T, eps)
    assert_same(cocycle.verify_inverse_relation(T, tol=TOL), *per_element_inverse_relation(T))


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ARRAY_CASES) + sorted(ARRAY_ROTATED))
def test_strong_bundle_matches_the_per_pair_form(name, eps):
    # the hermitean plant commutes with the diagonal entries of ARRAY_CASES; a
    # failing witness is a pair of entries that do not commute, or, with no
    # such pair, the planted entry as the worst of a failing sub-law
    phi, T = array_case(name, eps)
    rep = cocycle.verify_strong(T, phi, tol=TOL)
    herm, comm, _ = pairwise_strong_parts(T)
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
    if name in ARRAY_ROTATED:
        assert comm > TOL and herm > TOL


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_locally_trivial_matches_the_per_subgroup_form(name, eps):
    phi, T = array_case(name, eps)
    N = T.window.N
    sizes = list(range(2, min(N, T.group[0].N) + 1))
    for rep, n in zip(cocycle.locally_trivial_check(T, sizes, tol=TOL), sizes):
        assert abs(rep.residual - per_subgroup_locally_trivial(T, n)) <= AGREE


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_structure_checks_match_the_per_element_forms(name, eps):
    phi, T_clean = array_case(name, 0.0)
    T = hermitean_plant(T_clean, eps)[1] if eps else T_clean
    kap = compact.kappa(T_clean)
    want = tree_sum_kappa(T_clean)
    assert np.array_equal(kap.matrix, want)
    decomposition = (compact.invariant_state(phi, T.group), kap)
    rep = compact.verify_structure(phi, T, decomposition=decomposition)
    match, witness, commut = per_element_structure_match(T, kap)
    assert abs(rep.details["cocycle_match"] - match) <= AGREE
    assert abs(rep.details["commutation"] - commut) <= AGREE
    if match > compact.STRUCTURE_TOL:
        assert rep.witness == witness
    sub = [g for g in T.group if g(1) == 1]
    got = compact.restriction_consistency(phi, T, [sub, list(T.group)])
    want_r, want_w = intrinsic_restriction(phi, T, [sub, list(T.group)])
    assert abs(got.residual - want_r) <= AGREE
    assert got.witness == (want_w if want_r > compact.STRUCTURE_TOL else None)


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_gns_unitaries_match_the_per_pair_forms(name, eps):
    phi, T = array_case(name, eps)
    R = gns.build_gns(phi)
    U = gns.build_unitaries(R, T)
    want = power_unitaries(R, T)
    for g in T.group:
        assert np.array_equal(U[g.image].s.matrix, want[g.image])
    got = gns.verify_unitaries(R, U, T.group)
    unit, law, adj = pairwise_verify_unitaries(R, U, T.group)
    assert (got["unitarity"], got["adjoint"]) == (unit, adj)
    assert got["group_law"] >= law
    assert (got["group_law"] <= gns.GNS_TOL) == (law <= gns.GNS_TOL)
    if eps:
        assert law > gns.GNS_TOL

