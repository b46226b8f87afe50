"""The table checks in blocked stacked form: probes, subgroups, s lists, and the blocks.

Every check reads the (|G|, D, D) table in blocks of rows, one stacked
LAPACK/BLAS call per block.  Each check against its per-entry loop over the
registered tables, clean, with the CLI's plant and with a negated entry, is a row
of tests/test_differential.py; here are the forms that take more than a table:
the strong check and the centralizer transport on probe lists, the matrix-unit
probes against the complete pairing, the subgroup rows of local triviality and
the restriction, and the power relation on s lists and on tables broken at two
entries, each against its per-entry loop in tests/oracles.py.  The power
relation is certified from the inverse relation, so against its exact loop it
raises the same error, or gives the same verdict with a residual at least the
exact one, and it equals the certified bound's own (entry, s) loop bit for bit.
The same holds for the convergence series read from one pass over the spectra,
and each check's temporaries stay a fraction of the table.
"""

import tracemalloc

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, limits, matcore, states
from quasinv.errors import SizeMismatch
from quasinv.lattice import LocalOperator, Window, group_index, group_table, support

from oracles import (
    assert_certifies, broken, case_table, eigenbasis_power_relation, family, first_moved, generic_product,
    loop_power_relation, outcome, per_entry_cocycle_law, per_entry_inverse_relation,
    per_entry_locally_trivial, per_entry_restriction, per_entry_strong, per_entry_transport, product_case,
    reads_exact, rotated_product, same, sign_table, stepwise_series,
)

SMALL = [name for name in family("blocked") if "D32" not in name]


def probes(window, count=3):
    return [LocalOperator(window, matcore.random_hermitian(window.total_dim, seed=41 + k))
            for k in range(count)]


@pytest.mark.parametrize("plant", ["clean", "cli"])
@pytest.mark.parametrize("name", SMALL)
def test_checks_on_probes_equal_their_per_entry_loops(name, plant):
    phi, T = case_table(name, plant)
    P = probes(T.window)
    reads_exact(cocycle.verify_strong(T, phi, P), per_entry_strong(T, phi, P), T)
    x = LocalOperator(T.window, states.full_density(phi))  # W is in its own centralizer
    same(outcome(cocycle.verify_centralizer_transport, phi, T, x),
         outcome(per_entry_transport, phi, T, x), T)


@pytest.mark.parametrize("plant", ["clean", "cli"])
@pytest.mark.parametrize("name", SMALL)
def test_matrix_unit_probes_pair_as_the_complete_form(name, plant):
    # Tr(M e_ij) = M_ji exactly: one nonzero product in each pairing
    phi, T = case_table(name, plant)
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
                 outcome(per_entry_transport, phi, T, x, tau), T)


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
    assert len(blocks) > 1 and all(P.nbytes <= matcore.BLOCK_BYTES for P in blocks)
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
    assert peak < M.nbytes + 4 * matcore.BLOCK_BYTES < sum(a.matrix.nbytes for a in probes)
    want = [max(abs(np.einsum("ij,ji->", m, a.matrix)) for a in probes) for m in M]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("plant", ["clean", "cli"])
@pytest.mark.parametrize("name", family("blocked"))
def test_subgroup_rows_equal_the_per_entry_loops(name, plant):
    phi, T = case_table(name, plant)
    sizes = list(range(1, T.window.N + 2))  # N 1: the identity alone; past the window: all
    for got, want in zip(cocycle.locally_trivial_check(T, sizes), per_entry_locally_trivial(T, sizes),
                         strict=True):
        same(got, want, T)
    assert states.is_faithful(phi)[0]
    m = max(max(support(g), default=1) for g in T.group)
    subgroups = [[g for g in T.group if g(m) == m][::-1], [g for g in T.group if g(1) == 1],
                 list(T.group)]
    assert outcome(compact.restriction_consistency, phi, T, subgroups) == outcome(
        per_entry_restriction, phi, T, subgroups)


S_LISTS = [(0.5, 1.0, 2.0), (0.0,), (0.0, 1.0), (-1.0, 0.5), (2.0, -0.5, 0.0, 3.0), (-2.0, 1.0),
           (-1.0,)]


@pytest.mark.parametrize("s_list", S_LISTS)
@pytest.mark.parametrize("name", ["blocked:product-d2-S3", "blocked:rotated-d2-S3", "blocked:trivial-d2-S3"])
def test_power_relation_raises_the_first_error_in_group_order(name, s_list):
    # two broken entries in either order, among them a floor failure before or
    # after a non-hermitean entry; a list with two s that need the floor fails
    # both on one entry, and the first s in order names the error.  The exact
    # loop gives the error and verdict, the certified loop the report bit for bit
    _, T = case_table(name)
    kinds = ("negated", "skewed")
    n = len(T.group)
    for a in range(n):
        for b in range(n):
            for changes in ([(a, kinds[a % 2])], [(a, "negated"), (b, "skewed")],
                            [(a, "skewed"), (b, "negated")], [(a, "negated"), (b, "negated")],
                            [(a, "projected"), (b, "skewed")], [(a, "projected"), (b, "negated")]):
                U = broken(T, changes)
                got = outcome(cocycle.power_relation_check, U, s_list)
                assert_certifies(got, outcome(eigenbasis_power_relation, U, s_list), U,
                                 {k for k, _ in changes}, s_list)
                assert got == outcome(loop_power_relation, U, s_list)
                same(outcome(cocycle.verify_inverse_relation, U),
                     outcome(per_entry_inverse_relation, U), U)


@pytest.mark.parametrize("s_list", [(0.5, 1.0, 2.0), (-1.0, 0.5)])
def test_power_relation_screens_each_entry_with_its_inverse(s_list):
    # in S_4 an element g can follow its inverse in group order with another
    # broken entry, and that entry's inverse, between them; the screen of g^-1
    # reads x_g, so a skewed x_g names its error there, before the floor
    # failure in between
    _, T = case_table("blocked:product-d2-S4")
    inv, n = group_table(T.group)[1], len(T.group)
    cases = [(a, b) for b in range(n) for a in range(n) if inv[b] < min(a, inv[a]) < b]
    assert cases
    for a, b in cases:
        U = broken(T, [(a, "negated"), (b, "skewed")])
        got = outcome(cocycle.power_relation_check, U, s_list)
        assert got == outcome(loop_power_relation, U, s_list)
        assert got[0] is matcore.NotHermitian


@pytest.mark.parametrize("s_list", S_LISTS)
@pytest.mark.parametrize("name", family("blocked"))
def test_power_relation_on_s_lists_equals_the_per_entry_loop(name, s_list):
    # clean, with the CLI's plant (off hermitean: an error), and with a hermitean
    # plant of 1e-6 (a failing report wherever the clean table passes)
    for plant in ("clean", "cli"):
        _, T = case_table(name, plant)
        got = outcome(cocycle.power_relation_check, T, s_list)
        assert_certifies(got, outcome(eigenbasis_power_relation, T, s_list), T, s_list=s_list)
        assert got == outcome(loop_power_relation, T, s_list)
    U = case_table(name, "hermitean")[1]
    k = first_moved(U)
    want = outcome(eigenbasis_power_relation, U, s_list)
    got = outcome(cocycle.power_relation_check, U, s_list)
    assert_certifies(got, want, U, [k], s_list)
    assert got == outcome(loop_power_relation, U, s_list)
    assert isinstance(want, tuple) or want.passed == (not any(s_list))


@pytest.mark.parametrize("planted", [False, True])
def test_exhaustive_law_equals_the_per_pair_loop(planted):
    # the sign cocycle x_g = sign(g) 1 has mean 0: the law runs pair by pair
    T = cli._plant_defect(sign_table(4), 1e-3) if planted else sign_table(4)
    assert not matcore.facts(T.mean).invertible
    rep = cocycle.verify_cocycle_law(T)
    assert rep == per_entry_cocycle_law(T) and rep.details == {"method": "exhaustive"}
    assert rep.passed != planted


# ---- the blocks ---------------------------------------------------------------


def test_blocks_hold_the_budget_and_cover_the_rows():
    _, T = case_table("blocked:rotated-d2-S5-D32")
    blocks = matcore._blocks(len(T.group), T.stack[0].nbytes)
    assert np.array_equal(np.concatenate(blocks), np.arange(len(T.group)))
    assert all(len(r) * T.stack[0].nbytes <= matcore.BLOCK_BYTES for r in blocks)
    assert len(blocks) > 1
    rows = [7, 3, 100, 5, 9, 11]
    assert np.concatenate(matcore._blocks(rows, T.stack[0].nbytes)).tolist() == rows
    # one row a block when a row alone passes the budget
    assert [len(r) for r in matcore._blocks(3, 2 * matcore.BLOCK_BYTES)] == [1, 1, 1]
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
    outcome(TRACED[check], *product_case(make, 2, 3, 3, 7))
    phi, T = product_case(make, 2, 5, 5, 7)
    assert T.stack.dtype == complex and T.stack.nbytes == 120 * 32 * 32 * 16
    if check != "facts":
        T.facts, T.mean_operand.inv  # cached before the trace: facts is traced on its own
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
        series, best = stepwise_series(seq, n)
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
