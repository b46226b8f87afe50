"""The table checks in blocked stacked form against their per-entry loops.

Every check reads the (|G|, D, D) table in blocks of rows, one stacked
LAPACK/BLAS call per block.  A stacked call runs the routine of one matrix on
each, so the per-entry loops the blocks replaced, kept in tests/oracles.py,
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

from quasinv import cli, cocycle, compact, gns, limits, matcore, states
from quasinv.errors import SizeMismatch
from quasinv.lattice import LocalOperator, Window, group_index, group_table, support

from oracles import (
    BLOCKED_CASES, EPS, assert_certifies, blocked_case, broken, eigenbasis_power_relation,
    generic_product, hermitean_plant, loop_power_relation, outcome, per_entry_coboundary_defects,
    per_entry_cocycle_law, per_entry_facts, per_entry_inverse_defects, per_entry_inverse_relation,
    per_entry_locally_trivial, per_entry_quasi_invariance, per_entry_restriction, per_entry_strong,
    per_entry_structure, per_entry_transport, product_case, rotated_product, same, sign_table,
    stepwise_series,
)

SMALL = sorted(name for name in BLOCKED_CASES if "D32" not in name)
LARGE = sorted(name for name in BLOCKED_CASES if "D32" in name)


def probes(window, count=3):
    return [LocalOperator(window, matcore.random_hermitian(window.total_dim, seed=41 + k))
            for k in range(count)]


# ---- the checks against their oracles ---------------------------------------------

CHECKS = {
    "cocycle_law": (lambda phi, T: cocycle.verify_cocycle_law(T),
                    lambda phi, T: per_entry_cocycle_law(T), same),
    "inverse_relation": (lambda phi, T: cocycle.verify_inverse_relation(T),
                         lambda phi, T: per_entry_inverse_relation(T), same),
    "quasi_invariance": (lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
                         per_entry_quasi_invariance, same),
    "strong": (lambda phi, T: cocycle.verify_strong(T, phi), lambda phi, T: per_entry_strong(T, phi),
               same),
    "power_relation": (lambda phi, T: cocycle.power_relation_check(T),
                       lambda phi, T: eigenbasis_power_relation(T), assert_certifies),
    "structure": (lambda phi, T: compact.verify_structure(phi, T), per_entry_structure, same),
}


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_facts_equal_the_per_entry_facts(name, planted):
    # every listed value within its entry's err (and eigvalsh's own round-off) of
    # the decomposed one, and bit for bit where err is 0
    _, T = blocked_case(name, planted)
    for f, want in zip(T.facts, per_entry_facts(T), strict=True):
        r = f.err + 16 * len(T.stack[0]) * EPS * f.norm if f.err else 0.0
        assert np.abs(f.sv - want.sv).max() <= r and np.abs(f.eig - want.eig).max() <= r
        assert f.herm == want.herm and type(f.herm) is float
        assert (f.hermitean, f.invertible) == (want.hermitean, want.invertible)


@pytest.mark.parametrize("planted", [False, True, "negated"])
@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_check_equals_its_per_entry_loop(name, check, planted):
    phi, T = blocked_case(name, planted)
    new, old, compare = CHECKS[check]
    compare(outcome(new, phi, T), outcome(old, phi, T), T)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_checks_on_probes_equal_their_per_entry_loops(name, planted):
    phi, T = blocked_case(name, planted)
    P = probes(T.window)
    same(cocycle.verify_strong(T, phi, P), per_entry_strong(T, phi, P), T)
    x = LocalOperator(T.window, states.full_density(phi))  # W is in its own centralizer
    same(outcome(cocycle.verify_centralizer_transport, phi, T, x),
         outcome(per_entry_transport, phi, T, x), T)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_matrix_unit_probes_pair_as_the_complete_form(name, planted):
    # Tr(M e_ij) = M_ji exactly: one nonzero product in each pairing
    phi, T = blocked_case(name, planted)
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
    phi, T = blocked_case(name, planted)
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
@pytest.mark.parametrize("name", ["product-d2-S3", "rotated-d2-S3", "trivial-d2-S3"])
def test_power_relation_raises_the_first_error_in_group_order(name, s_list):
    # two broken entries in either order, among them a floor failure before or
    # after a non-hermitean entry; a list with two s that need the floor fails
    # both on one entry, and the first s in order names the error.  The exact
    # loop gives the error and verdict, the certified loop the report bit for bit
    _, T = blocked_case(name, False)
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
    _, T = blocked_case("product-d2-S4", False)
    inv, n = group_table(T.group)[1], len(T.group)
    cases = [(a, b) for b in range(n) for a in range(n) if inv[b] < min(a, inv[a]) < b]
    assert cases
    for a, b in cases:
        U = broken(T, [(a, "negated"), (b, "skewed")])
        got = outcome(cocycle.power_relation_check, U, s_list)
        assert got == outcome(loop_power_relation, U, s_list)
        assert got[0] is matcore.NotHermitian


@pytest.mark.parametrize("s_list", S_LISTS)
@pytest.mark.parametrize("name", SMALL + LARGE)
def test_power_relation_on_s_lists_equals_the_per_entry_loop(name, s_list):
    # clean, with the CLI's plant (off hermitean: an error), and with a hermitean
    # plant of 1e-6 (a failing report wherever the clean table passes)
    for planted in (False, True):
        _, T = blocked_case(name, planted)
        got = outcome(cocycle.power_relation_check, T, s_list)
        assert_certifies(got, outcome(eigenbasis_power_relation, T, s_list), T, s_list=s_list)
        assert got == outcome(loop_power_relation, T, s_list)
    k, U = hermitean_plant(blocked_case(name, False)[1], 1e-6)
    want = outcome(eigenbasis_power_relation, U, s_list)
    got = outcome(cocycle.power_relation_check, U, s_list)
    assert_certifies(got, want, U, [k], s_list)
    assert got == outcome(loop_power_relation, U, s_list)
    assert isinstance(want, tuple) or want.passed == (not any(s_list))


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_stored_defects_equal_the_per_entry_loops(name, planted):
    # the inverse-relation defects eps(g) and the defects delta(g) against the
    # mean, each computed once per table, against the loops they replaced
    _, T = blocked_case(name, planted)
    assert np.array_equal(T.inverse_defects, per_entry_inverse_defects(T))
    deltas = np.array([r for _, r, *_ in per_entry_coboundary_defects(T, T.mean, T.mean_operand.inv.A)])
    assert np.array_equal(T.mean_defects, deltas)
    assert T.inverse_defects.dtype == T.mean_defects.dtype == np.float64


def test_the_differential_set_holds_real_and_complex_tables():
    dtypes = {blocked_case(name, False)[1].stack.dtype for name in SMALL}
    assert dtypes == {np.dtype(float), np.dtype(complex)}


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
    _, T = blocked_case("rotated-d2-S5-D32", False)
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
