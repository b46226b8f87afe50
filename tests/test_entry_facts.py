"""The per-entry facts of a cocycle table, read off its record once per table.

`CocycleTable.facts` holds, per entry, the singular values, the hermiticity
defect and the hermitean-part spectrum.  A table that the standard basis
diagonalizes (||E_g|| within RHO) reads them off the diagonal, each within its
err; any other table decomposes every entry, exact.  The checks that read them
are compared here with the per-check computations they replaced, kept in
tests/oracles.py: on the diagonal D <= 16 tables, clean and with planted
non-hermitean, non-positive and singular entries, the facts agree bit for bit
and the strong-entry and invertibility screens raise the same first error (the
screens and the strong bounds of each entry case, and the rotated tables against
their exact per-entry forms, are rows of tests/test_differential.py).  Counting
the LAPACK calls of a run pins what the frame saves: a clean (diagonal) run
decomposes no entry, and a planted table's commutators are read against the
diagonals of the entries that clear it, with no decomposition.
"""

import json
import sys
from functools import cached_property

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, matcore, qmc, states
from quasinv.cocycle import PASS_TOL
from quasinv.lattice import LocalOperator, enumerate_group, gather, inverse_index

from oracles import (
    BROKEN_KINDS, broken, case_table, family, oracle_invertible, oracle_require_strong,
    oracle_singular_screen, per_entry_quasi_invariance, product_on_sites, raised,
)


# ---- the facts against the oracles ------------------------------------------

@pytest.mark.parametrize("name", family("entry"))
def test_facts_equal_the_per_check_computations(name):
    _, T = case_table(name)
    assert len(T.facts) == len(T.group)
    for x, f in zip(T.stack, T.facts):
        assert np.array_equal(f.sv, np.linalg.svd(x, compute_uv=False))
        assert f.norm == matcore.operator_norm(x)
        assert f.herm == matcore.herm_defect(x)
        assert np.array_equal(f.eig, np.linalg.eigvalsh((x + x.conj().T) / 2.0))
        assert f.invertible == oracle_invertible(x)
    assert T.scale() == max(1.0, max(matcore.operator_norm(x) for x in T.stack))


def test_only_a_singular_entry_fails_the_singular_screen():
    for name in family("entry"):
        assert (raised(oracle_singular_screen, case_table(name)[1]) is not None) == name.endswith(
            ("projected", "dropped"))


@pytest.mark.parametrize("first", BROKEN_KINDS)
@pytest.mark.parametrize("second", BROKEN_KINDS)
def test_the_first_broken_entry_in_group_order_is_named(first, second):
    _, T = case_table("entry:product-D8")
    T = broken(T, [(2, first), (5, second)])
    for tol in (PASS_TOL, 1e-9):
        assert raised(cocycle.require_strong_entries, T, tol) == raised(
            oracle_require_strong, T, tol)
    assert raised(cocycle.verify_inverse_relation, T) == raised(oracle_singular_screen, T)


def test_kappa_and_the_unitaries_screen_through_the_same_facts():
    phi, T = case_table("entry:product-negated")
    want = raised(oracle_require_strong, T, PASS_TOL)
    assert raised(compact.kappa, T) == want
    assert raised(gns.build_unitaries, gns.build_gns(phi), T) == raised(
        oracle_require_strong, T, gns.GNS_TOL)


# ---- the LAPACK calls of a run, counted -----------------------------------

def rows_of(A):
    """The matrices of one argument: itself, or each matrix of a stack."""
    A = np.asarray(A)
    return list(A.reshape((-1,) + A.shape[-2:]))


def record_linalg(monkeypatch):
    """The matrices given to np.linalg.eigh, eigvalsh and svd, by routine, each
    matrix of a stack on its own."""
    given = {"eigh": [], "eigvalsh": [], "svd": []}
    for name, rows in given.items():
        def recorded(A, *args, fn=getattr(np.linalg, name), rows=rows, **kwargs):
            rows.extend(rows_of(A))
            return fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return given


def record_lone_splits(monkeypatch):
    """The lone matrices given to matcore.split (a table's stacked blocks not among them)."""
    lone, split = [], matcore.split
    monkeypatch.setattr(matcore, "split", lambda y: (y.ndim == 2 and lone.append(y.copy())) or split(y))
    return lone


def count_in(found, mats):
    """How often each of mats is among the found matrices."""
    return [sum(A.shape == m.shape and np.array_equal(A, m) for A in found) for m in mats]


def scenario_run(tmp_path, monkeypatch, scenario, *argv):
    """(exit code, the table checked, np.linalg's arguments) of a product or trivial run at n 4."""
    tables = []
    for module, name in ((cocycle, "product_state_cocycle"), (cli, "_plant_defect"),
                         (compact, "converse_construct")):
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name), **kw: tables.append(
            fn(*args, **kw)) or tables[-1])
    given = record_linalg(monkeypatch)
    out = tmp_path / "r.json"
    code = cli.main(["run", "--scenario", scenario, "--n-sites", "4", *argv, "--out", str(out)])
    return code, (tables[-1][1] if isinstance(tables[-1], tuple) else tables[-1]), given


def clean_run_linalg(tmp_path, monkeypatch, scenario):
    """A clean run's table and np.linalg's arguments, after checking that the diagonal
    table is read in the standard basis: no eigh, and no entry or its hermitean part
    goes to an eigvalsh or an svd."""
    code, T, given = scenario_run(tmp_path, monkeypatch, scenario)
    assert code == 0 and given["eigh"] == []
    parts = [(x + x.conj().T) / 2.0 for x in T.stack]
    assert not any(count_in(given["eigvalsh"] + given["svd"], [*T.stack, *parts]))
    return T, given


def test_a_clean_product_run_decomposes_no_entry(tmp_path, monkeypatch):
    T, given = clean_run_linalg(tmp_path, monkeypatch, "product")
    # D x D: x_e - 1 (normalization) alone; the law reads its kappa, the mean, and
    # quasi-invariance the state density W off their diagonals as the entries are read
    D = T.stack.shape[1]
    assert sum(A.shape[-1] == D for A in given["eigvalsh"]) == 0
    assert sum(A.shape[-1] == D for A in given["svd"]) == 1


def test_a_clean_structure_run_gives_no_row_or_coboundary_difference_to_svd(tmp_path, monkeypatch):
    # the decomposition's x_g - kappa g^-1(kappa^-1) and the restriction's x_g - W^-1 g^-1(W)
    # are read off the diagonals, the commutation of kappa with g^-1(kappa^-1) by its bound and
    # kappa's hermiticity and least eigenvalue off its diagonal: the one D x D SVD left is
    # E_G(kappa^-1) - 1, and no D x D eigvalsh is left; kappa, kappa^-1, W and W^-1 are split
    # once each, as the records the decomposition, the faithfulness screen and the restriction share
    lone = record_lone_splits(monkeypatch)
    code, T, given = scenario_run(tmp_path, monkeypatch, "structure")
    assert code == 0 and T.frame() is not None
    W = states.full_density(cli._seeded_diagonal_state(2, 4, 1, 1e-3))  # the run's state (defaults)
    kap = (T.mean + T.mean.conj().T) / 2.0
    q = inverse_index(T.group, T.window)
    differences = [*(T.stack - kap @ gather(matcore.inv(kap), q)), *(T.stack - matcore.inv(W) @ gather(W, q))]
    average = compact.haar_average(T.group, LocalOperator(T.window, matcore.inv(kap))).matrix
    svd = [A for A in given["svd"] if A.shape[-1] == T.stack.shape[1]]
    assert count_in(svd, [average - np.eye(len(kap))]) == [1] and len(svd) == 1
    assert not any(count_in(svd, [*T.stack, *(A for A in differences if A.any())]))
    assert [A for A in given["eigvalsh"] if A.shape[-1] == T.stack.shape[1]] == []
    assert count_in(lone, [kap, matcore.inv(kap), W, matcore.inv(W)]) == [1] * 4 and len(lone) == 4


def test_a_clean_markov_run_reads_x_minus_y_y_star_off_the_diagonals(tmp_path, monkeypatch):
    # x_g, y_g and the amplitudes are diagonal: the report carries the dense max ||x_g - y_g y_g*||
    # bit for bit, the chain's commutators are read by their bound, and the one D x D SVD is x_e - 1;
    # quasi-invariance reads the state density off its diagonal, with no eigvalsh
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(4, 1))  # the run's chain (seed 1)
    group = enumerate_group(4)
    T, y = qmc.x_cocycle_table(M, group), qmc.y_cocycle(M, group)
    differences = T.stack - y @ matcore.dagger(y)
    dense = matcore.operator_norm(differences).max()
    given, out = record_linalg(monkeypatch), tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "markov", "--n-sites", "4", "--out", str(out)]) == 0
    cross = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "x_equals_y_y_star")
    assert cross["residual"] == dense
    svd = [A for A in given["svd"] if A.shape[-1] == T.stack.shape[1]]
    e = next(i for i, g in enumerate(T.group) if g.is_identity())
    assert count_in(svd, [T.stack[e] - np.eye(len(T.stack[e]))]) == [1] and len(svd) == 1
    assert not any(count_in(svd, [A for A in differences if A.any()]))
    assert [A for A in given["eigvalsh"] if A.shape[-1] == T.stack.shape[1]] == []


def test_a_clean_trivial_run_decomposes_no_entry(tmp_path, monkeypatch):
    # kappa^-1's invertibility screen and the scale of its normalization read its diagonal, and
    # quasi-invariance the state density's: the D x D SVDs left are the runner's ||h - E_G(h)||,
    # E_G(kappa^-1) - 1 and x_e - 1, and no D x D eigvalsh is left
    T, given = clean_run_linalg(tmp_path, monkeypatch, "trivial")
    D = T.stack.shape[1]
    assert sum(A.shape[-1] == D for A in given["svd"]) == 3
    assert sum(A.shape[-1] == D for A in given["eigvalsh"]) == 0


def test_product_run_decomposes_each_hermitean_part_once(tmp_path, monkeypatch):
    # the planted entry leaves the standard basis, so each entry is decomposed:
    # the exact calls once, one svd of x_g and one eigvalsh of its hermitean part
    code, T, given = scenario_run(tmp_path, monkeypatch, "product", "--defect", "1e-3")
    assert code == 1 and not T.facts.err.any()
    parts = [(x + x.conj().T) / 2.0 for x in T.stack]
    for i, h in enumerate(parts):
        assert sum(np.array_equal(h, other) for other in parts) == 1, i
    assert count_in(given["eigvalsh"], parts) == [1] * len(parts)
    assert count_in(given["svd"], T.stack) == [1] * len(T.stack)


def record_entry_norms(monkeypatch):
    """The matrices given to operator_norm and herm_defect outside the pass that
    builds a record's facts, matcore.Operand.facts, each matrix of a stack on its own."""
    normed = []

    def recorded(fn):
        def wrapper(A):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "facts":
                frame = frame.f_back
            if frame is None:
                normed.extend(rows_of(A))
            return fn(A)
        return wrapper

    monkeypatch.setattr(matcore, "operator_norm", recorded(matcore.operator_norm))
    monkeypatch.setattr(matcore, "herm_defect", recorded(matcore.herm_defect))
    return normed


def test_product_run_norms_each_entry_only_in_its_facts(tmp_path, monkeypatch):
    tables = []
    build = cocycle.product_state_cocycle
    monkeypatch.setattr(cocycle, "product_state_cocycle",
                        lambda phi, group: tables.append(build(phi, group)) or tables[-1])
    normed = record_entry_norms(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "product", "--n-sites", "4", "--out", str(out)]) == 0
    (T,) = tables
    assert "power_relation" in {c["name"] for c in json.loads(out.read_text())["checks"]}
    assert normed
    assert not any(np.array_equal(A, x) for A in normed for x in T.stack)


def test_unitaries_norm_no_entry_outside_its_facts(monkeypatch):
    phi, T = case_table("entry:product-D8")  # facts not yet cached
    normed = record_entry_norms(monkeypatch)
    gns.build_unitaries(gns.build_gns(phi), T)
    assert not any(np.array_equal(A, x) for A in normed for x in T.stack)


def count_fact_passes(monkeypatch):
    """The entries each pass that builds a table's facts reads, one count per stack
    (matcore.Operand.facts of a lone matrix not among them)."""
    passes, facts = [], matcore.Operand.facts

    def counted(self):
        if self.A.ndim == 3:
            passes.append(len(self.A))
        return facts.func(self)
    prop = cached_property(counted)
    prop.__set_name__(matcore.Operand, "facts")
    monkeypatch.setattr(matcore.Operand, "facts", prop)
    return passes


def test_structure_run_averages_the_table_and_the_state_once(tmp_path, monkeypatch):
    calls = {"kappa": 0, "invariant_state": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(compact, "kappa")
    counted(compact, "invariant_state")
    passes = count_fact_passes(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "structure", "--n-sites", "4", "--out", str(out)]) == 0
    assert calls == {"kappa": 1, "invariant_state": 1} and passes == [24]
    assert json.loads(out.read_text())["summary"]["all_pass"] is True


def test_the_strong_check_reads_a_diagonal_table_with_no_lapack_call(monkeypatch):
    # with the facts built, verify_strong on a diagonal table takes no LAPACK call
    # and reads no facts again: its one pass over the rows is the centralizer pairing
    phi, T = product_on_sites(3, 3)
    T.facts
    given = record_linalg(monkeypatch)
    normed = record_entry_norms(monkeypatch)
    passes = count_fact_passes(monkeypatch)
    assert cocycle.verify_strong(T, phi).passed
    assert given == {"eigh": [], "eigvalsh": [], "svd": []} and normed == [] and passes == []


def test_a_planted_table_decomposes_its_facts_and_no_commutator(monkeypatch):
    # the planted entry leaves the standard basis: the facts are decomposed entry by entry,
    # and verify_strong reads the planted row against the others' diagonals, with no LAPACK call
    phi, T = case_table("entry:product-D8", "cli")
    assert T.frame() is None and raised(compact.kappa, T) is not None
    T.facts
    given = record_linalg(monkeypatch)
    assert cocycle.verify_strong(T, phi).witness["part"] == "hermiticity"
    assert given == {"eigh": [], "eigvalsh": [], "svd": []}


# ---- each per-entry defect is computed once per run ------------------------

def defect_rows(monkeypatch):
    """The matrices given to operator_norm by the kernels of the inverse-relation
    defects and of the coboundary defects (against the mean on these runs),
    counted by the kernel on the call stack, each matrix of a stack on its own."""
    rows = {"inverse_defects": 0, "_coboundary_defects": 0}
    norm = matcore.operator_norm

    def counted(A):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in rows:
            frame = frame.f_back
        if frame is not None:
            rows[frame.f_code.co_name] += len(rows_of(A))
        return norm(A)
    monkeypatch.setattr(matcore, "operator_norm", counted)
    return rows


@pytest.mark.parametrize("argv, defect, normed", [
    (["--scenario", "product", "--n-sites", "4"], 0, 0),
    (["--scenario", "product", "--n-sites", "4", "--defect", "1e-3"], 1, 24),
    (["--scenario", "trivial", "--n-sites", "4"], 0, 0),
])
def test_a_run_computes_each_defect_of_an_entry_once(tmp_path, monkeypatch, argv, defect, normed):
    # the inverse and power relations read one eps(g) per entry, the law and
    # local triviality over the whole group one delta(g) against the mean: off the
    # diagonals on a clean (diagonal) table, else one operator norm an entry
    rows = defect_rows(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", *argv, "--out", str(out)]) == defect
    checks = {c["name"] for c in json.loads(out.read_text())["checks"]}
    assert {"inverse_relation", "power_relation", "cocycle_law"} <= checks
    assert "locally_trivial[N=4]" in checks or "trivial" not in argv
    assert rows == {"inverse_defects": normed, "_coboundary_defects": normed}


# ---- rotated tables -------------------------------------------------------

@pytest.mark.parametrize("name", [name for name in family("rotated") if "D32" not in name])
def test_an_indefinite_plant_reports_the_exact_positivity_defect(name):
    # herm(W x_g) of the negated entry fails the margin and takes its eigvalsh;
    # the other rows clear it and add nothing, as their exact values were negative
    phi, T = case_table(name, "negated")
    got, want = cocycle.verify_quasi_invariance(phi, T), per_entry_quasi_invariance(phi, T)
    assert got.details["positivity_defect"] == want.details["positivity_defect"] > 0.0
    phi, T = case_table(name)
    assert cocycle.verify_quasi_invariance(phi, T).details["positivity_defect"] == 0.0
