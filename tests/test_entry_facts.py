"""The per-entry facts of a cocycle table, read off one frame per table.

`CocycleTable.facts` holds, per entry, the singular values, the hermiticity
defect and the hermitean-part spectrum.  A table that the standard basis or
its eigenbasis diagonalizes (||E_g|| within RHO) reads them off the diagonal
in that frame, each within its err; any other table decomposes every entry.
The checks that read them are compared here with the per-check computations
they replaced, kept in tests/oracles.py: on the diagonal D <= 16 tables, clean and with planted non-hermitean,
non-positive and singular entries, the facts agree bit for bit and the
strong-entry and invertibility screens raise the same first error.  On rotated
tables, real and complex, at D <= 16 and S_5 at D 32, every check agrees with
its exact per-entry form within the certificate's radius, with the same
verdicts and witnesses, and a plant that the certificate misses gives the
exact form's report bit for bit.  Counting the LAPACK calls of a run pins
what the frames save: a clean (diagonal) run builds no basis and decomposes no
entry, and a table read in its eigenbasis takes one eigh and no decomposition
of a certified entry.
"""

import json
import sys
from functools import cached_property

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, matcore, qmc, states
from quasinv.cocycle import PASS_TOL, CocycleTable
from quasinv.lattice import LocalOperator, enumerate_group, gather, inverse_index

from oracles import (
    BROKEN_KINDS, EPS, assert_certifies, broken, eigenbasis_power_relation, entry_cases,
    hermitean_plant, loop_power_relation, oracle_invertible, oracle_require_strong,
    oracle_singular_screen, oracle_strong_bounds, outcome, per_entry_cocycle_law, per_entry_facts,
    per_entry_quasi_invariance, per_entry_strong, product_on_sites, raised, rotated_case, same,
)

CASES = entry_cases()


# ---- the facts against the oracles ------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_facts_equal_the_per_check_computations(name):
    _, T = CASES[name]
    assert len(T.facts) == len(T.group)
    for x, f in zip(T.stack, T.facts):
        assert np.array_equal(f.sv, np.linalg.svd(x, compute_uv=False))
        assert f.norm == matcore.operator_norm(x)
        assert f.herm == matcore.herm_defect(x)
        assert np.array_equal(f.eig, np.linalg.eigvalsh((x + x.conj().T) / 2.0))
        assert f.invertible == oracle_invertible(x)
    assert T.scale() == max(1.0, max(matcore.operator_norm(x) for x in T.stack))


@pytest.mark.parametrize("name", sorted(CASES))
def test_strong_bounds_equal_the_entry_loop(name):
    phi, T = CASES[name]
    details = cocycle.verify_strong(T, phi).details
    herm, s1, s2 = oracle_strong_bounds(T)
    assert (details["hermiticity"], details["min_eig"], details["max_eig"]) == (herm, s1, s2)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("tol", [PASS_TOL, 1e-9])
def test_strong_entry_screen_raises_what_the_entry_loop_raises(name, tol):
    _, T = CASES[name]
    assert raised(cocycle.require_strong_entries, T, tol) == raised(oracle_require_strong, T, tol)


@pytest.mark.parametrize("name", sorted(CASES))
def test_singular_entry_screen_raises_what_classify_raised(name):
    _, T = CASES[name]
    want = raised(oracle_singular_screen, T)
    got = raised(cocycle.verify_inverse_relation, T)
    assert got == want
    assert (want is not None) == name.endswith(("projected", "dropped"))


@pytest.mark.parametrize("first", BROKEN_KINDS)
@pytest.mark.parametrize("second", BROKEN_KINDS)
def test_the_first_broken_entry_in_group_order_is_named(first, second):
    phi, T = CASES["product-D8"]
    T = broken(T, [(2, first), (5, second)])
    for tol in (PASS_TOL, 1e-9):
        assert raised(cocycle.require_strong_entries, T, tol) == raised(
            oracle_require_strong, T, tol)
    assert raised(cocycle.verify_inverse_relation, T) == raised(oracle_singular_screen, T)


def test_kappa_and_the_unitaries_screen_through_the_same_facts():
    phi, T = CASES["product-negated"]
    want = raised(oracle_require_strong, T, PASS_TOL)
    assert raised(compact.kappa, T) == want
    assert raised(gns.build_unitaries, gns.build_gns(phi), T) == raised(
        oracle_require_strong, T, gns.GNS_TOL)


# ---- the facts come from one eigenbasis per table ----------------------------

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
    table is read in the standard basis: no eigh builds a basis, and no entry or its
    hermitean part goes to an eigvalsh or an svd."""
    code, T, given = scenario_run(tmp_path, monkeypatch, scenario)
    assert code == 0 and given["eigh"] == [] and "basis" not in T.__dict__
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
    assert code == 0 and T.split is not None
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
    # the planted entry mixes the basis, so no entry is certified: each entry
    # takes the exact calls once, one svd of x_g and one eigvalsh of its hermitean part
    code, T, given = scenario_run(tmp_path, monkeypatch, "product", "--defect", "1e-3")
    assert code == 1 and not T.facts.err.any()
    parts = [(x + x.conj().T) / 2.0 for x in T.stack]
    for i, h in enumerate(parts):
        assert sum(np.array_equal(h, other) for other in parts) == 1, i
    assert count_in(given["eigvalsh"], parts) == [1] * len(parts)
    assert count_in(given["svd"], T.stack) == [1] * len(T.stack)


def record_entry_norms(monkeypatch):
    """The matrices given to operator_norm and herm_defect outside the pass that
    builds a table's facts, CocycleTable.rotated, each matrix of a stack on its own."""
    normed = []

    def recorded(fn):
        def wrapper(A):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "rotated":
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
    phi, T = CASES["product-D8"]
    T = CocycleTable(T.group, T.stack.copy(), T.window)  # facts not yet cached
    normed = record_entry_norms(monkeypatch)
    gns.build_unitaries(gns.build_gns(phi), T)
    assert not any(np.array_equal(A, x) for A in normed for x in T.stack)


def count_rotations(monkeypatch):
    """The entries each CocycleTable.rotated pass reads, one count per table built."""
    passes, rotated = [], CocycleTable.rotated

    def counted(self):
        passes.append(len(self.stack))
        return rotated.func(self)
    prop = cached_property(counted)
    prop.__set_name__(CocycleTable, "rotated")
    monkeypatch.setattr(CocycleTable, "rotated", prop)
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
    passes = count_rotations(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "structure", "--n-sites", "4", "--out", str(out)]) == 0
    assert calls == {"kappa": 1, "invariant_state": 1} and passes == [24]
    assert json.loads(out.read_text())["summary"]["all_pass"] is True


def test_the_strong_check_reads_the_tables_rotation(monkeypatch):
    # with the facts built, verify_strong takes no eigh and rotates no entry: its
    # one pass over the rows is the centralizer pairing
    phi, T = product_on_sites(3, 3)
    T.facts
    given = record_linalg(monkeypatch)
    normed = record_entry_norms(monkeypatch)
    passes = count_rotations(monkeypatch)
    assert cocycle.verify_strong(T, phi).passed
    assert given == {"eigh": [], "eigvalsh": [], "svd": []} and normed == [] and passes == []


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


# ---- the certified facts and checks against their exact per-entry forms -----

ROTATED = {"real-d2-S4": (2, 4, 4, 21, True), "complex-d2-S4": (2, 4, 4, 22, False),
           "real-d2-S3": (2, 3, 3, 23, True), "complex-d2-S3": (2, 3, 3, 24, False),
           "real-d2-S5-D32": (2, 5, 5, 25, True), "complex-d2-S5-D32": (2, 5, 5, 26, False)}
# what the certificate misses (a non-hermitean or non-commuting entry mixes the
# basis): every entry is decomposed, and every report equals the exact form's
MISSED = ("cli", "skewed", "mixed", "projected")
_rotated = {}


def certified_case(name, plant):
    """The rotated table, clean (None) or with one plant at its first moved entry:
    the CLI's 1e-3 at m[0, -1] ("cli"), a non-hermitean 1e-3 above the diagonal
    ("skewed"), a hermitean non-commuting 1e-3 pair at m[0, -1] and m[-1, 0]
    ("mixed"), the singular diag(0, 1, ..., 1) ("projected"), or -(k + 1) x_k, which
    commutes and is not positive ("negated")."""
    if name not in _rotated:
        _rotated[name] = rotated_case(*ROTATED[name])
    phi, T = _rotated[name]
    k = next(i for i, g in enumerate(T.group) if not g.is_identity())
    if plant == "cli":
        return phi, cli._plant_defect(T, 1e-3)
    if plant == "mixed":
        return phi, hermitean_plant(T, 1e-3)[1]
    return phi, CocycleTable(T.group, T.stack, T.window) if plant is None else broken(T, [(k, plant)])


CERTIFIED_CHECKS = {
    "strong": (lambda phi, T: cocycle.verify_strong(T, phi), lambda phi, T: per_entry_strong(T, phi)),
    "quasi_invariance": (lambda phi, T: cocycle.verify_quasi_invariance(phi, T),
                         per_entry_quasi_invariance),
    "cocycle_law": (lambda phi, T: cocycle.verify_cocycle_law(T),
                    lambda phi, T: per_entry_cocycle_law(T)),
    "power_relation": (lambda phi, T: cocycle.power_relation_check(T),
                       lambda phi, T: eigenbasis_power_relation(T)),
    "strong_entries": (lambda phi, T: raised(cocycle.require_strong_entries, T, PASS_TOL),
                       lambda phi, T: raised(oracle_require_strong, T, PASS_TOL)),
}
PAIRS = [(name, plant) for name in ROTATED
         for plant in ((None, "cli") if "D32" in name else (None, *MISSED, "negated"))]


@pytest.mark.parametrize("name, plant", PAIRS)
def test_certified_facts_lie_within_their_radius(name, plant):
    _, T = certified_case(name, plant)
    assert T.facts.err.any() == (plant not in MISSED)  # a rotated table sits off its diagonal
    assert np.all(T.facts.err <= matcore.RHO * np.maximum(1.0, T.facts.sv[:, 0]))
    for f, want in zip(T.facts, per_entry_facts(T), strict=True):
        r = f.err + 16 * len(T.stack[0]) * EPS * f.norm if f.err else 0.0
        assert np.abs(f.sv - want.sv).max() <= r and np.abs(f.eig - want.eig).max() <= r
        assert want.norm <= f.norm + r and f.lo - r <= want.eig[0] and want.eig[-1] <= f.hi + r
        assert f.herm == want.herm and (f.hermitean, f.invertible) == (want.hermitean, want.invertible)


@pytest.mark.parametrize("check", sorted(CERTIFIED_CHECKS))
@pytest.mark.parametrize("name, plant", PAIRS)
def test_certified_checks_agree_with_their_exact_forms(name, plant, check):
    # bit for bit where the certificate misses (radius 0), else within the radius
    # with the same verdict, witness or error; the power relation is an upper bound
    phi, T = certified_case(name, plant)
    new, old = CERTIFIED_CHECKS[check]
    got, want = outcome(new, phi, T), outcome(old, phi, T)
    if check == "power_relation":
        assert_certifies(got, want, T, [] if plant is None else [1])
        assert got == outcome(loop_power_relation, T)
    else:
        same(got, want, T)


@pytest.mark.parametrize("name", [name for name in ROTATED if "D32" not in name])
def test_an_indefinite_plant_reports_the_exact_positivity_defect(name):
    # herm(W x_g) of the negated entry fails the margin and takes its eigvalsh;
    # the other rows clear it and add nothing, as their exact values were negative
    phi, T = certified_case(name, "negated")
    got, want = cocycle.verify_quasi_invariance(phi, T), per_entry_quasi_invariance(phi, T)
    assert got.details["positivity_defect"] == want.details["positivity_defect"] > 0.0
    phi, T = certified_case(name, None)
    assert cocycle.verify_quasi_invariance(phi, T).details["positivity_defect"] == 0.0
