"""The per-entry facts of a cocycle table.

`CocycleTable.facts` holds, per entry, the singular values, the hermiticity
defect and the hermitean-part spectrum, built in stacked calls over blocks of
entries.  The checks that
read it are compared here with the per-check computations it replaced, kept
only as oracles: on D <= 16 tables, clean and with planted non-hermitean,
non-positive and singular entries, the facts agree bit for bit and the
strong-entry and invertibility screens raise the same first error.
"""

import json
import sys

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, gns, matcore, qmc, states
from quasinv.cocycle import PASS_TOL, CocycleTable
from quasinv.errors import NotStrongCocycle, SingularEntry
from quasinv.lattice import LocalOperator, Window, enumerate_group, extend


# ---- oracles: the computations the facts replaced ---------------------------

def oracle_invertible(A):
    """The invertibility rule of the former matcore.classify."""
    A = np.asarray(A, dtype=complex)
    scale = max(matcore.operator_norm(A), 1.0)
    if matcore.herm_defect(A) <= matcore.TAU_HERM * scale:
        lam = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
        return float(np.abs(lam).min()) > matcore.TAU_POS * scale
    return float(np.linalg.svd(A, compute_uv=False).min()) > matcore.TAU_POS * scale


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


# ---- tables -----------------------------------------------------------------

def product_case(n, k):
    rng = np.random.default_rng(n + 10 * k)
    phi = states.product_state(2, [np.diag(w / w.sum()) for w in rng.uniform(0.2, 0.8, (n, 2))])
    return phi, cocycle.product_state_cocycle(phi, [extend(g, n) for g in enumerate_group(k)])


def markov_case():
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(3, 1))
    return qmc.markov_functional(M), qmc.x_cocycle_table(M, enumerate_group(3))


def trivial_case():
    window = Window(2, 3)
    kap = np.eye(8) + 0.3 * matcore.random_matrix(8, seed=5)
    T = cocycle.trivial_cocycle(LocalOperator(window, kap), enumerate_group(3))
    return states.homogeneous_state(2, 3, np.eye(2) / 2.0), T


def planted(T, changes):
    """T with entry k replaced: "skewed" off hermitean, "negated" to
    -(k + 1) x_k, "projected" to a hermitean singular diag(0, 1, ..., 1),
    "dropped" to x_k with its last row zeroed (singular, not hermitean)."""
    stack = T.stack.copy()
    D = stack.shape[1]
    for k, kind in changes:
        if kind == "skewed":
            stack[k] = stack[k] + np.triu(np.full((D, D), 1e-3), 1)
        elif kind == "negated":
            stack[k] = -(k + 1.0) * stack[k]
        elif kind == "projected":
            stack[k] = np.diag(np.r_[0.0, np.ones(D - 1)])
        else:
            stack[k, -1] = 0.0
    return CocycleTable(T.group, stack, T.window)


KINDS = ("skewed", "negated", "projected", "dropped")


def cases():
    phi, T = product_case(3, 3)
    out = {"product-D8": (phi, T), "product-D16": product_case(4, 4),
           "markov-D16": markov_case(), "trivial-nonhermitean-kappa": trivial_case()}
    for kind in KINDS:
        out[f"product-{kind}"] = (phi, planted(T, [(1, kind), (4, kind)]))
    return out


CASES = cases()


def raised(fn, *args):
    try:
        fn(*args)
    except (NotStrongCocycle, SingularEntry) as exc:
        return type(exc), str(exc)
    return None


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


@pytest.mark.parametrize("first", KINDS)
@pytest.mark.parametrize("second", KINDS)
def test_the_first_broken_entry_in_group_order_is_named(first, second):
    phi, T = CASES["product-D8"]
    T = planted(T, [(2, first), (5, second)])
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


# ---- each entry's facts are computed once per run ---------------------------

def rows_of(A):
    """The matrices of one argument: itself, or each matrix of a stack."""
    A = np.asarray(A)
    return list(A.reshape((-1,) + A.shape[-2:]))


def test_product_run_decomposes_each_hermitean_part_once(tmp_path, monkeypatch):
    # the calls take stacks: count the rows, so each part is decomposed once
    tables, arguments = [], []
    build, eigvalsh = cocycle.product_state_cocycle, np.linalg.eigvalsh
    monkeypatch.setattr(cocycle, "product_state_cocycle",
                        lambda phi, group: tables.append(build(phi, group)) or tables[-1])
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda A: arguments.extend(rows_of(A)) or eigvalsh(A))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "product", "--n-sites", "4", "--out", str(out)]) == 0
    (T,) = tables
    parts = [(x + x.conj().T) / 2.0 for x in T.stack]
    for i, h in enumerate(parts):
        assert sum(np.array_equal(h, other) for other in parts) == 1, i
        assert sum(np.array_equal(h, A) for A in arguments) == 1, i


def record_entry_norms(monkeypatch):
    """The matrices given to operator_norm and herm_defect outside matcore.facts,
    each matrix of a stack on its own."""
    normed, inside = [], []
    facts = matcore.facts

    def in_facts(A):
        inside.append(1)
        try:
            return facts(A)
        finally:
            inside.pop()

    def recorded(fn):
        def wrapper(A):
            if not inside:
                normed.extend(rows_of(A))
            return fn(A)
        return wrapper

    monkeypatch.setattr(matcore, "facts", in_facts)
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


def test_structure_run_averages_the_table_and_the_state_once(tmp_path, monkeypatch):
    # facts takes stacks: it counts the matrices it is given, one per entry
    calls = {"kappa": 0, "invariant_state": 0, "facts": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += len(rows_of(args[0])) if name == "facts" else 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(compact, "kappa")
    counted(compact, "invariant_state")
    counted(matcore, "facts")
    out = tmp_path / "r.json"
    assert cli.main(["run", "--scenario", "structure", "--n-sites", "4", "--out", str(out)]) == 0
    assert calls == {"kappa": 1, "invariant_state": 1, "facts": 24}
    assert json.loads(out.read_text())["summary"]["all_pass"] is True


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


@pytest.mark.parametrize("argv, defect", [
    (["--scenario", "product", "--n-sites", "4"], 0),
    (["--scenario", "product", "--n-sites", "4", "--defect", "1e-3"], 1),
    (["--scenario", "trivial", "--n-sites", "4"], 0),
])
def test_a_run_computes_each_defect_of_an_entry_once(tmp_path, monkeypatch, argv, defect):
    # the inverse and power relations read one eps(g) per entry, the law and
    # local triviality over the whole group one delta(g) against the mean
    rows = defect_rows(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", *argv, "--out", str(out)]) == defect
    checks = {c["name"] for c in json.loads(out.read_text())["checks"]}
    assert {"inverse_relation", "power_relation", "cocycle_law"} <= checks
    assert "locally_trivial[N=4]" in checks or "trivial" not in argv
    assert rows == {"inverse_defects": 24, "_coboundary_defects": 24}
