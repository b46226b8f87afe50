"""The stacked group average and the orbit basis against the list forms.

The oracles below are the earlier implementations, kept only here: the
group average as a list of conjugated matrices summed by a pairwise tree,
the fixed-point basis as the SVD of the D^2 x D^2 matrix of averaged matrix
units, and the Umegaki and projectivity checks as loops over probes that
call the average one probe at a time.  The stacked average must equal the
list form bit for bit, the orbit basis must span the same algebra, and the
batched checks must give the oracles' verdicts with residuals that agree
to round-off (the module part as an upper bound).
"""

import numpy as np
import pytest

from quasinv import compact, lattice, matcore, states
from quasinv.errors import SizeMismatch, SupportTooLarge
from quasinv.lattice import LocalOperator, Window, act, enumerate_group, extend

AGREE = 1e-12


# ---- oracles: the list and probe-loop forms -------------------------------

def list_tree_sum(mats):
    items = list(mats)
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def list_average(group, a):
    return LocalOperator(a.window, list_tree_sum([act(g, a).matrix for g in group]) / len(group))


def svd_basis(group, window, tol=1e-10):
    rows = [list_average(group, a).matrix.flatten() for a in states.matrix_unit_probes(window)]
    _, sing, vh = np.linalg.svd(np.array(rows))
    rank = int(np.sum(sing > tol * sing[0]))
    D = window.total_dim
    return [LocalOperator(window, vh[i].reshape(D, D)) for i in range(rank)]


def loop_module(group, basis, probes):
    """max |E(b a c) - b E(a) c| over the given basis elements and probes
    (E is haar_average, bit-identical to the list form as tested below)."""
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
    E = lambda a: list_average(group, a)  # noqa: E731
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
    for a in states.random_hermitian_probes(window, count=compact.N_FAITHFUL_SWEEP, seed=seed):
        u = LocalOperator(window, a.matrix / matcore.operator_norm(a.matrix))
        faithful = min(faithful, matcore.operator_norm(E(u.dagger() @ u).matrix))
    return {"idempotence": idem, "unitality": unital, "positivity_defect": pos,
            "module": module, "faithfulness_min": faithful, "fixed_point_rank": len(fix)}


def loop_projective(group_small, group_big, window):
    double = absorb = 0.0
    for a in states.matrix_unit_probes(window):
        Eb = list_average(group_big, a)
        double = max(double, matcore.operator_norm(
            list_average(group_big, list_average(group_small, a)).matrix - Eb.matrix))
        absorb = max(absorb, matcore.operator_norm(
            list_average(group_small, Eb).matrix - Eb.matrix))
    return {"double_average": double, "range_absorption": absorb,
            "rank_small": len(svd_basis(group_small, window)),
            "rank_big": len(svd_basis(group_big, window))}


# ---- windows --------------------------------------------------------------

def on_sites(k, N):
    return [extend(g, N) for g in enumerate_group(k)]


def cycles(g):
    seen, count = set(), 0
    for n in range(1, g.N + 1):
        if n not in seen:
            count += 1
            while n not in seen:
                seen.add(n)
                n = g(n)
    return count


# (d, N, degree): windows up to D 64
WINDOWS = [(2, 2, 2), (2, 3, 3), (2, 3, 2), (3, 2, 2), (2, 4, 4), (2, 4, 2),
           (3, 3, 3), (2, 5, 4), (2, 5, 5), (4, 3, 3), (2, 6, 3), (2, 6, 6)]
SMALL = [w for w in WINDOWS if w[0] ** w[1] <= 16]


def _id(w):
    return f"d{w[0]}-n{w[1]}-S{w[2]}"


# ---- the stacked average --------------------------------------------------

@pytest.mark.parametrize("n", range(1, 14))
def test_stacked_tree_sum_is_bit_identical_to_the_list_tree(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    expected = list_tree_sum(list(stack))
    assert np.array_equal(compact._tree_sum(stack.copy()), expected)


@pytest.mark.parametrize("w", WINDOWS, ids=_id)
def test_haar_average_is_bit_identical_to_the_list_form(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    for seed in range(3):
        a = LocalOperator(window, matcore.random_matrix(window.total_dim, seed=seed))
        assert np.array_equal(compact.haar_average(group, a).matrix,
                              list_average(group, a).matrix)


def test_group_index_rows_are_the_index_maps():
    window, group = Window(2, 4), on_sites(4, 4)
    Q = lattice.group_index(group, window)
    a = matcore.random_matrix(16, seed=5)
    assert Q.shape == (24, 16)
    for q, g in zip(Q, group):
        assert np.array_equal(a[q][:, q], act(g, LocalOperator(window, a)).matrix)


def test_haar_average_rejects_a_group_of_another_size():
    with pytest.raises(SizeMismatch):
        compact.haar_average(enumerate_group(3), Window(2, 4).identity())


# ---- the orbit basis ------------------------------------------------------

@pytest.mark.parametrize("w", WINDOWS, ids=_id)
def test_fixed_point_dimension_is_the_burnside_count(w):
    # orbits of index pairs = (1/|G|) sum_g (fixed pairs of g) = (1/|G|) sum_g d^(2 cycles(g))
    d, N, k = w
    group = on_sites(k, N)
    burnside = sum(d ** (2 * cycles(g)) for g in group)
    assert burnside % len(group) == 0
    assert len(compact.fixed_point_basis(group, Window(d, N))) == burnside // len(group)


@pytest.mark.parametrize("w", [w for w in WINDOWS if w[2] < 6], ids=_id)
def test_orbit_basis_is_orthonormal_and_fixed(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    basis = compact.fixed_point_basis(group, window)
    B = np.array([b.matrix for b in basis])
    if window.total_dim <= 32:
        flat = B.reshape(len(B), -1)
        assert np.max(np.abs(flat @ flat.conj().T - np.eye(len(B)))) < AGREE
    for q in lattice.group_index(group, window):
        assert np.array_equal(B[:, q[:, None], q], B)


@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_orbit_basis_spans_the_svd_basis(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    new = np.array([b.matrix.ravel() for b in compact.fixed_point_basis(group, window)])
    old = np.array([b.matrix.ravel() for b in svd_basis(group, window)])
    assert len(new) == len(old)
    assert np.max(np.abs(new.T @ new.conj() - old.T @ old.conj())) < AGREE


def test_matrix_unit_stacks_stop_at_the_cap():
    with pytest.raises(SupportTooLarge):
        compact.fixed_point_basis(on_sites(2, 7), Window(2, 7))
    with pytest.raises(SupportTooLarge):
        compact.verify_umegaki(on_sites(2, 7), Window(2, 7))


# ---- the batched checks against the probe loops ---------------------------

@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_umegaki_agrees_with_the_probe_loop(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    new = compact.verify_umegaki(group, window, seed=3)
    old = loop_umegaki(group, window, seed=3)
    assert new.passed
    for key in ("idempotence", "unitality", "positivity_defect", "faithfulness_min"):
        assert abs(new.details[key] - old[key]) < AGREE, key
    assert new.details["module"] >= old["module"] - AGREE
    assert new.details["fixed_point_rank"] == old["fixed_point_rank"]


def _planted_basis(group, window, index=5):
    """The orbit basis with one element past the fourth replaced by a matrix
    unit that the group moves."""
    basis = list(compact.fixed_point_basis(group, window))
    D = window.total_dim
    unit = np.zeros((D, D))
    unit[0, 1] = 1.0
    basis[index] = LocalOperator(window, unit)
    return basis


@pytest.mark.parametrize("w", [(2, 2, 1), (2, 2, 2), (2, 3, 3)], ids=_id)
def test_module_bound_dominates_the_all_unit_probe_form(monkeypatch, w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    probes = states.matrix_unit_probes(window)
    for basis in (compact.fixed_point_basis(group, window), _planted_basis(group, window)):
        monkeypatch.setattr(compact, "fixed_point_basis", lambda group, window: basis)
        new = compact.verify_umegaki(group, window).details["module"]
        assert new >= loop_module(group, basis, probes) - AGREE


def test_module_defect_past_the_fourth_basis_element_fails(monkeypatch):
    # the sampled form saw four basis elements and column-0 probes only
    window, group = Window(2, 3), on_sites(3, 3)
    basis = _planted_basis(group, window)
    probes = states.matrix_unit_probes(window)
    assert loop_module(group, basis[:4], probes[::len(probes) // 8]) < compact.UMEGAKI_TOL
    monkeypatch.setattr(compact, "fixed_point_basis", lambda group, window: basis)
    out = compact.verify_umegaki(group, window)
    assert not out.passed
    assert out.details["module"] > 0.1


@pytest.mark.parametrize("w", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 1)],
                         ids=lambda w: f"d{w[0]}-n{w[1]}-S{w[2]}-in-S{w[2] + 1}")
def test_projective_family_agrees_with_the_probe_loop(w):
    d, N, k = w
    window = Window(d, N)
    big = on_sites(k + 1, N)
    small = [g for g in big if g(k + 1) == k + 1]
    new = compact.projective_family_check(small, big, window)
    old = loop_projective(small, big, window)
    assert new.passed
    for key in ("double_average", "range_absorption"):
        assert abs(new.details[key] - old[key]) < AGREE, key
    for key in ("rank_small", "rank_big"):
        assert new.details[key] == old[key], key
