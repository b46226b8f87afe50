"""The stacked group average and the orbit labels against the list forms.

The oracles, the earlier implementations kept in tests/oracles.py, are the
group average as a list of conjugated matrices summed by a pairwise tree,
the fixed-point basis as the SVD of the D^2 x D^2 matrix of averaged matrix
units, and the Umegaki and projectivity checks as loops over probes that
call the average one probe at a time, with a seeded faithfulness sweep (the
loops call the stacked average, which is bit-identical to the list form).
The stacked average must equal the list form bit for bit, the orbit
indicators must span the same algebra, and the orbit-label checks must give
the oracles' verdicts on groups, on groups less one element and on seeded
sublists, with a defect of exactly 0.0 on every pass.
"""

import tracemalloc

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, lattice, matcore
from quasinv.errors import SizeMismatch
from quasinv.lattice import LocalOperator, Window, act, enumerate_group, extend

from oracles import (
    AGREE, list_average, list_tree_sum, loop_projective, loop_projective_passes, loop_umegaki,
    loop_umegaki_passes, svd_basis,
)


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

def in_blocks(stack, size):
    """Owned copies of consecutive runs of `size` rows."""
    return [stack[k:k + size].copy() for k in range(0, len(stack), size)]


@pytest.mark.parametrize("n", range(1, 14))
def test_stacked_tree_sum_is_bit_identical_to_the_list_tree(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    expected = list_tree_sum(list(stack))
    for size in (1, 2, 3, n):
        assert np.array_equal(lattice._pairwise_sum(in_blocks(stack, size)), expected)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 101])
def test_pairwise_sum_is_the_list_tree_in_any_blocks(size):
    for n in range(1, 301):
        rng = np.random.default_rng(n)
        real = rng.standard_normal((n, 3, 3))
        for stack in (real, real + 1j * rng.standard_normal((n, 3, 3))):
            assert np.array_equal(lattice._pairwise_sum(in_blocks(stack, size)), list_tree_sum(list(stack))), n


def test_pairwise_sum_refuses_no_rows_and_rows_it_cannot_write():
    with pytest.raises(ValueError):
        lattice._pairwise_sum([])
    with pytest.raises(ValueError):
        lattice._pairwise_sum([np.empty((0, 3, 3))])
    frozen = np.ones((4, 3, 3))
    frozen.flags.writeable = False
    with pytest.raises(ValueError):  # a basic slice is a read-only view, not an owned block
        lattice._pairwise_sum([frozen[0:2], frozen[2:4]])


def test_group_means_hold_no_table_sized_stack():
    # S_6 on D 64: the |G| moved matrices of E_G, or a copy of the table, take |G| D^2 8 bytes
    window, group = Window(2, 6), enumerate_group(6)
    a = LocalOperator(window, np.random.default_rng(0).standard_normal((64, 64)))
    T = cocycle.product_state_cocycle(cli._seeded_diagonal_state(2, 6, 1, 1e-3), group)
    table = len(group) * window.total_dim ** 2 * 8
    assert T.stack.nbytes == table
    compact.haar_average(group, a)  # the index array, built once per group, is not the mean's
    for mean in (lambda: compact.haar_average(group, a), lambda: T.mean):
        tracemalloc.start()
        try:
            mean()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * table


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


# ---- the orbit labels -----------------------------------------------------

def orbit_basis(group, window):
    """1_O / sqrt(|O|) for each orbit label: an orthonormal (Hilbert-Schmidt)
    basis of the fixed-point algebra, as a (rank, D, D) stack."""
    labels = compact.orbit_labels(group, window)
    B = (labels == np.arange(labels.max() + 1)[:, None, None]).astype(float)
    return B / np.sqrt(B.sum(axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("w", WINDOWS, ids=_id)
def test_fixed_point_dimension_is_the_burnside_count(w):
    # orbits of index pairs = (1/|G|) sum_g (fixed pairs of g) = (1/|G|) sum_g d^(2 cycles(g))
    d, N, k = w
    group = on_sites(k, N)
    burnside = sum(d ** (2 * cycles(g)) for g in group)
    assert burnside % len(group) == 0
    window = Window(d, N)
    assert compact.orbit_labels(group, window).max() + 1 == burnside // len(group)
    assert compact.verify_umegaki(group, window).details["fixed_point_rank"] == burnside // len(group)


@pytest.mark.parametrize("w", [w for w in WINDOWS if w[2] < 6], ids=_id)
def test_orbit_basis_is_orthonormal_and_fixed(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    B = orbit_basis(group, window)
    if window.total_dim <= 32:
        flat = B.reshape(len(B), -1)
        assert np.max(np.abs(flat @ flat.conj().T - np.eye(len(B)))) < AGREE
    for q in lattice.group_index(group, window):
        assert np.array_equal(B[:, q[:, None], q], B)


@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_orbit_basis_spans_the_svd_basis(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    new = orbit_basis(group, window).reshape(-1, window.total_dim ** 2)
    old = np.array([b.matrix.ravel() for b in svd_basis(group, window)])
    assert len(new) == len(old)
    assert np.max(np.abs(new.T @ new.conj() - old.T @ old.conj())) < AGREE
    assert compact.verify_umegaki(group, window).details["fixed_point_rank"] == len(old)


def test_orbit_labels_of_a_list_are_the_orbits_of_the_group_it_generates():
    # the 3-cycle (2 3 1) alone generates A_3: the same labels as the whole A_3
    window, group = Window(2, 3), enumerate_group(3)
    cycle = [g for g in group if g.image == (2, 3, 1)]
    a3 = [g for g in group if g.image in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    assert np.array_equal(compact.orbit_labels(cycle, window), compact.orbit_labels(a3, window))
    assert not compact.verify_umegaki(cycle, window).passed
    assert compact.verify_umegaki(a3, window).details["average_defect"] == 0.0


# ---- the orbit-label checks against the probe loops ----------------------

@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_umegaki_agrees_with_the_probe_loop(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    new = compact.verify_umegaki(group, window)
    old = loop_umegaki(group, window, seed=3)
    assert new.passed and new.residual == 0.0 and new.witness is None
    assert new.details["average_defect"] == 0.0
    assert new.details["fixed_point_rank"] == old["fixed_point_rank"]


def sublists(group, count=3, seed=0):
    """The group less each non-identity element, then seeded sublists."""
    out = [group[:i] + group[i + 1:] for i, g in enumerate(group) if not g.is_identity()]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        keep = rng.choice(len(group), int(rng.integers(1, len(group))), replace=False)
        out.append([group[i] for i in sorted(keep)])
    return out


@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_umegaki_verdict_on_sublists_is_the_probe_loop_verdict(w):
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    for sub in sublists(group, seed=d * N * k):
        new = compact.verify_umegaki(sub, window)
        assert new.passed == loop_umegaki_passes(sub, window), [g.image for g in sub]
        if new.passed:
            assert new.details["average_defect"] == 0.0
        else:
            # the witness unit's own average against its orbit mean 1_O / |O|
            i, j = new.witness["entry"]
            unit = np.zeros((window.total_dim,) * 2)
            unit[i, j] = 1.0
            mean = orbit_basis(sub, window)[compact.orbit_labels(sub, window)[i, j]]
            gap = list_average(sub, LocalOperator(window, unit)).matrix - mean * mean[i, j]
            assert abs(np.linalg.norm(gap) - new.residual) < AGREE


@pytest.mark.parametrize("which", ["merged", "split"])
def test_planted_labels_fail_umegaki_at_the_planted_entry(monkeypatch, which):
    window, group = Window(2, 3), enumerate_group(3)
    labels = compact.orbit_labels(group, window)
    planted = labels.copy()
    if which == "merged":
        # e_00 is fixed by every g; give it the label of the three-unit orbit of e_01
        planted[0, 0] = labels[0, 1]
        entry = [0, 0]
    else:
        # e_02 leaves the three-unit orbit {e_01, e_02, e_04} for a label of its own
        planted[0, 2] = labels.max() + 1
        entry = [0, 2]
    assert (labels == labels[0, 1]).sum() == 3 and labels[0, 2] == labels[0, 4] == labels[0, 1]
    monkeypatch.setattr(compact, "orbit_labels", lambda group, window, moves=None: planted)
    out = compact.verify_umegaki(group, window)
    assert not out.passed
    assert out.witness == {"entry": entry}
    # merged: |E(e_00) - (e_00 + 1_O) / 4|_F = sqrt(3/4); split: |1_O / 3 - e_02|_F = sqrt(2/3)
    assert out.residual == pytest.approx(np.sqrt(0.75 if which == "merged" else 2 / 3))


def test_each_average_defect_builds_the_moves_once(monkeypatch):
    window, group, small = Window(2, 4), enumerate_group(4), [extend(g, 4) for g in enumerate_group(3)]
    want = (compact.verify_umegaki(group, window), compact.averaging_checks(small, group, window),
            compact.orbit_labels(group, window))
    calls, build = [], compact._unit_moves
    monkeypatch.setattr(compact, "_unit_moves", lambda *args: calls.append(args) or build(*args))
    assert compact.verify_umegaki(group, window) == want[0] and len(calls) == 1
    assert compact.averaging_checks(small, group, window) == want[1] and len(calls) == 3
    assert np.array_equal(compact.orbit_labels(group, window), want[2]) and len(calls) == 4
    moves = build(group, window)
    assert np.array_equal(compact.orbit_labels(group, window, moves), want[2]) and len(calls) == 4


@pytest.mark.parametrize("w", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 1)],
                         ids=lambda w: f"d{w[0]}-n{w[1]}-S{w[2]}-in-S{w[2] + 1}")
def test_projective_family_agrees_with_the_probe_loop(w):
    d, N, k = w
    window = Window(d, N)
    big = on_sites(k + 1, N)
    small = [g for g in big if g(k + 1) == k + 1]
    new = compact.projective_family_check(small, big, window)
    old = loop_projective(small, big, window)
    assert new.passed and new.residual == 0.0
    assert old["double_average"] < AGREE and old["range_absorption"] < AGREE
    for key in ("rank_small", "rank_big"):
        assert new.details[key] == old[key], key


@pytest.mark.parametrize("w", SMALL, ids=_id)
def test_projective_verdict_on_sublists_is_the_probe_loop_verdict(w):
    # the stabilizer of the last site, within each list, under that list; the
    # loop form of the law also asks both averages to be conditional expectations
    # (alone it passes {e} under S_3 less (2 1 3), whose average is none)
    d, N, k = w
    window, group = Window(d, N), on_sites(k, N)
    for big in [group, *sublists(group, seed=d * N * k)]:
        small = [g for g in big if g(k) == k]
        if not small:
            continue
        new = compact.projective_family_check(small, big, window)
        old = (loop_umegaki_passes(big, window) and loop_umegaki_passes(small, window)
               and loop_projective_passes(small, big, window))
        assert new.passed == old, [g.image for g in big]
        if new.passed:
            assert new.details["average_defect_small"] == new.details["average_defect_big"] == 0.0


def test_an_open_small_list_under_a_closed_big_list_fails_projectivity():
    # E_big absorbs every element of S_3, so E_big E_small = E_big holds for
    # the list less (3 2 1) too, and the probe loop passed it; its own average
    # is no conditional expectation
    window, big = Window(2, 3), enumerate_group(3)
    small = big[:-1]
    assert loop_projective_passes(small, big, window)
    out = compact.projective_family_check(small, big, window)
    assert not out.passed
    assert out.details["average_defect_big"] == 0.0
    assert out.witness["list"] == "small"
    assert out.residual == compact.verify_umegaki(small, window).residual
