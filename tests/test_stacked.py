"""Stacked small-matrix kernels against the per-matrix loops they replace.

Each stacked call runs the same LAPACK/BLAS routine on each matrix, in the
same order of products and sums, so every comparison here is bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasinv import cli, cocycle, gns, limits, matcore, states
from quasinv.cocycle import CocycleTable, check_SW, solve_SW
from quasinv.errors import NotHermitianZ, RangeError
from quasinv.lattice import LocalOperator, Window, enumerate_group, extend


def draw(shape, seed, kind):
    rng = np.random.Generator(np.random.Philox(seed))
    A = rng.standard_normal(shape)
    return A + 1j * rng.standard_normal(shape) if kind == "complex" else A


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("d", range(2, 17))
def test_stacked_norms_match_the_per_matrix_loop(d, kind):
    A = draw((7, d, d), d, kind)
    A[3] = (A[3] + A[3].conj().T) / 2.0  # one hermitean entry: herm_defect exactly 0
    norms, herms = matcore.operator_norm(A), matcore.herm_defect(A)
    assert norms.shape == herms.shape == (7,)
    assert norms.tolist() == [np.linalg.norm(a, 2) for a in A]
    assert herms.tolist() == [np.linalg.norm(a - a.conj().T, 2) for a in A]
    assert herms[3] == 0.0
    assert [matcore.operator_norm(a) for a in A] == norms.tolist()
    assert all(type(matcore.operator_norm(a)) is float for a in A)
    assert all(type(matcore.herm_defect(a)) is float for a in A)


def test_norms_of_deeper_and_empty_stacks():
    A = draw((2, 3, 4, 4), 5, "complex")
    assert np.array_equal(matcore.operator_norm(A),
                          [[np.linalg.norm(a, 2) for a in row] for row in A])
    assert matcore.operator_norm(np.zeros((0, 0))) == 0.0
    assert matcore.operator_norm(np.zeros((0, 3, 3))).shape == (0,)
    assert np.array_equal(matcore.operator_norm(np.zeros((4, 0, 0))), np.zeros(4))


def matrix_by_seed(dim, seed, scale=1.0):
    """random_matrix as it was for one seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * G


def density_by_seed(dim, floor, seed):
    """random_density as it was for one seed."""
    G = matrix_by_seed(dim, seed)
    A = G @ G.conj().T
    A = A * ((1.0 - dim * floor) / np.trace(A).real)
    W = A + floor * np.eye(dim)
    return (W + W.conj().T) / 2.0


SEEDS = [0, 1, 7, 10007 * 3 + 99, 2**40, 2**70]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 16])
def test_seeded_stacks_match_per_seed_calls(d):
    floor = 0.5 / (d * d)
    mats = np.array([matrix_by_seed(d, s, 0.3) for s in SEEDS])
    dens = np.array([density_by_seed(d, floor, s) for s in SEEDS])
    assert np.array_equal(matcore.random_matrix(d, SEEDS, scale=0.3), mats)
    assert np.array_equal(matcore.random_density(d, floor, SEEDS), dens)
    herm = matcore.random_hermitian(d, SEEDS)
    assert np.array_equal(herm, [(G + G.conj().T) / 2.0 for G in map(matrix_by_seed, [d] * 6, SEEDS)])
    for k, s in enumerate(SEEDS):
        assert np.array_equal(matcore.random_matrix(d, s, scale=0.3), mats[k])
        assert np.array_equal(matcore.random_density(d, floor, s), dens[k])
        assert np.array_equal(matcore.random_hermitian(d, s), herm[k])
    assert matcore.random_matrix(d, range(3, 3)).shape == (0, d, d)


def test_SW_on_a_stack_matches_each_matrix():
    W = matcore.random_density(3, 1e-3, range(20))
    z = matcore.random_hermitian(3, range(100, 120))
    x = solve_SW(W, z)
    ok, resid, z_back = check_SW(W, x)
    assert ok.dtype == bool and ok.all() and resid.shape == (20,)
    for k in range(20):
        x_k = solve_SW(W[k], z[k])
        assert np.array_equal(x[k], x_k)
        ok_k, resid_k, z_k = check_SW(W[k], x_k)
        assert type(ok_k) is bool and ok_k
        assert resid_k == resid[k] and np.array_equal(z_k, z_back[k])
    bad = check_SW(W, x + 1e-3j * np.eye(3))[0]
    assert not bad.any()


def test_solve_SW_refuses_a_stack_holding_one_non_hermitean_z():
    W = matcore.random_density(2, 1e-3, range(5))
    z = matcore.random_hermitian(2, range(10, 15))
    z[3, 0, 1] += 1e-3
    with pytest.raises(NotHermitianZ):
        solve_SW(W, z)


def sw_checks_by_loop(cfg):
    """The per-trial loop that _run_sw replaced, one (W, z) pair at a time."""
    floor = max(cfg.floor, 1e-3)
    defining = herm_commuting = 0.0
    disagreements = 0
    for k in range(100):
        W = matcore.random_density(cfg.d, floor, seed=cfg.seed * 10007 + k)
        z = matcore.random_hermitian(cfg.d, seed=cfg.seed * 20011 + k)
        x = solve_SW(W, z)
        defining = max(defining, check_SW(W, x)[1])
        herm = matcore.herm_defect(x)
        comm = matcore.operator_norm(z @ W - W @ z)
        if (herm <= 1e-8) != (comm <= 1e-8):
            disagreements += 1
        x_comm = solve_SW(W, W @ W + 0.5 * W)
        herm_commuting = max(herm_commuting, matcore.herm_defect(x_comm))
    return [
        cli._check(cocycle._report("defining_relation", defining, 1e-10)),
        cli._check(cocycle._report("commuting_gives_hermitean", herm_commuting, 1e-10)),
        cli._check(cocycle._report("hermitean_iff_commuting", float(disagreements), 0.0)),
    ]


@pytest.mark.parametrize("seed", [0, 1, 4, 11])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_sw_run_matches_the_per_trial_loop(d, seed):
    cfg = cli.Config(scenario="sw_solutions", d=d, seed=seed)
    checks, data = cli._run_sw(cfg)
    assert data is None
    assert checks == sw_checks_by_loop(cfg)
    assert cli.render_report({"checks": checks}) == cli.render_report(
        {"checks": sw_checks_by_loop(cfg)})


def test_sw_run_holds_at_most_the_counted_stacks():
    d = 64
    tracemalloc.start()
    try:
        cli._run_sw(cli.Config(scenario="sw_solutions", d=d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cli.SW_STACKS * cli.SW_TRIALS * d * d * 16


def cauchy_by_pair(seq, M, N):
    """cauchy_diagnostic as it was: one (M, N) pair from its own spectrum reads,
    the tail summed left to right (as sum() adds floats before Python 3.12)."""
    if not 0 <= M < N <= len(seq):
        raise RangeError(f"need 0 <= M < N <= {len(seq)}, got M={M} N={N}")
    head_norm = 1.0
    for k in range(1, M + 1):
        head_norm *= seq.spectrum(k)[1]
    prod_min, prod_max, growth = 1.0, 1.0, 1.0
    for k in range(M + 1, N + 1):
        lmin, lmax, dev = seq.spectrum(k)
        prod_min *= lmin
        prod_max *= lmax
        growth *= 1.0 + dev
    diff = head_norm * max(prod_max - 1.0, 1.0 - prod_min)
    bound = head_norm * (growth - 1.0)
    summable_tail = 0.0
    for k in range(M + 1, N + 1):
        summable_tail += seq.spectrum(k)[2]
    return {"diff": diff, "bound": bound, "summable_tail": summable_tail}


@pytest.mark.parametrize("preset", ["geometric", "harmonic"])
def test_cauchy_sweep_rows_match_the_per_pair_diagnostic(preset):
    for n in range(2, 21):
        seq = limits.preset_sequence(preset, n)
        for M in range(n):
            rows = limits.cauchy_sweep(seq, M, n)
            assert rows == [cauchy_by_pair(seq, M, N) for N in range(M + 1, n + 1)]
            assert all(type(v) is float for row in rows for v in row.values())
            for N in range(M + 1, n + 1):
                assert limits.cauchy_diagnostic(seq, M, N) == cauchy_by_pair(seq, M, N)


def test_cauchy_sweep_on_random_weights_and_its_range():
    eps = np.random.Generator(np.random.Philox(3)).uniform(-0.3, 0.3, size=8)
    seq = limits.WindowProductSequence(np.diag([0.45, 0.55]), [np.diag([0.5 + e, 0.5 - e]) for e in eps])
    for M in range(8):
        assert limits.cauchy_sweep(seq, M, 8) == [cauchy_by_pair(seq, M, N) for N in range(M + 1, 9)]
    for M, N in ((3, 3), (-1, 2), (0, 9)):
        with pytest.raises(RangeError):
            limits.cauchy_sweep(seq, M, N)


def test_table_copies_a_writeable_array_and_leaves_it_writeable():
    for dtype in (np.float64, np.complex128, np.int64):
        a = np.array([np.eye(2, dtype=dtype)])
        T = CocycleTable(enumerate_group(1), a, Window(2, 1))
        a[0, 0, 0] = 5
        assert a.flags.writeable and T.stack[0, 0, 0] == 1.0
        assert not T.stack.flags.writeable and not np.shares_memory(a, T.stack)


def test_table_adopts_a_read_only_array():
    for dtype in (np.float64, np.complex128):
        a = np.array([np.eye(2, dtype=dtype)])
        a.flags.writeable = False
        assert CocycleTable(enumerate_group(1), a, Window(2, 1)).stack is a


def test_built_stacks_are_handed_over_read_only_and_adopted(monkeypatch):
    handed = []
    init = CocycleTable.__init__

    def spy(self, group, entries, window):
        handed.append(entries)
        init(self, group, entries, window)

    monkeypatch.setattr(CocycleTable, "__init__", spy)
    phi = states.product_state(2, [np.diag([0.3, 0.7]), np.diag([0.6, 0.4]), np.eye(2) / 2])
    T = cocycle.product_state_cocycle(phi, [extend(g, 3) for g in enumerate_group(3)])
    planted = cli._plant_defect(T, 1e-3)
    assert len(handed) == 2
    for table, entries in zip((T, planted), handed):
        assert not entries.flags.writeable and table.stack is entries
    first_moved = next(i for i, g in enumerate(T.group) if not g.is_identity())
    assert np.argwhere(planted.stack != T.stack).tolist() == [[first_moved, 0, 7]]


def frobenius(a):
    """||a||_F from its definition, sum |a_ij|^2 in row-major order."""
    a = np.ascontiguousarray(a.matrix if isinstance(a, LocalOperator) else a)
    return float(np.sqrt((a.conj() * a).real.sum()))


def test_probe_scale_is_the_per_probe_maximum():
    """The certified scale: the largest Frobenius norm, never below the exact
    largest operator norm, and exactly 1 on matrix units."""
    window = Window(2, 2)
    probes = [LocalOperator(window, draw((4, 4), k, "complex") * (1.0 + k / 100.0))
              for k in range(150)]
    probes.append(draw((4, 4), 1000, "complex").real * 3.0 + 0j)  # the largest, in the last block
    for some in (probes, probes[:-1], probes[:3]):
        exact = max(np.linalg.norm(a.matrix if isinstance(a, LocalOperator) else a, 2) for a in some)
        assert gns._probe_scale(some) == max(map(frobenius, some)) >= exact
    assert gns._probe_scale(iter(probes[:3])) == gns._probe_scale(probes[:3])
    assert gns._probe_scale(states.matrix_unit_probes(Window(2, 4))) == 1.0
    assert gns._probe_scale([]) == 0.0
    assert gns._probe_scale(None) == 1.0


PROBE_KINDS = ["real", "complex", "hermitean", "diagonal", "rank-one"]
ROUND = 8 * np.finfo(float).eps  # the SVD and the row norm each round a few ulps


def probe_of(kind, D, seed):
    if kind == "rank-one":
        u, v = draw((2, D), seed, "complex")
        return np.outer(u, v.real if seed % 2 else v.conj())
    a = draw((D, D), seed, "real" if kind in ("real", "diagonal") else "complex")
    return {"hermitean": (a + a.conj().T) / 2.0, "diagonal": np.diag(np.diag(a))}.get(kind, a)


@settings(max_examples=100, deadline=None)
@given(D=st.integers(1, 12), kinds=st.lists(st.sampled_from(PROBE_KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 10_000), size=st.floats(1e-3, 1e3))
def test_probe_scale_bounds_the_exact_scale(D, kinds, seed, size):
    """||a|| <= ||a||_F <= sqrt(rank a) ||a|| <= sqrt(D) ||a||, equal on rank one."""
    probes = [size * probe_of(kind, D, seed + k) for k, kind in enumerate(kinds)]
    for kind, a in zip(kinds, probes):
        got, exact = gns._probe_scale([a]), matcore.operator_norm(a)
        assert exact <= got * (1.0 + ROUND)
        assert got <= np.sqrt(np.linalg.matrix_rank(a)) * exact * (1.0 + ROUND)
        if kind == "rank-one":
            assert got == pytest.approx(exact, rel=ROUND, abs=0.0)
    got, exact = gns._probe_scale(probes), max(map(matcore.operator_norm, probes))
    assert exact <= got * (1.0 + ROUND) and got <= np.sqrt(D) * exact * (1.0 + ROUND)
