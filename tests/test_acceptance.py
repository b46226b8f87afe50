"""Acceptance suite: eleven end-to-end criteria, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each criterion also fails its own test on any violated tolerance.
"""

import json

import numpy as np

from quasinv import cli, cocycle, compact, gns, limits, matcore, qmc, states
from quasinv.cocycle import CocycleTable
from quasinv.lattice import LocalOperator, Window, enumerate_group, extend

from oracles import anchor_state

N_SEEDED = 10


def _verdict(num, label, ok):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def seeded_diagonal_state(d, n_sites, seed, floor=1e-3):
    rng = np.random.Generator(np.random.Philox(seed))
    ws = []
    for _ in range(n_sites):
        raw = rng.uniform(0.2, 0.8, size=d)
        w = raw / raw.sum()
        ws.append(np.diag((1.0 - d * floor) * w + floor))
    return states.product_state(d, ws)


def test_criterion_01_cocycle_axioms():
    group = enumerate_group(3)
    worst = 0.0
    for seed in range(N_SEEDED):
        phi = seeded_diagonal_state(2, 3, seed)
        T = cocycle.product_state_cocycle(phi, group)
        worst = max(worst,
                    cocycle.verify_normalization(T, tol=1e-9).residual,
                    cocycle.verify_cocycle_law(T, tol=1e-9).residual,
                    cocycle.verify_inverse_relation(T, tol=1e-9).residual)
    ok = worst <= 1e-9
    assert _verdict(1, f"cocycle axioms on {N_SEEDED} seeded states "
                       f"(worst {worst:.2e})", ok)


def test_criterion_02_quasi_invariance_complete_and_defect_detected():
    group = enumerate_group(3)
    phi = seeded_diagonal_state(2, 3, seed=3)
    T = cocycle.product_state_cocycle(phi, group)
    clean = cocycle.verify_quasi_invariance(phi, T, tol=1e-10)

    target = next(g for g in T.group if not g.is_identity())
    entries = dict(T.entries)
    m = entries[target.image].matrix.copy()
    m[0, -1] += 1e-3
    entries[target.image] = LocalOperator(T.window, m)
    planted = cocycle.verify_quasi_invariance(
        phi, CocycleTable(T.group, entries, T.window), tol=1e-10)

    ok = (clean.residual <= 1e-10 and clean.passed
          and not planted.passed and planted.witness is not None)
    assert _verdict(2, f"quasi-invariance complete ({clean.residual:.2e}), "
                       f"planted 1e-3 defect caught with witness", ok)


def test_criterion_03_strong_bundle_and_rotated_counterexample():
    group = enumerate_group(3)
    worst = 0.0
    for seed in range(N_SEEDED):
        phi = seeded_diagonal_state(2, 3, seed)
        T = cocycle.product_state_cocycle(phi, group)
        rep = cocycle.verify_strong(T, phi, tol=1e-9)
        worst = max(worst, rep.residual)
        assert rep.passed

    theta = 0.5
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    W2 = R @ np.diag([0.6, 0.4]) @ R.T
    phi_rot = states.product_state(2, [np.diag([0.7, 0.3]), W2])
    group2 = enumerate_group(2)
    T_rot = cocycle.product_state_cocycle(phi_rot, group2)
    probes = states.matrix_unit_probes(T_rot.window)
    rot_strong = cocycle.verify_strong(T_rot, phi_rot, probes, tol=1e-9)
    rot_qi = cocycle.verify_quasi_invariance(phi_rot, T_rot, tol=1e-10)
    ok = (worst <= 1e-9
          and rot_strong.details["hermiticity"] >= 1e-3
          and not rot_strong.passed
          and rot_qi.residual <= 1e-10 and rot_qi.passed)
    assert _verdict(3, f"strong bundle (worst {worst:.2e}); rotated weight is "
                       f"quasi-invariant but not strong", ok)


def test_criterion_04_solution_family_and_hermiticity_criterion():
    defining = 0.0
    mismatches = 0
    commuting_herm = 0.0
    for seed in range(100):
        W = matcore.random_density(2, 1e-3, seed=seed)
        z = matcore.random_hermitian(2, seed=seed + 50_000)
        x = cocycle.solve_SW(W, z)
        _, resid, _ = cocycle.check_SW(W, x)
        defining = max(defining, resid)
        herm = matcore.herm_defect(x) <= 1e-10
        comm = matcore.operator_norm(z @ W - W @ z) <= 1e-10
        if herm != comm:
            mismatches += 1
        z_c = W @ W + 0.5 * W
        x_c = cocycle.solve_SW(W, z_c)
        commuting_herm = max(commuting_herm, matcore.herm_defect(x_c))
        assert matcore.operator_norm(z_c @ W - W @ z_c) <= 1e-10
    ok = defining <= 1e-10 and mismatches == 0 and commuting_herm <= 1e-10
    assert _verdict(4, f"100 seeded solutions of W x = x* W "
                       f"(defect {defining:.2e}, criterion mismatches "
                       f"{mismatches})", ok)


def test_criterion_05_hand_anchor():
    phi = anchor_state()
    group = enumerate_group(2)
    t = next(g for g in group if not g.is_identity())
    T = cocycle.product_state_cocycle(phi, group)

    x_t = T.entries[t.image].matrix
    r1 = matcore.operator_norm(x_t - np.diag([1.0, 3.0, 1.0 / 3.0, 1.0]))

    kap = compact.kappa(T)
    r2 = matcore.operator_norm(kap.matrix - np.diag([1.0, 2.0, 2.0 / 3.0, 1.0]))

    kinv = LocalOperator(T.window, matcore.inv(kap.matrix))
    r3 = matcore.operator_norm(compact.haar_average(group, kinv).matrix - np.eye(4))

    from quasinv.lattice import act
    r4 = matcore.operator_norm(
        x_t - (kap @ act(t.inverse(), kinv)).matrix)

    r5 = abs(states.evaluate(phi, T.entries[t.image]) - 1.0)

    worst = max(r1, r2, r3, r4, r5)
    ok = worst <= 1e-14
    assert _verdict(5, f"hand-computed two-site anchor (worst {worst:.2e})", ok)


def test_criterion_06_structure_round_trip():
    group = enumerate_group(3)
    worst_structure = 0.0
    worst_rebuild = 0.0
    for seed in range(N_SEEDED):
        phi = seeded_diagonal_state(2, 3, seed)
        T = cocycle.product_state_cocycle(phi, group)
        rep = compact.verify_structure(phi, T, tol=1e-9)
        worst_structure = max(worst_structure, rep.residual)

        phi_G = compact.invariant_state(phi, group)
        kinv = LocalOperator(T.window, matcore.inv(compact.kappa(T).matrix))
        phi2, T2 = compact.converse_construct(phi_G, kinv, group, tol=1e-9)
        for a in states.matrix_unit_probes(T.window):
            worst_rebuild = max(worst_rebuild,
                                abs(states.evaluate(phi, a) - states.evaluate(phi2, a)))
        for g in group:
            worst_rebuild = max(worst_rebuild, matcore.operator_norm(
                T.entries[g.image].matrix - T2.entries[g.image].matrix))
    ok = worst_structure <= 1e-9 and worst_rebuild <= 1e-10
    assert _verdict(6, f"structure decomposition ({worst_structure:.2e}) and "
                       f"converse rebuild ({worst_rebuild:.2e})", ok)


def test_criterion_07_conditional_expectation_suite():
    worst = 0.0
    for degree in (2, 3):
        group = enumerate_group(degree)
        rep = compact.verify_umegaki(group, Window(2, degree), tol=1e-10)
        assert rep.passed
        worst = max(worst, rep.residual)

    window3 = Window(2, 3)
    small = [extend(g, 3) for g in enumerate_group(2)]
    big = enumerate_group(3)
    proj = compact.projective_family_check(small, big, window3, tol=1e-10)
    assert proj.passed
    worst = max(worst, proj.residual)
    ok = worst <= 1e-10
    assert _verdict(7, f"conditional-expectation laws and projectivity "
                       f"(worst {worst:.2e})", ok)


def test_criterion_08_gns_covariance():
    phi = anchor_state()
    group = enumerate_group(2)
    T = cocycle.product_state_cocycle(phi, group)
    R = gns.build_gns(phi)
    assert R.dim == 16
    U = gns.build_unitaries(R, T)
    probes = states.matrix_unit_probes(phi.window)

    suite = gns.verify_unitaries(R, U, group, tol=1e-9)
    cov = gns.verify_covariance(R, U, group, probes, tol=1e-9)
    lift = gns.verify_lifted_expectation(R, U, group, probes, tol=1e-9)

    worst = max(suite["residual"], cov["residual"], lift["residual"])
    ok = suite["pass"] and cov["pass"] and lift["pass"]
    assert _verdict(8, f"covariant cyclic representation on a 16-dim space "
                       f"(worst {worst:.2e})", ok)


def test_criterion_09_markov_chain_suite():
    base = qmc.diagonal_cda(2, 0.0)
    assert np.allclose(base, np.diag([np.sqrt(1.5), np.sqrt(0.5),
                                      np.sqrt(0.5), np.sqrt(1.5)]))
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(3, seed=1))
    group = enumerate_group(3)

    cda = max(qmc.cda_normalize_check(K, M.W_inf) for K in M.chain)

    K_next = qmc.seeded_chain(4, seed=1)[3]
    ext = qmc.extension_residual(M, K_next)

    sandwich = float(qmc.sandwich_residual(M, group).max())

    T = qmc.x_cocycle_table(M, group)
    cross = 0.0
    for g, y in zip(qmc._extend_perm(group, M), qmc.y_cocycle(M, group)):
        cross = max(cross, matcore.operator_norm(T.entries[g.image].matrix - y @ y.conj().T))

    phi = qmc.markov_functional(M)
    strong = cocycle.verify_strong(T, phi, tol=1e-9)
    laws = max(cocycle.verify_normalization(T, tol=1e-9).residual,
               cocycle.verify_cocycle_law(T, tol=1e-9).residual,
               cocycle.verify_inverse_relation(T, tol=1e-9).residual)

    ok = (cda <= 1e-12 and ext <= 1e-9 and sandwich <= 1e-9
          and cross <= 1e-9 and strong.passed and laws <= 1e-9)
    assert _verdict(9, f"three-site chain: amplitudes {cda:.2e}, extension "
                       f"{ext:.2e}, sandwich {sandwich:.2e}, x = y y* "
                       f"{cross:.2e}, strong suite", ok)


def test_criterion_10_convergence_diagnostics():
    seq = limits.preset_sequence("geometric", 12)

    excess = 0.0
    for M in range(12):
        for N in range(M + 1, 13):
            step = limits.cauchy_diagnostic(seq, M, N)
            excess = max(excess, step["diff"] - step["bound"])

    steps = [limits.cauchy_diagnostic(seq, M, M + 1)["diff"] for M in range(3, 12)]
    ratios = [steps[k] / steps[k + 1] for k in range(len(steps) - 1)]
    min_ratio = min(ratios)

    ok = excess <= 1e-12 and min_ratio >= 3.0
    assert _verdict(10, f"window differences dominated by the bound, decay "
                        f"factor {min_ratio:.2f}", ok)


def test_criterion_11_reports_reproducible(tmp_path):
    identical = True
    for scenario in sorted(cli.SCENARIOS):
        out_a = tmp_path / f"{scenario}_a.json"
        out_b = tmp_path / f"{scenario}_b.json"
        rc_a = cli.main(["run", "--scenario", scenario, "--out", str(out_a)])
        rc_b = cli.main(["run", "--scenario", scenario, "--out", str(out_b)])
        assert rc_a == 0 and rc_b == 0
        json.loads(out_a.read_text(encoding="utf-8"))
        if out_a.read_bytes() != out_b.read_bytes():
            identical = False
    ok = identical
    assert _verdict(11, "every runner scenario emits byte-identical reports "
                        "across repeated runs", ok)
