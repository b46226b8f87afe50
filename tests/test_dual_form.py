"""Differential tests: the defect-matrix verifiers against probe loops.

Each oracle, kept in tests/oracles.py, is the probe-loop form of a linear
identity, evaluating both sides through states.evaluate one probe at a time
(on the density, built once per oracle call).  On windows with D <= 16 each
verifier, which pairs its defect matrix with the whole algebra, must agree
with the oracle over the complete matrix-unit basis to round-off, on
identities that hold and on identities that fail alike.  Only the centralizer
part of verify_strong still takes a probe list; states.centralizer_residual
is checked on both forms.  A stack pairs row by row exactly as its lone
matrices do, and the public functions that take a probe list are pinned by name.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import quasinv

from quasinv import cocycle, compact, matcore, qmc, states
from quasinv.lattice import LocalOperator, Window, enumerate_group, transposition

from oracles import (
    AGREE, case_table, cyclic_shift, dense_product, family, generic_chain, nonuniqueness_demo, oracle_centralizer,
    oracle_exchangeable, oracle_extension, oracle_quasi_invariance, oracle_reconstruction,
    oracle_sandwich, oracle_transport,
)


# ---- quasi-invariance -----------------------------------------------------

@pytest.mark.parametrize("name", family("qi"))
def test_quasi_invariance_matches_probe_loop(name):
    phi, T = case_table(name)
    units = states.matrix_unit_probes(T.window)
    want, where = oracle_quasi_invariance(phi, T, units)
    complete = cocycle.verify_quasi_invariance(phi, T, tol=1e-9)
    assert abs(complete.details["pairing"] - want) <= AGREE
    if name.endswith("defect"):
        # a single planted entry: the check fails and names the oracle's g and matrix unit
        g, k = where
        D = T.window.total_dim
        assert want > 1e-9 and not complete.passed
        assert complete.witness == {"g": g, "entry": [k // D, k % D]}
    elif not name.endswith("table"):
        assert want <= 1e-9 and complete.passed


# ---- centralizer, transport and exchangeability ---------------------------

def test_centralizer_matches_probe_loop():
    for d, N in ((2, 2), (2, 3), (2, 4), (3, 2)):
        phi = dense_product(d, N, seed=N)
        units = states.matrix_unit_probes(phi.window)
        D = phi.window.total_dim
        for c in (LocalOperator(phi.window, matcore.random_matrix(D, seed=D)),
                  LocalOperator(phi.window, states.full_density(phi) @ states.full_density(phi)),
                  phi.window.identity()):
            want = oracle_centralizer(phi, c, units)
            assert abs(states.centralizer_residual(phi, c) - want) <= AGREE
            assert abs(states.centralizer_residual(phi, c, units) - want) <= AGREE


def test_strong_centralizer_part_matches_probe_loop():
    for N in (2, 3):
        phi = dense_product(2, N, seed=5 + N)
        T = cocycle.product_state_cocycle(phi, enumerate_group(N))
        units = states.matrix_unit_probes(phi.window)
        want = max(oracle_centralizer(phi, x, units) for _, x in T)
        got = cocycle.verify_strong(T, phi).details["centralizer"]
        assert want > 1e-3  # non-diagonal densities: the entries are not central
        assert abs(got - want) <= AGREE


def test_transport_matches_probe_loop():
    # tau_state=inf admits x outside the centralizer, where the identity fails
    for N in (2, 3, 4):
        for phi in (dense_product(2, N, seed=N), dense_product(2, N, seed=N + 1)):
            T = cocycle.product_state_cocycle(phi, enumerate_group(N))
            units = states.matrix_unit_probes(phi.window)
            W = states.full_density(phi)
            for x in (phi.window.identity(), LocalOperator(phi.window, W @ W),
                      T.entry(transposition(N, 1, 2))):
                want = oracle_transport(phi, T, x, units)
                got = cocycle.verify_centralizer_transport(phi, T, x, tau_state=np.inf)
                assert abs(got.residual - want) <= AGREE
    assert want > 1e-3  # x_t is not central in a non-diagonal state


def test_exchangeability_matches_probe_loop():
    for d, N in ((2, 2), (2, 3), (2, 4), (3, 2)):
        W = matcore.random_density(d, 0.1, seed=d + N)
        # one shift alone is not closed under inverses, so g and g^-1 differ
        for group in (enumerate_group(N), [cyclic_shift(N)]):
            for psi in (states.homogeneous_state(d, N, W), dense_product(d, N, seed=N)):
                units = states.matrix_unit_probes(psi.window)
                want = oracle_exchangeable(psi, group, units)
                assert abs(states.is_exchangeable(psi, group) - want) <= AGREE


# ---- Markov chains: sandwich and window extension --------------------------

@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("skew", [0.0, 0.2])
def test_sandwich_matches_probe_loop(monkeypatch, N, skew):
    # the sandwich identity holds for every invertible chain; a skewed y
    # makes it fail, and both forms must then report the same residual
    y_true = qmc.y_cocycle
    monkeypatch.setattr(qmc, "y_cocycle", lambda M, group: y_true(M, group) @ (
        np.eye(2 ** (N + 1)) + skew * matcore.random_matrix(2 ** (N + 1), seed=N)))
    for M in (qmc.MarkovState(2, np.eye(2) / 2, qmc.seeded_chain(N, seed=N)),
              generic_chain(N, seed=N)):
        units = states.matrix_unit_probes(Window(2, N))
        whole = qmc.sandwich_residual(M, enumerate_group(N))
        for k, g in enumerate(enumerate_group(N)):
            want = oracle_sandwich(M, g, units)
            assert abs(whole[k] - want) <= AGREE
            assert (want > 1e-3) == (skew > 0)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_extension_matches_probe_loop(N):
    consistent = (qmc.MarkovState(2, np.eye(2) / 2, qmc.seeded_chain(N, seed=N)),
                  qmc.diagonal_cda(2, 0.05))
    generic = (generic_chain(N, seed=10 + N), np.eye(4) + 0.3 * matcore.random_matrix(4, seed=N))
    for M, K in (consistent, generic):
        want = oracle_extension(M, K, states.matrix_unit_probes(Window(2, N)))
        assert abs(qmc.extension_residual(M, K) - want) <= AGREE
        assert (want > 1e-3) == (M is generic[0])


# ---- structure reconstruction ---------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4])
def test_reconstruction_matches_probe_loop(N):
    rng = np.random.Generator(np.random.Philox(N))
    phi = states.product_state(2, [np.diag([p, 1.0 - p]) for p in rng.uniform(0.2, 0.8, N)])
    T = cocycle.product_state_cocycle(phi, enumerate_group(N))
    units = states.matrix_unit_probes(phi.window)
    kap = compact.kappa(T)
    phi_G = compact.invariant_state(phi, T.group)
    h = matcore.random_hermitian(2 ** N, seed=N)
    wrong = LocalOperator(phi.window, kap.matrix @ (np.eye(2 ** N) + 0.3 * h / np.linalg.norm(h, 2)))
    for decomposition in ((phi_G, kap), (phi_G, wrong)):
        want = oracle_reconstruction(phi, *decomposition, units)
        got = compact.verify_structure(phi, T, decomposition=decomposition)
        assert abs(got.details["reconstruction"] - want) <= AGREE
    assert want > 1e-3  # the wrong kappa breaks the factorization


# ---- the pairing of a stack, and the probe surface -------------------------

@pytest.mark.parametrize("complex_", [False, True])
def test_a_stack_pairs_row_by_row_as_its_lone_matrices(complex_):
    D = 5
    M = np.stack([matcore.random_matrix(D, seed=60 + k) for k in range(6)])
    M = M if complex_ else M.real.copy()
    # tied maxima: Tr(M e_ij) = M_ji is +-2 (or 2i) on e_03, e_31 and e_40;
    # the first in row-major order of [i, j] wins
    M[2] = 0.0
    M[2, 1, 3], M[2, 0, 4], M[2, 3, 0] = 2.0, -2.0, 2j if complex_ else 2.0
    resid, units = states.pairing_residual(M)
    assert resid.shape == (6,) and units.shape == (6, 2)
    # one magnitude picks and reports each maximum: hypot on complex values, abs on real
    assert np.array_equal(resid, (np.hypot(M.real, M.imag) if complex_ else np.abs(M)).max(axis=(1, 2)))
    assert units[2].tolist() == [0, 3]
    for m, r, u in zip(M, resid, units, strict=True):
        lone, where = states.pairing_residual(m)
        assert type(lone) is float and lone == r
        assert where == {"entry": u.tolist()}
        assert u.tolist() == np.argwhere(np.abs(m.T) == np.abs(m).max())[0].tolist()


# the public functions that take a probe list; perfbench passes one to each
PROBE_SURFACE = {"cocycle.verify_strong", "states.centralizer_residual", "states.pairing_residual",
                 "states.probe_blocks", "gns.verify_covariance", "gns.verify_lifted_expectation"}

COMPLETE_FORMS = [(cocycle.verify_quasi_invariance, 2), (cocycle.verify_centralizer_transport, 3),
                  (compact.verify_structure, 2), (nonuniqueness_demo, 2),
                  (states.is_exchangeable, 2), (qmc.extension_residual, 2),
                  (qmc.sandwich_residual, 2)]


def test_only_the_probe_surface_takes_probes():
    takes = set()
    for info in pkgutil.iter_modules(quasinv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"quasinv.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_") \
                    and "probes" in inspect.signature(fn).parameters:
                takes.add(f"{info.name}.{name}")
    assert takes == PROBE_SURFACE


def test_the_complete_forms_refuse_a_positional_probe_list():
    units = states.matrix_unit_probes(Window(2, 2))
    for fn, required in COMPLETE_FORMS:  # the parameters after the required ones are keyword-only
        with pytest.raises(TypeError):
            inspect.signature(fn).bind(*[None] * required, units)
    phi = dense_product(2, 2, seed=1)
    T = cocycle.product_state_cocycle(phi, enumerate_group(2))
    with pytest.raises(TypeError):
        cocycle.verify_quasi_invariance(phi, T, units)
