"""Configuration-driven verification runner.

Builds one of six scenarios, executes its verification suite, and writes a
machine-readable JSON report with stable key order.  Exit status: 0 when
every check passes, 1 on a verification failure, 2 on a configuration
error.  Fixed seeds and a fixed reduction order make reports byte-identical
across runs of the same configuration.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cocycle, compact, limits, matcore, qmc, states
from .cocycle import CocycleTable
from .errors import ConfigInvalid, QuasinvError
from .lattice import (
    GROUP_ORDER_CAP,
    TOTAL_DIM_CAP,
    LocalOperator,
    Window,
    enumerate_group,
    extend,
)

SCENARIOS = {
    "product": "cocycle laws and the strong bundle for a seeded product state",
    "markov": "conditional amplitudes, sandwich identity, and the chain cocycle",
    "trivial": "one-kappa cocycles: laws, local triviality, power relations",
    "sw_solutions": "solutions of W x = x* W and the hermiticity criterion",
    "convergence": "window products: Cauchy bounds, decay, pairing, summable tail",
    "structure": "group averaging, decomposition, projectivity, restriction",
}

MAX_GROUP_DEGREE = 6  # 6! = 720, the enumeration cap
MAX_CONVERGENCE_SITES = 20
MAX_PAIRING_SITES = 6  # pairing_check forms the dense 2^N x 2^N window product
# the (|G|, D, D) table at 16 bytes an entry, the complex worst case, whatever its dtype
TABLE_BYTES_CAP = 2**28  # markov n_sites 6 needs 189 MB
DEFECT_MAX = 1e150  # a plant's square, times D and the bounds' constants, stays a finite float
SW_TRIALS, SW_STACKS = 100, 7  # _run_sw holds at most 7 complex (SW_TRIALS, d, d) arrays at once

# the law each check verifies, keyed by check name (a locally_trivial[N=n]
# check by its name before the bracket)
LAWS = {
    "normalization": "the identity permutation carries the unit entry",
    "cocycle_law": "x_{g2 g1} = x_{g1} * g1^-1(x_{g2})",
    "inverse_relation": "x_g * g^-1(x_{g^-1}) = 1",
    "quasi_invariance": "phi(g(a)) = phi(x_g a) and phi(x_g) = 1",
    "strong_quasi_invariance": "entries hermitean, positive, mutually commuting, and central",
    "power_relation": "x_g^-s = g^-1(x_{g^-1}^s), certified from the inverse relation",
    "cda_normalization": "the reference expectation of K*K is the identity",
    "window_extension": "appending a normalized amplitude preserves expectations",
    "sandwich_identity": "phi(g(a)) = phi(y* a y) with y = g^-1(R) R^-1",
    "x_equals_y_y_star": "x_g = y y* for a commuting chain",
    "locally_trivial": "one kappa per window reproduces every entry",
    "defining_relation": "x = W^-1 z solves W x = x* W",
    "commuting_gives_hermitean": "[z, W] = 0 forces the solution hermitean",
    "hermitean_iff_commuting": "the solution is hermitean exactly when z commutes with W",
    "bound_dominates": ("||x_[1,N] - x_[1,M]|| <= ||x_[1,M]|| * (prod_{M<k<=N} (1 + eps_k) - 1) "
                        "with eps_k = ||W_inf^-1 W_k - 1||"),
    "step_decay": "successive window differences shrink by at least 3x",
    "monotone_differences": "the window-difference column never increases",
    "pairing_identity": "phi(a) = psi(x_[1,N] a) for every window holding a",
    "tail_summability": ("the factor deviations shrink geometrically: "
                         "eps_{k+1} / eps_k <= 1/2 wherever eps_k > 0"),
    "structure_decomposition": ("phi(a) = phi_G(kappa^-1 a) with x_g = kappa g^-1(kappa^-1) "
                                "and E_G(kappa^-1) = 1"),
    "umegaki_expectation": ("the list's average of every matrix unit is its orbit mean, "
                            "so E_G is the conditional expectation onto the fixed points"),
    "projective_family": ("the smaller list lies in the larger and each averages to its orbit "
                          "mean, so E_big E_small = E_big"),
    "restriction_consistency": "subgroup entries match the cocycle recomputed from the state",
}


@dataclass
class Config:
    scenario: str
    d: int = 2
    n_sites: int = 3
    group: int | None = None
    seed: int = 1
    floor: float = 1e-3
    tol: float = 1e-9
    defect: float = 0.0
    preset: str = "geometric"
    out: str | None = None

    def echo(self):
        return {key: value for key, value in asdict(self).items() if key != "out"}


def build_config(args, file_config):
    merged = dict(file_config or {})
    keys = [f.name for f in fields(Config)]
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    unknown = set(merged) - set(keys)
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "scenario" not in merged:
        raise ConfigInvalid("scenario: required")
    if merged.get("scenario") == "convergence" and "n_sites" not in merged:
        merged["n_sites"] = 12
    cfg = Config(**merged)

    if not isinstance(cfg.scenario, str) or cfg.scenario not in SCENARIOS:
        raise ConfigInvalid(f"scenario: {cfg.scenario!r} is not one of {sorted(SCENARIOS)}")
    # type(), not isinstance(): JSON true/false are bools, which isinstance counts as ints
    if type(cfg.d) is not int or cfg.d < 2:
        raise ConfigInvalid(f"d: must be an integer >= 2, got {cfg.d!r}")
    if type(cfg.n_sites) is not int or cfg.n_sites < 1:
        raise ConfigInvalid(f"n_sites: must be a positive integer, got {cfg.n_sites!r}")
    if cfg.group is None:
        cfg.group = min(cfg.n_sites, MAX_GROUP_DEGREE)
    if type(cfg.group) is not int or not 1 <= cfg.group <= MAX_GROUP_DEGREE:
        raise ConfigInvalid(f"group: degree must be in [1, {MAX_GROUP_DEGREE}], got {cfg.group!r}")
    if cfg.group > cfg.n_sites:
        raise ConfigInvalid(f"group: degree {cfg.group} exceeds n_sites {cfg.n_sites}")
    if type(cfg.seed) is not int or cfg.seed < 0:
        raise ConfigInvalid(f"seed: must be a non-negative integer, got {cfg.seed!r}")
    if type(cfg.floor) not in (int, float) or not 0.0 <= cfg.floor < 1.0:
        raise ConfigInvalid(f"floor: must be in [0, 1), got {cfg.floor!r}")
    if type(cfg.tol) not in (int, float) or not 0.0 < cfg.tol <= np.finfo(float).max:
        raise ConfigInvalid(f"tol: must be positive and finite, got {cfg.tol!r}")
    if type(cfg.defect) not in (int, float) or not 0.0 <= cfg.defect <= DEFECT_MAX:
        raise ConfigInvalid(f"defect: must be in [0, {DEFECT_MAX:g}], got {cfg.defect!r}")
    if cfg.defect > 0.0 and cfg.scenario != "product":
        raise ConfigInvalid(f"defect: only the product scenario plants one, not {cfg.scenario}")
    if cfg.defect > 0.0 and cfg.group == 1:
        raise ConfigInvalid("defect: the one-element group has no entry besides x_e to plant it on")
    if cfg.preset not in ("geometric", "harmonic"):
        raise ConfigInvalid(f"preset: {cfg.preset!r} is not 'geometric' or 'harmonic'")
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigInvalid(f"out: must be a path string, got {cfg.out!r}")

    window_sites = cfg.n_sites + 1 if cfg.scenario == "markov" else cfg.n_sites
    if cfg.scenario not in ("sw_solutions", "convergence"):
        dim, order = cfg.d ** window_sites, math.factorial(cfg.group)
        if dim > TOTAL_DIM_CAP:
            raise ConfigInvalid(
                f"n_sites: window dimension {cfg.d}^{window_sites} exceeds {TOTAL_DIM_CAP}")
        if order > GROUP_ORDER_CAP:
            raise ConfigInvalid(f"group: order {order} exceeds {GROUP_ORDER_CAP}")
        if order * dim * dim * 16 > TABLE_BYTES_CAP:
            raise ConfigInvalid(f"n_sites: {order} table entries at dimension {dim} need "
                                f"{order * dim * dim * 16:,} bytes, over {TABLE_BYTES_CAP:,}")
    if cfg.scenario == "sw_solutions" and SW_STACKS * SW_TRIALS * cfg.d ** 2 * 16 > TABLE_BYTES_CAP:
        raise ConfigInvalid(f"d: {SW_STACKS} stacks of {SW_TRIALS} complex {cfg.d}x{cfg.d} matrices "
                            f"need more than {TABLE_BYTES_CAP:,} bytes")
    if cfg.scenario in ("product", "structure") and cfg.d * cfg.floor > 1.0:
        raise ConfigInvalid(f"floor: {cfg.d} site weights of at least {cfg.floor!r} sum past 1")
    if cfg.scenario == "markov" and cfg.d != 2:
        raise ConfigInvalid("d: the markov scenario is built for d = 2")
    if cfg.scenario == "convergence":
        if cfg.d != 2:
            raise ConfigInvalid("d: the convergence presets are two-dimensional")
        if not 2 <= cfg.n_sites <= MAX_CONVERGENCE_SITES:
            raise ConfigInvalid(
                f"n_sites: convergence windows must be in [2, {MAX_CONVERGENCE_SITES}]")
    return cfg


def _check(report):
    out = {"name": report.name, "law": LAWS[report.name.split("[")[0]], "residual": report.residual,
           "tolerance": report.tolerance, "pass": report.passed}
    return out if report.witness is None else {**out, "witness": report.witness}


def _guarded_check(name, tol, fn):
    """Run a report-producing callable; a raised precondition (for example
    fractional powers of a non-hermitean entry) becomes a failing check with
    the error recorded as its witness, not a crash."""
    try:
        return _check(fn())
    except QuasinvError as exc:
        failed = cocycle._report(name, 0.0, tol, witness={"error": f"{type(exc).__name__}: {exc}"},
                                 passed=False)
        return {**_check(failed), "residual": None, "tolerance": tol}


def _seeded_diagonal_state(d, n_sites, seed, floor):
    raw = np.random.Generator(np.random.Philox(seed)).uniform(0.2, 0.8, size=(n_sites, d))
    w = (1.0 - d * floor) * (raw / raw.sum(axis=1, keepdims=True)) + floor
    return states.product_state(d, [np.diag(row) for row in w])


def _window_group(cfg):
    return [extend(g, cfg.n_sites) for g in enumerate_group(cfg.group)]


def _plant_defect(T, eps):
    stack = T.stack.copy()
    stack[next(i for i, g in enumerate(T.group) if not g.is_identity()), 0, -1] += eps
    stack.flags.writeable = False
    return CocycleTable(T.group, stack, T.window)


def _law_checks(phi, T, tol, extra):
    """A table's laws in report order, `extra` before the power relation, preconditions guarded."""
    return [
        _check(cocycle.verify_normalization(T, tol=tol)),
        _guarded_check("cocycle_law", tol, lambda: cocycle.verify_cocycle_law(T, tol=tol)),
        _guarded_check("inverse_relation", tol, lambda: cocycle.verify_inverse_relation(T, tol=tol)),
        _check(cocycle.verify_quasi_invariance(phi, T, tol=tol)),
        extra,
        _guarded_check("power_relation", tol, lambda: cocycle.power_relation_check(T, tol=tol)),
    ]


def _run_product(cfg):
    phi = _seeded_diagonal_state(cfg.d, cfg.n_sites, cfg.seed, cfg.floor)
    T = cocycle.product_state_cocycle(phi, _window_group(cfg))
    if cfg.defect > 0.0:
        T = _plant_defect(T, cfg.defect)
    return _law_checks(phi, T, cfg.tol, _check(cocycle.verify_strong(T, phi, tol=cfg.tol))), None


def _run_markov(cfg):
    M = qmc.MarkovState(2, np.eye(2) / 2.0, qmc.seeded_chain(cfg.n_sites, cfg.seed))
    group = enumerate_group(cfg.group)
    cda = max(qmc.cda_normalize_check(K, M.W_inf) for K in M.chain)
    K_next = qmc.seeded_chain(cfg.n_sites + 1, cfg.seed)[cfg.n_sites]
    ext = qmc.extension_residual(M, K_next)

    # one pass over the group: each block's y stack serves the sandwich identity and x = y y*
    T = qmc.x_cocycle_table(M, group)
    def block(rows):  # x - y y* off the diagonals where the table and y (not hermitean) clear the frame
        sub = [group[k] for k in rows]
        (y := qmc.y_cocycle(M, sub)).flags.writeable = False  # owned here: the record reads it uncopied
        x, f = T.frame(rows), matcore.Operand(y, need_herm=False).frame
        cross = (matcore.operator_norm(T.stack[rows] - y @ matcore.dagger(y)) if None in (x, f)
                 else matcore.product_defect(x, f, (f[0].conj(), f[1])))
        return qmc.sandwich_residual(M, sub, y=y), cross
    sandwich, cross = (float(r.max()) for r in T.rowwise(block))

    phi = qmc.markov_functional(M)
    checks = [
        _check(cocycle._report("cda_normalization", cda, 1e-12)),
        _check(cocycle._report("window_extension", ext, cfg.tol)),
        _check(cocycle._report("sandwich_identity", sandwich, cfg.tol)),
        _check(cocycle._report("x_equals_y_y_star", cross, cfg.tol)),
        _check(cocycle.verify_normalization(T, tol=cfg.tol)),
        _guarded_check("cocycle_law", cfg.tol, lambda: cocycle.verify_cocycle_law(T, tol=cfg.tol)),
        _check(cocycle.verify_quasi_invariance(phi, T, tol=cfg.tol)),
        _check(cocycle.verify_strong(T, phi, tol=cfg.tol)),
    ]
    return checks, None


def _run_trivial(cfg):
    window = Window(cfg.d, cfg.n_sites)
    group = _window_group(cfg)
    dim = window.total_dim
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    h = np.diag(rng.uniform(0.0, 1.0, size=dim))
    centered = h - compact.haar_average(group, LocalOperator(window, h)).matrix
    scale = max(1.0, matcore.operator_norm(centered))
    kinv = LocalOperator(window, np.eye(dim) + 0.5 * centered / scale)
    phi_G = states.homogeneous_state(cfg.d, cfg.n_sites, np.eye(cfg.d) / cfg.d)
    phi, T = compact.converse_construct(phi_G, kinv, group, tol=cfg.tol)
    local = cocycle.locally_trivial_check(T, [cfg.n_sites], tol=cfg.tol)[0]
    return _law_checks(phi, T, cfg.tol, _check(local)), None


def _run_sw(cfg):
    trials = range(SW_TRIALS)
    W = matcore.random_density(cfg.d, max(cfg.floor, 1e-3), [cfg.seed * 10007 + k for k in trials])
    z = matcore.random_hermitian(cfg.d, [cfg.seed * 20011 + k for k in trials])
    x = cocycle.solve_SW(W, z)
    defining = cocycle.check_SW(W, x)[1].max()
    herm, comm = matcore.herm_defect(x), matcore.operator_norm(z @ W - W @ z)
    disagreements = np.count_nonzero((herm <= 1e-8) != (comm <= 1e-8))
    herm_commuting = matcore.herm_defect(cocycle.solve_SW(W, W @ W + 0.5 * W)).max()
    checks = [
        _check(cocycle._report("defining_relation", defining, 1e-10)),
        _check(cocycle._report("commuting_gives_hermitean", herm_commuting, 1e-10)),
        _check(cocycle._report("hermitean_iff_commuting", float(disagreements), 0.0)),
    ]
    return checks, None


def _run_convergence(cfg):
    n = cfg.n_sites
    seq = limits.preset_sequence(cfg.preset, n)
    series = limits.diagnostic_series(seq, n)

    excess = max(row["diff"] - row["bound"] for M in range(n) for row in limits.cauchy_sweep(seq, M, n))
    bound_rep = cocycle._report("bound_dominates", max(0.0, excess), 1e-12)

    diffs = [row["diff"] for row in series]
    ratios = [diffs[k] / diffs[k + 1] for k in range(3, n - 1) if diffs[k + 1] > 0]
    min_ratio = min(ratios) if ratios else float("inf")
    decay_rep = cocycle._report("step_decay", max(0.0, 3.0 - min_ratio), 0.0,
                                witness=None if min_ratio >= 3.0 else
                                {"min_ratio": min_ratio})

    rise = max([diffs[k + 1] - diffs[k] for k in range(len(diffs) - 1)], default=0.0)
    mono_rep = cocycle._report("monotone_differences", max(0.0, rise), 1e-12)

    pairing = 0.0
    a = LocalOperator(Window(2, 1), matcore.random_hermitian(2, seed=cfg.seed))
    for N in range(1, min(n, MAX_PAIRING_SITES) + 1):
        pairing = max(pairing, limits.pairing_check(seq, a, N))
    pair_rep = cocycle._report("pairing_identity", pairing, 1e-10)

    eps = seq.deviations
    shrink = max((eps[k + 1] / eps[k] for k in range(n - 1) if eps[k] > 0), default=0.0)
    tail_rep = cocycle._report("tail_summability", max(0.0, shrink - 0.5), 1e-12)

    checks = [_check(rep) for rep in (bound_rep, decay_rep, mono_rep, pair_rep, tail_rep)]
    data = {
        "series": series,
        "empirical_constant": limits.empirical_constant(seq, n),
    }
    return checks, data


def _run_structure(cfg):
    phi = _seeded_diagonal_state(cfg.d, cfg.n_sites, cfg.seed, cfg.floor)
    group = _window_group(cfg)
    T = cocycle.product_state_cocycle(phi, group)
    sub = [g for g in group if g(cfg.group) == cfg.group]

    umegaki, projective = compact.averaging_checks(sub, group, T.window)
    checks = [compact.verify_structure(phi, T, tol=cfg.tol), umegaki, projective,
              compact.restriction_consistency(phi, T, [sub, group], tol=cfg.tol)]
    return list(map(_check, checks)), None


RUNNERS = {
    "product": _run_product,
    "markov": _run_markov,
    "trivial": _run_trivial,
    "sw_solutions": _run_sw,
    "convergence": _run_convergence,
    "structure": _run_structure,
}


def run_scenario(cfg):
    checks, data = RUNNERS[cfg.scenario](cfg)
    n_pass = sum(1 for c in checks if c["pass"])
    report = {
        "scenario": cfg.scenario,
        "config": cfg.echo(),
        "checks": checks,
        "summary": {
            "checks": len(checks),
            "passed": n_pass,
            "failed": len(checks) - n_pass,
            "all_pass": n_pass == len(checks),
            "worst_residual": max(
                (c["residual"] for c in checks if c["residual"] is not None),
                default=0.0),
        },
    }
    if data is not None:
        report["data"] = data
    return report


def render_report(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def list_scenarios(as_json=False):
    if as_json:
        rows = [{"scenario": name, "about": blurb} for name, blurb in SCENARIOS.items()]
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    lines = [f"{name:14s} {blurb}" for name, blurb in SCENARIOS.items()]
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quasinv",
        description="verification suites for quasi-invariant states on tensor windows")
    sub = parser.add_subparsers(dest="command")

    runp = sub.add_parser("run", help="run one scenario and write its JSON report")
    runp.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    runp.add_argument("--d", type=int, default=None, help="single-site dimension")
    runp.add_argument("--n-sites", dest="n_sites", type=int, default=None,
                      help="window size (markov: chain length)")
    runp.add_argument("--group", type=int, default=None,
                      help="degree of the permutation group (<= 6)")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--floor", type=float, default=None,
                      help="spectral floor for seeded densities")
    runp.add_argument("--tol", type=float, default=None,
                      help="pass tolerance for the generic checks")
    runp.add_argument("--defect", type=float, default=None,
                      help="plant a perturbation of this size (product scenario)")
    runp.add_argument("--preset", choices=("geometric", "harmonic"), default=None,
                      help="weight sequence for the convergence scenario")
    runp.add_argument("--out", default=None, help="report path")
    runp.add_argument("--json", dest="json_config", default=None,
                      help="JSON config file; flags override its keys")

    listp = sub.add_parser("list", help="list the available scenarios")
    listp.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        sys.stdout.write(list_scenarios(as_json=args.as_json))
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    file_config = None
    if args.json_config is not None:
        try:
            file_config = json.loads(Path(args.json_config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: cannot read {args.json_config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(file_config, dict):
            print("config error: the config file must hold a JSON object", file=sys.stderr)
            return 2

    try:
        cfg = build_config(args, file_config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(cfg)
    except QuasinvError as exc:
        print(f"{cfg.scenario}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    out = cfg.out or f"quasinv_{cfg.scenario}_report.json"
    Path(out).write_text(render_report(report), encoding="utf-8")
    summary = report["summary"]
    status = "pass" if summary["all_pass"] else "FAIL"
    print(f"{cfg.scenario}: {summary['passed']}/{summary['checks']} checks "
          f"[{status}] -> {out}")
    return 0 if summary["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
