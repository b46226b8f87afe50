"""The three benchmark workloads: inputs from a seed, a warm-up, one timed
pass, and the checks on every output the pass produced.

A workload object is used in four steps that the worker times apart:

    w = WORKLOADS[name](seed, tmpdir)   # make the seeded inputs (set-up)
    w.warm_up()                         # small-size pass: code paths, BLAS (set-up)
    outputs = [(label, op()) for label, op in w.ops]   # the timed pass
    for label, out in outputs:          # the benchmark's own verdicts (untimed),
        w.check_op(label, out)          # CheckFailed for a wrong output

Every check compares the program's output with a value the benchmark
computes apart from the program (a closed form, an explicit tensor
computation) or with a property the method must have (all checks pass on a
clean input, a planted defect is caught, reports repeat byte for byte).
Nothing is compared with a stored copy of an earlier output.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os

import numpy as np

from quasinv import cli, cocycle, compact, gns, lattice, states

DEFECT = 1e-3


def sub_seeds(seed, count):
    """Independent 31-bit seeds for the parts of one workload."""
    state = np.random.SeedSequence(seed % 2**64).generate_state(count)
    return [int(s) >> 1 for s in state]


def diagonal_weights(d, n_sites, seed, floor=1e-3):
    """Seeded diagonal site densities with spectrum above floor."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for _ in range(n_sites):
        w = rng.uniform(0.2, 0.8, size=d)
        w = (1.0 - d * floor) * w / w.sum() + floor
        out.append(np.diag(w))
    return out


def act_by_axes(perm_image, a, d):
    """g(a) computed by moving tensor axes, independently of lattice.act:
    the factor on site n goes to site g(n)."""
    N = len(perm_image)
    inv = [0] * N
    for n, gn in enumerate(perm_image):
        inv[gn - 1] = n
    t = np.asarray(a).reshape((d,) * (2 * N))
    axes = inv + [N + k for k in inv]
    return t.transpose(axes).reshape(d ** N, d ** N)


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


class CliRun:
    """One `quasinv run` invocation through cli.main, report written to tmpdir."""

    def __init__(self, label, argv, expect_exit, tmpdir):
        self.label = label
        self.out = os.path.join(tmpdir, f"{label}.json")
        self.argv = ["run", *argv, "--out", self.out]
        self.expect_exit = expect_exit

    def __call__(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        with open(self.out, "rb") as fh:
            raw = fh.read()
        return code, raw


def check_clean_report(label, code, raw):
    report = json.loads(raw)
    summary = report["summary"]
    require(code == 0, f"{label}: exit {code}, expected 0")
    require(all(c["pass"] for c in report["checks"]), f"{label}: a check failed")
    require(summary["all_pass"] and summary["failed"] == 0
            and summary["passed"] == summary["checks"] == len(report["checks"]),
            f"{label}: summary disagrees with its checks")
    return report


def digest(raw):
    return hashlib.sha256(raw).hexdigest()


class ProbeScenarios:
    name = "probe-scenarios"

    def __init__(self, seed, tmpdir):
        s = [str(v) for v in sub_seeds(seed, 8)]
        runs = [
            CliRun("product-d2-n4", ["--scenario", "product", "--d", "2", "--n-sites", "4",
                                     "--seed", s[0]], 0, tmpdir),
            CliRun("product-d3-n4", ["--scenario", "product", "--d", "3", "--n-sites", "4",
                                     "--seed", s[1]], 0, tmpdir),
            CliRun("markov-n4", ["--scenario", "markov", "--n-sites", "4", "--seed", s[2]],
                   0, tmpdir),
            CliRun("trivial-n4", ["--scenario", "trivial", "--n-sites", "4", "--seed", s[3]],
                   0, tmpdir),
            CliRun("product-defect-n4", ["--scenario", "product", "--n-sites", "4",
                                         "--defect", str(DEFECT), "--seed", s[4]], 1, tmpdir),
            CliRun("convergence-n20", ["--scenario", "convergence", "--n-sites", "20",
                                       "--seed", s[5]], 0, tmpdir),
            CliRun("sw_solutions", ["--scenario", "sw_solutions", "--seed", s[6]], 0, tmpdir),
        ]
        self.runs = {r.label: r for r in runs}
        self.ops = [(r.label, r) for r in runs]
        # the same scenarios on small windows: loads every code path at small cost
        self.small = [
            CliRun("warm-product", ["--scenario", "product", "--n-sites", "3",
                                    "--seed", s[7]], 0, tmpdir),
            CliRun("warm-product-d3", ["--scenario", "product", "--d", "3", "--n-sites", "2",
                                       "--seed", s[7]], 0, tmpdir),
            CliRun("warm-markov", ["--scenario", "markov", "--n-sites", "2",
                                   "--seed", s[7]], 0, tmpdir),
            CliRun("warm-trivial", ["--scenario", "trivial", "--n-sites", "3",
                                    "--seed", s[7]], 0, tmpdir),
            CliRun("warm-convergence", ["--scenario", "convergence", "--n-sites", "8",
                                        "--seed", s[7]], 0, tmpdir),
            CliRun("warm-sw", ["--scenario", "sw_solutions", "--seed", s[7]], 0, tmpdir),
        ]

    def warm_up(self):
        out = {}
        for run in self.small:
            code, raw = run()
            check_clean_report(run.label, code, raw)
            out[run.label] = digest(raw)
        return out

    def check_op(self, label, output):
        code, raw = output
        if self.runs[label].expect_exit == 1:
            self._check_defect(label, code, raw)
            return
        report = check_clean_report(label, code, raw)
        if label == "convergence-n20":
            self._check_convergence(report)
        if label in ("convergence-n20", "sw_solutions"):
            # a repeated run of the same config writes the same bytes
            require(self.runs[label]()[1] == raw, f"{label}: report differs on a rerun")

    @staticmethod
    def _check_defect(label, code, raw):
        report = json.loads(raw)
        require(code == 1, f"{label}: exit {code}, expected 1")
        by_name = {c["name"]: c for c in report["checks"]}
        # the defect sits on the first non-identity element, lexicographically
        target = list(next(itertools.islice(itertools.permutations(range(1, 5)), 1, None)))
        require(by_name["normalization"]["pass"], f"{label}: normalization failed, x_e is not perturbed")
        for name in ("cocycle_law", "inverse_relation", "quasi_invariance",
                     "strong_quasi_invariance"):
            require(not by_name[name]["pass"], f"{label}: {name} missed the defect")
        for name in ("cocycle_law", "inverse_relation"):
            require(by_name[name]["residual"] >= 0.5 * DEFECT,
                    f"{label}: {name} residual below the planted size")
        wit = by_name["quasi_invariance"].get("witness") or {}
        require(wit.get("g") == target, f"{label}: quasi-invariance witness {wit}")
        law = by_name["cocycle_law"].get("witness") or {}
        require(target in (law.get("g1"), law.get("g2")), f"{label}: law witness {law}")

    @staticmethod
    def _check_convergence(report):
        series = report["data"]["series"]
        require(len(series) == 20, "convergence: series length")
        growth = 1.0
        for row in series:
            eps = 0.25 * 4.0 ** (-row["N"])
            want = 2.0 * eps * growth
            require(abs(row["diff"] - want) <= 1e-10 * want,
                    f"convergence: N={row['N']} diff {row['diff']!r}, closed form {want!r}")
            growth *= 1.0 + 2.0 * eps


class GroupAction:
    name = "group-action"

    def __init__(self, seed, tmpdir):
        s = sub_seeds(seed, 5)
        self.d, self.n = 2, 5
        self.weights = diagonal_weights(self.d, self.n, s[0])
        self.phi = states.product_state(self.d, self.weights)
        self.group = lattice.enumerate_group(self.n)
        self.table = cocycle.product_state_cocycle(self.phi, self.group)
        self.stabilizer = [g for g in self.group if g(self.n) == self.n]
        dim = self.d ** self.n
        # a few probes: the strong check's cost here is its |G|^2 commutators
        self.probes = [lattice.LocalOperator(self.phi.window,
                                             np.asarray(_hermitian(dim, s[1] + k)))
                       for k in range(8)]
        cli_runs = [
            CliRun("structure-n4", ["--scenario", "structure", "--n-sites", "4",
                                    "--seed", str(s[2])], 0, tmpdir),
            CliRun("structure-n5-g4", ["--scenario", "structure", "--n-sites", "5",
                                       "--group", "4", "--seed", str(s[3])], 0, tmpdir),
        ]
        T, phi = self.table, self.phi
        self.ops = [(r.label, r) for r in cli_runs] + [
            ("cocycle_law", lambda: cocycle.verify_cocycle_law(T)),
            ("inverse_relation", lambda: cocycle.verify_inverse_relation(T)),
            ("power_relation", lambda: cocycle.power_relation_check(T)),
            ("strong", lambda: cocycle.verify_strong(T, phi, self.probes)),
            ("restriction", lambda: compact.restriction_consistency(
                phi, T, [self.stabilizer, self.group])),
            ("locally_trivial", lambda: cocycle.locally_trivial_check(T, [3, 4, 5])),
        ]
        self.small = CliRun("warm-structure", ["--scenario", "structure", "--n-sites", "3",
                                               "--seed", str(s[4])], 0, tmpdir)
        small_phi = states.product_state(2, diagonal_weights(2, 3, s[4]))
        self.small_table = cocycle.product_state_cocycle(small_phi, lattice.enumerate_group(3))
        self.small_phi = small_phi

    def warm_up(self):
        code, raw = self.small()
        check_clean_report(self.small.label, code, raw)
        T = self.small_table
        for rep in (cocycle.verify_cocycle_law(T), cocycle.verify_inverse_relation(T),
                    cocycle.power_relation_check(T),
                    cocycle.verify_strong(T, self.small_phi),
                    cocycle.locally_trivial_check(T, [3])[0]):
            require(rep.passed, f"warm-up: {rep.name} failed")
        return {self.small.label: digest(raw)}

    def check_op(self, label, out):
        if label.startswith("structure"):
            check_clean_report(label, *out)
        elif label == "locally_trivial":
            require(all(r.passed for r in out), "locally_trivial failed")
        else:
            require(out.passed and out.witness is None, f"{label}: {out}")
        if label == "strong":
            require(out.details["commutators"] <= 1e-12, "strong: diagonal entries must commute")
        if label == "cocycle_law":
            self._check_table()

    def _check_table(self):
        """x_g = W^-1 g^-1(W) from the Kronecker density, with g^-1 applied
        by moving tensor axes."""
        W = self.weights[0]
        for w in self.weights[1:]:
            W = np.kron(W, w)
        W_inv = np.linalg.inv(W)
        worst = 0.0
        for g in self.group:
            ginv = g.inverse().image
            want = W_inv @ act_by_axes(ginv, W, self.d)
            got = self.table.entries[g.image].matrix
            worst = max(worst, float(np.max(np.abs(got - want))) / max(1.0, np.max(np.abs(want))))
        require(worst <= 1e-12, f"table: x_g differs from W^-1 g^-1(W) by {worst:.3e}")


def _hermitian(dim, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G + G.conj().T) / 2.0


class GnsDense:
    name = "gns-dense"
    SIZES = ((2, 4, 2), (2, 3, 3), (3, 2, 2))  # (d, sites, group degree): D 16, 8, 9

    def __init__(self, seed, tmpdir):
        s = sub_seeds(seed, len(self.SIZES) + 1)
        self.cases = [self._case(d, n, k, sd) for (d, n, k), sd in zip(self.SIZES, s)]
        self.small = self._case(2, 2, 2, s[-1])
        self.by_label = {c["label"]: c for c in (*self.cases, self.small)}
        self.ops = []
        for case in self.cases:
            self.ops += self._ops(case)

    @staticmethod
    def _case(d, n, k, seed):
        phi = states.product_state(d, diagonal_weights(d, n, seed))
        group = [lattice.extend(g, n) for g in lattice.enumerate_group(k)]
        return {
            "label": f"D{d ** n}-S{k}",
            "D": d ** n,
            "group": group,
            "table": cocycle.product_state_cocycle(phi, group),
            "probes": states.matrix_unit_probes(phi.window),
            "R": gns.build_gns(phi),
        }

    @staticmethod
    def _ops(case):
        R, T, group, probes = case["R"], case["table"], case["group"], case["probes"]
        U = {}

        def unitaries():
            U.clear()
            U.update(gns.build_unitaries(R, T))
            return len(U)

        lab = case["label"]
        return [
            (f"{lab}/unitaries", unitaries),
            (f"{lab}/verify_unitaries", lambda: gns.verify_unitaries(R, U, group)),
            (f"{lab}/covariance", lambda: gns.verify_covariance(R, U, group, probes)),
            (f"{lab}/lifted", lambda: gns.verify_lifted_expectation(R, U, group, probes)),
            (f"{lab}/cyclicity", lambda: gns.cyclicity_rank(R)),
        ]

    def warm_up(self):
        for label, op in self._ops(self.small):
            self.check_op(label, op())
        return {}

    def check_op(self, label, out):
        lab, key = label.split("/")
        case = self.by_label[lab]
        D = case["D"]
        if key == "unitaries":
            require(out == len(case["group"]), f"{lab}: missing unitaries")
        elif key == "cyclicity":
            require(out == D * D, f"{lab}: cyclicity rank {out}, expected {D * D}")
        else:
            require(out["pass"], f"{lab}: {key} failed with residual {out['residual']:.3e}")


WORKLOADS = {w.name: w for w in (ProbeScenarios, GroupAction, GnsDense)}
