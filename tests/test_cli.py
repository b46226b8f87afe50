"""End-to-end tests for the verification runner."""

import json
import warnings

import numpy as np
import pytest

from quasinv import cli, cocycle, compact, limits, matcore, qmc
from quasinv.cocycle import CocycleTable
from quasinv.errors import QuasinvError
from quasinv.lattice import LocalOperator

from oracles import broken

ALL_SCENARIOS = sorted(cli.SCENARIOS)


def run_cli(argv):
    return cli.main(argv)


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_scenario_passes_at_defaults(tmp_path, scenario):
    out = tmp_path / f"{scenario}.json"
    rc = run_cli(["run", "--scenario", scenario, "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    assert report["scenario"] == scenario
    assert report["summary"]["all_pass"] is True
    assert report["summary"]["failed"] == 0
    assert report["summary"]["checks"] == len(report["checks"])
    assert report["summary"]["worst_residual"] < 1e-8


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_reports_are_byte_identical_across_runs(tmp_path, scenario):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli(["run", "--scenario", scenario, "--out", str(out_a)])
    run_cli(["run", "--scenario", scenario, "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_report_check_fields(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "product", "--out", str(out)])
    report = read_report(out)
    for check in report["checks"]:
        assert set(check) >= {"name", "law", "residual", "tolerance", "pass"}
        assert isinstance(check["residual"], float)
        assert isinstance(check["pass"], bool)
    names = [c["name"] for c in report["checks"]]
    assert "cocycle_law" in names
    assert "quasi_invariance" in names
    assert "strong_quasi_invariance" in names


def test_config_echo_excludes_out(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "product", "--seed", "5", "--out", str(out)])
    report = read_report(out)
    assert report["config"]["seed"] == 5
    assert "out" not in report["config"]
    assert str(out) not in out.read_text(encoding="utf-8")


def test_seed_changes_the_state_but_not_the_verdict(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli(["run", "--scenario", "product", "--seed", "1", "--out", str(out_a)]) == 0
    assert run_cli(["run", "--scenario", "product", "--seed", "2", "--out", str(out_b)]) == 0
    ra, rb = read_report(out_a), read_report(out_b)
    assert ra["config"]["seed"] != rb["config"]["seed"]
    assert out_a.read_bytes() != out_b.read_bytes()


def test_planted_defect_fails_with_witness(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--scenario", "product", "--defect", "1e-3",
                  "--out", str(out)])
    assert rc == 1
    report = read_report(out)
    assert report["summary"]["all_pass"] is False
    qi = next(c for c in report["checks"] if c["name"] == "quasi_invariance")
    assert qi["pass"] is False
    assert "witness" in qi
    assert "g" in qi["witness"]
    strong = next(c for c in report["checks"]
                  if c["name"] == "strong_quasi_invariance")
    assert strong["pass"] is False


def test_planted_defect_sits_on_the_first_moved_entry(tmp_path):
    # x_e is untouched; the witness names (1 3 2), the first non-identity
    # element of S_3 in lexicographic order
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "product", "--defect", "1e-3",
                    "--out", str(out)]) == 1
    by_name = {c["name"]: c for c in read_report(out)["checks"]}
    assert by_name["normalization"]["pass"] is True
    assert by_name["quasi_invariance"]["witness"]["g"] == [1, 3, 2]
    assert [1, 3, 2] in by_name["cocycle_law"]["witness"].values()


@pytest.mark.parametrize("n_sites, planted", [(3, [1, 3, 2]), (4, [1, 2, 4, 3])])
def test_strong_check_names_the_planted_entry(tmp_path, n_sites, planted):
    # the plant breaks hermiticity, and its entry is the first moved element
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "product", "--n-sites", str(n_sites),
                    "--defect", "1e-3", "--out", str(out)]) == 1
    by_name = {c["name"]: c for c in read_report(out)["checks"]}
    assert by_name["inverse_relation"]["witness"]["g"] == planted
    assert by_name["strong_quasi_invariance"]["witness"] == {"g": planted, "part": "hermiticity"}


def test_tiny_defect_below_tolerance_still_passes(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--scenario", "product", "--defect", "1e-13",
                  "--tol", "1e-8", "--out", str(out)])
    assert rc == 0


def test_harmonic_preset_flags_nonconvergence(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--scenario", "convergence", "--preset", "harmonic",
                  "--out", str(out)])
    assert rc == 1
    report = read_report(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["step_decay"]["pass"] is False
    assert by_name["tail_summability"]["pass"] is False
    assert by_name["bound_dominates"]["pass"] is True
    assert report["data"]["series"][-1]["tail"] > 1.0


def test_convergence_report_carries_series_data(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "convergence", "--out", str(out)])
    report = read_report(out)
    series = report["data"]["series"]
    assert len(series) == report["config"]["n_sites"]
    assert [row["N"] for row in series] == list(range(1, len(series) + 1))
    for row in series:
        assert row["diff"] <= row["bound"] + 1e-12
    tails = [row["tail"] for row in series]
    assert tails == sorted(tails)
    assert report["data"]["empirical_constant"] > 0.0


def test_markov_scenario_check_names(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "markov", "--out", str(out)])
    names = [c["name"] for c in read_report(out)["checks"]]
    assert "cda_normalization" in names
    assert "window_extension" in names
    assert "sandwich_identity" in names
    assert "x_equals_y_y_star" in names


def test_trivial_scenario_reports_local_triviality(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "trivial", "--out", str(out)])
    report = read_report(out)
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("locally_trivial") for name in names)
    assert "power_relation" in names


def test_trivial_run_inverts_the_sampled_kappa_inverse_once(tmp_path, monkeypatch):
    # converse_construct inverts the sampled kappa^-1 for the table, and local
    # triviality inverts the table's mean; nothing else is inverted
    shapes = []
    inv = matcore.inv
    monkeypatch.setattr(matcore, "inv", lambda A: shapes.append(A.shape) or inv(A))
    assert run_cli(["run", "--scenario", "trivial", "--n-sites", "4",
                    "--out", str(tmp_path / "r.json")]) == 0
    assert shapes == [(16, 16), (16, 16)]


def test_json_config_file_drives_a_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "product", "seed": 9, "n_sites": 2,
                               "group": 2}), encoding="utf-8")
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--json", str(cfg), "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    assert report["config"]["seed"] == 9
    assert report["config"]["n_sites"] == 2


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "convergence", "preset": "harmonic"}),
                   encoding="utf-8")
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--json", str(cfg), "--preset", "geometric",
                  "--out", str(out)])
    assert rc == 0
    assert read_report(out)["config"]["preset"] == "geometric"


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "product", "bogus": 1}), encoding="utf-8")
    rc = run_cli(["run", "--json", str(cfg)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = run_cli(["run", "--json", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    rc = run_cli(["run", "--json", str(cfg)])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_oversized_window_is_a_config_error(capsys):
    rc = run_cli(["run", "--scenario", "product", "--n-sites", "99"])
    assert rc == 2
    assert "4096" in capsys.readouterr().err


def test_structure_past_dimension_64_runs(tmp_path):
    # orbit labels hold |G| D^2 integers, so the table cap bounds structure too: D 128
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "structure", "--n-sites", "7", "--group", "3",
                    "--out", str(out)]) == 0
    assert read_report(out)["summary"]["all_pass"] is True


def test_structure_too_large_for_memory_is_refused_by_the_table_cap(capsys):
    rc = run_cli(["run", "--scenario", "structure", "--n-sites", "12"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "193,273,528,320 bytes" in err


def test_group_degree_above_sites_is_a_config_error(capsys):
    rc = run_cli(["run", "--scenario", "product", "--n-sites", "2",
                  "--group", "3"])
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err


def test_table_too_large_for_memory_is_a_config_error(capsys):
    # D 4096 passes the dimension cap, but 720 entries of D^2 complex numbers need 193 GB
    rc = run_cli(["run", "--scenario", "product", "--n-sites", "12"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "193,273,528,320 bytes" in err


@pytest.mark.parametrize("argv", [["--scenario", "markov", "--n-sites", "6"],
                                  ["--scenario", "product", "--n-sites", "7"],
                                  ["--scenario", "product", "--d", "3", "--n-sites", "5"]],
                         ids=["markov-n6", "product-n7", "product-d3-n5"])
def test_gate_admits_tables_that_fit(argv):
    # 189 MB, 189 MB and 113 MB of table: under the cap, nothing is run here
    cfg = cli.build_config(cli._build_parser().parse_args(["run", *argv]), None)
    assert cfg.n_sites == int(argv[-1])


@pytest.mark.parametrize("d", [155, 5000])
def test_sw_stacks_too_large_for_memory_are_refused(capsys, d):
    # 7 arrays of 100 complex d x d matrices: 269 MB at d 155, over the 2^28-byte cap
    assert run_cli(["run", "--scenario", "sw_solutions", "--d", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: d:") and "268,435,456 bytes" in err


def test_gate_admits_the_largest_sw_dimension_that_fits():
    cfg = cli.build_config(cli._build_parser().parse_args(
        ["run", "--scenario", "sw_solutions", "--d", "154"]), None)
    assert cfg.d == 154
    assert cli.SW_STACKS * cli.SW_TRIALS * 154 ** 2 * 16 <= cli.TABLE_BYTES_CAP


def test_markov_requires_qubits(capsys):
    rc = run_cli(["run", "--scenario", "markov", "--d", "3"])
    assert rc == 2
    assert "d = 2" in capsys.readouterr().err


def test_bad_floor_and_tol_are_config_errors(capsys):
    assert run_cli(["run", "--scenario", "product", "--floor", "1.5"]) == 2
    assert run_cli(["run", "--scenario", "product", "--tol", "0"]) == 2
    assert run_cli(["run", "--scenario", "product", "--defect", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, flag, literal", [
    ("tol", "inf", "1e999"), ("tol", "1e400", "1e400"),
    ("defect", "inf", "1e999"), ("defect", "1e308", "1e308"), ("defect", "1e200", "1e200"),
])
def test_non_finite_and_overflowing_values_are_config_errors(tmp_path, monkeypatch, capsys, key, flag,
                                                             literal):
    # an infinite tol passes every check; an infinite or overflowing plant breaks LAPACK mid-run
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "--scenario", "product", "--n-sites", "3", f"--{key}", flag]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"scenario": "product", "n_sites": 3, "{key}": {literal}}}', encoding="utf-8")
    assert run_cli(["run", "--json", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert not list(tmp_path.glob("quasinv_*"))


@pytest.mark.parametrize("defect", ["1e10", repr(cli.DEFECT_MAX)])
def test_a_large_finite_defect_fails_its_checks(tmp_path, defect):
    # up to DEFECT_MAX nothing overflows: the plant is a failing check, not an error
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["run", "--scenario", "product", "--n-sites", "3", "--defect", defect,
                        "--out", str(out)]) == 1
    assert read_report(out)["config"]["defect"] == float(defect)


@pytest.mark.parametrize("argv", [["product", "--d", "2", "--floor", "0.6"],
                                  ["structure", "--d", "3", "--floor", "0.34"]],
                         ids=["product-d2", "structure-d3"])
def test_a_floor_the_seeded_weights_cannot_keep_is_a_config_error(capsys, argv):
    # the seeded weights floor + (1 - d floor) p fall below the floor once d floor > 1
    assert run_cli(["run", "--scenario", *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: floor:")


def test_a_floor_the_seeded_weights_keep_runs(tmp_path, capsys):
    out = tmp_path / "floor.json"
    assert run_cli(["run", "--scenario", "product", "--d", "3", "--floor", "0.3", "--out", str(out)]) == 0
    assert read_report(out)["config"]["floor"] == 0.3
    phi = cli._seeded_diagonal_state(3, 3, 1, 0.3)
    assert min(np.diag(W).min() for W in phi.weights) >= 0.3
    capsys.readouterr()


def test_main_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("bad", [
    {"floor": "x"}, {"tol": "1e-9"}, {"defect": None}, {"tol": True},
    {"n_sites": True}, {"d": False}, {"group": True}, {"seed": True},
    {"d": 2.0}, {"scenario": ["product"]}, {"out": 5},
])
def test_mistyped_config_values_are_config_errors(tmp_path, monkeypatch, capsys, bad):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "product", **bad}), encoding="utf-8")
    assert run_cli(["run", "--json", str(cfg)]) == 2
    assert f"{next(iter(bad))}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("quasinv_*"))


@pytest.mark.parametrize("argv", [["--n-sites", "1"], ["--n-sites", "4", "--group", "1"]])
def test_defect_on_the_one_element_group_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # the group holds only e, and x_e is the one entry the plant must leave alone
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "--scenario", "product", *argv, "--defect", "1e-3"]) == 2
    assert capsys.readouterr().err.startswith("config error: defect:")
    assert not list(tmp_path.glob("quasinv_*"))


@pytest.mark.parametrize("scenario", [s for s in ALL_SCENARIOS if s != "product"])
def test_defect_outside_product_is_a_config_error(capsys, scenario):
    assert run_cli(["run", "--scenario", scenario, "--n-sites", "3", "--defect", "0.5"]) == 2
    assert "defect" in capsys.readouterr().err


def test_missing_scenario_is_a_config_error(capsys):
    rc = run_cli(["run"])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_list_names_every_scenario(capsys):
    rc = run_cli(["list"])
    assert rc == 0
    text = capsys.readouterr().out
    for name in ALL_SCENARIOS:
        assert name in text


def test_list_json_is_machine_readable(capsys):
    rc = run_cli(["list", "--json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(row["scenario"] for row in rows) == ALL_SCENARIOS
    assert all(row["about"] for row in rows)


def test_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["run", "--scenario", "sw_solutions"])
    assert rc == 0
    assert (tmp_path / "quasinv_sw_solutions_report.json").exists()


def test_reports_are_valid_sorted_json(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "structure", "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert "nan" not in text.lower().replace("scenario", "")


def test_guarded_check_reports_raised_precondition():
    from quasinv.errors import NotHermitian

    def boom():
        raise NotHermitian("entry is not hermitean")

    check = cli._guarded_check("power_relation", 1e-9, boom)
    assert check["law"] == cli.LAWS["power_relation"]
    assert check["pass"] is False
    assert check["residual"] is None
    assert "NotHermitian" in check["witness"]["error"]


def planted_entry(T, kind):
    """T with its first moved entry made singular (hermitean diag(0, 1, ..., 1))
    or skewed off hermitean."""
    k = next(i for i, g in enumerate(T.group) if not g.is_identity())
    return broken(T, [(k, "projected" if kind == "singular" else kind)])


def raised_text(fn, T):
    try:
        fn(T, tol=1e-9)
    except QuasinvError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("kind", ["singular", "skewed"])
@pytest.mark.parametrize("scenario", ["product", "trivial"])
def test_a_broken_entry_fails_the_relations_it_breaks_with_exit_1(tmp_path, monkeypatch, scenario,
                                                                  kind):
    # a raised precondition of the inverse or power relation is a failing
    # check whose witness is the error, not a configuration error (exit 2)
    tables = []
    if scenario == "product":
        build = cocycle.product_state_cocycle
        monkeypatch.setattr(cocycle, "product_state_cocycle", lambda phi, group: tables.append(
            planted_entry(build(phi, group), kind)) or tables[-1])
    else:
        build = compact.converse_construct
        def planted(*args, **kwargs):
            phi, T = build(*args, **kwargs)
            tables.append(planted_entry(T, kind))
            return phi, tables[-1]
        monkeypatch.setattr(compact, "converse_construct", planted)
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", scenario, "--n-sites", "3", "--out", str(out)]) == 1
    (T,) = tables
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    errors = {"inverse_relation": raised_text(cocycle.verify_inverse_relation, T),
              "power_relation": raised_text(cocycle.power_relation_check, T)}
    assert errors["power_relation"].startswith("NotPositive" if kind == "singular" else "NotHermitian")
    assert (errors["inverse_relation"] is None) == (kind == "skewed")
    for name, error in errors.items():
        assert checks[name]["pass"] is False
        if error is None:
            assert isinstance(checks[name]["residual"], float) and "witness" in checks[name]
        else:
            assert checks[name]["residual"] is None and checks[name]["tolerance"] == 1e-9
            assert checks[name]["witness"] == {"error": error}


def weight_sequence(eps):
    """Weights diag(1/2 + e, 1/2 - e) around the flat reference 1/2."""
    return limits.WindowProductSequence(
        np.eye(2) / 2.0, [np.diag([0.5 + e, 0.5 - e]) for e in eps])


def failed_convergence_checks(tmp_path, monkeypatch, make_sequence=None):
    """Run the default convergence scenario, optionally on a planted
    sequence, and return its exit code and the names of the failed checks."""
    if make_sequence is not None:
        monkeypatch.setattr(limits, "preset_sequence", lambda kind, n: make_sequence(n))
    out = tmp_path / "r.json"
    rc = run_cli(["run", "--scenario", "convergence", "--out", str(out)])
    return rc, {c["name"] for c in read_report(out)["checks"] if not c["pass"]}


def test_bound_dominates_fails_on_a_shrunk_deviation(tmp_path, monkeypatch):
    spectrum = limits.WindowProductSequence.spectrum

    def shrunk(self, k):
        lmin, lmax, dev = spectrum(self, k)
        return lmin, lmax, dev / 2.0 if k == 3 else dev

    monkeypatch.setattr(limits.WindowProductSequence, "spectrum", shrunk)
    assert failed_convergence_checks(tmp_path, monkeypatch) == (1, {"bound_dominates"})


def test_bound_dominates_fails_on_an_inflated_diff(tmp_path, monkeypatch):
    sweep = limits.cauchy_sweep

    def inflated(seq, M, N):
        return [{**row, "diff": row["diff"] * (1.0 + 1e-9)} for row in sweep(seq, M, N)]

    monkeypatch.setattr(limits, "cauchy_sweep", inflated)
    assert failed_convergence_checks(tmp_path, monkeypatch) == (1, {"bound_dominates"})


def test_step_decay_fails_on_halving_deviations(tmp_path, monkeypatch):
    def halving(n):
        return weight_sequence([0.25 * 2.0 ** (-k) for k in range(1, n + 1)])

    assert failed_convergence_checks(tmp_path, monkeypatch, halving) == (1, {"step_decay"})


def test_monotone_differences_fails_on_a_late_bump(tmp_path, monkeypatch):
    def bumped(n):
        return weight_sequence([1e-3 if k == 8 else 0.25 * 4.0 ** (-k)
                                for k in range(1, n + 1)])

    rc, failed = failed_convergence_checks(tmp_path, monkeypatch, bumped)
    assert rc == 1
    assert "monotone_differences" in failed


def test_pairing_identity_fails_on_mismatched_weights(tmp_path, monkeypatch):
    # the factors keep W_1, the product state gets W_1 with its diagonal reversed
    preset = limits.preset_sequence

    def mismatched(n):
        seq = preset("geometric", n)
        seq.W_list[0] = seq.W_list[0][::-1, ::-1].copy()
        return seq

    assert failed_convergence_checks(tmp_path, monkeypatch, mismatched) == (1, {"pairing_identity"})


def sw_solver(on_x, on_z_comm):
    """cocycle.solve_SW with the solutions for the seeded z passed through on_x
    and z_comm, the second call's right-hand side, through on_z_comm."""
    solve, calls = cocycle.solve_SW, []

    def planted(W, z):
        calls.append(z)
        return on_x(solve(W, z)) if len(calls) == 1 else solve(W, on_z_comm(z))

    return planted


def unchanged(a):
    return a


SW_PLANTS = {
    # x + 1e-3 i: W x - x* W = 2e-3 i W, and x stays as far from hermitean as before
    "defining_relation": (lambda x: x + 1e-3j * np.eye(2), unchanged, {"defining_relation"}),
    # z_comm + 1e-3 sigma_x is hermitean but no longer commutes with W
    "commuting_gives_hermitean": (unchanged, lambda z: z + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  {"commuting_gives_hermitean"}),
    # the hermitean part of x: hermitean while z does not commute with W, and no solution
    "hermitean_iff_commuting": (lambda x: (x + matcore.dagger(x)) / 2.0, unchanged,
                                {"defining_relation", "hermitean_iff_commuting"}),
}


@pytest.mark.parametrize("check", sorted(SW_PLANTS))
def test_sw_check_fails_on_a_planted_defect(tmp_path, monkeypatch, check):
    on_x, on_z_comm, failed = SW_PLANTS[check]
    monkeypatch.setattr(cocycle, "solve_SW", sw_solver(on_x, on_z_comm))
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "sw_solutions", "--out", str(out)]) == 1
    report = read_report(out)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failed
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name[check]["residual"] > by_name[check]["tolerance"]


def test_tail_summability_passes_a_large_summable_tail(tmp_path, monkeypatch):
    # partial sums reach 1.2, but the deviations shrink by 4 each step
    def heavy(n):
        return weight_sequence([0.45 * 4.0 ** (1 - k) for k in range(1, n + 1)])

    assert failed_convergence_checks(tmp_path, monkeypatch, heavy) == (0, set())


def test_tail_summability_alone_fails_a_short_harmonic_tail(tmp_path):
    # three windows leave step_decay no ratio to test; eps_3 / eps_2 = 2/3
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "convergence", "--preset", "harmonic",
                    "--n-sites", "3", "--out", str(out)]) == 1
    failed = [c for c in read_report(out)["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["tail_summability"]
    assert failed[0]["residual"] == pytest.approx(2.0 / 3.0 - 0.5)


def test_convergence_defaults_to_twelve_windows(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["run", "--scenario", "convergence", "--out", str(out)])
    assert read_report(out)["config"]["n_sites"] == 12


# ---- markov: a planted defect for each check ----------------------------------

def scaled_chain(first, scale):
    """seeded_chain with the amplitudes from index `first` on scaled by
    `scale`: a normalization defect below MarkovState's own 1e-8 test."""
    seeded = qmc.seeded_chain
    return lambda N, seed: (seeded(N, seed)[:first]
                            + tuple(scale * K for K in seeded(N, seed)[first:]))


def planted_table(identity, hermitean):
    """x_cocycle_table with 1e-3 added at (0, -1) of x_e or of the first
    other entry, and at (-1, 0) too when the defect is to stay hermitean."""
    build = qmc.x_cocycle_table

    def planted(M, group, tol=qmc.CDA_TOL):
        T = build(M, group, tol)
        stack = T.stack.copy()
        i = next(i for i, g in enumerate(T.group) if g.is_identity() == identity)
        stack[i, 0, -1] += 1e-3
        if hermitean:
            stack[i, -1, 0] += 1e-3
        return CocycleTable(T.group, stack, T.window)
    return planted


def skewed_y(M, group, y_cocycle=qmc.y_cocycle):
    D = M.window.total_dim
    return y_cocycle(M, group) @ (np.eye(D) + 1e-3 * matcore.random_matrix(D, 1))


TABLE_LAWS = {"x_equals_y_y_star", "cocycle_law", "quasi_invariance"}
MARKOV_PLANTS = {
    # the amplitude K_1 off by 1e-10: phi(1) moves by 2e-10, below the other tolerances
    "cda_normalization": ("seeded_chain", scaled_chain(0, 1.0 + 1e-10), {"cda_normalization"}),
    # the appended K_4 off by 4e-9: the three-site marginal moves by 1.8e-9
    "window_extension": ("seeded_chain", scaled_chain(3, 1.0 + 4e-9), {"window_extension"}),
    "sandwich_identity": ("y_cocycle", skewed_y, {"sandwich_identity", "x_equals_y_y_star"}),
    "x_equals_y_y_star": ("x_cocycle_table", planted_table(False, True), TABLE_LAWS),
    "normalization": ("x_cocycle_table", planted_table(True, True), TABLE_LAWS | {"normalization"}),
    "cocycle_law": ("x_cocycle_table", planted_table(False, True), TABLE_LAWS),
    "quasi_invariance": ("x_cocycle_table", planted_table(False, True), TABLE_LAWS),
    "strong_quasi_invariance": ("x_cocycle_table", planted_table(False, False),
                                TABLE_LAWS | {"strong_quasi_invariance"}),
}


@pytest.mark.parametrize("check", sorted(MARKOV_PLANTS))
def test_markov_check_fails_on_a_planted_defect(tmp_path, monkeypatch, check):
    target, plant, failed = MARKOV_PLANTS[check]
    monkeypatch.setattr(qmc, target, plant)
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "markov", "--out", str(out)]) == 1
    report = read_report(out)
    assert len(report["checks"]) == len(MARKOV_PLANTS)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failed
    assert check in failed


def test_right_unitary_factor_on_y_fails_only_the_sandwich(tmp_path, monkeypatch):
    # y u y* u* = y y*, so x = y y* still holds; phi(u* y* a y u) moves
    # because u does not commute with the chain density
    u = np.linalg.qr(matcore.random_matrix(16, 2))[0]
    y_cocycle = qmc.y_cocycle
    monkeypatch.setattr(qmc, "y_cocycle", lambda M, group: y_cocycle(M, group) @ u)
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "markov", "--out", str(out)]) == 1
    assert {c["name"] for c in read_report(out)["checks"] if not c["pass"]} == {"sandwich_identity"}


# ---- structure: a planted defect for each check -------------------------------

def planted_stabilizer_entry(phi, group, build=cocycle.product_state_cocycle):
    """product_state_cocycle with a hermitean 1e-3 plant at (0, -1) and (-1, 0)
    of x_g, g the first non-identity element fixing the last site."""
    T = build(phi, group)
    n = T.window.N
    stack = T.stack.copy()
    i = next(i for i, g in enumerate(T.group) if not g.is_identity() and g(n) == n)
    stack[i, 0, -1] += 1e-3
    stack[i, -1, 0] += 1e-3
    return CocycleTable(T.group, stack, T.window)


def group_without_last(cfg, window_group=cli._window_group):
    """The window group less its last element, (3 2 1) of S_3: a list that is
    not closed, so its averages are no conditional expectation."""
    return window_group(cfg)[:-1]


ENTRY_PLANT = (cocycle, "product_state_cocycle", planted_stabilizer_entry,
               {"structure_decomposition", "restriction_consistency"})
GROUP_PLANT = (cli, "_window_group", group_without_last,
               {"structure_decomposition", "umegaki_expectation", "projective_family"})
STRUCTURE_PLANTS = {
    "structure_decomposition": ENTRY_PLANT,
    "restriction_consistency": ENTRY_PLANT,
    "umegaki_expectation": GROUP_PLANT,
    "projective_family": GROUP_PLANT,
}


@pytest.mark.parametrize("check", sorted(STRUCTURE_PLANTS))
def test_structure_check_fails_on_a_planted_defect(tmp_path, monkeypatch, check):
    module, name, plant, failed = STRUCTURE_PLANTS[check]
    monkeypatch.setattr(module, name, plant)
    out = tmp_path / "r.json"
    assert run_cli(["run", "--scenario", "structure", "--out", str(out)]) == 1
    report = read_report(out)
    assert len(report["checks"]) == len(STRUCTURE_PLANTS)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failed
    assert check in failed
