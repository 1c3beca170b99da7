"""Command-line interface: exit codes, printed summaries, written reports."""

import json
import subprocess
import sys

import pytest

from peertrade import market, scenario as sc
from peertrade.cli import (EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK,
                           EXIT_USAGE, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def out(tmp_path):
    return str(tmp_path / "reports")


def write_scenario(tmp_path, scn, name="scn.json"):
    path = tmp_path / name
    path.write_text(sc.dumps_scenario(scn), encoding="utf-8")
    return str(path)


def test_solve_three_node(capsys, out):
    code, text = run(capsys, "solve", "--builtin", "three_node",
                     "--out", out)
    assert code == EXIT_OK
    assert "social welfare: 360.763636" in text
    assert "lambda[1] = 23.181818   (+2.000000 vs root)" in text
    assert "lambda[2] = 22.181818   (+1.000000 vs root)" in text
    report = json.loads((open(f"{out}/solve_three_node.json")).read())
    assert report["solution"]["sw"] == pytest.approx(19842 / 55, rel=1e-9)
    assert report["lambda_minus_root"]["1"] == pytest.approx(2.0, abs=1e-6)
    assert "node,D,G" in open(f"{out}/solve_three_node.csv").read()


def test_solve_mentions_regularization(capsys, out):
    code, text = run(capsys, "solve", "--builtin", "three_node",
                     "--out", out, "--reg", "1e-7", "--formats", "json")
    assert code == EXIT_OK
    assert "regularization: 1e-07" in text


def test_solve_format_selection(capsys, tmp_path):
    out = str(tmp_path / "jsononly")
    code, _ = run(capsys, "solve", "--builtin", "three_node",
                  "--out", out, "--formats", "json")
    assert code == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "jsononly").iterdir())
    assert names == ["solve_three_node.json"]


def test_gne_axis_sweep(capsys, out):
    code, text = run(capsys, "gne", "--builtin", "three_node",
                     "--axis", "0,16,80,87", "--support", "1:0,2:0,1:2",
                     "--out", out)
    assert code == EXIT_OK
    assert "PoA lower bound: 1.411714" in text
    summary = json.loads(open(f"{out}/gne_three_node.json").read())
    assert summary["distinct"] == 15
    assert summary["valid"] == 15
    assert summary["sw_min"] == pytest.approx(255.55, abs=1e-4)
    assert summary["worst_omega"] == {"1:0": 87.0, "2:0": 16.0,
                                      "1:2": 80.0}
    samples = open(f"{out}/gne_three_node_samples.csv").read()
    assert len(samples.splitlines()) == 16
    cloud = open(f"{out}/gne_three_node_cloud.csv").read()
    assert cloud.splitlines()[0] == "q01,q12,q20"


def test_gne_writes_a_point_cloud_only_for_the_three_node_ring(capsys, tmp_path):
    # ieee14 has no 0-1 link: no cloud file, even when nothing is kept.
    code, text = run(capsys, "gne", "--builtin", "ieee14", "--random", "40",
                     "--seed", "3", "--out", str(tmp_path / "ieee14"))
    assert code == EXIT_OK
    assert "0 distinct solutions kept" in text
    names = sorted(p.name for p in (tmp_path / "ieee14").iterdir())
    assert names == ["gne_ieee14.json", "gne_ieee14_samples.csv"]
    code, _ = run(capsys, "gne", "--builtin", "three_node", "--axis", "0",
                  "--out", str(tmp_path / "ring"))
    assert code == EXIT_OK
    assert (tmp_path / "ring" / "gne_three_node_cloud.csv").exists()


def test_gne_without_optional_flags_echoes_run_config_defaults(capsys, out,
                                                               monkeypatch):
    monkeypatch.setenv("PEERTRADE_OUT", out)
    code, _ = run(capsys, "gne", "--builtin", "three_node", "--axis", "0")
    assert code == EXIT_OK
    report = json.loads(open(f"{out}/gne_three_node.json").read())
    assert report["config"] == {
        "command": "gne", "builtin": "three_node", "scenario_path": None,
        "out_dir": out, "formats": ["csv", "dot", "json"],
        "tol": market.DEFAULT_TOL, "reg": 0.0, "seed": 0, "grid": None,
        "random": None, "axis": "0", "support": "n_gt_m", "budget": 10 ** 6}


# Each report's config is the parsed flags: the source, the outputs, and
# the subcommand's own flags, nothing else.
_SHARED_KEYS = {"command", "builtin", "scenario_path", "out_dir", "formats"}


@pytest.mark.parametrize("argv,report,own", [
    (["solve"], "solve_three_node.json", {"tol", "max_iter", "reg"}),
    (["gne", "--axis", "0"], "gne_three_node.json",
     {"tol", "reg", "seed", "grid", "random", "axis", "support", "budget"}),
    (["analyze"], "analyze_three_node.json",
     {"tol", "max_iter", "reg", "max_cycle_len"}),
    (["privacy", "--samples", "1000"], "privacy_three_node.json",
     {"seed", "samples", "r_box", "errors_path"}),
    (["validate"], "validate_three_node.json", set()),
])
def test_report_config_is_the_subcommand_flags(capsys, out, argv, report, own):
    code, _ = run(capsys, *argv, "--builtin", "three_node", "--out", out,
                  "--formats", "json")
    assert code == EXIT_OK
    config = json.loads(open(f"{out}/{report}").read())["config"]
    assert set(config) == _SHARED_KEYS | own
    assert config["command"] == argv[0]
    assert config["formats"] == ["json"]


def test_gne_degenerate_grid_gives_poa_one(capsys, out):
    code, text = run(capsys, "gne", "--builtin", "three_node",
                     "--grid", "0:0:1", "--out", out, "--formats", "json")
    assert code == EXIT_OK
    assert "PoA lower bound: 1.000000" in text


def test_gne_usage_errors(capsys, out):
    code, _ = run(capsys, "gne", "--builtin", "three_node",
                  "--random", "0", "--out", out)
    assert code == EXIT_USAGE
    code, _ = run(capsys, "gne", "--builtin", "three_node",
                  "--grid", "0:10:5", "--random", "3", "--out", out)
    assert code == EXIT_USAGE
    code, _ = run(capsys, "gne", "--builtin", "three_node",
                  "--grid", "0:10:5", "--support", "nonsense", "--out", out)
    assert code == EXIT_USAGE
    code, _ = run(capsys, "gne", "--builtin", "three_node", "--out", out)
    assert code == EXIT_USAGE
    for flag, value in (("--axis", "1,x"), ("--grid", "0:10:0"),
                        ("--grid", "10:0:1"), ("--grid", "0:inf:1"),
                        ("--axis", "nan")):
        code, _ = run(capsys, "gne", "--builtin", "three_node",
                      flag, value, "--out", out)
        assert code == EXIT_USAGE, (flag, value)
    # A support pair without a link, and one listed twice.
    for support in ("0:5", "1:0,1:0"):
        code, _ = run(capsys, "gne", "--builtin", "three_node", "--axis",
                      "0,50", "--support", support, "--out", out)
        assert code == EXIT_USAGE, support


def test_gne_random_support_full(capsys, out):
    code, text = run(capsys, "gne", "--builtin", "three_node",
                     "--random", "20", "--support", "full",
                     "--seed", "9", "--out", out, "--formats", "json")
    assert code == EXIT_OK
    assert "distinct solutions kept" in text


def test_analyze_three_node(capsys, out):
    code, text = run(capsys, "analyze", "--builtin", "three_node",
                     "--out", out)
    assert code == EXIT_OK
    assert "preference cycles: 2" in text
    assert "weight -1 (negative, preference)" in text
    assert "waste: total 0.000000" in text
    payload = json.loads(open(f"{out}/analyze_three_node.json").read())
    assert payload["analysis"]["cycles"][0]["congestion"]["verified"] is True
    dot = open(f"{out}/analyze_three_node.dot").read()
    assert dot.startswith("digraph")


def test_analyze_prints_asymmetry_predictions(capsys, tmp_path, out):
    star = sc.with_costs(sc.builtin("three_node"),
                         {(1, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0,
                          (1, 2): 0.3, (2, 1): 0.9}, "star")
    path = write_scenario(tmp_path, star)
    code, text = run(capsys, "analyze", "--scenario", path, "--out", out,
                     "--formats", "json")
    assert code == EXIT_OK
    assert "q[2][1] expected at capacity" in text


def test_privacy_three_node(capsys, out):
    code, text = run(capsys, "privacy", "--builtin", "three_node",
                     "--samples", "2000", "--r-box", "0.5:2",
                     "--out", out)
    assert code == EXIT_OK
    assert "agree within 3 standard errors" in text
    payload = json.loads(open(f"{out}/privacy_three_node.json").read())
    assert payload["agreement_3_stderr"] is True
    assert payload["bias"]["samples"] == 2000


def test_privacy_rejects_non_finite_r_box(capsys, tmp_path):
    out = tmp_path / "reports"
    code = main(["privacy", "--builtin", "three_node", "--samples", "1000",
                 "--r-box", "nan:2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "is not a finite nonnegative number" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["privacy", "--samples", "500"], "--samples: need at least 1000 samples"),
    (["privacy", "--r-box", "2:0.5"], "--r-box: invalid box for node 1: [2.0, 0.5]"),
    (["analyze", "--max-cycle-len", "9"], "--max-cycle-len: max_len 9 exceeds the node count 3"),
    # Waste certificates search no paths, so there is no path bound.
    (["analyze", "--max-path-len", "3"], "unrecognized arguments: --max-path-len 3"),
    (["solve", "--reg", "-1"], "--reg: eps_reg must be finite and nonnegative, got -1.0"),
    (["gne", "--axis", "0", "--reg", "nan"],
     "--reg: eps_reg must be finite and nonnegative, got nan"),
    (["analyze", "--tol", "0"], "--tol: tol must be finite and positive, got 0.0"),
    (["solve", "--max-iter", "-1"], "--max-iter: max_iter must be >= 0, got -1"),
    (["gne", "--grid", "0:100:50", "--budget", "5"],
     "sweep would evaluate 27 points, over the budget of 5"),
    (["gne", "--grid", "0:100:50", "--budget", "-1"],
     "sweep would evaluate 27 points, over the budget of -1"),
    (["gne", "--random", "5", "--seed", "-1"], "--seed: expected non-negative integer"),
    (["privacy", "--samples", "1000", "--seed", "-1"],
     "--seed: expected non-negative integer"),
    (["gne", "--random", "0"],
     "bad --random 0: random strategy needs a positive sample count, got 0"),
    (["gne", "--grid", "0:100:1e-5"],
     "sweep would evaluate 1000000300000030000001 points, over the budget of 1000000"),
    (["gne", "--grid", "0:100:1e-320"],
     "bad --grid '0:100:1e-320': grid step 1e-320 gives an axis too long to count"),
    (["analyze", "--max-cycle-len", "-1"], "--max-cycle-len: max_len must be >= 0, got -1"),
])
def test_out_of_range_flags_are_usage_errors(capsys, tmp_path, argv, message):
    out = tmp_path / "reports"
    code = main([*argv, "--builtin", "three_node", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"pairs": [', "Expecting value"),
    (json.dumps({"pairs": [{"n": 0, "m": 1, "sigma_d": -0.2}]}),
     "sigma_d[(0, 1)] = -0.2 is negative"),
    ("[1, 2]", 'errors file: expected an object with a "pairs" list'),
    ('{"pairs": [5]}', "errors file: pairs[0] is not an object"),
    ('{"pairs": [{"n": null, "m": 1}]}', "errors file: pairs[0].n is null, not an integer"),
    ('{"pairs": [{"n": 0, "m": 1, "cov": true}]}',
     "errors file: pairs[0].cov is true, not a number"),
    # A pair with no link in the scenario, a misspelt key, a repeated pair.
    ('{"pairs": [{"n": 0, "m": 7, "sigma_d": 0.2}]}',
     "error model pair (0, 7) is not a directed link of scenario 'three_node'"),
    ('{"pairs": [{"n": 0, "m": 1, "sigma_D": 0.5}]}',
     'errors file: pairs[0] has unknown key "sigma_D"'),
    ('{"pairs": [{"n": 0, "m": 1}, {"n": 1, "m": 0}, {"n": 0, "m": 1}]}',
     "errors file: pairs[2] repeats pair (0, 1)"),
])
def test_privacy_malformed_errors_file_is_an_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "errors.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "reports"
    code = main(["privacy", "--builtin", "three_node", "--samples", "1000",
                 "--errors", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert message in captured.err
    assert not out.exists()


def test_privacy_errors_file(capsys, tmp_path, out):
    doc = {"pairs": [
        {"n": 0, "m": 1, "sigma_d": 0.2, "sigma_g": 0.2, "cov": 0.0},
        {"n": 1, "m": 0, "sigma_d": 0.3, "sigma_g": 0.0, "cov": 0.0},
        {"n": 0, "m": 2, "sigma_d": 0.2, "sigma_g": 0.5, "cov": -0.05},
        {"n": 2, "m": 0, "sigma_d": 0.8, "sigma_g": 0.0, "cov": 0.0},
        {"n": 1, "m": 2, "sigma_d": 0.8, "sigma_g": 0.5, "cov": 0.2},
        {"n": 2, "m": 1, "sigma_d": 0.1, "sigma_g": 0.8, "cov": 0.0},
    ]}
    path = tmp_path / "errors.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run(capsys, "privacy", "--builtin", "three_node",
                     "--samples", "1000", "--errors", str(path),
                     "--out", out, "--formats", "json")
    assert code == EXIT_OK
    assert "1000 samples" in text


def test_privacy_requires_errors_for_other_scenarios(capsys, out):
    code, _ = run(capsys, "privacy", "--builtin", "ieee14",
                  "--samples", "1000", "--out", out)
    assert code == EXIT_USAGE


def test_validate_builtin_and_warnings(capsys, out):
    code, text = run(capsys, "validate", "--builtin", "three_node",
                     "--out", out, "--formats", "json")
    assert code == EXIT_OK
    assert "0 errors" in text
    code, text = run(capsys, "validate", "--builtin", "ieee14",
                     "--out", out, "--formats", "json")
    assert code == EXIT_OK
    assert "assumption" in text
    assert "0 errors, 3 warnings" in text


def test_validate_broken_scenario(capsys, tmp_path, out):
    scn = sc.builtin("three_node")
    doc = json.loads(sc.dumps_scenario(scn))
    doc["prosumers"][1]["delta_g"] = -50.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run(capsys, "validate", "--scenario", str(path),
                     "--out", out, "--formats", "json")
    assert code == EXIT_INTERNAL
    assert "[error]" in text


def test_solve_infeasible_scenario(capsys, tmp_path, out):
    scn = sc.Scenario(
        name="starved", units="MWh",
        prosumers=[sc.ProsumerParams(id=0, d_min=0.0, d_max=5.0, g_min=0.0,
                                     g_max=2.0, d_star=1.0, a_tilde=5.0,
                                     b_tilde=10.0, a=4.0, b=30.0, d=10.0,
                                     delta_g=0.0),
                   sc.ProsumerParams(id=1, d_min=8.0, d_max=10.0, g_min=0.0,
                                     g_max=0.0, d_star=9.0, a_tilde=15.0,
                                     b_tilde=135.0, a=0.01, b=0.01, d=0.1,
                                     delta_g=0.0)],
        links=[sc.TradeLink(n=0, m=1, kappa=1.0, c_nm=1.0, c_mn=1.0)])
    path = write_scenario(tmp_path, scn)
    code, _ = run(capsys, "solve", "--scenario", path, "--out", out)
    assert code == EXIT_INFEASIBLE


def test_source_selection_errors(capsys, out):
    code, _ = run(capsys, "solve", "--out", out)
    assert code == EXIT_USAGE
    code, _ = run(capsys, "solve", "--builtin", "three_node",
                  "--scenario", "x.json", "--out", out)
    assert code == EXIT_USAGE
    code, _ = run(capsys, "solve", "--scenario", "/no/such/file.json",
                  "--out", out)
    assert code == EXIT_INTERNAL
    code, _ = run(capsys, "solve", "--builtin", "not_a_builtin",
                  "--out", out)
    assert code == EXIT_INTERNAL


def test_malformed_scenario_file(capsys, tmp_path, out):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run(capsys, "solve", "--scenario", str(path), "--out", out)
    assert code == EXIT_INTERNAL


def test_bad_formats_rejected(capsys, out):
    code, _ = run(capsys, "solve", "--builtin", "three_node",
                  "--out", out, "--formats", "xml")
    assert code == EXIT_USAGE
    for flag, value in (("--max-iter", "-1"), ("--tol", "0"), ("--tol", "nan")):
        code, _ = run(capsys, "solve", "--builtin", "three_node",
                      "--out", out, flag, value)
        assert code == EXIT_USAGE, (flag, value)


def test_unread_flags_rejected(capsys, out):
    # Each subcommand registers only the solver and RNG flags it uses.
    for command, flag, value in (("gne", "--max-iter", "5"),
                                 ("validate", "--tol", "1e-6"),
                                 ("validate", "--seed", "1"),
                                 ("solve", "--seed", "1"),
                                 ("analyze", "--seed", "1"),
                                 ("privacy", "--reg", "1e-7")):
        code, _ = run(capsys, command, "--builtin", "three_node",
                      "--out", out, flag, value)
        assert code == EXIT_USAGE, (command, flag)


def test_reports_deterministic(capsys, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out_dir in (out_a, out_b):
        code, _ = run(capsys, "solve", "--builtin", "three_node",
                      "--out", out_dir, "--formats", "json,csv")
        assert code == EXIT_OK
    rep_a = json.loads(open(f"{out_a}/solve_three_node.json").read())
    rep_b = json.loads(open(f"{out_b}/solve_three_node.json").read())
    assert rep_a["solution"] == rep_b["solution"]
    csv_a = open(f"{out_a}/solve_three_node.csv").read()
    csv_b = open(f"{out_b}/solve_three_node.csv").read()
    assert csv_a == csv_b


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "peertrade", "validate",
         "--builtin", "three_node", "--out", str(tmp_path),
         "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0 errors" in proc.stdout


def test_cli_commands_leave_scipy_optimize_unloaded(tmp_path):
    # scipy.optimize takes about a third of a second to import, and only
    # equilibrium.check_agent_kkt uses it; it imports it on its first call.
    script = f"""
import sys
import peertrade
from peertrade import cli, equilibrium, market, scenario
for argv in (["gne", "--grid", "0:100:50"], ["solve"], ["analyze"],
             ["privacy", "--samples", "1000"], ["validate"]):
    code = cli.main(argv + ["--builtin", "three_node", "--out", {str(tmp_path)!r}])
    assert code == 0, argv
assert "scipy.optimize" not in sys.modules
scn = scenario.builtin("three_node")
sol = market.solve_centralized(scn)
for n in scn.node_ids:
    assert equilibrium.check_agent_kkt(scn, sol, n).max_residual <= 1e-6, n
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
