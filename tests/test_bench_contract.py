"""The benchmark still runs against the library as it stands.

``perfbench/tracer.py`` wraps every public function of each peertrade
module and looks the spans of ``perfbench/run.py``'s ``PER_LAYER`` up by
name; a name that no longer exists raises ``KeyError`` there.  The first
test reads ``perfbench/run.py`` (without running it) so that removing or
renaming such a function fails here first.  The smoke run executes one
traced unit of each workload, which catches a removed parameter or
member that the workloads still use.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def _per_layer_spans() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return sorted({name.rpartition(".")[0] for name in run.PER_LAYER
                   if name.endswith((".calls", ".self_s"))})


def test_per_layer_spans_name_public_functions():
    spans = _per_layer_spans()
    assert "qp.solve_batch" in spans and "scenario.validate" in spans
    missing = []
    for span in spans:
        module_name, _, attr = span.partition(".")
        module = importlib.import_module(f"peertrade.{module_name}")
        # The tracer wraps Scenario.validate under the module's name.
        owner = module.Scenario if span == "scenario.validate" else module
        fn = getattr(owner, attr, None)
        if (attr.startswith("_") or not inspect.isfunction(fn)
                or (owner is module and fn.__module__ != module.__name__)):
            missing.append(span)
    assert not missing, f"PER_LAYER names no public function for {missing}"


@pytest.mark.parametrize("workload", ["grid_three_node", "random_ieee14",
                                      "market_suite"])
def test_benchmark_smoke_run(workload):
    # Writes its record under the git-ignored perfbench/out/.
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("base, change, better, verdict", [
    # 9 of 10 pairs won, median 2.05 below the base's, base IQR 0.275.
    ([10.0, 10.5, 10.2, 9.9, 10.1, 10.4, 9.8, 10.3, 10.0, 10.2],
     [8.0, 8.2, 7.9, 8.1, 8.3, 7.8, 8.0, 8.1, 10.5, 8.2], "lower", "gain"),
    # Median 30 % below the base's, bound 25 %.
    ([10.0] * 5 + [10.1] * 5, [7.0] * 10, "higher", "regression"),
    # Base IQR 4 of median 10, wider than the bound; the runs overlap.
    ([6.0, 14.0, 8.0, 12.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0],
     [9.0, 11.0] * 5, "lower", "unresolved"),
    ([6.0, 14.0, 8.0, 12.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0],
     [15.0] * 10, "higher", "gain"),
    # Base IQR 10 of median 5: every change run beats every base run, but
    # by less than the IQR.
    ([0.0] * 5 + [10.0] * 5, [10.5] * 10, "higher", "unchanged"),
    ([10.0, 10.1] * 5, [10.05] * 10, "lower", "unchanged"),
    # Wins 8 of 10 with a large shift: not enough pairs for a gain.
    ([10.0] * 10, [5.0] * 8 + [10.0] * 2, "lower", "unchanged"),
])
def test_bench_pairs_verdicts(monkeypatch, base, change, better, verdict):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_pairs = importlib.import_module("bench_pairs")
    got = bench_pairs.compare(base, change, better, 0.25)
    assert got["verdict"] == verdict


def test_bench_pairs_records_failures_and_fails_on_incorrect_runs(
        monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_pairs = importlib.import_module("bench_pairs")
    spec = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    metrics = {m["name"]: {"value": 1.0} for m in json.loads(spec)["end_to_end"]}
    change = tmp_path / "change"
    (change / "src" / "peertrade").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(spec, encoding="utf-8")
    wrong = set()

    def fake_run(tree, workload, seed, seconds):
        bad = (tree.name, workload, seed) in wrong
        setups = ([0.3 + seed, 0.2 + seed, 0.4 + seed] if tree.name == "change"
                  else [0.5] * 3)
        return ({"correct": not bad, "attempted": 7, "failed": 2 if bad else 0,
                 "metrics": metrics}, {"host": "test"}, setups)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = ["--base", str(ROOT), "--change", str(change), "--pairs", "2",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # The change's second market_suite run fails 2 of its 7 points.
    wrong.add(("change", "market_suite", 1))
    assert bench_pairs.main(argv) == 1
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["workloads"]["market_suite"]["failures"] == {
        "base": {"failed": 0, "attempted": 14}, "change": {"failed": 2, "attempted": 14}}
    assert record["workloads"]["grid_three_node"]["failures"]["change"]["failed"] == 0
    assert [r["setup_samples_s"] for r in
            record["workloads"]["random_ieee14"]["runs"]["change"]] == [
        [0.3, 0.2, 0.4], [1.3, 1.2, 1.4]]
    captured = capsys.readouterr()
    assert "market_suite failed/attempted: base 0/14, change 2/14" in captured.out
    assert ("random_ieee14 setup_s: base 1 (IQR 0), change 1, change won 0/2: "
            "unchanged; probes base 0.5-0.5, change 0.2-1.4") in captured.out
    assert "1 runs printed correct: false" in captured.err
