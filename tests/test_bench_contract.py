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
