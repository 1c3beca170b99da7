"""The benchmark's per-layer metrics name functions that exist.

``perfbench/tracer.py`` wraps every public function of each peertrade
module and looks the spans of ``perfbench/run.py``'s ``PER_LAYER`` up by
name; a name that no longer exists raises ``KeyError`` there.  This test
reads ``perfbench/run.py`` (without running it) so that removing or
renaming such a function fails here first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
