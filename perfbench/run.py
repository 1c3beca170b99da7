"""peertrade benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, in this one process, with BLAS pinned to one
thread.  Workloads (see ``workloads.py``):

* ``grid_three_node``: one ``peertrade gne`` CLI run over the 21^3
  buyer-side omega grid on the three-node builtin;
* ``random_ieee14``: ``sweep_gne`` on ieee14 case b with seeded uniform
  omega draws;
* ``market_suite``: solve, analyze and bias-check a seeded suite of
  3..14-node markets plus the builtins, one market at a time.

``--trace 0`` runs passes of the workload back to back for at least
``--seconds`` and reports the end-to-end metrics; set-up time is the
median of several fresh processes that import the program and build the
inputs.  ``--trace 1`` alternates untraced and traced units (see
``tracer.py``) and reports per-layer metrics, normalized per unit (one
sweep, or one market), plus the tracing overhead.  Outputs are checked
outside the timed region.  The last line of standard output is the
result; a record with the environment, the input fingerprints and the
checks' findings (and, when traced, the spans) is written under
``perfbench/out/``.  The exit code is 0 unless a check found a wrong
output or changed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "market_ms_p50": "ms",
    "market_ms_p90": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qp.solve_batch.calls": "count",
    "qp.solve_batch.self_s": "s",
    "qp.rows": "count",
    "qp.rows_per_call": "count",
    "qp.us_per_row_iter": "us",
    "qp.ipm_iters_mean": "count",
    "qp.ipm_iters_max": "count",
    "qp.rows_nonoptimal": "count",
    "qp.residual_max": "norm",
    "qp.kkt_dim": "count",
    "qp.ineq_rows": "count",
    "qp.solve.calls": "count",
    "qp.solve.self_s": "s",
    "equilibrium.sweep_gne.self_s": "s",
    "equilibrium.points": "count",
    "equilibrium.kept": "count",
    "equilibrium.kept_share": "share",
    "equilibrium.kept_canonical": "count",
    "equilibrium.solve_ve.self_s": "s",
    "equilibrium.poa_bound.self_s": "s",
    "equilibrium.samples_to_csv.self_s": "s",
    "market.assemble.calls": "count",
    "market.assemble.self_s": "s",
    "market.extract_solution.calls": "count",
    "market.extract_solution.self_s": "s",
    "market.verify_solution.calls": "count",
    "market.verify_solution.self_s": "s",
    "market.solve_centralized.self_s": "s",
    "scenario.validate.calls": "count",
    "scenario.validate.self_s": "s",
    "structure.analysis_report.self_s": "s",
    "structure.detect_preference_cycles.self_s": "s",
    "structure.detect_game_cycles.self_s": "s",
    "structure.waste_certificates.self_s": "s",
    "structure.cycles_found": "count",
    "privacy.bias_report.self_s": "s",
    "privacy.monte_carlo_bias.self_s": "s",
    "privacy.mc_samples_per_s": "1/s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "qp.share": "share",
    "equilibrium.share": "share",
    "market.share": "share",
    "scenario.share": "share",
    "structure.share": "share",
    "privacy.share": "share",
    "cli.share": "share",
    "trace.unit_s": "s",
    "trace.overhead_share": "share",
}


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_workloads():
    """Import the checkout's own ``src/peertrade`` and the workloads."""
    package = SRC / "peertrade"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no peertrade sources at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import peertrade
    if Path(peertrade.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported peertrade from {peertrade.__file__}, "
                         f"not from {package}")
    import workloads
    return workloads


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- the two kinds of run -----------------------------------------------------

class Tally:
    """Operations attempted and failed, each distinct point or market once.

    Later passes repeat the same operations and are checked to give the
    same outputs; counting them again would make the counts depend on how
    many passes fit into the run.
    """

    def __init__(self):
        self.attempted = 0
        self.op_failed = 0
        self.wrong = 0

    def add(self, points: int, failed: tuple) -> None:
        self.attempted += points
        self.op_failed += failed[0]
        self.wrong += failed[1]

    @property
    def failed(self) -> int:
        return self.op_failed + self.wrong


def timed_run(wl, seconds: float, checks, tally: Tally) -> dict:
    """Whole passes back to back until ``seconds`` have passed.

    Throughput is total points over total timed seconds.  On a shared
    host the CPU's speed can switch between states for seconds at a
    time; a mean follows the share of time spent in each state smoothly,
    where a median of identical units jumps from one state to the other.
    """
    latencies = []
    points = 0
    passes = 0
    start = time.perf_counter()
    while True:
        for unit in wl.units():
            t0 = time.perf_counter()
            out = wl.run(unit)
            latencies.append(time.perf_counter() - t0)
            points += wl.points(unit)
            failed = wl.verify(unit, out, checks)
            if passes == 0:
                tally.add(wl.points(unit), failed)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "points_per_s": points / sum(latencies),
        "market_ms_p50": 1e3 * statistics.median(latencies),
        "market_ms_p90": 1e3 * _quantile(latencies, 90),
        "latencies_ms": [1e3 * t for t in latencies],
    }


def traced_run(wl, tracer, seconds: float, checks, tally: Tally) -> dict:
    """Alternate untraced and traced units over an even number of passes.

    Pass k traces the units whose index has the parity of k + 1, so every
    unit runs once traced and once untraced per two passes and the
    overhead compares like with like.
    """
    walls = {False: [], True: []}
    passes = 0
    start = time.perf_counter()
    while True:
        for i, unit in enumerate(wl.units()):
            traced = (i + passes) % 2 == 1
            if traced:
                with tracer.active(), tracer.span("benchmark.unit") as wall:
                    out = wl.run(unit)
                dt = wall[0]
            else:
                t0 = time.perf_counter()
                out = wl.run(unit)
                dt = time.perf_counter() - t0
            failed = wl.verify(unit, out, checks)
            if passes == 0:
                tally.add(wl.points(unit), failed)
            if traced:
                for key, value in wl.counters().items():
                    tracer.add(key, value)
            walls[traced].append(dt)
        passes += 1
        if passes % 2 == 0 and time.perf_counter() - start >= seconds:
            break
    return {"units": len(walls[True]), "traced_s": sum(walls[True]),
            "untraced_s": sum(walls[False]), "passes": passes}


def layer_metrics(tracer, run: dict) -> dict:
    units = run["units"]
    count = tracer.counters.get
    rows = count("qp.rows", 0)
    iters = count("qp.iters", 0)
    out = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = tracer.calls(span) / units
        elif kind == "self_s":
            out[name] = tracer.self_s(span) / units
    batch_self = tracer.self_s("qp.solve_batch")
    points = count("equilibrium.points", 0)
    mc_s = tracer.total_s("privacy.monte_carlo_bias")
    out.update({
        "qp.rows": rows / units,
        "qp.rows_per_call": rows / max(tracer.calls("qp.solve_batch"), 1),
        "qp.us_per_row_iter": 1e6 * batch_self / max(iters, 1),
        "qp.ipm_iters_mean": iters / max(rows, 1),
        "qp.ipm_iters_max": count("qp.ipm_iters_max", 0),
        "qp.rows_nonoptimal": count("qp.rows_nonoptimal", 0) / units,
        "qp.residual_max": count("qp.residual_max", 0.0),
        "qp.kkt_dim": count("qp.kkt_dim_rows", 0) / max(rows, 1),
        "qp.ineq_rows": count("qp.ineq_rows_rows", 0) / max(rows, 1),
        "equilibrium.points": points / units,
        "equilibrium.kept": count("equilibrium.kept", 0) / units,
        "equilibrium.kept_share": count("equilibrium.kept", 0) / max(points, 1),
        "equilibrium.kept_canonical": count("equilibrium.kept_canonical", 0) / units,
        "structure.cycles_found": count("structure.cycles_found", 0) / units,
        "privacy.mc_samples_per_s": count("privacy.mc_samples", 0) / mc_s if mc_s else 0.0,
        "cli.bytes_written": count("cli.bytes_written", 0) / units,
        "trace.unit_s": run["traced_s"] / units,
        "trace.overhead_share": run["traced_s"] / run["untraced_s"] - 1.0,
    })
    for module, self_s in tracer.module_self_s().items():
        out[f"{module}.share"] = self_s / run["traced_s"]
    return out


# -- set-up, environment, output ----------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Print the seconds it takes to import the program and build the inputs."""
    t0 = time.perf_counter()
    wl_mod = _import_workloads()
    wl_mod.WORKLOADS[workload](seed, OUT)
    print(repr(time.perf_counter() - t0))


def setup_seconds(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "peertrade").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_blas()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl_mod = _import_workloads()
    if args.workload not in wl_mod.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl_mod.WORKLOADS)}")
    declared = _declared()
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    checks = wl_mod.Checks()
    tally = Tally()
    tracer = None
    try:
        wl = wl_mod.WORKLOADS[args.workload](args.seed, scratch)
        fingerprints = wl.fingerprints(checks)
        wl.prepare(checks)
        if args.trace:
            tracer = wl_mod.Tracer()
            run = traced_run(wl, tracer, args.seconds, checks, tally)
            metrics = layer_metrics(tracer, run)
        else:
            run = timed_run(wl, args.seconds, checks, tally)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = setup_seconds(args.workload, args.seed)
            run["setup_samples_s"] = setups
            metrics = {
                "setup_s": statistics.median(setups),
                "points_per_s": run["points_per_s"],
                "market_ms_p50": run["market_ms_p50"],
                "market_ms_p90": run["market_ms_p90"],
                "ok_share": 1.0 - tally.failed / tally.attempted,
                "peak_rss_mb": peak_mb,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    kind = "per_layer" if args.trace else "end_to_end"
    if declared[kind] != units or set(metrics) != set(units):
        raise SystemExit(f"benchmark: {kind} metrics disagree with BENCHMARK.json")
    correct = checks.failures == 0 and tally.wrong == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    info = dict(checks.info, run=run, op_failed=tally.op_failed,
                wrong=tally.wrong, messages=checks.messages)
    if tracer is not None:
        info["spans_kept"] = len(tracer.spans)
        info["spans_dropped"] = tracer.spans_dropped
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": environment(),
              "fingerprints": fingerprints, "info": info, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start_s", "end_s", "parent"],
             "spans": tracer.spans}) + "\n")

    for message in checks.messages:
        print(f"check: {message}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({"info": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
