"""Paired benchmark runs of two source trees, written to one BENCH file.

    python3 tools/bench_pairs.py --base DIR --change DIR --pairs 10 \\
        --out BENCH_13.json [--seed 0]

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit (``git clone`` or ``git archive`` into a
separate directory) and the working tree.  For each workload declared in
the change's ``BENCHMARK.json`` the script runs ``perfbench/run.py`` in
both trees, one after the other, ``--pairs`` times, each run as long as
that file's ``run_seconds``; pair k uses seed ``--seed + k`` on both
sides, and the side that runs first alternates, so drift of the machine
falls on both sides alike.  Runs are sequential.

The output records, per workload and end-to-end metric, each side's
per-pair values, their median and quartiles, how many pairs the change
won in the metric's better direction, and a verdict (see ``compare``),
which it also prints, one line per workload and metric; plus every run's
``correct``, ``attempted`` and ``failed`` fields, each side's failed and
attempted totals per workload (printed before the verdicts, since the
failure share is gated like any metric), the ``environment`` block
``run.py`` recorded on each side, and each side's ``src/peertrade`` line
totals (lines and code lines, as ``tools/src_lines.py`` counts them),
which it prints after the verdicts with the change's difference.

The exit status is 1 when any run printed ``correct: false``, after the
file is written: its verdicts compare runs that did not check out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from src_lines import totals

SIDES = ("base", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One ``perfbench/run.py`` run in ``tree``: (result, environment)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} printed "
                         f"no result (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    return result, info["environment"]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """Paired runs of one metric and their verdict.

    ``bound`` is the metric's largest allowed worsening, relative to the
    base median.  The verdict is ``gain`` when the change wins at least
    nine tenths of the pairs (ties count for neither) and its median beats
    the base median by more than the base IQR; ``regression`` when its
    median is worse than the base median by more than the bound;
    ``unresolved`` when the base IQR is wider than the bound and not every
    change run beats every base run; else ``unchanged``.
    """
    sign = -1.0 if better == "lower" else 1.0     # sign * value: higher is better
    wins = sum(sign * c > sign * b for b, c in zip(base, change))
    out = {"better": better, "bound": bound, "base": base, "change": change,
           "base_stats": summary(base), "change_stats": summary(change),
           "wins": wins, "pairs": len(base)}
    b_med, c_med = out["base_stats"]["median"], out["change_stats"]["median"]
    b_iqr, allowed = out["base_stats"]["iqr"], bound * abs(b_med)
    out["median_change_over_base"] = c_med / b_med if b_med else None
    if 10 * wins >= 9 * len(base) and sign * (c_med - b_med) > b_iqr:
        out["verdict"] = "gain"
    elif sign * (b_med - c_med) > allowed:
        out["verdict"] = "regression"
    elif b_iqr > allowed and (min(sign * c for c in change)
                              <= max(sign * b for b in base)):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "unchanged"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for the quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}

    record = {"seconds": seconds, "pairs": args.pairs, "first_seed": args.seed,
              "environment": {},
              "src_lines": {side: totals(trees[side] / "src" / "peertrade")
                            for side in SIDES},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result, env = run_once(trees[side], workload, seed, seconds)
                record["environment"].setdefault(side, env)
                runs[side].append(result)
                metrics = {m: round(v["value"], 4) for m, v in result["metrics"].items()}
                print(f"{workload} pair {k} seed {seed} {side}: correct "
                      f"{result['correct']} failed {result['failed']} {metrics}",
                      flush=True)
        record["workloads"][workload] = {
            "runs": {side: [{"seed": args.seed + k, "correct": r["correct"],
                             "attempted": r["attempted"], "failed": r["failed"]}
                            for k, r in enumerate(runs[side])] for side in SIDES},
            "failures": {side: {key: sum(r[key] for r in runs[side])
                                for key in ("failed", "attempted")} for side in SIDES},
            "metrics": {m: compare(*([r["metrics"][m]["value"] for r in runs[side]]
                                     for side in SIDES), *rules[m])
                        for m in rules}}
    incorrect = 0
    for workload, entry in record["workloads"].items():
        f = entry["failures"]
        incorrect += sum(not r["correct"] for side in SIDES for r in entry["runs"][side])
        print(f"{workload} failed/attempted: base {f['base']['failed']}/"
              f"{f['base']['attempted']}, change {f['change']['failed']}/"
              f"{f['change']['attempted']}")
        for m, c in entry["metrics"].items():
            print(f"{workload} {m}: base {c['base_stats']['median']:.4g} "
                  f"(IQR {c['base_stats']['iqr']:.3g}), change "
                  f"{c['change_stats']['median']:.4g}, change won "
                  f"{c['wins']}/{c['pairs']}: {c['verdict']}")
    base, change = (record["src_lines"][side] for side in SIDES)
    for kind in ("lines", "code_lines"):
        print(f"src {kind}: base {base[kind]}, change {change[kind]} "
              f"({change[kind] - base[kind]:+d})")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if incorrect:
        print(f"bench_pairs: {incorrect} runs printed correct: false; "
              "their verdicts do not count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
