"""Command-line front end: solve, sweep, analyze, privacy, validate.

Each subcommand registers only the flags it reads, and every report
echoes the parsed flags as its ``config``, so a report is reproducible
from its own header.  Exit codes: 0 success, 1 internal or input/output
error (including invalid scenarios), 2 infeasible market, 3 usage
error.  Reports are deterministic for a fixed configuration except for
the ``generated_at`` timestamp.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import equilibrium, market, privacy, scenario as scenario_mod, structure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

_FORMATS = ("json", "csv", "dot")


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError
    # instead so infeasible solves keep exit code 2 for themselves.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="peertrade",
        description="Peer-to-peer energy market solver and analyzer.",
        epilog="Exit codes: 0 ok, 1 internal/IO error, 2 infeasible, "
               "3 usage error.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, seed=False):
        src = p.add_argument_group("scenario source").add_mutually_exclusive_group(
            required=True)
        src.add_argument("--builtin", metavar="NAME",
                         help="packaged scenario: three_node or ieee14")
        src.add_argument("--scenario", metavar="PATH", dest="scenario_path",
                         help="scenario JSON file")
        p.add_argument("--out", dest="out_dir", metavar="DIR",
                       help="output directory (default: $PEERTRADE_OUT or ./out)")
        p.add_argument("--formats", default=",".join(_FORMATS),
                       help="comma list from json,csv,dot (default all)")
        if seed:   # registered only where the command reads it
            p.add_argument("--seed", type=int, default=0, help="root RNG seed")

    p = sub.add_parser("solve", help="centralized welfare optimum with prices")
    common(p)

    p = sub.add_parser("gne", help="sample generalized Nash equilibria")
    common(p, seed=True)
    strategy = p.add_argument_group("omega strategy").add_mutually_exclusive_group(
        required=True)
    strategy.add_argument("--grid", metavar="START:STOP:STEP",
                          help="weight grid per sampled direction, e.g. 0:100:5")
    strategy.add_argument("--random", type=int, metavar="COUNT",
                          help="uniform random weight vectors")
    strategy.add_argument("--axis", metavar="V1,V2,...",
                          help="explicit weight values per direction")
    p.add_argument("--support", default=equilibrium.SUPPORT_LOW_BUYS_HIGH,
                   help="sampled directions: n_gt_m (default), full, or an "
                        "explicit list like 1:0,2:0,1:2 meaning buyer:seller")
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="solve budget guard for the sweep")

    p = sub.add_parser("analyze", help="cycles, congestion and waste structure")
    common(p)
    p.add_argument("--max-cycle-len", type=int, default=None)

    p = sub.add_parser("privacy", help="forecast-privacy utility bias")
    common(p, seed=True)
    p.add_argument("--samples", type=int, default=10 ** 5,
                   help=f"Monte-Carlo sample count (>= {privacy.MIN_MC_SAMPLES})")
    p.add_argument("--r-box", metavar="LO:HI", default=None,
                   help="ratio box for the bias bound on non-root nodes "
                        "(root pinned at 1); default: degenerate at 1")
    p.add_argument("--errors", dest="errors_path", metavar="PATH",
                   help="error-model JSON (bundled model used for the "
                        "three_node builtin when omitted)")

    p = sub.add_parser("validate", help="check scenario invariants")
    common(p)
    return parser


def _check(args) -> None:
    """Resolve the output directory and formats; reject a bad seed."""
    args.out_dir = args.out_dir or os.environ.get("PEERTRADE_OUT") or "out"
    args.formats = sorted({f.strip() for f in args.formats.split(",")} - {""})
    bad = set(args.formats) - set(_FORMATS)
    if bad:
        raise UsageError(f"unknown formats: {', '.join(sorted(bad))}")
    if "seed" in args:
        _check_flag("--seed", np.random.default_rng, args.seed)


def _load(args) -> scenario_mod.Scenario:
    if args.builtin is not None:
        return scenario_mod.builtin(args.builtin)
    return scenario_mod.load_scenario(args.scenario_path)


def _emit(args, scn, outputs: dict) -> None:
    """Write ``{command}_{slug}{suffix}`` for each output of a requested format.

    A dict is the JSON report and gets the ``config`` and ``generated_at``
    header; a callable is called only when its format is requested, and
    None writes nothing.
    """
    slug = "".join(ch if ch.isalnum() else "_" for ch in scn.name)
    for suffix, content in outputs.items():
        if suffix.rpartition(".")[2] not in args.formats:
            continue
        if callable(content):
            content = content()
        if content is None:
            continue
        if isinstance(content, dict):
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            content = json.dumps({"config": vars(args), "generated_at": stamp,
                                  **content}, indent=2, sort_keys=True) + "\n"
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{args.command}_{slug}{suffix}"
        path.write_text(content, encoding="utf-8")
        print(f"wrote {path}")


def cmd_solve(args) -> int:
    scn = _load(args)
    sol = market.solve_centralized(scn)
    print(f"scenario: {scn.name} ({scn.n_nodes} nodes, {len(scn.links)} links)")
    print(f"status: {sol.solver_status} ({sol.solver_iterations} iterations)")
    print(f"social welfare: {sol.sw:.6f}")
    for n in scn.node_ids:
        diff = sol.lam[n] - sol.lam[0]
        extra = "" if n == 0 else f"   ({diff:+.6f} vs root)"
        print(f"lambda[{n}] = {sol.lam[n]:.6f}{extra}")
    _emit(args, scn, {
        ".json": {"solution": market.solution_to_dict(sol),
                  "lambda_minus_root": {str(n): sol.lam[n] - sol.lam[0]
                                        for n in scn.node_ids},
                  "residuals": sol.kkt_residuals},
        ".csv": market.solution_to_csv(sol)})
    return EXIT_OK


def _parse_support(text: str) -> object:
    if text in (equilibrium.SUPPORT_LOW_BUYS_HIGH, equilibrium.SUPPORT_FULL):
        return text
    pairs = []
    for chunk in text.split(","):
        try:
            n, m = chunk.split(":")
            pairs.append((int(n), int(m)))
        except ValueError:
            raise UsageError(
                f"bad support entry {chunk!r}; expected buyer:seller") from None
    return tuple(pairs)


def _parse_strategy(args) -> object:
    """The strategy of ``gne``'s strategy flag; the strategy checks its own
    values, and any ``ValueError`` on the way is a usage error."""
    support = _parse_support(args.support)
    kind = next(k for k in ("grid", "random", "axis") if getattr(args, k) is not None)
    value = getattr(args, kind)
    try:
        if kind == "grid":
            start, stop, step = (float(v) for v in value.split(":"))
            return equilibrium.GridStrategy(start, stop, step, support=support)
        if kind == "random":
            return equilibrium.RandomStrategy(value, seed=args.seed, support=support)
        values = tuple(float(v) for v in value.split(","))
        return equilibrium.AxisStrategy(values, support=support)
    except ValueError as exc:
        raise UsageError(f"bad --{kind} {value!r}: {exc}") from None


def cmd_gne(args) -> int:
    scn = _load(args)
    strategy = _parse_strategy(args)
    samples = equilibrium.sweep_gne(scn, strategy, budget=args.budget)
    ve = equilibrium.solve_ve(scn)
    valid = [s for s in samples if s.is_gne]
    print(f"sweep: {len(samples)} distinct solutions kept, "
          f"{len(valid)} valid equilibria")
    summary = {"ve_sw": ve.sw, "distinct": len(samples), "valid": len(valid)}
    if valid:
        sws = [s.sw for s in valid]
        print(f"sw range: {min(sws):.6f} .. {max(sws):.6f} (VE {ve.sw:.6f})")
        poa = equilibrium.poa_bound(valid, ve.sw)
        bound = poa["poa_lower_bound"]
        if bound is not None:
            print(f"PoA lower bound: {bound:.6f}")
        else:
            print(f"PoA lower bound: undefined ({poa['note']})")
        summary["sw_min"] = min(sws)
        summary["sw_max"] = max(sws)
        summary["poa_lower_bound"] = bound
        summary["worst_omega"] = {f"{n}:{m}": w for (n, m), w
                                  in poa["worst_sample"].omega.items()}

    def cloud():
        try:
            return equilibrium.point_cloud_csv(samples, scn)
        except ValueError:
            return None

    _emit(args, scn, {
        ".json": summary,
        "_samples.csv": lambda: equilibrium.samples_to_csv(samples, scn),
        "_cloud.csv": cloud})
    return EXIT_OK


def _check_flag(flag: str, check, *args) -> None:
    """Run the library's own range check on a flag's value; its
    ``ValueError`` is a usage error."""
    try:
        check(*args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def cmd_analyze(args) -> int:
    scn = _load(args)
    _check_flag("--max-cycle-len", structure._cycle_len_limit, scn, args.max_cycle_len)
    sol = market.solve_centralized(scn)
    report = structure.analysis_report(scn, sol, max_cycle_len=args.max_cycle_len)
    cycles = report["cycles"]
    print(f"scenario: {scn.name}")
    print(f"preference cycles: {len(cycles)}")
    for entry in cycles:
        print(f"  nodes {entry['nodes']} weight {entry['weight']:+g} "
              f"({entry['sign']}, {entry['kind']})")
    print(f"congestion predictions: {len(report['predictions'])}")
    for pred in report["predictions"]:
        a, b = pred["direction"]
        note = " (premises unmet)" if pred["premise_failed"] else ""
        print(f"  q[{a}][{b}] expected at capacity{note}")
    waste = report["waste"]
    print(f"waste: total {waste['total']:.6f}, "
          f"avoidable: {waste['avoidable']['possible']}")
    _emit(args, scn, {".json": {"analysis": report},
                      ".dot": structure.to_dot(scn, sol)})
    return EXIT_OK


_ERROR_KEYS = ("n", "m", "sigma_d", "sigma_g", "cov")   # an --errors file's pair keys


def _load_error_model(args, scn) -> privacy.ErrorModel:
    if args.errors_path is not None:
        raw = json.loads(Path(args.errors_path).read_text(encoding="utf-8"))
        if not (isinstance(raw, dict) and isinstance(raw.get("pairs"), list)):
            raise ValueError('errors file: expected an object with a "pairs" list')
        sd, sg, cv = {}, {}, {}
        for i, row in enumerate(raw["pairs"]):
            if not isinstance(row, dict):
                raise ValueError(f"errors file: pairs[{i}] is not an object")
            unknown = sorted(set(row) - set(_ERROR_KEYS))
            if unknown:
                raise ValueError(f"errors file: pairs[{i}] has unknown key "
                                 f"{json.dumps(unknown[0])}; expected {', '.join(_ERROR_KEYS)}")
            for name in _ERROR_KEYS:
                node = name in ("n", "m")   # required; the rest default to 0
                v = row.get(name, None if node else 0.0)
                # type(), not isinstance(): JSON true and false are not numbers.
                if type(v) not in ((int,) if node else (int, float)):
                    raise ValueError(f"errors file: pairs[{i}].{name} is {json.dumps(v)}, "
                                     f"not {'an integer' if node else 'a number'}")
            key = (row["n"], row["m"])
            if key in sd:
                raise ValueError(f"errors file: pairs[{i}] repeats pair {key}")
            sd[key] = row.get("sigma_d", 0.0)
            sg[key] = row.get("sigma_g", 0.0)
            cv[key] = row.get("cov", 0.0)
        return privacy.clamp_error_model(sd, sg, cv)
    if scn.name == "three_node":
        return privacy.three_node_error_model()
    raise UsageError("--errors PATH is required for scenarios other than "
                     "the three_node builtin")


def cmd_privacy(args) -> int:
    _check_flag("--samples", privacy._check_samples, args.samples)
    scn = _load(args)
    r_lo = r_hi = None
    if args.r_box is not None:
        try:
            lo, hi = (float(v) for v in args.r_box.split(":"))
        except ValueError:
            raise UsageError(
                f"bad --r-box {args.r_box!r}; expected LO:HI") from None
        # The root (node 0) is pinned at ratio 1.
        r_lo = {n: (1.0 if n == 0 else lo) for n in scn.node_ids}
        r_hi = {n: (1.0 if n == 0 else hi) for n in scn.node_ids}
        _check_flag("--r-box", privacy._check_box, scn, r_lo, r_hi)
    errors = _load_error_model(args, scn)
    rep = privacy.bias_report(scn, errors, r_lo=r_lo, r_hi=r_hi,
                              samples=args.samples, seed=args.seed)
    print(f"scenario: {scn.name}, {rep.samples} samples")
    all_ok = True
    for n in scn.node_ids:
        gap = abs(rep.mc_mean[n] - rep.expected_bias[n])
        lim = 3 * rep.mc_stderr[n]
        ok = gap <= lim or lim == 0.0
        all_ok = all_ok and ok
        print(f"node {n}: closed form {rep.expected_bias[n]:+.6g}, "
              f"MC {rep.mc_mean[n]:+.6g} +/- {rep.mc_stderr[n]:.2g} "
              f"[{'ok' if ok else 'MISMATCH'}], bound {rep.phi[n]:.6g}")
    print("closed form and Monte-Carlo "
          + ("agree within 3 standard errors" if all_ok else "DISAGREE"))
    _emit(args, scn, {".json": {"bias": rep.to_dict(),
                                "agreement_3_stderr": all_ok}})
    return EXIT_OK


def cmd_validate(args) -> int:
    scn = _load(args)
    violations = scn.validate()
    for v in violations:
        print(str(v))
    errors = [v for v in violations if v.severity == "error"]
    print(f"{scn.name}: {len(errors)} errors, "
          f"{len(violations) - len(errors)} warnings")
    _emit(args, scn, {".json": {"violations": [str(v) for v in violations],
                                "ok": not errors}})
    return EXIT_OK if not errors else EXIT_INTERNAL


_COMMANDS = {"solve": cmd_solve, "gne": cmd_gne, "analyze": cmd_analyze,
             "privacy": cmd_privacy, "validate": cmd_validate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        _check(args)
        return _COMMANDS[args.command](args)
    except (UsageError, equilibrium.OmegaError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except market.InfeasibleMarketError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, json.JSONDecodeError, KeyError, ValueError,
            scenario_mod.ScenarioFormatError, market.MarketError,
            structure.StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
