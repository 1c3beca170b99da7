"""Command-line front end: solve, sweep, analyze, privacy, validate.

Every run echoes its full configuration into the written reports, so a
report is reproducible from its own header.  Exit codes: 0 success,
1 internal or input/output error (including invalid scenarios),
2 infeasible market, 3 usage error.  Reports are deterministic for a
fixed configuration except for the ``generated_at`` timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import equilibrium, market, privacy, scenario as scenario_mod, structure

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError
    # instead so infeasible solves keep exit code 2 for themselves.
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, echoed into every report."""

    command: str
    builtin: Optional[str] = None
    scenario_path: Optional[str] = None
    tol: float = market.DEFAULT_TOL
    max_iter: int = 100
    reg: float = 0.0
    seed: int = 0
    out_dir: str = "out"
    formats: tuple = ("json", "csv", "dot")
    grid: Optional[str] = None
    random: Optional[int] = None
    axis: Optional[str] = None
    support: str = "n_gt_m"
    budget: int = 10 ** 6
    samples: int = 10 ** 5
    r_box: Optional[str] = None
    errors_path: Optional[str] = None
    max_cycle_len: Optional[int] = None
    max_path_len: Optional[int] = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["formats"] = sorted(self.formats)
        return d


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="peertrade",
        description="Peer-to-peer energy market solver and analyzer.",
        epilog="Exit codes: 0 ok, 1 internal/IO error, 2 infeasible, "
               "3 usage error.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    # Solver and RNG flags, each registered only where the command reads it.
    options = {
        "--tol": dict(type=float, default=RunConfig.tol,
                      help="solver convergence tolerance"),
        "--max-iter": dict(type=int, default=RunConfig.max_iter,
                           help="solver iteration cap"),
        "--reg": dict(type=float, default=RunConfig.reg,
                      help="trade regularization weight (picks a reproducible "
                           "representative of degenerate optima; reported)"),
        "--seed": dict(type=int, default=RunConfig.seed, help="root RNG seed"),
    }

    def common(p, *flags):
        src = p.add_argument_group("scenario source (exactly one)")
        src.add_argument("--builtin", metavar="NAME",
                         help="packaged scenario: three_node or ieee14")
        src.add_argument("--scenario", metavar="PATH", dest="scenario_path",
                         help="scenario JSON file")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: $PEERTRADE_OUT or ./out)")
        p.add_argument("--formats", default=",".join(RunConfig.formats),
                       help="comma list from json,csv,dot (default all)")
        for flag in flags:
            p.add_argument(flag, **options[flag])

    p = sub.add_parser("solve", help="centralized welfare optimum with prices")
    common(p, "--tol", "--max-iter", "--reg")

    p = sub.add_parser("gne", help="sample generalized Nash equilibria")
    common(p, "--tol", "--reg", "--seed")
    p.add_argument("--grid", metavar="START:STOP:STEP",
                   help="weight grid per sampled direction, e.g. 0:100:5")
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="uniform random weight vectors")
    p.add_argument("--axis", metavar="V1,V2,...",
                   help="explicit weight values per direction")
    p.add_argument("--support", default=RunConfig.support,
                   help="sampled directions: n_gt_m (default), full, or an "
                        "explicit list like 1:0,2:0,1:2 meaning buyer:seller")
    p.add_argument("--budget", type=int, default=RunConfig.budget,
                   help="solve budget guard for the sweep")

    p = sub.add_parser("analyze", help="cycles, congestion and waste structure")
    common(p, "--tol", "--max-iter", "--reg")
    p.add_argument("--max-cycle-len", type=int, default=None)
    p.add_argument("--max-path-len", type=int, default=None)

    p = sub.add_parser("privacy", help="forecast-privacy utility bias")
    common(p, "--seed")
    p.add_argument("--samples", type=int, default=RunConfig.samples,
                   help="Monte-Carlo sample count (>= 1000)")
    p.add_argument("--r-box", metavar="LO:HI", default=None,
                   help="ratio box for the bias bound on non-root nodes "
                        "(root pinned at 1); default: degenerate at 1")
    p.add_argument("--errors", dest="errors_path", metavar="PATH",
                   help="error-model JSON (bundled model used for the "
                        "three_node builtin when omitted)")

    p = sub.add_parser("validate", help="check scenario invariants")
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    bad = set(formats) - {"json", "csv", "dot"}
    if bad:
        raise UsageError(f"unknown formats: {', '.join(sorted(bad))}")
    out_dir = args.out or os.environ.get("PEERTRADE_OUT") or RunConfig.out_dir
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    extra = {k: v for k, v in vars(args).items()
             if k in fields and k not in ("command", "out_dir", "formats")}
    config = RunConfig(command=args.command, out_dir=out_dir, formats=formats,
                       **extra)
    if config.max_iter < 0:
        raise UsageError(f"--max-iter must be >= 0, got {config.max_iter}")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise UsageError(f"--tol must be finite and positive, got {config.tol}")
    return config


def _load(config: RunConfig) -> scenario_mod.Scenario:
    if (config.builtin is None) == (config.scenario_path is None):
        raise UsageError("exactly one of --builtin or --scenario is required")
    if config.builtin is not None:
        return scenario_mod.builtin(config.builtin)
    return scenario_mod.load_scenario(config.scenario_path)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _report_header(config: RunConfig) -> dict:
    return {"config": config.to_dict(), "generated_at": _timestamp()}


def _write(config: RunConfig, name: str, text: str) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return path


def _write_json(config: RunConfig, name: str, payload: dict) -> Path:
    return _write(config, name,
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _slug(scenario) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in scenario.name)


def cmd_solve(config: RunConfig) -> int:
    scn = _load(config)
    sol = market.solve_centralized(scn, tol=config.tol,
                                   max_iter=config.max_iter,
                                   eps_reg=config.reg)
    root = min(scn.node_ids)
    print(f"scenario: {scn.name} ({scn.n_nodes} nodes, {len(scn.links)} links)")
    print(f"status: {sol.solver_status} ({sol.solver_iterations} iterations)")
    print(f"social welfare: {sol.sw:.6f}")
    for n in scn.node_ids:
        diff = sol.lam[n] - sol.lam[root]
        extra = "" if n == root else f"   ({diff:+.6f} vs root)"
        print(f"lambda[{n}] = {sol.lam[n]:.6f}{extra}")
    if config.reg:
        print(f"regularization: {config.reg:g}")

    report = _report_header(config)
    report["solution"] = market.solution_to_dict(sol)
    report["lambda_minus_root"] = {str(n): sol.lam[n] - sol.lam[root]
                                  for n in scn.node_ids}
    report["residuals"] = sol.kkt_residuals
    report["regularization"] = config.reg
    slug = _slug(scn)
    if "json" in config.formats:
        _write_json(config, f"solve_{slug}.json", report)
    if "csv" in config.formats:
        _write(config, f"solve_{slug}.csv", market.solution_to_csv(sol))
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


def _parse_strategy(config: RunConfig) -> object:
    chosen = [name for name, v in
              (("grid", config.grid), ("random", config.random),
               ("axis", config.axis)) if v is not None]
    if len(chosen) != 1:
        raise UsageError("pick exactly one of --grid, --random, --axis")
    support = _parse_support(config.support)
    if config.grid is not None:
        try:
            start, stop, step = (float(v) for v in config.grid.split(":"))
            return equilibrium.GridStrategy(start=start, stop=stop, step=step,
                                            support=support)
        except ValueError as exc:
            raise UsageError(
                f"bad --grid {config.grid!r}; expected START:STOP:STEP ({exc})"
            ) from None
    if config.random is not None:
        if config.random < 1:
            raise UsageError("--random count must be >= 1")
        return equilibrium.RandomStrategy(config.random, seed=config.seed,
                                          support=support)
    try:
        values = tuple(float(v) for v in config.axis.split(","))
    except ValueError:
        raise UsageError(
            f"bad --axis {config.axis!r}; expected comma-separated numbers"
        ) from None
    return equilibrium.AxisStrategy(values, support=support)


def cmd_gne(config: RunConfig) -> int:
    scn = _load(config)
    strategy = _parse_strategy(config)
    samples = equilibrium.sweep_gne(scn, strategy, budget=config.budget,
                                    tol=config.tol, eps_reg=config.reg)
    ve = equilibrium.solve_ve(scn, tol=config.tol)
    valid = [s for s in samples if s.is_gne]
    print(f"sweep: {len(samples)} distinct solutions kept, "
          f"{len(valid)} valid equilibria")
    summary = _report_header(config)
    summary["ve_sw"] = ve.sw
    summary["distinct"] = len(samples)
    summary["valid"] = len(valid)
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
    slug = _slug(scn)
    if "json" in config.formats:
        _write_json(config, f"gne_{slug}.json", summary)
    if "csv" in config.formats:
        _write(config, f"gne_{slug}_samples.csv",
               equilibrium.samples_to_csv(samples, scn))
        try:
            cloud = equilibrium.point_cloud_csv(samples)
        except ValueError:
            cloud = None
        if cloud is not None:
            _write(config, f"gne_{slug}_cloud.csv", cloud)
    return EXIT_OK


def cmd_analyze(config: RunConfig) -> int:
    scn = _load(config)
    sol = market.solve_centralized(scn, tol=config.tol,
                                   max_iter=config.max_iter,
                                   eps_reg=config.reg)
    report = structure.analysis_report(scn, sol,
                                       max_cycle_len=config.max_cycle_len,
                                       max_path_len=config.max_path_len)
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
    payload = _report_header(config)
    payload["analysis"] = report
    slug = _slug(scn)
    if "json" in config.formats:
        _write_json(config, f"analyze_{slug}.json", payload)
    if "dot" in config.formats:
        _write(config, f"analyze_{slug}.dot", structure.to_dot(scn, sol))
    return EXIT_OK


def _load_error_model(config: RunConfig, scn) -> privacy.ErrorModel:
    if config.errors_path is not None:
        raw = json.loads(Path(config.errors_path).read_text(encoding="utf-8"))
        sd, sg, cv = {}, {}, {}
        for row in raw["pairs"]:
            key = (int(row["n"]), int(row["m"]))
            sd[key] = row.get("sigma_d", 0.0)
            sg[key] = row.get("sigma_g", 0.0)
            cv[key] = row.get("cov", 0.0)
        return privacy.clamp_error_model(sd, sg, cv)
    if scn.name == "three_node":
        return privacy.three_node_error_model()
    raise UsageError("--errors PATH is required for scenarios other than "
                     "the three_node builtin")


def cmd_privacy(config: RunConfig) -> int:
    scn = _load(config)
    errors = _load_error_model(config, scn)
    r_lo = r_hi = None
    if config.r_box is not None:
        try:
            lo, hi = (float(v) for v in config.r_box.split(":"))
        except ValueError:
            raise UsageError(
                f"bad --r-box {config.r_box!r}; expected LO:HI") from None
        root = min(scn.node_ids)
        r_lo = {n: (1.0 if n == root else lo) for n in scn.node_ids}
        r_hi = {n: (1.0 if n == root else hi) for n in scn.node_ids}
    rep = privacy.bias_report(scn, errors, r_lo=r_lo, r_hi=r_hi,
                              samples=config.samples, seed=config.seed)
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
    payload = _report_header(config)
    payload["bias"] = rep.to_dict()
    payload["agreement_3_stderr"] = all_ok
    if "json" in config.formats:
        _write_json(config, f"privacy_{_slug(scn)}.json", payload)
    return EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    scn = _load(config)
    violations = scn.validate()
    for v in violations:
        print(str(v))
    errors = [v for v in violations if v.severity == "error"]
    print(f"{scn.name}: {len(errors)} errors, "
          f"{len(violations) - len(errors)} warnings")
    payload = _report_header(config)
    payload["violations"] = [str(v) for v in violations]
    payload["ok"] = not errors
    if "json" in config.formats:
        _write_json(config, f"validate_{_slug(scn)}.json", payload)
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
        config = _config_from_args(args)
        return _COMMANDS[config.command](config)
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
