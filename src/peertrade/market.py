"""Centralized social-welfare market: assembly, solving, price extraction.

The centralized problem maximizes the sum of agent utilities over demand
``D``, flexible generation ``G``, and signed bilateral trades ``q``
(``q[m][n]`` is node n's purchase from m; positive means energy flows
m -> n).  It is solved as a minimization QP; every Lagrange multiplier is
mapped back to its economic name:

* ``lam[n]``: nodal price, from the balance equality of node n.
* ``zeta[n][m]``: bilateral trade price, from the reciprocity row of the
  pair (one row per pair, so the value is shared by both directions,
  which is exactly variational-equilibrium pricing).
* ``xi[n][m]``: congestion price, the multiplier of the upper bound
  (the line capacity) of the trade variable q[m][n] (the index order
  follows the pricing convention: the flow m -> n is priced by
  xi[n][m]).
* ``mu_lo/mu_hi``, ``nu_lo/nu_hi``: demand and generation bound prices,
  the multipliers of the lower and upper bounds of D and G.

The demand and generation ranges and the trade caps are variable bounds
of the QP, so their prices come straight from its bound multipliers; a
range with equal endpoints fixes the variable, and the QP layer still
reports both of its bound multipliers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import qp
from .scenario import Scenario

_WASTE_TOL = 1e-6   # a pair wasting more than this is reported as wasteful


class MarketError(RuntimeError):
    pass


class InfeasibleMarketError(MarketError):
    """Scenario admits no feasible dispatch; message names the worst rows."""


@dataclass(frozen=True)
class MarketSolution:
    """Primal decisions, prices, and diagnostics of one market solve.

    All per-node containers are dicts keyed by node id; ``q``, ``zeta``
    and ``xi`` are nested dicts so that ``q[m][n]`` reads exactly like
    the math.  ``kind`` records how the solution was produced
    ("centralized", "ve", or "gne"), which downstream analyses use to
    decide whether centralized-only theory applies.
    """

    D: dict
    G: dict
    q: dict
    Q: dict
    lam: dict
    zeta: dict
    xi: dict
    mu_lo: dict
    mu_hi: dict
    nu_lo: dict
    nu_hi: dict
    sw: float
    waste: dict
    waste_total: float
    kind: str = "centralized"
    eps_reg: float = 0.0
    solver_status: str = "optimal"
    solver_iterations: int = 0
    kkt_residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _MarketIndex:
    """Positions of variables and constraint rows in the assembled QP."""

    nodes: tuple
    dpos: dict
    gpos: dict
    qpos: dict            # (m, n) -> column of q[m][n]
    bal_row: dict         # node -> equality row
    recip_row: dict       # unordered pair -> inequality row
    eps_reg: float        # weight of the trade regularization in P


def _require_valid(scenario: Scenario) -> None:
    errors = [v for v in scenario.validate() if v.severity == "error"]
    if errors:
        listing = "; ".join(str(v) for v in errors)
        raise ValueError(f"scenario {scenario.name!r} is invalid: {listing}")


def _check_eps_reg(eps_reg: float) -> None:
    """Raise ``ValueError`` unless :func:`assemble` accepts ``eps_reg``."""
    if not (np.isfinite(eps_reg) and eps_reg >= 0):
        raise ValueError(f"eps_reg must be finite and nonnegative, got {eps_reg}")


def assemble(scenario: Scenario,
             eps_reg: float = 0.0) -> tuple[qp.QpProblem, _MarketIndex]:
    """Build the minimization QP and the index mapping back to the market.

    Variables are ordered deterministically: every ``D`` by node id,
    every ``G``, then the trades by (seller, buyer) lexicographic.  The
    demand and generation ranges and the trade caps are the variable
    bounds; the rows are the nodal balances and the reciprocity pairs.
    ``eps_reg`` adds eps_reg*||q||^2 (``2*eps_reg`` on the trade diagonal
    of ``P``), which picks the minimum-norm trades of a degenerate optimum.
    """
    _check_eps_reg(eps_reg)
    _require_valid(scenario)
    nodes = scenario.node_ids
    dpairs = list(scenario.directed_pairs())
    nN = len(nodes)
    n_var = 2 * nN + len(dpairs)

    dpos = {node: i for i, node in enumerate(nodes)}
    gpos = {node: nN + i for i, node in enumerate(nodes)}
    qpos = {pair: 2 * nN + i for i, pair in enumerate(dpairs)}

    P = np.zeros((n_var, n_var))
    r = np.zeros(n_var)
    lb = np.full(n_var, -np.inf)
    ub = np.full(n_var, np.inf)
    A_eq = np.zeros((nN, n_var))
    b_eq = np.zeros(nN)
    bal_row = {}
    for i, node in enumerate(nodes):
        p = scenario.prosumer(node)
        d, g = dpos[node], gpos[node]
        P[d, d] = 2.0 * p.a_tilde
        r[d] = -2.0 * p.a_tilde * p.d_star
        P[g, g] = p.a
        r[g] = p.b
        lb[d], ub[d], lb[g], ub[g] = p.d_min, p.d_max, p.g_min, p.g_max
        A_eq[i, d] = 1.0
        A_eq[i, g] = -1.0
        b_eq[i] = p.delta_g
        bal_row[node] = i
    for (m, n), col in qpos.items():
        P[col, col] = 2.0 * eps_reg
        r[col] = scenario.c(n, m)   # the buyer n pays c(n, m)
        ub[col] = scenario.kappa(m, n)
        A_eq[bal_row[n], col] = -1.0

    links = sorted(scenario.links)
    A_ineq = np.zeros((len(links), n_var))
    recip_row = {}
    for i, (lo, hi) in enumerate(links):
        A_ineq[i, qpos[(lo, hi)]] = A_ineq[i, qpos[(hi, lo)]] = 1.0
        recip_row[(lo, hi)] = i

    problem = qp.QpProblem(P=P, r=r, A_ineq=A_ineq, b_ineq=np.zeros(len(links)),
                           A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)
    index = _MarketIndex(nodes=nodes, dpos=dpos, gpos=gpos, qpos=qpos,
                         bal_row=bal_row, recip_row=recip_row, eps_reg=eps_reg)
    return problem, index


def social_welfare(scenario: Scenario, D: dict, G: dict, q: dict) -> float:
    """Sum of agent utilities at the given (not necessarily feasible) point."""
    total = 0.0
    try:
        for node in scenario.node_ids:
            p = scenario.prosumer(node)
            total += p.usage_benefit(D[node]) - p.generation_cost(G[node])
            for m in scenario.neighbors(node):
                total -= scenario.c(node, m) * q[m][node]
    except KeyError as e:
        raise ValueError(f"decision container is missing entry {e}") from None
    return total


def solve_centralized(scenario: Scenario, eps_reg: float = 0.0,
                      kind: str = "centralized") -> MarketSolution:
    """Solve the welfare problem and map every dual to its market name.

    ``eps_reg > 0`` adds a Tikhonov term on the trades (see :func:`assemble`)
    to pick a reproducible representative when preferences make the optimal
    trades non-unique.  The value is echoed in the solution.
    """
    problem, idx = assemble(scenario, eps_reg)
    return _solve(scenario, problem, idx, problem.r, kind)[1]


def _solve(scenario: Scenario, problem: qp.QpProblem, idx: _MarketIndex,
           r: np.ndarray, kind: str, price_shift=None) -> tuple:
    """Solve the assembled market QP at the linear term ``r``, and verify it.

    The one path from a market to the QP: ``problem`` is solved as built,
    one ``qp.solve_batch`` row with ``r`` in place of its own linear term.
    An infeasible row raises :class:`InfeasibleMarketError` naming the
    worst rows, any other non-optimal status :class:`MarketError` naming
    the status and the iteration count.  ``price_shift`` goes to
    :func:`verify_solution`.  Returns ``(qp solution, market solution)``.
    """
    sol = qp.solve_batch(problem, r[None, :]).solution(0)
    if sol.status == qp.STATUS_INFEASIBLE:
        raise InfeasibleMarketError(
            f"scenario {scenario.name!r}: "
            + _attribute_infeasibility(problem, idx, sol))
    if sol.status != qp.STATUS_OPTIMAL:
        raise MarketError(f"solver returned status {sol.status!r} after "
                          f"{sol.iterations} iterations")
    solution = extract_solution(scenario, idx, sol, kind)
    verify_solution(scenario, solution, price_shift)
    return sol, solution


def _attribute_infeasibility(problem: qp.QpProblem, idx: _MarketIndex,
                             sol: qp.QpSolution) -> str:
    x = sol.x
    viol = []
    if problem.n_eq:
        res = problem.A_eq @ x - problem.b_eq
        for i in np.argsort(-np.abs(res))[:3]:
            if abs(res[i]) > 1e-6:
                viol.append(f"equality row {i} off by {res[i]:.3g}")
    if problem.n_ineq:
        res = problem.A_ineq @ x - problem.b_ineq
        for i in np.argsort(-res)[:3]:
            if res[i] > 1e-6:
                viol.append(f"inequality row {i} violated by {res[i]:.3g}")
    names = {**{c: f"D[{n}]" for n, c in idx.dpos.items()},
             **{c: f"G[{n}]" for n, c in idx.gpos.items()},
             **{c: f"q[{m}][{n}]" for (m, n), c in idx.qpos.items()}}
    below, above = problem.lb - x, x - problem.ub
    for j in np.argsort(-np.maximum(below, above))[:3]:
        if below[j] > 1e-6:
            viol.append(f"{names[j]} below its lower bound by {below[j]:.3g}")
        elif above[j] > 1e-6:
            viol.append(f"{names[j]} above its upper bound by {above[j]:.3g}")
    detail = "; ".join(viol) or (
        f"worst primal residual {sol.kkt_residuals['primal']:.3e}")
    return f"no feasible dispatch ({detail})"


def extract_solution(scenario: Scenario, idx: _MarketIndex, sol: qp.QpSolution,
                     kind: str = "centralized") -> MarketSolution:
    """Map a raw QP solution back to market quantities and prices."""
    x, z, y = sol.x, sol.mult_ineq, sol.mult_eq
    nodes = idx.nodes

    D = {n: float(x[idx.dpos[n]]) for n in nodes}
    G = {n: float(x[idx.gpos[n]]) for n in nodes}
    q = {n: {} for n in nodes}
    for (m, n), col in idx.qpos.items():
        q[m][n] = float(x[col])
    Q = {n: sum(q[m][n] for m in scenario.neighbors(n)) for n in nodes}

    lam = {n: float(y[idx.bal_row[n]]) for n in nodes}
    mu_lo = {n: float(sol.mult_lb[idx.dpos[n]]) for n in nodes}
    mu_hi = {n: float(sol.mult_ub[idx.dpos[n]]) for n in nodes}
    nu_lo = {n: float(sol.mult_lb[idx.gpos[n]]) for n in nodes}
    nu_hi = {n: float(sol.mult_ub[idx.gpos[n]]) for n in nodes}

    xi = {n: {} for n in nodes}
    for (m, n), col in idx.qpos.items():
        xi[n][m] = float(sol.mult_ub[col])   # the flow m -> n is priced by xi[n][m]
    zeta = {n: {} for n in nodes}
    for (lo, hi), row in idx.recip_row.items():
        zeta[lo][hi] = zeta[hi][lo] = float(z[row])

    waste = {(lo, hi): -(q[lo][hi] + q[hi][lo]) for lo, hi in sorted(scenario.links)}
    total = sum((max(w, 0.0) for w in waste.values()), start=0.0)

    sw = social_welfare(scenario, D, G, q)
    return MarketSolution(D=D, G=G, q=q, Q=Q, lam=lam, zeta=zeta, xi=xi,
                          mu_lo=mu_lo, mu_hi=mu_hi, nu_lo=nu_lo, nu_hi=nu_hi,
                          sw=sw, waste=waste, waste_total=total, kind=kind,
                          eps_reg=idx.eps_reg, solver_status=sol.status,
                          solver_iterations=sol.iterations,
                          kkt_residuals=dict(sol.kkt_residuals))


def verify_solution(scenario: Scenario, s: MarketSolution,
                    price_shift=None) -> None:
    """Re-derive the optimality identities from the extracted quantities.

    ``price_shift`` maps directed pairs (n, m) to an amount added to the
    effective purchase price c(n, m) (used by the parameterized
    equilibrium problems).  A failure here means the assembly or
    extraction mapped something to the wrong place, so it raises rather
    than warns.
    """
    shift = dict(price_shift) if price_shift else {}
    qmax = max((abs(v) for row in s.q.values() for v in row.values()),
               default=0.0)
    scale = 1.0 + max(max(abs(v) for v in s.lam.values()), qmax)
    thr = 10.0 * qp._TOL * scale + 2.0 * s.eps_reg * (1.0 + qmax)

    for n in scenario.node_ids:
        p = scenario.prosumer(n)
        r1 = 2.0 * p.a_tilde * (s.D[n] - p.d_star) - s.mu_lo[n] + s.mu_hi[n] + s.lam[n]
        r2 = p.a * s.G[n] + p.b - s.nu_lo[n] + s.nu_hi[n] - s.lam[n]
        # r1 / (2a~) is the gap to D = d* - (lam + mu_hi - mu_lo) / (2a~).
        thr_d = thr * min(1.0, 2.0 * p.a_tilde)
        if abs(r1) > thr_d or abs(r2) > thr:
            raise MarketError(
                f"stationarity identity violated at node {n}: D-residual {r1:.3e} "
                f"(threshold {thr_d:.3e}), G-residual {r2:.3e} (threshold {thr:.3e})")
        bal = s.D[n] - s.G[n] - scenario.prosumer(n).delta_g - s.Q[n]
        if abs(bal) > thr:
            raise MarketError(f"balance identity violated at node {n}: {bal:.3e}")
        for m in scenario.neighbors(n):
            res = (scenario.c(n, m) + shift.get((n, m), 0.0)
                   + s.xi[n][m] + s.zeta[n][m] - s.lam[n])
            if abs(res) > thr:
                raise MarketError(
                    f"trade price identity violated on ({n},{m}): {res:.3e}")


def nodal_price_closed_form(scenario: Scenario, solution: MarketSolution):
    """Recompute all nodal prices from root-link data and bound multipliers.

    Works under two preconditions: the dispatch wastes no energy (the
    derivation assumes net imports sum to zero) and every node trades
    directly with the root (the root-price formula folds all other nodes
    through their root link).  Returns ``(lambda_hat, deviation)`` where
    ``deviation`` is the max-norm gap to the solver's prices.
    """
    if solution.waste_total > _WASTE_TOL:
        raise MarketError(
            f"waste present ({solution.waste_total:.3g} > {_WASTE_TOL:g}); the closed "
            "form assumes net imports sum to zero")
    others = [n for n in scenario.node_ids if n != 0]
    not_adjacent = [n for n in others if not scenario.has_link(0, n)]
    if not_adjacent:
        raise MarketError(
            f"closed form needs every node adjacent to the root; missing "
            f"links to {not_adjacent}")

    coef = {}
    num = 0.0
    for n in scenario.node_ids:
        p = scenario.prosumer(n)
        coef[n] = 1.0 / (2.0 * p.a_tilde) + 1.0 / p.a
        num += (p.d_star
                - (solution.mu_hi[n] - solution.mu_lo[n]) / (2.0 * p.a_tilde)
                + p.b / p.a
                + (solution.nu_hi[n] - solution.nu_lo[n]) / p.a
                - p.delta_g)
    for n in others:
        gap = (scenario.c(n, 0) - scenario.c(0, n)
               + solution.xi[n][0] - solution.xi[0][n])
        num -= coef[n] * gap
    lam0 = num / sum(coef.values())

    lam_hat = {0: lam0}
    for n in others:
        lam_hat[n] = (scenario.c(n, 0) - scenario.c(0, n)
                      + solution.xi[n][0] - solution.xi[0][n] + lam0)
    deviation = max(abs(lam_hat[n] - solution.lam[n]) for n in scenario.node_ids)
    return lam_hat, deviation


# -- reporting ------------------------------------------------------------

def solution_to_dict(solution: MarketSolution) -> dict:
    """JSON-ready report: decisions, prices, residuals, waste, welfare."""
    def pairmap(nested):
        return {f"{m}->{n}": nested[m][n]
                for m in sorted(nested) for n in sorted(nested[m])}

    return {
        "kind": solution.kind,
        "sw": solution.sw,
        "decisions": {
            "D": {str(k): v for k, v in sorted(solution.D.items())},
            "G": {str(k): v for k, v in sorted(solution.G.items())},
            "q": pairmap(solution.q),
            "Q": {str(k): v for k, v in sorted(solution.Q.items())},
        },
        "prices": {
            "lambda": {str(k): v for k, v in sorted(solution.lam.items())},
            "zeta": pairmap(solution.zeta),
            "xi": pairmap(solution.xi),
            "mu_lo": {str(k): v for k, v in sorted(solution.mu_lo.items())},
            "mu_hi": {str(k): v for k, v in sorted(solution.mu_hi.items())},
            "nu_lo": {str(k): v for k, v in sorted(solution.nu_lo.items())},
            "nu_hi": {str(k): v for k, v in sorted(solution.nu_hi.items())},
        },
        "waste": _waste_block(solution),
        "residuals": dict(solution.kkt_residuals),
        "solver": {"status": solution.solver_status,
                   "iterations": solution.solver_iterations,
                   "eps_reg": solution.eps_reg},
    }


def _waste_block(solution: MarketSolution) -> dict:
    """The report's waste: the total and each pair wasting over ``_WASTE_TOL``."""
    return {"total": solution.waste_total,
            "pairs": [{"pair": list(pair), "waste": w}
                      for pair, w in sorted(solution.waste.items()) if w > _WASTE_TOL]}


def solution_to_json(solution: MarketSolution) -> str:
    return json.dumps(solution_to_dict(solution), indent=2) + "\n"


def solution_to_csv(solution: MarketSolution) -> str:
    """Two CSV blocks: one row per node, then one row per directed pair."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["node", "D", "G", "Q", "lambda", "mu_lo", "mu_hi",
                "nu_lo", "nu_hi"])
    for n in sorted(solution.D):
        w.writerow([n, solution.D[n], solution.G[n], solution.Q[n],
                    solution.lam[n], solution.mu_lo[n], solution.mu_hi[n],
                    solution.nu_lo[n], solution.nu_hi[n]])
    w.writerow([])
    w.writerow(["seller_m", "buyer_n", "q_mn", "zeta_nm", "xi_nm", "waste_pair"])
    for m in sorted(solution.q):
        for n in sorted(solution.q[m]):
            pair = (m, n) if m < n else (n, m)
            w.writerow([m, n, solution.q[m][n], solution.zeta[n][m],
                        solution.xi[n][m], solution.waste[pair]])
    return buf.getvalue()
