"""Variational and generalized Nash equilibria of the trading game.

Each agent maximizes its own utility subject to its demand/generation
bounds, its balance equation, trade capacities, and the shared
reciprocity constraints q[m][n] + q[n][m] <= 0.  Because the reciprocity
constraints are shared, equilibria come in families distinguished by how
the two agents of a pair price that constraint.

* The Variational Equilibrium (VE) gives both sides the same price; it
  coincides with the centralized welfare optimum, so :func:`solve_ve`
  delegates to the market solver.
* Other equilibria are sampled by perturbing the objective with a
  nonnegative weight ``omega[(n, m)]`` on agent n's purchase from m and
  solving the same QP.  The perturbed solution is a true equilibrium of
  the unperturbed game exactly when each weighted pair's reciprocity
  constraint closes (omega * slack = 0); :func:`solve_parameterized`
  applies that filter and recovers the agent-side constraint prices
  ``zeta_hat[n][m] = zeta[n][m] + omega[(n, m)]``.

:func:`sweep_gne` runs many omega points through the batched QP path and
keeps the distinct equilibria; :func:`poa_bound` turns a sample set into
a Price-of-Anarchy lower bound.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import market, qp
from .market import MarketSolution
from .scenario import Scenario, _pair_keyed

# The default support: omega on q[m][n] for n > m only.  It reaches the
# equilibria where, on every pair, the higher-id agent's reciprocity price
# is at least the lower-id agent's.  Which equilibria those are depends on
# how the nodes are numbered; three_node's reference equilibrium (prices
# (1, 90, 18), welfare 255.55) prices pair (1, 2) at 89 on node 1's side
# and at most 17 on node 2's, so it lies outside this family.
SUPPORT_LOW_BUYS_HIGH = "n_gt_m"
SUPPORT_FULL = "full"

_BATCH_SIZE = 1024    # omega points per qp.solve_batch call of sweep_gne
_ACTIVE_TOL = 1e-5    # check_agent_kkt: a slack this small, relative, is active
_REFIT_TOL = 1e-6     # check_agent_kkt: a ridge fit worse than this is refitted without it


class OmegaError(ValueError):
    """Bad omega input: a negative or non-finite weight, a bad support pair,
    a strategy out of range, or a sweep over its budget."""


@dataclass(frozen=True)
class OmegaVector:
    """Nonnegative finite perturbation weights on directed trades.

    Keys are directed pairs ``(n, m)`` of integer node ids: the weight is
    added to what agent ``n`` pays per unit bought from ``m``.  ``entries``
    is a mapping or a sequence of ``(pair, weight)`` items; a non-integral
    or bool id, a weight that is not a real number or a pair given twice
    raises ``OmegaError``.
    """

    entries: Mapping = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for pair, w in _pair_keyed(self.entries, OmegaError, "omega").items():
            if not (w >= 0 and math.isfinite(w)):
                raise OmegaError(f"omega[{pair}] = {w} is negative or not finite")
            clean[pair] = float(w)
        object.__setattr__(self, "entries", clean)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.entries))

    def get(self, pair, default=0.0) -> float:
        return self.entries.get(pair, default)

    def items(self):
        return sorted(self.entries.items())


@dataclass(frozen=True)
class GneSample:
    """One point of the equilibrium family reached at a given omega."""

    omega: OmegaVector
    solution: MarketSolution
    recovered_zeta: dict
    is_gne: bool
    violation: float
    r: dict

    @property
    def sw(self) -> float:
        return self.solution.sw


def epsilon_comp(scenario: Scenario) -> float:
    """Unit-free tolerance for the equilibrium filter omega*(q+q) = 0."""
    kmax = max((l.kappa for l in scenario.links.values()), default=0.0)
    return 1e-6 * (1.0 + kmax)


def default_support(scenario: Scenario, mode: str = SUPPORT_LOW_BUYS_HIGH) -> tuple:
    """Directed pairs that carry omega weights.

    The default puts a weight on each pair's higher-id buyer only, which
    keeps the sweep dimension at one per link.  It covers only the
    equilibria where, on every pair, the higher-id agent's reciprocity
    price is at least the lower-id agent's; that family depends on the
    node numbering, and ``three_node``'s reference equilibrium lies
    outside it (see ``SUPPORT_LOW_BUYS_HIGH``).  ``mode="full"`` doubles
    it to every directed pair.  An explicit list of directed pairs passes
    through unchanged; the solvers reject a pair with no link.
    """
    if isinstance(mode, (list, tuple)):
        return tuple(mode)
    if mode == SUPPORT_LOW_BUYS_HIGH:
        return tuple((hi, lo) for lo, hi in sorted(scenario.links))
    if mode == SUPPORT_FULL:
        return tuple(scenario.directed_pairs())
    raise OmegaError(f"unknown support mode {mode!r}")


def solve_ve(scenario: Scenario) -> MarketSolution:
    """The Variational Equilibrium: the welfare optimum with shared prices.

    Both sides of a pair share one reciprocity price by construction:
    :func:`market.extract_solution` reads ``zeta[n][m]`` and ``zeta[m][n]``
    off the pair's single reciprocity row.
    """
    return market.solve_centralized(scenario, kind="ve")


def solve_parameterized(scenario: Scenario, omega: OmegaVector) -> GneSample:
    """Solve the omega-perturbed problem and classify the outcome."""
    problem, idx = market.assemble(scenario)
    cols = _omega_columns(idx, omega.support)
    W = np.array([[w for _, w in omega.items()]])   # (1, k)
    r = _linear_terms(problem, W, cols)[0]
    sol, ms = market._solve(scenario, problem, idx, r, "gne",
                            price_shift=omega.entries)
    return _sample(scenario, omega, ms, _violation(sol.x[None, :], W, cols)[0])


def _omega_columns(idx: market._MarketIndex, pairs) -> np.ndarray:
    """The (k, 2) QP columns ``[q[m][n], q[n][m]]`` of directed pairs (n, m).

    The first column is the trade that ``omega[(n, m)]`` shifts; the two
    together are the pair's reciprocity slack.
    """
    pairs = [tuple(pair) for pair in pairs]
    cols = []
    for (n, m) in pairs:
        if (m, n) not in idx.qpos:
            raise OmegaError(f"omega pair ({n}, {m}) has no link")
        if pairs.count((n, m)) > 1:
            raise OmegaError(f"omega pair ({n}, {m}) is listed twice")
        cols.append((idx.qpos[(m, n)], idx.qpos[(n, m)]))
    return np.array(cols, dtype=int).reshape(-1, 2)


def _linear_terms(problem: qp.QpProblem, W: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(B, n) linear terms of ``problem`` at the omega rows ``W`` (B, k).

    Each weight is added to the trade it shifts, ``cols[:, 0]`` (see
    :func:`_omega_columns`).
    """
    R = np.tile(problem.r, (len(W), 1))
    R[:, cols[:, 0]] += W
    return R


def _violation(x: np.ndarray, W: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(B,) equilibrium-filter residual max |omega * (q[m][n] + q[n][m])|."""
    slack = x[:, cols[:, 0]] + x[:, cols[:, 1]]
    return np.abs(W * slack).max(axis=1, initial=0.0)


def _sample(scenario: Scenario, omega: OmegaVector, ms: MarketSolution,
            violation: float) -> GneSample:
    """The sample at ``omega``: the filter verdict and the agent-side prices."""
    recovered = {n: dict(row) for n, row in ms.zeta.items()}
    for (n, m), w in omega.items():
        recovered[n][m] += w
    violation = float(violation)
    is_gne = violation <= epsilon_comp(scenario)

    r = {}
    for n in scenario.neighbors(0):
        denom = recovered[0].get(n, 0.0)
        if denom > 1e-8:
            r[n] = recovered[n][0] / denom
    return GneSample(omega=omega, solution=ms, recovered_zeta=recovered,
                     is_gne=is_gne, violation=violation, r=r)


# -- omega enumeration strategies ----------------------------------------

@dataclass(frozen=True)
class AxisStrategy:
    """Cartesian product of an explicit value list on every direction."""

    values: Sequence
    support: object = SUPPORT_LOW_BUYS_HIGH

    def count(self, k: int) -> int:
        return len(self.values) ** k

    def generate(self, support: tuple) -> np.ndarray:
        """The (N, k) omega points, lexicographic in the support order."""
        vals = np.asarray(self.values, dtype=float)
        grids = np.meshgrid(*([vals] * len(support)), indexing="ij")
        if not grids:   # an empty support has one point, the empty vector
            return np.zeros((1, 0))
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class GridStrategy:
    """Cartesian grid: each support direction takes start + i*step <= stop.

    The axis is built only when read; :meth:`count` needs its length
    alone, so :func:`sweep_gne` checks its budget before the axis exists.
    """

    start: float = 0.0
    stop: float = 100.0
    step: float = 1.0
    support: object = SUPPORT_LOW_BUYS_HIGH

    def __post_init__(self):
        if not self.step > 0:
            raise OmegaError("grid step must be positive")
        if not (self.stop >= self.start and math.isfinite(self.stop - self.start)):
            raise OmegaError(
                f"grid range {self.start}..{self.stop} is empty or not finite")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise OmegaError(f"grid step {self.step} gives an axis too long to count")

    def count(self, k: int) -> int:
        # 1e-9: a stop that rounding puts just short of the last step
        return (int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1) ** k

    @property
    def values(self) -> tuple:
        return tuple(self.start + self.step * np.arange(self.count(1)))

    def generate(self, support: tuple) -> np.ndarray:
        return AxisStrategy(self.values).generate(support)


@dataclass(frozen=True)
class RandomStrategy:
    """Uniform draws over [lo, hi] per direction, reproducible by seed."""

    count_: int
    low: float = 0.0
    high: float = 100.0
    seed: int = 0
    support: object = SUPPORT_LOW_BUYS_HIGH

    def __post_init__(self):
        if self.count_ < 1:
            raise OmegaError(f"random strategy needs a positive sample count, "
                             f"got {self.count_}")
        if not (self.high >= self.low and math.isfinite(self.high - self.low)):
            raise OmegaError(f"random range {self.low}..{self.high} is empty or not finite")

    def count(self, k: int) -> int:
        return self.count_

    def generate(self, support: tuple) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.uniform(self.low, self.high, size=(self.count_, len(support)))


def sweep_gne(scenario: Scenario, strategy, budget: int = 10**6) -> list:
    """Run an omega enumeration and collect the distinct equilibria.

    Evaluation order is deterministic (lexicographic for grids, seeded
    for random draws).  Samples failing the equilibrium filter are
    dropped; surviving duplicates, i.e. omega points mapping to the same
    primal solution after rounding (D, G, q) to 1e-4, are collapsed to
    their first occurrence.  The sweep solves one ``qp.QpFamily``, built
    once, so the engine layout is derived once, and each batch first tries
    the optimal faces that earlier batches landed on; only the points
    they do not claim run the interior-point iterations, and a claimed
    point's solver reports 0 iterations.  Points go in batches of
    ``_BATCH_SIZE`` and are otherwise solved as if alone.  A point whose
    optimal trades are not unique gets the least-norm point of its
    optimal face (see ``qp.solve_batch``, and the ``qp`` module for where
    that rule stops being exact), so the set kept and its welfare do not
    depend on the batch size or the order of the points beyond rounding;
    the order decides which omega point a kept sample carries, and its
    prices on a face with dependent active rows follow the iterate.  A
    strategy of more than ``budget`` points raises ``OmegaError`` before
    any point is generated.
    """
    support = default_support(scenario, strategy.support)
    k = len(support)
    total = strategy.count(k)
    if total > budget:
        raise OmegaError(
            f"sweep would evaluate {total} points, over the budget of {budget}; "
            "raise the budget explicitly if this is intended")

    problem, idx = market.assemble(scenario)
    cols = _omega_columns(idx, support)
    eps = epsilon_comp(scenario)

    omegas = strategy.generate(support)   # (N, k)
    if not (np.isfinite(omegas).all() and (omegas >= 0).all()):
        raise OmegaError("omega values must be finite and nonnegative")
    seen, out = set(), []
    family = qp.QpFamily(problem)   # its learned faces serve every batch
    for start in range(0, len(omegas), _BATCH_SIZE):
        W = omegas[start:start + _BATCH_SIZE]
        batch = qp.solve_batch(family, _linear_terms(problem, W, cols))
        x = batch.x
        viol = _violation(x, W, cols)
        good = (batch.status_code == 0) & (viol <= eps)

        for i in np.flatnonzero(good):
            key = (np.round(x[i], 4) + 0.0).tobytes()   # -0.0 and 0.0 are one key
            if key in seen:
                continue
            seen.add(key)
            omega = OmegaVector({pair: W[i, j] for j, pair in enumerate(support)
                                 if W[i, j] != 0.0})
            ms = market.extract_solution(scenario, idx, batch.solution(i),
                                         kind="gne")
            out.append(_sample(scenario, omega, ms, viol[i]))
    return out


def poa_bound(samples: Iterable, ve_sw: float) -> dict:
    """Price-of-Anarchy lower bound from a sample set.

    Returns ``{"poa_lower_bound", "worst_sample", "note"}``.  The bound
    is ``ve_sw`` over the smallest sampled equilibrium welfare; sampling
    can only miss worse equilibria, hence "lower bound".
    """
    valid = [s for s in samples if s.is_gne]
    if not valid:
        raise ValueError("no valid equilibrium samples to bound the PoA with")
    worst = min(valid, key=lambda s: s.sw)
    if worst.sw <= 0:
        return {"poa_lower_bound": None, "worst_sample": worst,
                "note": f"undefined: worst sampled welfare {worst.sw:.6g} "
                        "is nonpositive, ratio not meaningful"}
    return {"poa_lower_bound": ve_sw / worst.sw, "worst_sample": worst,
            "note": "lower bound; sampling may miss worse equilibria"}


# -- per-agent equilibrium verification ----------------------------------

@dataclass(frozen=True)
class AgentKktReport:
    """Best agent-local multipliers for one node and the residuals left.

    ``stationarity`` is the max gradient row residual after fitting the
    multipliers, ``feasibility`` the worst violation of the agent's own
    constraints, ``complementarity`` the worst multiplier*slack product.
    """

    node: int
    stationarity: float
    feasibility: float
    complementarity: float
    lam: float
    mu_lo: float
    mu_hi: float
    nu_lo: float
    nu_hi: float
    xi: dict
    zeta: dict

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity)


def check_agent_kkt(scenario: Scenario, candidate: MarketSolution,
                    node: int, ridge: float = 1e-4) -> AgentKktReport:
    """Check whether ``node`` is best-responding in the candidate point.

    Fixing everyone else's trades, the agent's problem is a small QP; the
    candidate is a best response iff multipliers exist that zero out its
    KKT system.  Multipliers of constraints that are slack at the
    candidate (by more than ``_ACTIVE_TOL`` of the agent's scale) are
    pinned to zero, the rest are fitted by nonnegative least squares.
    ``ridge`` lightly penalizes the congestion multipliers so that when a
    trade is simultaneously at capacity and reciprocity-tight, the
    explanation defaults to the trade price; it must be finite and
    nonnegative, else ``ValueError``.  The ridge also leaves about
    ridge * xi of stationarity residual where a congestion price must be
    large, so a fit whose worst residual exceeds ``_REFIT_TOL`` is done
    again without it, and the better of the two fits is reported.

    The first call imports ``scipy.optimize`` (for its ``nnls``), which
    ``import peertrade`` and every CLI command leave unloaded.
    """
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    p = scenario.prosumer(node)
    neigh = scenario.neighbors(node)
    k = len(neigh)
    D, G = candidate.D[node], candidate.G[node]
    buy = [candidate.q[m][node] for m in neigh]
    balance = D - G - p.delta_g - sum(buy)

    # Columns: lam+, lam-, mu_lo, mu_hi, nu_lo, nu_hi, then xi_m and zeta_m
    # for each neighbour m; each with the slack of its constraint (negative
    # = violated; lam's two columns are always fitted).
    slack = np.array([0.0, 0.0, D - p.d_min, p.d_max - D, G - p.g_min, p.g_max - G]
                     + [s for m, q in zip(neigh, buy)
                        for s in (scenario.kappa(node, m) - q,
                                  -(q + candidate.q[node][m]))])
    feasibility = max(abs(balance), float(np.maximum(-slack, 0.0).max()))
    scale = 1.0 + max([abs(D), abs(G)] + [abs(q) for q in buy])
    active = slack <= _ACTIVE_TOL * scale

    # Rows: d/dD: 2a~(D - D*) + lam - mu_lo + mu_hi = 0; d/dG: a G + b - lam
    # - nu_lo + nu_hi = 0; d/dq[m][node]: c + xi + zeta - lam = 0; then one
    # ridge row per fitted xi, nudging it toward zero.
    stat = np.zeros((2 + k, len(slack)))
    stat[:, :2] = [-1.0, 1.0]
    stat[0, :4] = [1.0, -1.0, -1.0, 1.0]
    stat[1, 4:6] = [-1.0, 1.0]
    stat[2:, 6:] = np.kron(np.eye(k), [1.0, 1.0])
    rhs = np.array([-2.0 * p.a_tilde * (D - p.d_star), -(p.a * G + p.b)]
                   + [-scenario.c(node, m) for m in neigh])
    # Imported here, its only use: scipy.optimize costs about a third of a
    # second to import, which every `import peertrade` and CLI run would pay.
    import scipy.optimize

    def fit(weight):
        ridge_rows = np.sqrt(weight) * np.eye(len(slack))[6::2][active[6::2]]
        A = np.ascontiguousarray(np.vstack([stat, ridge_rows])[:, active])
        coef = np.zeros(len(slack))
        coef[active] = scipy.optimize.nnls(A, np.append(rhs, np.zeros(len(ridge_rows))))[0]
        mu_lo, mu_hi, nu_lo, nu_hi = coef[2:6].tolist()
        return AgentKktReport(
            node=node, stationarity=float(np.abs(A[:2 + k] @ coef[active] - rhs).max()),
            feasibility=feasibility,
            complementarity=float(np.abs(coef * slack)[active].max()),
            lam=float(coef[0] - coef[1]), mu_lo=mu_lo, mu_hi=mu_hi, nu_lo=nu_lo,
            nu_hi=nu_hi, xi=dict(zip(neigh, coef[6::2].tolist())),
            zeta=dict(zip(neigh, coef[7::2].tolist())))

    report = fit(ridge)
    if report.max_residual > _REFIT_TOL and ridge > 0:
        report = min(report, fit(0.0), key=lambda rep: rep.max_residual)
    return report


# -- exports --------------------------------------------------------------

def samples_to_csv(samples: Sequence, scenario: Scenario,
                   support: Optional[tuple] = None) -> str:
    """One row per sample: omega coordinates, welfare, filter, trades."""
    if support is None:
        seen = sorted({pair for s in samples for pair in s.omega.support})
        support = tuple(seen)
    dpairs = list(scenario.directed_pairs())
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"omega[{n}][{m}]" for (n, m) in support]
               + ["sw", "is_gne", "violation"]
               + [f"q[{m}][{n}]" for (m, n) in dpairs])
    for s in samples:
        w.writerow([s.omega.get(pair) for pair in support]
                   + [s.sw, int(s.is_gne), s.violation]
                   + [s.solution.q[m][n] for (m, n) in dpairs])
    return buf.getvalue()


def point_cloud_csv(samples: Sequence, scenario: Scenario) -> str:
    """(q[0][1], q[1][2], q[2][0]) triples for 3-node equilibrium clouds.

    Raises ``ValueError`` when ``scenario`` lacks one of the ring's links
    0-1, 1-2 and 0-2, whether or not there are samples.
    """
    if not all(scenario.has_link(n, m) for n, m in ((0, 1), (1, 2), (0, 2))):
        raise ValueError("point cloud needs the 3-node ring topology "
                         "(links 0-1, 1-2, 0-2)")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["q01", "q12", "q20"])
    for s in samples:
        w.writerow([s.solution.q[0][1], s.solution.q[1][2], s.solution.q[2][0]])
    return buf.getvalue()
