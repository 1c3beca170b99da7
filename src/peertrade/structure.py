"""Combinatorial market diagnostics: cycles, congestion, waste.

Everything here reads a scenario (and usually a solved market) and emits
predictions or certificates that can be checked against the solution:

* A strictly negative cycle in the preference-asymmetry matrix
  C[n][m] = c(n, m) - c(m, n) forces some trade opposed to the cycle to
  full capacity in the centralized optimum.
* A price asymmetry on one pair, under uniform root prices, pins which
  direction of that pair saturates.
* Waste (energy sent but not accepted, -(q_nm + q_mn) > 0) is ruled out
  for a trade when some non-congested path reaches a node whose price
  beats the trade's preference cost.

Predictions are advisory: they are produced before or after solving and
verified against solutions, never fed back into the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .market import MarketSolution
from .scenario import Scenario

DEFAULT_CYCLE_BUDGET = 10 ** 5
DEFAULT_PATH_BUDGET = 10 ** 5


class StructureError(RuntimeError):
    """Raised when an enumeration exceeds its budget."""


@dataclass(frozen=True)
class PreferenceCycle:
    """A directed simple cycle in the preference-asymmetry graph.

    ``nodes`` lists the cycle once, smallest node first; the closing edge
    back to the start is implied.  ``weight`` sums C[n][m] over the
    directed edges; since C is antisymmetric, the reversed cycle appears
    separately with the opposite weight.  ``kind`` distinguishes plain
    weight-sign cycles from the per-node local condition variant.
    """

    nodes: tuple
    weight: float
    sign: str
    kind: str = "preference"

    def __post_init__(self):
        if len(self.nodes) != len(set(self.nodes)):
            raise ValueError(f"cycle nodes repeat: {self.nodes}")
        if len(self.nodes) <= 2:
            raise ValueError("cycles must have length > 2")
        if self.sign not in ("negative", "positive"):
            raise ValueError(f"bad sign tag {self.sign!r}")
        if self.sign == "negative" and self.weight >= 0:
            raise ValueError("negative-tagged cycle with nonnegative weight")
        if self.sign == "positive" and self.weight <= 0:
            raise ValueError("positive-tagged cycle with nonpositive weight")

    def edges(self) -> list:
        n = self.nodes
        return [(n[i], n[(i + 1) % len(n)]) for i in range(len(n))]


@dataclass(frozen=True)
class CongestionPrediction:
    """Predicts that the trade q[direction[0]][direction[1]] saturates.

    ``direction = (m, n)`` means agent n's purchase from m is expected at
    the line capacity.  ``premises`` lists the assumptions behind the
    prediction; ``premise_failed`` marks predictions whose scenario-side
    premises already fail, which a verifier should skip rather than
    count as a miss.
    """

    direction: tuple
    reason: str
    premises: tuple = ()
    premise_failed: bool = False


@dataclass(frozen=True)
class CycleCongestionVerdict:
    verified: bool
    edge: Optional[tuple]
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class WasteCertificate:
    """No-waste certificate for the trade of ``pair[0]`` with ``pair[1]``.

    ``certified`` means a non-congested path from pair[0] reaches a node
    whose price plus the accumulated preference differences strictly
    exceeds the preference cost c(pair[0], pair[1]), so wasting on this
    trade would be suboptimal.  ``margin`` is that excess; ``via`` and
    ``path`` describe the best path found; ``observed_waste`` is the
    solution's actual waste on the unordered pair.
    """

    pair: tuple
    certified: bool
    margin: float
    via: Optional[int]
    path: tuple
    observed_waste: float


def _cycle_budget_guard(count: int, budget: int) -> None:
    if count > budget:
        raise StructureError(
            f"cycle enumeration exceeded the budget of {budget}; "
            "raise it explicitly for dense preference graphs")


def _simple_cycles(scenario: Scenario, max_len: int,
                   budget: int) -> Iterator[tuple]:
    """All directed simple cycles of length 3..max_len, smallest node first.

    Each undirected cycle is produced in both orientations.  Rotations
    are deduplicated by only emitting cycles that start at their smallest
    node and never revisit smaller ones.
    """
    nodes = scenario.node_ids
    adj = {n: sorted(scenario.neighbors(n)) for n in nodes}
    emitted = 0
    for start in nodes:
        path = [start]
        on_path = {start}

        def dfs():
            nonlocal emitted
            here = path[-1]
            for nxt in adj[here]:
                if nxt == start and len(path) >= 3:
                    emitted += 1
                    _cycle_budget_guard(emitted, budget)
                    yield tuple(path)
                elif nxt > start and nxt not in on_path and len(path) < max_len:
                    path.append(nxt)
                    on_path.add(nxt)
                    yield from dfs()
                    path.pop()
                    on_path.remove(nxt)

        yield from dfs()


def _has_negative_cycle(scenario: Scenario, tol: float = 1e-12) -> bool:
    """Bellman-Ford existence pre-check on the C-weighted trade graph."""
    nodes = scenario.node_ids
    dist = {n: 0.0 for n in nodes}
    edges = [(n, m, scenario.c_tilde(n, m))
             for n in nodes for m in scenario.neighbors(n)]
    for _ in range(len(nodes) - 1):
        changed = False
        for n, m, w in edges:
            if dist[n] + w < dist[m] - tol:
                dist[m] = dist[n] + w
                changed = True
        if not changed:
            return False
    return any(dist[n] + w < dist[m] - tol for n, m, w in edges)


def cycle_weight(scenario: Scenario, nodes) -> float:
    nodes = tuple(nodes)
    return sum(scenario.c_tilde(nodes[i], nodes[(i + 1) % len(nodes)])
               for i in range(len(nodes)))


def detect_preference_cycles(scenario: Scenario, max_len: Optional[int] = None,
                             budget: int = DEFAULT_CYCLE_BUDGET) -> list:
    """All simple cycles with nonzero preference weight, sorted by weight.

    Both orientations of each cycle appear (their weights are exact
    negations), tagged ``negative`` and ``positive``.  A Bellman-Ford
    pass skips the enumeration entirely when no nonzero cycle exists.
    """
    n_nodes = scenario.n_nodes
    if max_len is None:
        max_len = n_nodes
    if max_len > n_nodes:
        raise ValueError(f"max_len {max_len} exceeds the node count {n_nodes}")
    if not _has_negative_cycle(scenario):
        return []
    out = []
    for nodes in _simple_cycles(scenario, max_len, budget):
        w = cycle_weight(scenario, nodes)
        if abs(w) <= 1e-9:
            continue
        out.append(PreferenceCycle(nodes=nodes, weight=w,
                                   sign="negative" if w < 0 else "positive"))
    out.sort(key=lambda c: (c.weight, c.nodes))
    return out


def detect_game_cycles(scenario: Scenario, max_len: Optional[int] = None,
                       budget: int = DEFAULT_CYCLE_BUDGET) -> list:
    """Cycles satisfying the per-node condition C[i][i+1] - C[i][i-1] < 0.

    This local condition at every node of the cycle is strictly stronger
    at each node than the global negative-sum condition (summing it over
    the cycle gives twice the total weight), so every hit is also a
    negative preference cycle, but not conversely.
    """
    return _game_cycles(scenario, detect_preference_cycles(scenario, max_len, budget))


def _game_cycles(scenario: Scenario, cycles: list) -> list:
    """The game cycles among ``detect_preference_cycles``' list ``cycles``.

    Node i's margin C[i][i+1] - C[i][i-1] is the sum of its two edges'
    weights.  Every margin is below -1e-9 and the cycle weight is half
    their sum, so every game cycle is on that list, tagged negative."""
    out = []
    for c in cycles:
        w = [scenario.c_tilde(a, b) for a, b in c.edges()]
        if c.sign == "negative" and all(w[i] + w[i - 1] < -1e-9 for i in range(len(w))):
            out.append(replace(c, kind="game"))
    return out


def verify_cycle_congestion(scenario: Scenario, cycle: PreferenceCycle,
                            solution: MarketSolution,
                            tol: float = 1e-6) -> CycleCongestionVerdict:
    """Check the cycle's congestion prediction against a solution.

    A negative cycle predicts some trade opposed to it at capacity; a
    positive cycle predicts one along it.  The prediction is only backed
    by theory for centralized/VE solutions, so sampled equilibria get an
    ``applicable=False`` verdict (the search still runs for reporting).
    """
    found = None
    for (a, b) in cycle.edges():
        m, n = (b, a) if cycle.sign == "negative" else (a, b)
        # Trade at capacity in direction m -> n means q[m][n] = kappa.
        if solution.q[m][n] >= scenario.kappa(n, m) - tol:
            found = (m, n)
            break
    applicable = solution.kind != "gne"
    note = ""
    if not applicable:
        note = ("prediction holds for centralized/variational solutions; "
                "sampled equilibria can congest the same pair the other way")
    elif found is None:
        note = "no opposed trade at capacity" if cycle.sign == "negative" \
            else "no trade along the cycle at capacity"
    return CycleCongestionVerdict(verified=found is not None, edge=found,
                                  applicable=applicable, note=note)


def predict_asymmetry_congestion(scenario: Scenario) -> list:
    """Saturation predictions from pairwise price asymmetry.

    For a pair with c(m, n) > c(n, m), node n values buying from m more
    cheaply than the reverse; with uniform root prices and uncongested
    root lines both nodal prices coincide, forcing the congestion price
    on n's purchase to make up the difference, so q[m][n] hits capacity.
    The root-price premises are checked here; the root-congestion one
    can only be checked on a solved instance and travels with the
    prediction.
    """
    root_neighbors = sorted(scenario.neighbors(0))
    to_root = {n: scenario.c(n, 0) for n in root_neighbors}
    from_root = {n: scenario.c(0, n) for n in root_neighbors}
    uniform = (len(set(to_root.values())) <= 1
               and len(set(from_root.values())) <= 1)

    out = []
    for lo, hi in sorted(scenario.links):
        if lo == 0:
            continue
        link = scenario.link(lo, hi)
        if abs(link.c_nm - link.c_mn) <= 1e-12:
            continue
        # c(hi, lo) > c(lo, hi) means lo buys more cheaply: q[hi][lo] caps.
        if scenario.c(hi, lo) > scenario.c(lo, hi):
            direction = (hi, lo)
        else:
            direction = (lo, hi)
        premises = (
            "uniform purchase prices toward the root",
            "uniform purchase prices from the root",
            "both endpoints linked to the root",
            "root lines uncongested in the solution",
        )
        linked = scenario.has_link(lo, 0) and scenario.has_link(hi, 0)
        out.append(CongestionPrediction(
            direction=direction, reason="asymmetry", premises=premises,
            premise_failed=not (uniform and linked)))
    return out


def no_waste_necessary(scenario: Scenario):
    """Whether some node can absorb its renewable infeed by itself.

    Returns ``(True, witness)`` when a node n has d_max - g_min >=
    delta_g, in which case zero-waste optima exist; ``(False, None)``
    means every solution wastes energy somewhere.
    """
    for n in scenario.node_ids:
        p = scenario.prosumer(n)
        if p.d_max - p.g_min >= p.delta_g:
            return True, n
    return False, None


def check_congestion_unilateral(scenario: Scenario, solution: MarketSolution,
                                tol: float = 1e-6) -> list:
    """Pairs where both directions sit at capacity; always empty in theory.

    Two opposite trades both at a positive capacity would waste 2*kappa
    outright, which reciprocity-priced optima never do.  Returns the
    offending pairs, so an empty list is a pass.
    """
    bad = []
    for (lo, hi), link in sorted(scenario.links.items()):
        if link.kappa <= 0:
            continue
        if (solution.q[lo][hi] >= link.kappa - tol
                and solution.q[hi][lo] >= link.kappa - tol):
            bad.append((lo, hi))
    return bad


def _best_paths(scenario: Scenario, solution: MarketSolution, n0: int,
                max_path_len: int, budget: int, tol: float):
    """Best accumulated preference difference over simple non-congested paths.

    Returns ``{m: (value, path)}`` where value maximizes the sum of
    C[p_i][p_i+1] over simple paths n0 -> m whose every edge has the
    forward trade strictly below capacity and a negligible congestion
    price.  The empty path to n0 itself is included with value 0.
    """
    def usable(a, b):
        # Pushing along a -> b raises q[a][b]; needs slack on that cap.
        return (solution.q[a][b] < scenario.kappa(a, b) - tol
                and solution.xi[b][a] < 1e-8)

    best = {n0: (0.0, (n0,))}
    visited = 0
    path = [n0]
    on_path = {n0}
    acc = [0.0]

    def dfs():
        nonlocal visited
        here = path[-1]
        for nxt in sorted(scenario.neighbors(here)):
            if nxt in on_path or not usable(here, nxt):
                continue
            visited += 1
            if visited > budget:
                raise StructureError(
                    f"path enumeration exceeded the budget of {budget}")
            val = acc[-1] + scenario.c_tilde(here, nxt)
            path.append(nxt)
            on_path.add(nxt)
            acc.append(val)
            if nxt not in best or val > best[nxt][0]:
                best[nxt] = (val, tuple(path))
            if len(path) <= max_path_len:
                dfs()
            path.pop()
            on_path.remove(nxt)
            acc.pop()

    dfs()
    return best


def waste_certificates(scenario: Scenario, solution: MarketSolution,
                       max_path_len: Optional[int] = None,
                       budget: int = DEFAULT_PATH_BUDGET,
                       tol: float = 1e-6) -> list:
    """Per-trade no-waste certificates from marginal prices.

    The trade of n0 with m0 is certified waste-free when some node m,
    reachable from n0 through non-congested lines, satisfies
    lambda_m + sum of preference differences along the path > c(n0, m0):
    diverting the wasted energy there would raise welfare, so the
    optimum wastes nothing here.  With the empty path this includes the
    single-node case lambda_n0 > c(n0, m0).
    """
    if max_path_len is None:
        max_path_len = scenario.n_nodes
    out = []
    for n0 in scenario.node_ids:
        if not scenario.neighbors(n0):
            continue
        best = _best_paths(scenario, solution, n0, max_path_len, budget, tol)
        reachable = [(solution.lam[m] + v, m, pth)
                     for m, (v, pth) in sorted(best.items())]
        top_val, top_m, top_path = max(reachable)
        for m0 in sorted(scenario.neighbors(n0)):
            margin = top_val - scenario.c(n0, m0)
            pair = (n0, m0) if n0 < m0 else (m0, n0)
            out.append(WasteCertificate(
                pair=(n0, m0), certified=margin > 1e-9, margin=margin,
                via=top_m, path=top_path,
                observed_waste=solution.waste[pair]))
    return out


def to_dot(scenario: Scenario, solution: MarketSolution,
           tol: float = 1e-6) -> str:
    """Graphviz digraph of net flows; congested lines red, the rest green."""
    lines = ["digraph market {", "  rankdir=LR;"]
    for n in scenario.node_ids:
        lam = solution.lam[n]
        lines.append(f'  {n} [label="{n}\\nlam={lam:.2f}"];')
    for (lo, hi), link in sorted(scenario.links.items()):
        flow = solution.q[lo][hi]   # positive: lo -> hi
        a, b = (lo, hi) if flow >= 0 else (hi, lo)
        mag = abs(flow)
        congested = (solution.q[lo][hi] >= link.kappa - tol
                     or solution.q[hi][lo] >= link.kappa - tol)
        color = "red" if congested else "green"
        lines.append(f'  {a} -> {b} [label="{mag:.2f}/{link.kappa:g}", '
                     f"color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def analysis_report(scenario: Scenario, solution: MarketSolution,
                    max_cycle_len: Optional[int] = None,
                    max_path_len: Optional[int] = None) -> dict:
    """One JSON-ready dict bundling every diagnostic for a solved market."""
    cycles = detect_preference_cycles(scenario, max_cycle_len)
    game = _game_cycles(scenario, cycles)
    predictions = predict_asymmetry_congestion(scenario)
    certs = waste_certificates(scenario, solution, max_path_len)
    necessary, witness = no_waste_necessary(scenario)

    def cyc(c, verdict=None):
        d = {"nodes": list(c.nodes), "weight": c.weight, "sign": c.sign,
             "kind": c.kind}
        if verdict is not None:
            d["congestion"] = {"verified": verdict.verified,
                               "edge": list(verdict.edge) if verdict.edge else None,
                               "applicable": verdict.applicable,
                               "note": verdict.note}
        return d

    wasteful = [{"pair": list(p), "waste": w}
                for p, w in sorted(solution.waste.items()) if w > 1e-6]
    return {
        "cycles": [cyc(c, verify_cycle_congestion(scenario, c, solution))
                   for c in cycles]
                  + [cyc(c) for c in game],
        "predictions": [
            {"direction": list(p.direction), "reason": p.reason,
             "premises": list(p.premises), "premise_failed": p.premise_failed}
            for p in predictions
        ],
        "waste": {"total": solution.waste_total, "pairs": wasteful,
                  "avoidable": {"possible": necessary, "witness": witness}},
        "certificates": [
            {"pair": list(c.pair), "certified": c.certified,
             "margin": c.margin, "via": c.via, "path": list(c.path),
             "observed_waste": c.observed_waste}
            for c in certs
        ],
    }
