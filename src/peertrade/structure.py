"""Combinatorial market diagnostics: cycles, congestion, waste.

Everything here reads a scenario (and usually a solved market) and emits
predictions or certificates that can be checked against the solution:

* A strictly negative cycle in the preference-asymmetry matrix
  C[n][m] = c(n, m) - c(m, n) forces some trade opposed to the cycle to
  full capacity in the centralized optimum.
* A price asymmetry on one pair, under uniform root prices, pins which
  direction of that pair saturates.
* Waste (energy sent but not accepted, -(q_nm + q_mn) > 0) is ruled out
  for a trade when the buyer's own price beats the trade's preference
  cost; at the welfare optimum no path through other nodes does better.

Cycles come from one depth-first search of simple paths over the trade
graph, ``_simple_paths``, under a budget.
Predictions are advisory: they are produced before or after solving and
verified against solutions, never fed back into the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .market import MarketSolution, _waste_block
from .scenario import Scenario

_CYCLE_BUDGET = 10 ** 5   # detect_preference_cycles: most cycles enumerated
_CAPACITY_TOL = 1e-6   # a trade this close to its line capacity is at it


class StructureError(RuntimeError):
    """Raised when an enumeration exceeds its budget."""


@dataclass(frozen=True)
class PreferenceCycle:
    """A directed simple cycle in the preference-asymmetry graph.

    ``nodes`` lists the cycle once, smallest node first; the closing edge
    back to the start is implied.  ``weight`` sums C[n][m] over the
    directed edges; since C is antisymmetric, the reversed cycle appears
    separately with the opposite weight, and the weight is never zero.
    ``kind`` distinguishes plain weight-sign cycles from the per-node local
    condition variant.
    """

    nodes: tuple
    weight: float
    kind: str = "preference"

    def __post_init__(self):
        if len(self.nodes) != len(set(self.nodes)):
            raise ValueError(f"cycle nodes repeat: {self.nodes}")
        if len(self.nodes) <= 2:
            raise ValueError("cycles must have length > 2")
        if self.weight == 0:
            raise ValueError("a zero-weight cycle has no sign")

    @property
    def sign(self) -> str:
        """``"negative"`` or ``"positive"``, the sign of ``weight``."""
        return "negative" if self.weight < 0 else "positive"

    def edges(self) -> list:
        """The directed edges (a, b) around the cycle, closing edge last."""
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
    """One cycle's congestion prediction checked against a solution.

    ``edge`` is the first trade (m, n) found with q[m][n] at capacity;
    ``applicable`` is False where theory does not back the prediction."""

    verified: bool
    edge: Optional[tuple]
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class WasteCertificate:
    """No-waste certificate for the trade of ``pair[0]`` with ``pair[1]``.

    ``margin`` is the buyer's price minus the preference cost,
    lambda[pair[0]] - c(pair[0], pair[1]); ``observed_waste`` is the
    solution's actual waste on the unordered pair.
    """

    pair: tuple
    margin: float
    observed_waste: float

    @property
    def certified(self) -> bool:
        """Whether the margin is strictly positive (above 1e-9), so wasting
        on this trade would be suboptimal."""
        return self.margin > 1e-9


def _simple_paths(scenario: Scenario, start: int, max_nodes: int) -> Iterator[tuple]:
    """Every simple path of at least one edge from ``start`` through larger
    nodes only, depth first.

    Yields ``(path, value)``: the node tuple and the running sum of
    C[p_i][p_i+1] along it.  Neighbours are taken in ascending order and
    a path comes before its extensions, which it gets only while it has
    fewer than ``max_nodes`` nodes, so ``max_nodes <= 1`` yields nothing.
    Each cycle closes such a path from its smallest node.
    """
    path, sums, on_path = [start], [0.0], {start}
    stack = [iter(scenario.neighbors(start) if max_nodes > 1 else ())]
    while stack:
        a = path[-1]
        for b in stack[-1]:
            if b <= start or b in on_path:
                continue
            path.append(b)
            sums.append(sums[-1] + scenario.c_tilde(a, b))
            on_path.add(b)
            yield tuple(path), sums[-1]
            stack.append(iter(scenario.neighbors(b) if len(path) < max_nodes else ()))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
            sums.pop()


def _at_capacity(scenario: Scenario, solution: MarketSolution, m: int, n: int) -> bool:
    """Whether node n's purchase from m, q[m][n], is at the line capacity."""
    return solution.q[m][n] >= scenario.kappa(m, n) - _CAPACITY_TOL


def _has_negative_cycle(scenario: Scenario, tol: float = 1e-12) -> bool:
    """Bellman-Ford existence pre-check on the C-weighted trade graph."""
    nodes = scenario.node_ids
    dist = {n: 0.0 for n in nodes}
    edges = [(n, m, scenario.c_tilde(n, m)) for n, m in scenario.directed_pairs()]
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
    """Sum of C[n][m] around the closed cycle ``nodes``, closing edge last."""
    nodes = tuple(nodes)
    return sum(scenario.c_tilde(nodes[i], nodes[(i + 1) % len(nodes)])
               for i in range(len(nodes)))


def _cycle_len_limit(scenario: Scenario, max_len: Optional[int] = None) -> int:
    """The cycle length bound of :func:`detect_preference_cycles`.

    ``max_len`` nodes, default the node count; a negative value or more
    than the node count raises ``ValueError``.
    """
    if max_len is None:
        return scenario.n_nodes
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len > scenario.n_nodes:
        raise ValueError(f"max_len {max_len} exceeds the node count {scenario.n_nodes}")
    return max_len


def detect_preference_cycles(scenario: Scenario, max_len: Optional[int] = None) -> list:
    """All simple cycles with nonzero preference weight, sorted by weight.

    Both orientations of each cycle appear (their weights are exact
    negations), tagged ``negative`` and ``positive``.  A Bellman-Ford
    pass skips the enumeration entirely when no nonzero cycle exists.
    Otherwise each cycle is a simple path from its smallest node through
    larger ones that closes back, of at most ``max_len`` nodes (default
    all; a negative value or more than the node count raises
    ``ValueError``).  More than
    ``_CYCLE_BUDGET`` cycles, zero-weight ones included, raise
    StructureError.
    """
    max_len = _cycle_len_limit(scenario, max_len)
    if not _has_negative_cycle(scenario):
        return []
    out, emitted = [], 0
    for start in scenario.node_ids:
        for nodes, value in _simple_paths(scenario, start, max_len):
            if len(nodes) < 3 or not scenario.has_link(nodes[-1], start):
                continue
            emitted += 1
            if emitted > _CYCLE_BUDGET:
                raise StructureError(
                    f"cycle enumeration exceeded the budget of {_CYCLE_BUDGET}; "
                    "bound the cycle length for dense preference graphs")
            w = value + scenario.c_tilde(nodes[-1], start)
            if abs(w) > 1e-9:
                out.append(PreferenceCycle(nodes=nodes, weight=w))
    out.sort(key=lambda c: (c.weight, c.nodes))
    return out


def detect_game_cycles(scenario: Scenario, max_len: Optional[int] = None) -> list:
    """Cycles satisfying the per-node condition C[i][i+1] - C[i][i-1] < 0.

    This local condition at every node of the cycle is strictly stronger
    at each node than the global negative-sum condition (summing it over
    the cycle gives twice the total weight), so every hit is also a
    negative preference cycle, but not conversely.
    """
    return _game_cycles(scenario, detect_preference_cycles(scenario, max_len))


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
                            solution: MarketSolution) -> CycleCongestionVerdict:
    """Check the cycle's congestion prediction against a solution.

    A negative cycle predicts some trade opposed to it at capacity; a
    positive cycle predicts one along it.  The prediction is only backed
    by theory for centralized/VE solutions, so sampled equilibria get an
    ``applicable=False`` verdict (the search still runs for reporting).
    """
    found = None
    for (a, b) in cycle.edges():
        m, n = (b, a) if cycle.sign == "negative" else (a, b)
        if _at_capacity(scenario, solution, m, n):
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


def check_congestion_unilateral(scenario: Scenario, solution: MarketSolution) -> list:
    """Pairs where both directions sit at capacity; always empty in theory.

    Two opposite trades both at a positive capacity would waste 2*kappa
    outright, which reciprocity-priced optima never do.  Returns the
    offending pairs, so an empty list is a pass.
    """
    bad = []
    for (lo, hi), link in sorted(scenario.links.items()):
        if link.kappa <= 0:
            continue
        if (_at_capacity(scenario, solution, lo, hi)
                and _at_capacity(scenario, solution, hi, lo)):
            bad.append((lo, hi))
    return bad


def waste_certificates(scenario: Scenario, solution: MarketSolution) -> list:
    """Per-trade no-waste certificates from the buyer's own price.

    The trade of n0 with m0 is certified waste-free when some node m,
    reachable from n0 through non-congested lines, satisfies
    lambda_m + sum of C along the path > c(n0, m0): diverting the wasted
    energy there would raise welfare, so the optimum wastes nothing here.
    At the welfare optimum the empty path m = n0 is the best one, so the
    margin is lambda_n0 - c(n0, m0).  The stationarity rows of q[b][a]
    and q[a][b] share one reciprocity multiplier zeta, so their
    difference reads C[a][b] = lambda_a - lambda_b - xi[a][b] + xi[b][a].
    An edge a -> b is non-congested when its congestion price xi[b][a] is
    below 1e-8; as xi >= 0, such an edge has lambda_b + C[a][b] <=
    lambda_a + 1e-8, and summed along a path lambda_m + sum of C <=
    lambda_n0 + 1e-8 per edge.

    That argument uses the optimum's identities with ``eps_reg`` 0 and no
    omega price shift, so the certificate is backed only at the welfare
    optimum (centralized or VE, unregularized); on a sampled equilibrium
    or a regularized solve it is the own-price test alone.
    """
    return [WasteCertificate(pair=(n, m), margin=solution.lam[n] - scenario.c(n, m),
                             observed_waste=solution.waste[scenario.link(n, m).pair])
            for n, m in scenario.directed_pairs()]


def to_dot(scenario: Scenario, solution: MarketSolution) -> str:
    """Graphviz digraph of net flows; congested lines red, the rest green."""
    lines = ["digraph market {", "  rankdir=LR;"]
    for n in scenario.node_ids:
        lam = solution.lam[n]
        lines.append(f'  {n} [label="{n}\\nlam={lam:.2f}"];')
    for (lo, hi), link in sorted(scenario.links.items()):
        flow = solution.q[lo][hi]   # positive: lo -> hi
        a, b = (lo, hi) if flow >= 0 else (hi, lo)
        mag = abs(flow)
        congested = (_at_capacity(scenario, solution, lo, hi)
                     or _at_capacity(scenario, solution, hi, lo))
        color = "red" if congested else "green"
        lines.append(f'  {a} -> {b} [label="{mag:.2f}/{link.kappa:g}", '
                     f"color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def analysis_report(scenario: Scenario, solution: MarketSolution,
                    max_cycle_len: Optional[int] = None) -> dict:
    """One JSON-ready dict bundling every diagnostic for a solved market."""
    cycles = detect_preference_cycles(scenario, max_cycle_len)
    game = _game_cycles(scenario, cycles)
    predictions = predict_asymmetry_congestion(scenario)
    certs = waste_certificates(scenario, solution)
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

    return {
        "cycles": [cyc(c, verify_cycle_congestion(scenario, c, solution))
                   for c in cycles]
                  + [cyc(c) for c in game],
        "predictions": [
            {"direction": list(p.direction), "reason": p.reason,
             "premises": list(p.premises), "premise_failed": p.premise_failed}
            for p in predictions
        ],
        "waste": {**_waste_block(solution),
                  "avoidable": {"possible": necessary, "witness": witness}},
        "certificates": [
            {"pair": list(c.pair), "certified": c.certified,
             "margin": c.margin, "observed_waste": c.observed_waste}
            for c in certs
        ],
    }
