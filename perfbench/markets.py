"""Seeded generator of feasible markets for the ``market_suite`` workload.

It lives with the benchmark so that what the workload feeds the program
changes only when the benchmark does.  Links form a random spanning tree
plus 0..``n // 2`` extra links, so some graphs have cycles.  Node and
extra-link counts cycle through their ranges by market index rather than
being drawn, so every seed has the same mix of sizes and densities and
only parameters and topology change with the seed: per-market cost
follows size and density, and drawing them would move the suite's
latency percentiles from seed to seed.

Every market is feasible by construction: demand floors are zero and
renewable infeed never exceeds the demand cap, so consuming one's own
infeed and trading nothing is always a dispatch.
"""

from __future__ import annotations

import warnings

import numpy as np

from peertrade import privacy, scenario
from peertrade.scenario import ProsumerParams, Scenario, TradeLink

MIN_NODES = 3
MAX_NODES = 14
STREAM = 0x6D6B74   # separates this generator's stream from other seeded inputs


def _prosumer(rng: np.random.Generator, node: int) -> ProsumerParams:
    d_star = float(rng.uniform(1.0, 8.0))
    d_max = float(max(d_star, 6.0) + rng.uniform(0.0, 4.0))
    generates = node == 0 or rng.random() < 0.5
    return ProsumerParams(
        id=node, d_min=0.0, d_max=d_max, g_min=0.0,
        g_max=float(rng.uniform(2.0, 12.0)) if generates else 0.0,
        d_star=d_star, a_tilde=float(rng.uniform(2.0, 20.0)),
        b_tilde=float(rng.uniform(50.0, 200.0)),
        a=float(rng.uniform(0.05, 6.0)), b=float(rng.uniform(0.0, 30.0)),
        d=float(rng.uniform(0.0, 10.0)),
        delta_g=float(min(rng.uniform(0.0, 6.0), d_max)) if rng.random() < 0.6 else 0.0)


def _market(rng: np.random.Generator, n_nodes: int, n_extra: int,
            name: str) -> Scenario:
    links = {}

    def link(a: int, b: int) -> None:
        links[(min(a, b), max(a, b))] = TradeLink(
            n=min(a, b), m=max(a, b), kappa=float(rng.uniform(1.0, 10.0)),
            c_nm=float(rng.uniform(0.05, 4.0)), c_mn=float(rng.uniform(0.05, 4.0)))

    prosumers = [_prosumer(rng, n) for n in range(n_nodes)]
    order = [int(v) for v in rng.permutation(n_nodes)]
    for i in range(1, n_nodes):
        link(order[i], order[int(rng.integers(0, i))])
    free = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
            if (a, b) not in links]
    for k in rng.choice(len(free), size=min(n_extra, len(free)), replace=False):
        link(*free[k])
    return Scenario(name=name, units="MWh", prosumers=prosumers,
                    links=list(links.values()))


def _error_model(rng: np.random.Generator, scn: Scenario) -> privacy.ErrorModel:
    """Random forecast errors; covariances past Cauchy-Schwarz get clamped."""
    sd, sg, cv = {}, {}, {}
    for pair in scn.directed_pairs():
        sd[pair] = float(rng.uniform(0.0, 0.8))
        sg[pair] = float(rng.uniform(0.0, 0.8))
        cv[pair] = float(rng.uniform(-1.2, 1.2)) * sd[pair] * sg[pair]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return privacy.clamp_error_model(sd, sg, cv)


def builtin_markets() -> list:
    return [scenario.builtin("three_node")] + [
        scenario.ieee14_cost_case(case) for case in "abcd"]


def generate(seed: int, count: int) -> list:
    """``count`` generated markets plus the builtins, each with an error model.

    Returns ``[(scenario, error_model), ...]``; the same seed gives the
    same list.
    """
    rng = np.random.default_rng([STREAM, seed])
    span = MAX_NODES - MIN_NODES + 1
    scns = []
    for i in range(count):
        n_nodes = MIN_NODES + i % span
        n_extra = (i // span) % (n_nodes // 2 + 1)
        scns.append(_market(rng, n_nodes, n_extra, f"suite_{seed}_{i}"))
    scns += builtin_markets()
    return [(scn, _error_model(rng, scn)) for scn in scns]
