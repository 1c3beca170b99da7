"""Cost-structure analysis: cycles, congestion predictions, waste proofs."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from generators import planted_negative_cycle, random_scenario
from peertrade import equilibrium as eq
from peertrade import market, scenario as sc
from peertrade import structure as st


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


@pytest.fixture(scope="module")
def solved(three_node):
    return market.solve_centralized(three_node)


def test_three_node_preference_cycles(three_node):
    cycles = st.detect_preference_cycles(three_node)
    assert len(cycles) == 2
    neg, pos = cycles
    assert neg.nodes == (0, 1, 2)
    # (c10 - c01) + (c21 - c12)... walked as buyer-view differences:
    # (1-3) + (1-1) + (2-1) = -1, float exact
    assert neg.weight == -1.0
    assert neg.sign == "negative"
    assert pos.nodes == (0, 2, 1)
    assert pos.weight == 1.0
    assert pos.sign == "positive"


def test_symmetric_or_uniform_costs_have_no_cycles(three_node):
    uni = sc.with_costs(three_node,
                        {p: 1.0 for p in three_node.directed_pairs()},
                        "uniform")
    assert st.detect_preference_cycles(uni) == []
    assert st.detect_game_cycles(uni) == []
    sym = sc.with_costs(three_node,
                        {p: 0.7 for p in three_node.directed_pairs()},
                        "sym")
    assert st.detect_preference_cycles(sym) == []


def test_negative_cycle_congestion_verified(three_node, solved):
    cycles = st.detect_preference_cycles(three_node)
    verdict = st.verify_cycle_congestion(three_node, cycles[0], solved)
    assert verdict.applicable
    assert verdict.verified
    assert verdict.edge == (2, 1)


def test_congestion_check_not_applicable_to_sampled_equilibria(three_node):
    g = eq.solve_parameterized(
        three_node,
        eq.OmegaVector({(1, 0): 87.0, (2, 0): 16.0, (1, 2): 80.0}))
    cycles = st.detect_preference_cycles(three_node)
    verdict = st.verify_cycle_congestion(three_node, cycles[0], g.solution)
    assert not verdict.applicable


def test_removing_asymmetry_removes_cycle(three_node):
    flat = sc.with_costs(three_node, {(2, 0): 3.0, (1, 0): 3.0}, "nocycle")
    assert st.detect_preference_cycles(flat) == []


def test_game_cycles(three_node):
    assert st.detect_game_cycles(three_node) == []
    gamey = sc.with_costs(three_node,
                          {(0, 1): 0.5, (1, 0): 1.0, (1, 2): 0.5,
                           (2, 1): 1.0, (2, 0): 0.5, (0, 2): 1.0}, "game")
    found = st.detect_game_cycles(gamey)
    assert len(found) == 1
    assert found[0].nodes == (0, 1, 2)
    assert found[0].weight == pytest.approx(-1.5, abs=1e-12)
    assert found[0].kind == "game"


def test_asymmetry_prediction_realized(three_node):
    star = sc.with_costs(three_node,
                         {(1, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0,
                          (1, 2): 0.3, (2, 1): 0.9}, "star")
    preds = st.predict_asymmetry_congestion(star)
    assert len(preds) == 1
    assert preds[0].direction == (2, 1)
    assert not preds[0].premise_failed
    sol = market.solve_centralized(star)
    m, n = preds[0].direction
    assert sol.q[m][n] >= star.kappa(m, n) - 1e-6


def test_asymmetry_prediction_premise_flag(three_node):
    star = sc.with_costs(three_node,
                         {(1, 0): 1.0, (2, 0): 2.0, (0, 1): 1.0, (0, 2): 1.0,
                          (1, 2): 0.3, (2, 1): 0.9}, "het")
    preds = st.predict_asymmetry_congestion(star)
    assert len(preds) == 1
    assert preds[0].premise_failed


def test_no_waste_necessary(three_node):
    ok, witness = st.no_waste_necessary(three_node)
    assert ok
    assert witness == 0
    blocked = sc.Scenario(
        name="blocked", units="MWh",
        prosumers=[sc.ProsumerParams(id=i, d_min=0, d_max=1, g_min=0,
                                     g_max=0, d_star=1, a_tilde=1,
                                     b_tilde=1, a=0.01, b=0.01, d=0,
                                     delta_g=5) for i in (0, 1)],
        links=[sc.TradeLink(n=0, m=1, kappa=1, c_nm=1, c_mn=1)])
    ok2, witness2 = st.no_waste_necessary(blocked)
    assert not ok2
    assert witness2 is None


def test_congestion_unilateral_clean_on_optima(three_node, solved):
    assert st.check_congestion_unilateral(three_node, solved) == []
    g = eq.solve_parameterized(
        three_node,
        eq.OmegaVector({(1, 0): 87.0, (2, 0): 16.0, (1, 2): 80.0}))
    assert st.check_congestion_unilateral(three_node, g.solution) == []


def test_congestion_unilateral_reports_a_pair_at_capacity_both_ways(three_node, solved):
    kappa = three_node.kappa(1, 2)
    q = {n: dict(row) for n, row in solved.q.items()}
    q[1][2] = q[2][1] = kappa
    assert st.check_congestion_unilateral(three_node,
                                          dataclasses.replace(solved, q=q)) == [(1, 2)]


@pytest.mark.parametrize("max_len, count", [(3, 10), (4, 14), (5, 16)])
def test_cycle_length_bound_below_the_node_count(max_len, count):
    # ieee14 case b has 80 cycles; a bound keeps exactly the short ones.
    scn = sc.ieee14_cost_case("b")
    full = st.detect_preference_cycles(scn)
    assert len(full) == 80
    bounded = st.detect_preference_cycles(scn, max_len=max_len)
    assert len(bounded) == count
    assert bounded == [c for c in full if len(c.nodes) <= max_len]


def test_waste_certificates_sound(three_node, solved):
    certs = st.waste_certificates(three_node, solved)
    assert any(c.certified for c in certs)
    for c in certs:
        if c.certified:
            assert c.observed_waste <= 1e-6


def test_waste_certificates_on_wasteful_instance():
    wastey = sc.Scenario(
        name="wastey", units="MWh",
        prosumers=[
            sc.ProsumerParams(id=0, d_min=0, d_max=10, g_min=0, g_max=10,
                              d_star=6, a_tilde=5, b_tilde=180, a=4, b=30,
                              d=10, delta_g=0),
            sc.ProsumerParams(id=1, d_min=0, d_max=10, g_min=0, g_max=0,
                              d_star=3, a_tilde=15, b_tilde=135, a=0.01,
                              b=0.01, d=0.1, delta_g=50),
            sc.ProsumerParams(id=2, d_min=0, d_max=10, g_min=0, g_max=0,
                              d_star=3, a_tilde=10, b_tilde=90, a=0.01,
                              b=0.01, d=0.1, delta_g=0),
        ],
        links=[sc.TradeLink(n=0, m=1, kappa=100, c_nm=20, c_mn=20),
               sc.TradeLink(n=0, m=2, kappa=100, c_nm=20, c_mn=20),
               sc.TradeLink(n=1, m=2, kappa=100, c_nm=20, c_mn=20)])
    sol = market.solve_centralized(wastey)
    assert sol.waste_total > 1.0
    certs = st.waste_certificates(wastey, sol)
    assert any(not c.certified for c in certs)
    for c in certs:
        if c.certified:
            assert c.observed_waste <= 1e-6


def test_planted_cycles_always_predict_congestion():
    rng = np.random.default_rng(3)
    for _ in range(10):
        scn, ring = planted_negative_cycle(rng)
        cycles = st.detect_preference_cycles(scn)
        planted = [c for c in cycles
                   if c.sign == "negative" and set(c.nodes) == set(ring)]
        assert planted, (ring, [(c.nodes, c.weight) for c in cycles])
        sol = market.solve_centralized(scn)
        verdict = st.verify_cycle_congestion(scn, planted[0], sol)
        assert verdict.applicable
        assert verdict.verified, (ring, verdict)


def test_cycle_weight_helper(three_node):
    w = st.cycle_weight(three_node, (0, 1, 2))
    assert w == -1.0
    w_rev = st.cycle_weight(three_node, (0, 2, 1))
    assert w_rev == 1.0


def test_dot_export(three_node, solved):
    dot = st.to_dot(three_node, solved)
    assert dot.startswith("digraph")
    assert "red" in dot
    assert "green" in dot


def test_analysis_report_serializes(three_node, solved):
    rep = st.analysis_report(three_node, solved)
    js = json.dumps(rep, indent=2)
    parsed = json.loads(js)
    assert parsed["cycles"][0]["congestion"]["verified"] is True
    assert "certificates" in parsed
    assert "waste" in parsed


def test_cycle_budget_guard(three_node, monkeypatch):
    monkeypatch.setattr(st, "_CYCLE_BUDGET", 1)
    with pytest.raises(st.StructureError, match="budget of 1"):
        st.detect_preference_cycles(three_node)


def test_max_len_above_node_count_rejected(three_node):
    with pytest.raises(ValueError, match="max_len 4 exceeds the node count 3"):
        st.detect_preference_cycles(three_node, max_len=4)


def test_negative_max_len_rejected(three_node):
    # A negative bound once read as "no cycles"; three_node has two.
    for detect in (st.detect_preference_cycles, st.detect_game_cycles):
        with pytest.raises(ValueError, match="max_len must be >= 0, got -5"):
            detect(three_node, max_len=-5)


def test_cycle_sign_follows_its_weight():
    assert st.PreferenceCycle(nodes=(0, 1, 2), weight=-1.0).sign == "negative"
    assert st.PreferenceCycle(nodes=(0, 2, 1), weight=1.0).sign == "positive"
    with pytest.raises(ValueError, match="zero-weight cycle"):
        st.PreferenceCycle(nodes=(0, 1, 2), weight=0.0)


@pytest.mark.parametrize("scn", [sc.builtin("three_node"), sc.ieee14_cost_case("b")],
                         ids=["three_node", "ieee14_b"])
def test_certificates_read_the_buyers_own_price(scn):
    sol = market.solve_centralized(scn)
    certs = st.analysis_report(scn, sol)["certificates"]
    assert len(certs) == 2 * len(scn.links)
    for c in certs:
        assert set(c) == {"pair", "certified", "margin", "observed_waste"}
        n0, m0 = c["pair"]
        assert c["margin"] == sol.lam[n0] - scn.c(n0, m0)


def _brute_paths(scn, n0, usable):
    """Every simple path from n0 whose edges are all usable, by permutations."""
    others = [v for v in scn.node_ids if v != n0]
    for k in range(len(others) + 1):
        for rest in itertools.permutations(others, k):
            path = (n0,) + rest
            edges = list(zip(path, path[1:]))
            if all(scn.has_link(a, b) and usable(a, b) for a, b in edges):
                yield path, sum(scn.c_tilde(a, b) for a, b in edges)


def test_search_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(30):
        scn = random_scenario(rng)
        # Cycles: every simple cycle, smallest node first, nonzero weight.
        want = []
        for n0 in scn.node_ids:
            for path, _ in _brute_paths(scn, n0, lambda a, b: b > n0):
                if len(path) >= 3 and scn.has_link(path[-1], n0):
                    w = sum(scn.c_tilde(a, b)
                            for a, b in zip(path, path[1:] + path[:1]))
                    if abs(w) > 1e-9:
                        want.append((w, path))
        got = st.detect_preference_cycles(scn)
        assert [(c.weight, c.nodes) for c in got] == sorted(want)

        # Waste: each margin is the best lambda + path value - c over all
        # simple usable paths, the empty one included.
        sol = market.solve_centralized(scn)

        def usable(a, b):
            return (sol.q[a][b] < scn.kappa(a, b) - 1e-6
                    and sol.xi[b][a] < 1e-8)

        certs = st.waste_certificates(scn, sol)
        assert len(certs) == 2 * len(scn.links)
        for c in certs:
            n0, m0 = c.pair
            best = max(sol.lam[p[-1]] + v for p, v in _brute_paths(scn, n0, usable))
            assert c.margin == pytest.approx(best - scn.c(n0, m0), rel=0, abs=1e-12)


def test_random_scenarios_unilateral_always_clean():
    rng = np.random.default_rng(17)
    for _ in range(10):
        scn = random_scenario(rng)
        sol = market.solve_centralized(scn)
        assert st.check_congestion_unilateral(scn, sol) == []
