"""Centralized welfare optimum: prices, identities, reporting."""

import dataclasses
import json
import math

import numpy as np
import pytest

from generators import random_scenario
from peertrade import equilibrium, market, scenario as sc
from peertrade.scenario import ProsumerParams, Scenario, TradeLink

# exact optimum of the 3-node benchmark, derived by hand from the KKT
# system (rational arithmetic): lambda = (233, 255, 244)/11
LAM_EXACT = {0: 233.0 / 11.0, 1: 255.0 / 11.0, 2: 244.0 / 11.0}
SW_EXACT = 19842.0 / 55.0


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


@pytest.fixture(scope="module")
def solved(three_node):
    return market.solve_centralized(three_node)


def test_three_node_prices_exact(solved):
    for n, lam in LAM_EXACT.items():
        assert solved.lam[n] == pytest.approx(lam, abs=1e-9)
    assert solved.lam[1] - solved.lam[0] == pytest.approx(2.0, abs=1e-9)
    assert solved.lam[2] - solved.lam[0] == pytest.approx(1.0, abs=1e-9)


def test_three_node_welfare_exact(solved):
    assert solved.sw == pytest.approx(SW_EXACT, rel=1e-10)


def test_three_node_congested_link(solved, three_node):
    # node 1 buys the full line capacity from node 2
    assert solved.q[2][1] == pytest.approx(5.0, abs=1e-9)
    assert solved.q[2][1] == pytest.approx(three_node.kappa(1, 2))
    assert solved.xi[1][2] > 1e-6
    assert solved.xi[2][1] == pytest.approx(0.0, abs=1e-9)


def test_three_node_no_waste(solved):
    assert solved.waste_total == pytest.approx(0.0, abs=1e-9)
    assert all(w == pytest.approx(0.0, abs=1e-9)
               for w in solved.waste.values())


def test_balance_identity(solved, three_node):
    for n in three_node.node_ids:
        p = three_node.prosumer(n)
        bal = solved.D[n] - solved.G[n] - solved.Q[n]
        assert bal == pytest.approx(p.delta_g, abs=1e-8)
    assert sum(solved.Q.values()) == pytest.approx(0.0, abs=1e-8)


def test_zeta_symmetric_in_centralized(solved, three_node):
    for lo, hi in three_node.links:
        assert solved.zeta[lo][hi] == pytest.approx(solved.zeta[hi][lo],
                                                    abs=1e-12)


def test_active_link_price_identity(solved, three_node):
    # lambda_n = c_nm + xi_nm + zeta_nm wherever the pair trades
    for n in three_node.node_ids:
        for m in three_node.neighbors(n):
            if abs(solved.q[m][n]) < 1e-7 and abs(solved.q[n][m]) < 1e-7:
                continue
            lhs = (three_node.c(n, m) + solved.xi[n][m] + solved.zeta[n][m])
            assert lhs == pytest.approx(solved.lam[n], abs=1e-6)


def test_social_welfare_recomputes_objective(solved, three_node):
    sw = market.social_welfare(three_node, solved.D, solved.G, solved.q)
    assert sw == pytest.approx(solved.sw, abs=1e-8)
    with pytest.raises(ValueError, match="missing entry"):
        market.social_welfare(three_node, {}, solved.G, solved.q)


def _bumped(table: dict, keys: tuple) -> dict:
    """A copy of the (nested) dict ``table`` with entry ``keys`` raised by 1."""
    k, *rest = keys
    return {**table, k: _bumped(table[k], rest) if rest else table[k] + 1.0}


@pytest.mark.parametrize("name, keys, message", [
    ("mu_lo", (1,), r"stationarity identity violated at node 1: D-residual -1\.0"),
    ("Q", (2,), r"balance identity violated at node 2: -1\.0"),
    ("xi", (1, 0), r"trade price identity violated on \(1,0\): 1\.0"),
])
def test_verify_solution_names_the_broken_identity(solved, three_node, name, keys,
                                                   message):
    market.verify_solution(three_node, solved)
    broken = dataclasses.replace(solved, **{name: _bumped(getattr(solved, name), keys)})
    with pytest.raises(market.MarketError, match=message):
        market.verify_solution(three_node, broken)


def test_closed_form_prices_match_solver(solved, three_node):
    lam_hat, deviation = market.nodal_price_closed_form(three_node, solved)
    assert deviation < 1e-6
    assert lam_hat[0] == pytest.approx(LAM_EXACT[0], abs=1e-6)


def test_closed_form_requires_root_adjacency(three_node):
    chain = Scenario(
        name="chain", units="MWh",
        prosumers=[three_node.prosumer(n) for n in three_node.node_ids],
        links=[l for l in three_node.links.values() if l.pair != (0, 2)])
    sol = market.solve_centralized(chain)
    with pytest.raises(market.MarketError, match="adjacent to the root"):
        market.nodal_price_closed_form(chain, sol)


def test_kind_tag_and_ve(three_node):
    ve = market.solve_centralized(three_node, kind="ve")
    assert ve.kind == "ve"
    cen = market.solve_centralized(three_node)
    assert cen.kind == "centralized"
    assert ve.sw == pytest.approx(cen.sw, rel=1e-10)


def test_identical_nodes_get_identical_prices():
    twin = dict(d_min=0.0, d_max=8.0, g_min=0.0, g_max=0.0, d_star=4.0,
                a_tilde=6.0, b_tilde=120.0, a=0.5, b=2.0, d=0.0, delta_g=2.0)
    scn = Scenario(
        name="twins", units="MWh",
        prosumers=[ProsumerParams(id=0, d_min=0.0, d_max=10.0, g_min=0.0,
                                  g_max=10.0, d_star=5.0, a_tilde=4.0,
                                  b_tilde=120.0, a=1.0, b=3.0, d=0.0,
                                  delta_g=0.0),
                   ProsumerParams(id=1, **twin), ProsumerParams(id=2, **twin)],
        links=[TradeLink(n=0, m=1, kappa=6.0, c_nm=1.0, c_mn=1.5),
               TradeLink(n=0, m=2, kappa=6.0, c_nm=1.0, c_mn=1.5)])
    sol = market.solve_centralized(scn)
    assert sol.lam[1] == pytest.approx(sol.lam[2], abs=1e-7)
    assert sol.D[1] == pytest.approx(sol.D[2], abs=1e-6)


def test_waste_appears_when_dumping_is_cheapest():
    # node 1 drowns in infeed it can neither consume nor profitably send:
    # the optimum burns energy on the line instead
    scn = Scenario(
        name="dump", units="MWh",
        prosumers=[ProsumerParams(id=0, d_min=0.0, d_max=3.0, g_min=0.0,
                                  g_max=0.0, d_star=1.0, a_tilde=8.0,
                                  b_tilde=30.0, a=1.0, b=5.0, d=0.0,
                                  delta_g=0.0),
                   ProsumerParams(id=1, d_min=0.0, d_max=3.0, g_min=0.0,
                                  g_max=0.0, d_star=1.0, a_tilde=8.0,
                                  b_tilde=30.0, a=1.0, b=5.0, d=0.0,
                                  delta_g=20.0)],
        links=[TradeLink(n=0, m=1, kappa=50.0, c_nm=20.0, c_mn=20.0)])
    sol = market.solve_centralized(scn)
    assert sol.waste_total > 1.0
    assert sol.waste[(0, 1)] == pytest.approx(sol.waste_total)
    # waste is the negative reciprocity slack
    assert sol.waste[(0, 1)] == pytest.approx(-(sol.q[0][1] + sol.q[1][0]),
                                              abs=1e-8)


def test_infeasible_scenario_raises_with_attribution():
    scn = Scenario(
        name="starved", units="MWh",
        prosumers=[ProsumerParams(id=0, d_min=0.0, d_max=5.0, g_min=0.0,
                                  g_max=2.0, d_star=1.0, a_tilde=5.0,
                                  b_tilde=10.0, a=4.0, b=30.0, d=10.0,
                                  delta_g=0.0),
                   ProsumerParams(id=1, d_min=8.0, d_max=10.0, g_min=0.0,
                                  g_max=0.0, d_star=9.0, a_tilde=15.0,
                                  b_tilde=135.0, a=0.01, b=0.01, d=0.1,
                                  delta_g=0.0)],
        links=[TradeLink(n=0, m=1, kappa=1.0, c_nm=1.0, c_mn=1.0)])
    # The market solvers share one solve path, so they name the rows alike.
    for solve in (market.solve_centralized, equilibrium.solve_ve,
                  lambda s: equilibrium.solve_parameterized(
                      s, equilibrium.OmegaVector({(1, 0): 5.0}))):
        with pytest.raises(market.InfeasibleMarketError,
                           match="no feasible dispatch .*(row|bound)"):
            solve(scn)


def test_invalid_scenario_rejected_before_solving():
    scn = Scenario(
        name="broken", units="MWh",
        prosumers=[ProsumerParams(id=0, d_min=0.0, d_max=5.0, g_min=0.0,
                                  g_max=2.0, d_star=1.0, a_tilde=-5.0,
                                  b_tilde=10.0, a=4.0, b=30.0, d=10.0,
                                  delta_g=0.0)],
        links=[])
    with pytest.raises(ValueError, match="invalid"):
        market.solve_centralized(scn)


def test_regularization_echoed_and_stable():
    scn = sc.ieee14_cost_case("a")
    s1 = market.solve_centralized(scn, eps_reg=1e-7)
    s2 = market.solve_centralized(scn, eps_reg=1e-7)
    assert s1.eps_reg == 1e-7
    for lo, hi in scn.links:
        assert s1.q[lo][hi] == s2.q[lo][hi]


def test_eps_reg_is_the_trade_diagonal_of_p(three_node):
    plain, idx = market.assemble(three_node)
    reg, reg_idx = market.assemble(three_node, 1e-7)
    cols = list(idx.qpos.values())
    expected = np.zeros_like(plain.P)
    expected[cols, cols] = 2e-7
    np.testing.assert_array_equal(reg.P - plain.P, expected)
    assert (idx.eps_reg, reg_idx.eps_reg) == (0.0, 1e-7)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps_reg"):
            market.assemble(three_node, bad)


def test_report_dict_json_csv(solved):
    d = market.solution_to_dict(solved)
    assert d["sw"] == pytest.approx(SW_EXACT, rel=1e-10)
    assert d["decisions"]["q"]["2->1"] == pytest.approx(5.0)
    assert d["kind"] == "centralized"
    assert "residuals" in d

    text = market.solution_to_json(solved)
    assert json.loads(text) == d

    csv_text = market.solution_to_csv(solved)
    header = csv_text.splitlines()[0].split(",")
    assert "lambda" in header and "node" in header


def test_random_scenarios_roundtrip_welfare():
    rng = np.random.default_rng(7)
    for _ in range(10):
        scn = random_scenario(rng)
        sol = market.solve_centralized(scn)
        sw = market.social_welfare(scn, sol.D, sol.G, sol.q)
        assert sw == pytest.approx(sol.sw, abs=1e-7 * (1 + abs(sol.sw)))
        assert sol.kkt_residuals["stationarity"] <= 1e-6


def _market(name, prosumers, links):
    return Scenario(name=name, units="MWh",
                    prosumers=[ProsumerParams(id=i, d_min=0.0, g_min=0.0, **p)
                               for i, p in enumerate(prosumers)],
                    links=[TradeLink(n=n, m=m, kappa=k, c_nm=c, c_mn=r)
                           for n, m, k, c, r in links])


# Two markets of the benchmark's generated suite (seed 9 market 72 and
# seed 400 market 181) on which the interior-point method stops at
# max_iter: mu enters a period-4 Mehrotra cycle, 0.185, 1.08, 0.835, 1.37
# from iteration 9 and 0.147, 0.870, 0.616, 1.33 from iteration 12.  A safeguard
# that finishes them turns these into passes (ROADMAP item 4).
STALLED_MARKETS = [
    _market("suite_9_72", [
        dict(d_max=9.243462303730798, g_max=3.4437578529089476, d_star=3.0856424582359416,
             a_tilde=16.090711238572133, b_tilde=125.3378111496317, a=4.233615293772739,
             b=22.7818221645843, d=8.850884272742297, delta_g=4.239911815527577),
        dict(d_max=10.30549478569334, g_max=0.0, d_star=7.043537035358835,
             a_tilde=11.24810133329286, b_tilde=97.79309600276785, a=4.701630239662597,
             b=2.3677356611278846, d=3.012046872995332, delta_g=5.607305474930436),
        dict(d_max=6.89869844958541, g_max=0.0, d_star=5.008378085804696,
             a_tilde=14.31736891741761, b_tilde=196.48294432948794, a=3.1045033276153626,
             b=24.888281467640688, d=5.939745305158434, delta_g=1.2683246867035363),
    ], [(0, 1, 1.3411234215739358, 3.319666456394041, 3.5715311218841688),
        (1, 2, 5.029161744724415, 3.699653224186071, 1.9874931568817078)]),
    _market("suite_400_181", [
        dict(d_max=9.066668895215958, g_max=11.460268172768222, d_star=3.3520493491689045,
             a_tilde=13.518059052172665, b_tilde=165.2732266866064, a=1.048361431536382,
             b=14.049405735688541, d=4.604927729972607, delta_g=4.280189982714308),
        dict(d_max=10.095490406951418, g_max=0.0, d_star=6.227586992856653,
             a_tilde=12.089790548707205, b_tilde=140.84116006998568, a=4.065276325624347,
             b=26.626834933082336, d=8.45494841471215, delta_g=0.0),
        dict(d_max=7.711437939322406, g_max=5.038425904567584, d_star=1.603534392962781,
             a_tilde=11.9045810831628, b_tilde=168.1634275562801, a=2.479529913659159,
             b=28.702990935990318, d=0.5624911957767498, delta_g=0.0),
        dict(d_max=7.328936261472464, g_max=0.0, d_star=3.551943426327444,
             a_tilde=9.588895478079273, b_tilde=85.97332884057747, a=0.9220367685161743,
             b=16.63634399016309, d=9.403537420405337, delta_g=1.731986902342356),
    ], [(1, 2, 8.200867995883465, 3.119618322942938, 3.406145251270559),
        (0, 2, 6.1410004923763895, 0.8084797989708642, 1.983001331181443),
        (1, 3, 8.537770291054883, 3.655331591986587, 1.3104293915659853)]),
]


@pytest.mark.xfail(strict=True, raises=market.MarketError,
                   reason="period-4 Mehrotra cycle ends at max_iter (ROADMAP item 4)")
@pytest.mark.parametrize("scn", STALLED_MARKETS, ids=lambda s: s.name)
def test_stalled_market_solves(scn):
    market.solve_centralized(scn)
