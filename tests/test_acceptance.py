"""End-to-end acceptance gate.

Nine numbered criteria, one test each, every test printing a single
``ACCEPTANCE n: PASS/FAIL`` line with the measured numbers.  Criterion 3
sweeps the 101^3 omega grid on the buyer-side (n > m) directions and
checks what that family can reach: every kept sample is an equilibrium
by each agent's own KKT conditions, and the sweep finds the hand-written
buyer-side equilibrium of ``reference_points`` (welfare 265.55), so its
PoA bound is at least 360.76364 / 265.55.  Criterion 4's reference
equilibrium (welfare 255.55) lies outside that family; the companion
test right after criterion 3 reaches it on a support that carries the
(1, 2) direction.  The README gives the derivation.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_acceptance
from generators import planted_negative_cycle, random_scenario
from oracle import brute_force_oracle
from peertrade import equilibrium as eq
from peertrade import market, privacy, qp
from peertrade import scenario as sc
from peertrade import structure as st
from reference_points import BUYER_SIDE, REFERENCE, agent_reports, max_gap


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


def test_criterion_1_ve_equals_centralized(three_node):
    rng = np.random.default_rng(42)
    scenarios = [three_node] + [random_scenario(rng) for _ in range(25)]
    worst_rel = 0.0
    worst_trade = 0.0
    worst_time = 0.0
    for scn in scenarios:
        t0 = time.perf_counter()
        ve = eq.solve_ve(scn)
        cen = market.solve_centralized(scn)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        worst_rel = max(worst_rel,
                        abs(ve.sw - cen.sw) / (1 + abs(cen.sw)))
        for n, m in scn.directed_pairs():
            worst_trade = max(worst_trade, abs(ve.q[m][n] - cen.q[m][n]))
    ok = worst_rel <= 1e-7 and worst_trade <= 1e-5 and worst_time < 1.0
    record_acceptance(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - VE == centralized on "
        f"{len(scenarios)} scenarios (SW rel err {worst_rel:.2e}, trade gap "
        f"{worst_trade:.2e}, slowest pair {worst_time * 1e3:.0f} ms)")
    assert ok


def test_criterion_2_price_identities(three_node):
    sol = eq.solve_ve(three_node)
    d1 = sol.lam[1] - sol.lam[0]
    d2 = sol.lam[2] - sol.lam[0]
    q21 = sol.q[2][1]
    xi12 = sol.xi[1][2]
    ok = (abs(d1 - 2.0) <= 1e-5 and abs(d2 - 1.0) <= 1e-5
          and abs(q21 - 5.0) <= 1e-5
          and abs(q21 - three_node.kappa(1, 2)) <= 1e-5
          and xi12 > 0)
    record_acceptance(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} - price gaps "
        f"({d1:.6f}, {d2:.6f}) vs (2, 1); q[2][1] = {q21:.6f} at capacity, "
        f"xi[1][2] = {xi12:.4f} > 0")
    assert ok


def _sweep_three_node(three_node, support):
    t0 = time.perf_counter()
    samples = eq.sweep_gne(three_node,
                           eq.GridStrategy(0.0, 100.0, 1.0, support=support),
                           budget=1_100_000)
    elapsed = time.perf_counter() - t0
    valid = [s for s in samples if s.is_gne]
    ve = eq.solve_ve(three_node)
    bound = eq.poa_bound(valid, ve.sw)["poa_lower_bound"]
    return valid, bound, elapsed


def _matches_target(sample):
    sol = sample.solution
    lam_ok = (abs(sol.lam[0] - 1.0) <= 0.5 and abs(sol.lam[1] - 90.0) <= 0.5
              and abs(sol.lam[2] - 18.0) <= 0.5)
    q_ok = (abs(sol.q[0][1] - 2.0) <= 0.1 and abs(sol.q[1][2] - 5.0) <= 0.1
            and abs(sol.q[2][0] - 7.9) <= 0.1)
    return sample.sw <= 256.0 and lam_ok and q_ok


@pytest.mark.slow
def test_criterion_3_gne_grid_buyer_side_directions(three_node):
    valid, bound, elapsed = _sweep_three_node(three_node,
                                              eq.SUPPORT_LOW_BUYS_HIGH)
    t0 = time.perf_counter()
    kkt_worst = max(r.max_residual for s in valid
                    for r in agent_reports(three_node, s.solution).values())
    kkt_elapsed = time.perf_counter() - t0

    ve_sw = eq.solve_ve(three_node).sw
    target_sw = market.social_welfare(three_node, BUYER_SIDE.D, BUYER_SIDE.G,
                                      BUYER_SIDE.q)
    ref_sw = market.social_welfare(three_node, REFERENCE.D, REFERENCE.G,
                                   REFERENCE.q)
    # why the reference point is not a target here: node 1 prices the
    # (1, 2) reciprocity row at 89, node 2 at no more than 17, and the
    # buyer-side support can only raise node 2's side
    ref = agent_reports(three_node, REFERENCE)
    zeta_12 = ref[1].zeta[2]
    zeta_xi_21 = ref[2].zeta[1] + ref[2].xi[1]
    outside = (abs(zeta_12 - 89.0) <= 1e-6 and ref[1].xi[2] == 0.0
               and abs(zeta_xi_21 - 17.0) <= 1e-6)

    sw_min = min(s.sw for s in valid)
    hit = any(max_gap(s.solution, BUYER_SIDE) <= 1e-4 for s in valid)
    ref_hit = any(_matches_target(s) for s in valid)
    bound_min = ve_sw / target_sw - 1e-6
    checks = {
        "agent KKT <= 1e-6 on every kept sample": kkt_worst <= 1e-6,
        "buyer-side point found": hit,
        "min SW <= buyer-side point's": sw_min <= target_sw + 1e-4,
        "PoA bound >= VE / buyer-side point's": bound >= bound_min,
        "reference point has zeta_12 = 89, zeta_21 + xi_21 = 17": outside,
        "sweep within 600 s": elapsed <= 600.0,
    }
    ok = all(checks.values())
    record_acceptance(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - 101^3 grid on the "
        f"buyer-side directions: {len(valid)} equilibria, agent KKT worst "
        f"{kkt_worst:.1e} (<= 1e-6, checked in {kkt_elapsed:.0f} s), min SW "
        f"{sw_min:.2f} (<= {target_sw:.2f}), PoA bound {bound:.4f} "
        f"(>= {bound_min:.5f}; reference point {ve_sw / ref_sw:.4f}), "
        f"buyer-side point found: {hit}, reference point found: {ref_hit} "
        f"(zeta_12 {zeta_12:.2f} vs zeta_21 + xi_21 {zeta_xi_21:.2f}), "
        f"{elapsed:.0f} s")
    assert ok, "failed: " + ", ".join(k for k, v in checks.items() if not v)


@pytest.mark.slow
def test_criterion_3_companion_seller_direction_attains_targets(three_node):
    valid, bound, elapsed = _sweep_three_node(
        three_node, ((1, 0), (2, 0), (1, 2)))
    sw_min = min(s.sw for s in valid)
    hit = any(_matches_target(s) for s in valid)
    assert hit
    assert sw_min == pytest.approx(255.55, abs=1e-4)
    assert bound == pytest.approx(360.76364 / 255.55, abs=1e-4)
    assert elapsed <= 600.0
    record_acceptance(
        f"ACCEPTANCE 3 (companion): 101^3 grid on (1, 0), (2, 0), (1, 2) "
        f"reaches criterion 4's reference point, outside the buyer-side "
        f"family: min SW {sw_min:.2f}, PoA bound {bound:.4f}, "
        f"{elapsed:.0f} s")


def test_criterion_4_balance_and_price_identities(three_node):
    sol = market.solve_centralized(three_node)
    id_q0 = abs(sol.Q[0] - (sol.q[1][0] - sol.q[0][2]))
    id_sum = abs(sum(sol.Q.values()))
    price_gap = 0.0
    for n, m in three_node.directed_pairs():
        if abs(sol.q[m][n]) < 1e-7 and abs(sol.q[n][m]) < 1e-7:
            continue
        lhs = three_node.c(n, m) - three_node.c(m, n) \
            + sol.xi[n][m] - sol.xi[m][n]
        price_gap = max(price_gap, abs(lhs - (sol.lam[n] - sol.lam[m])))
    sw = market.social_welfare(three_node, REFERENCE.D, REFERENCE.G,
                               REFERENCE.q)
    ok = (id_q0 <= 1e-6 and id_sum <= 1e-6 and price_gap <= 1e-5
          and abs(sw - 255.5) <= 1.0)
    record_acceptance(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} - balance identities "
        f"(gaps {id_q0:.1e}, {id_sum:.1e}), price identity gap "
        f"{price_gap:.1e}, welfare at the reference equilibrium point "
        f"{sw:.4f} (target 255.5 +/- 1)")
    assert ok


def _ieee14_case(case):
    scn = sc.ieee14_cost_case(case)
    sol = market.solve_centralized(scn, eps_reg=1e-7)
    volume = sum(max(sol.q[m][n], 0.0) for n, m in scn.directed_pairs())
    congested = [(n, m) for n, m in scn.directed_pairs()
                 if sol.q[m][n] >= scn.kappa(n, m) - 1e-6]
    return scn, sol, volume, congested


def test_criterion_5_ieee14_cost_cases():
    scn_a, sol_a, vol_a, cong_a = _ieee14_case("a")
    zetas = [sol_a.zeta[n][m] for n, m in scn_a.directed_pairs()]
    spread = max(zetas) - min(zetas)
    _, sol_b, vol_b, cong_b = _ieee14_case("b")
    _, sol_c, _, _ = _ieee14_case("c")
    _, sol_d, _, _ = _ieee14_case("d")
    gap_c = max(abs(sol_c.q[m][n] - sol_a.q[m][n])
                for n, m in scn_a.directed_pairs())
    gap_d = max(abs(sol_d.q[m][n] - sol_a.q[m][n])
                for n, m in scn_a.directed_pairs())
    ok = (spread <= 1e-5 and not cong_a and vol_b > vol_a and cong_b
          and gap_c <= 1e-4 and gap_d <= 1e-4)
    record_acceptance(
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - uniform costs: trade "
        f"price spread {spread:.1e}, {len(cong_a)} congested lines; "
        f"heterogeneous: volume {vol_b:.1f} > {vol_a:.1f}, "
        f"{len(cong_b)} congested lines; symmetric/local variants match "
        f"uniform trades within {max(gap_c, gap_d):.1e}")
    assert ok


def test_criterion_6_kkt_suite(three_node):
    rng = np.random.default_rng(2024)
    failures = 0
    checked = 0
    worst_stat = 0.0
    worst_comp = 0.0

    def examine(scn, sol):
        nonlocal failures, checked, worst_stat, worst_comp
        checked += 1
        res = sol.kkt_residuals
        worst_stat = max(worst_stat, res["stationarity"])
        worst_comp = max(worst_comp, res["complementarity"])
        bad = (res["stationarity"] > 1e-6 or res["complementarity"] > 1e-6
               or st.check_congestion_unilateral(scn, sol))
        failures += bool(bad)

    for _ in range(200):
        scn = random_scenario(rng)
        examine(scn, market.solve_centralized(scn))
    for _ in range(20):
        omega = eq.OmegaVector(
            {(1, 0): float(rng.uniform(0, 100)),
             (2, 0): float(rng.uniform(0, 100)),
             (2, 1): float(rng.uniform(0, 100))})
        examine(three_node,
                eq.solve_parameterized(three_node, omega).solution)
    ok = failures == 0
    record_acceptance(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} - {checked} solutions "
        f"checked, {failures} failures (worst stationarity "
        f"{worst_stat:.1e}, worst mult*slack {worst_comp:.1e})")
    assert ok


def test_criterion_7_planted_cycles(three_node):
    rng = np.random.default_rng(42)
    verified = 0
    total = 50
    for _ in range(total):
        scn, ring = planted_negative_cycle(rng)
        cycles = [c for c in st.detect_preference_cycles(scn)
                  if c.sign == "negative" and set(c.nodes) == set(ring)]
        sol = market.solve_centralized(scn)
        if cycles and st.verify_cycle_congestion(scn, cycles[0],
                                                 sol).verified:
            verified += 1
    weight = st.cycle_weight(three_node, (0, 1, 2))
    ok = verified == total and weight == -1.0
    record_acceptance(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} - {verified}/{total} "
        f"planted negative cycles produced an opposed at-capacity trade; "
        f"benchmark cycle weight {weight} (exactly -1)")
    assert ok


def _random_error_model(scn, rng):
    sd, sg, cv = {}, {}, {}
    for n, m in scn.directed_pairs():
        sd[(n, m)] = float(rng.uniform(0.0, 0.8))
        sg[(n, m)] = float(rng.uniform(0.0, 0.8))
        cv[(n, m)] = float(rng.uniform(-1.2, 1.2)) * sd[(n, m)] * sg[(n, m)]
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return privacy.clamp_error_model(sd, sg, cv)


def test_criterion_8_privacy_bias(three_node):
    rng = np.random.default_rng(99)
    r0 = privacy.default_r(three_node)
    models = [privacy.three_node_error_model()]
    models += [_random_error_model(three_node, rng) for _ in range(20)]
    mc_fail = 0
    dom_fail = 0
    for i, em in enumerate(models):
        closed = privacy.expected_bias(three_node, em, r0)
        mc = privacy.monte_carlo_bias(three_node, em, r0, 10 ** 5, seed=i)
        for n in three_node.node_ids:
            gap = abs(mc[n]["mean"] - closed[n])
            if gap > 3 * mc[n]["stderr"] and mc[n]["stderr"] > 0:
                mc_fail += 1
        phi = privacy.phi_bound(three_node, em,
                                {0: 1.0, 1: 0.5, 2: 0.5},
                                {0: 1.0, 1: 2.0, 2: 2.0})
        for _ in range(100):
            r = {0: 1.0, 1: float(rng.uniform(0.5, 2.0)),
                 2: float(rng.uniform(0.5, 2.0))}
            eb = privacy.expected_bias(three_node, em, r)
            if any(abs(eb[n]) > phi[n] + 1e-12 for n in eb):
                dom_fail += 1

    p1 = three_node.prosumer(1)
    flat = privacy._with_utility(three_node, 1, p1.a, p1.b_tilde)
    zero_exact = privacy.expected_bias(flat, models[0],
                                       privacy.default_r(flat))[1] == 0.0

    surface = privacy.bias_vs_utility_params(
        three_node, models[0], a1_values=np.linspace(5, 25, 3),
        a2_values=np.linspace(5, 25, 3),
        r_lo={0: 1.0, 1: 0.5, 2: 0.5}, r_hi={0: 1.0, 1: 2.0, 2: 2.0})
    pct = [row["percent_of_sw"] for row in surface["surface"]
           if row["percent_of_sw"] is not None]

    ok = mc_fail == 0 and dom_fail == 0 and zero_exact
    record_acceptance(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - {len(models)} error "
        f"models: {mc_fail} Monte-Carlo mismatches, {dom_fail} bound "
        f"violations; equal-curvature bias exactly zero: {zero_exact}; "
        f"welfare share of the bound {min(pct):.4f}%..{max(pct):.4f}% "
        f"(soft target 1.2%..3.6%, reported only)")
    assert ok


def test_criterion_9_qp_oracle():
    rng = np.random.default_rng(314)
    worst_gap = 0.0
    worst_fd = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        M = rng.normal(size=(n, n))
        P = M.T @ M + 0.1 * np.eye(n)
        r = rng.normal(size=n)
        lo = -np.abs(rng.uniform(0.5, 2.0, size=n))
        hi = np.abs(rng.uniform(0.5, 2.0, size=n))
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([hi, -lo])
        prob = qp.QpProblem(P, r, A_ineq=A, b_ineq=b)
        sol = qp.solve(prob)
        assert sol.status == "optimal"
        _, ref = brute_force_oracle(prob, (lo, hi), passes=5)
        worst_gap = max(worst_gap, abs(sol.objective - ref))

        x = rng.uniform(lo, hi)
        grad = P @ x + r
        h = 1e-6
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd = (prob.objective(x + step) - prob.objective(x - step)) / (2 * h)
            rel = abs(fd - grad[i]) / (1 + abs(grad[i]))
            worst_fd = max(worst_fd, rel)
    ok = worst_gap <= 1e-3 and worst_fd <= 1e-4
    record_acceptance(
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - 50 random QPs vs the "
        f"grid oracle, worst objective gap {worst_gap:.2e} (<= 1e-3); "
        f"worst finite-difference gradient error {worst_fd:.2e} (<= 1e-4)")
    assert ok


def test_uniform_costs_zeta_spread_without_regularization():
    # stronger companion to criterion 5: with no regularization the solver
    # returns literally one shared trade price on the uniform-cost case
    scn = sc.ieee14_cost_case("a")
    sol = market.solve_centralized(scn)
    zetas = [sol.zeta[n][m] for n, m in scn.directed_pairs()]
    assert max(zetas) - min(zetas) <= 1e-6
