"""Variational equilibrium and the omega-parameterized equilibrium family."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_scenario
from peertrade import equilibrium as eq
from peertrade import market, qp, scenario as sc
from reference_points import (BUYER_SIDE, OMEGA_BUYER_SIDE, REFERENCE,
                              agent_reports, max_gap)

VE_SW = 19842.0 / 55.0
GNE_SW = 5111.0 / 20.0
BUYER_SIDE_SW = 5311.0 / 20.0
# one interior point of the equilibrium family: prices (1, 90, 18),
# trades q[0][1]=2, q[1][2]=5, q[2][0]=7.9
OMEGA_STAR = {(1, 0): 87.0, (2, 0): 16.0, (1, 2): 80.0}
FIG_SUPPORT = ((1, 0), (2, 0), (1, 2))


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


@pytest.fixture(scope="module")
def ve(three_node):
    return eq.solve_ve(three_node)


@pytest.fixture(scope="module")
def gne_star(three_node):
    return eq.solve_parameterized(three_node, eq.OmegaVector(OMEGA_STAR))


def test_ve_matches_centralized(three_node, ve):
    cen = market.solve_centralized(three_node)
    assert ve.sw == pytest.approx(VE_SW, rel=1e-10)
    assert ve.sw == pytest.approx(cen.sw, rel=1e-9)
    for n in three_node.node_ids:
        assert ve.lam[n] == pytest.approx(cen.lam[n], abs=1e-7)
    assert ve.lam[0] == pytest.approx(233.0 / 11.0, abs=1e-8)
    assert ve.lam[1] == pytest.approx(255.0 / 11.0, abs=1e-8)
    assert ve.lam[2] == pytest.approx(244.0 / 11.0, abs=1e-8)


def test_zero_omega_reproduces_ve(three_node, ve):
    z = eq.solve_parameterized(three_node, eq.OmegaVector({}))
    assert z.is_gne
    assert z.violation == 0.0
    assert z.sw == pytest.approx(ve.sw, rel=1e-9)


def test_parameterized_solve_builds_its_problem_once(three_node, monkeypatch):
    # The omega shift is a linear term for qp.solve_batch, not a second
    # QpProblem, so P's PSD check runs once.
    calls = {"build": 0, "eigvalsh": 0}
    build, eigvalsh = qp.QpProblem.__post_init__, np.linalg.eigvalsh

    def counting_build(self):
        calls["build"] += 1
        build(self)

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(qp.QpProblem, "__post_init__", counting_build)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    eq.solve_parameterized(three_node, eq.OmegaVector(OMEGA_STAR))
    assert calls == {"build": 1, "eigvalsh": 1}


def test_known_equilibrium_point(gne_star):
    sol = gne_star.solution
    assert gne_star.is_gne
    assert sol.q[0][1] == pytest.approx(2.0, abs=1e-7)
    assert sol.q[1][2] == pytest.approx(5.0, abs=1e-7)
    assert sol.q[2][0] == pytest.approx(7.9, abs=1e-7)
    assert sol.lam[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.lam[1] == pytest.approx(90.0, abs=1e-7)
    assert sol.lam[2] == pytest.approx(18.0, abs=1e-7)
    assert sol.D[0] == pytest.approx(5.9, abs=1e-7)
    assert sol.D[1] == pytest.approx(0.0, abs=1e-7)
    assert sol.D[2] == pytest.approx(2.1, abs=1e-7)
    assert gne_star.sw == pytest.approx(GNE_SW, abs=1e-7)


def test_recovered_multipliers_carry_omega(gne_star):
    zh = gne_star.recovered_zeta
    assert zh[1][0] == pytest.approx(87.0, abs=1e-6)
    assert zh[2][0] == pytest.approx(16.0, abs=1e-6)
    assert zh[0][1] == pytest.approx(0.0, abs=1e-6)
    assert zh[0][2] == pytest.approx(0.0, abs=1e-6)
    # selling directions at this point have zero recovered multiplier, so
    # every ratio denominator is under the guard and r stays empty
    assert gne_star.r == {}


def test_price_identity_all_pairs(three_node, gne_star):
    sol = gne_star.solution
    for n, m in three_node.directed_pairs():
        rhs = (gne_star.recovered_zeta[n][m] + three_node.c(n, m)
               + sol.xi[n][m])
        assert sol.lam[n] == pytest.approx(rhs, abs=1e-5)


def test_r_relation_where_defined(three_node, gne_star):
    for n, rn in gne_star.r.items():
        assert rn * gne_star.recovered_zeta[0][n] == pytest.approx(
            gne_star.recovered_zeta[n][0], abs=1e-6)


def test_agent_kkt_at_equilibria(three_node, ve, gne_star):
    for n in three_node.node_ids:
        rep = eq.check_agent_kkt(three_node, gne_star.solution, n)
        assert rep.max_residual <= 1e-5
        rep_ve = eq.check_agent_kkt(three_node, ve, n)
        assert rep_ve.max_residual <= 1e-5


@pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
def test_agent_kkt_rejects_a_bad_ridge(three_node, ve, ridge):
    # Nodes 0 and 2 have no purchase at capacity, so no ridge row uses the
    # value; node 1's does.
    for n in three_node.node_ids:
        with pytest.raises(ValueError, match=f"ridge must be finite and >= 0, got {ridge}"):
            eq.check_agent_kkt(three_node, ve, n, ridge=ridge)


def test_agent_kkt_recovers_reference_multipliers(three_node, gne_star):
    rep1 = eq.check_agent_kkt(three_node, gne_star.solution, 1)
    rep2 = eq.check_agent_kkt(three_node, gne_star.solution, 2)
    assert rep1.zeta[0] == pytest.approx(87.0, abs=1e-3)
    assert rep2.zeta[1] == pytest.approx(17.0, abs=1e-3)
    assert rep1.lam == pytest.approx(90.0, abs=1e-6)
    assert rep2.lam == pytest.approx(18.0, abs=1e-6)


def test_reference_point_outside_buyer_side_family(three_node):
    # node 1 sells 5 to node 2 below its cap: xi_12 is pinned to 0 and
    # its reciprocity price is 89; node 2 buys them at the cap, so its
    # zeta_21 + xi_21 is 17.  The default support puts omega >= 0 on
    # (2, 1) only, which keeps zeta_21 >= zeta_12, so it cannot reach this.
    pt = REFERENCE
    assert market.social_welfare(three_node, pt.D, pt.G, pt.q) == \
        pytest.approx(GNE_SW, abs=1e-9)
    assert pt.q[2][1] < three_node.kappa(1, 2)
    assert pt.q[1][2] == three_node.kappa(2, 1)
    rep = agent_reports(three_node, pt)
    assert max(r.max_residual for r in rep.values()) <= 1e-12
    assert [rep[n].lam for n in (0, 1, 2)] == pytest.approx([1, 90, 18])
    assert rep[1].zeta == pytest.approx({0: 87.0, 2: 89.0})
    assert rep[1].xi[2] == 0.0
    assert rep[2].zeta[1] + rep[2].xi[1] == pytest.approx(17.0)


def test_buyer_side_point_on_default_support(three_node, ve):
    pt = BUYER_SIDE
    sw = market.social_welfare(three_node, pt.D, pt.G, pt.q)
    assert sw == pytest.approx(BUYER_SIDE_SW, abs=1e-9)
    assert ve.sw / sw == pytest.approx(1.35855, abs=1e-5)
    rep = agent_reports(three_node, pt)
    assert max(r.max_residual for r in rep.values()) <= 1e-12
    assert [rep[n].lam for n in (0, 1, 2)] == pytest.approx([1, 90, 18])
    assert rep[0].zeta == pytest.approx({1: 0.0, 2: 0.0}, abs=1e-12)
    assert rep[1].zeta[0] == pytest.approx(87.0)
    assert rep[2].zeta[0] == pytest.approx(16.0)
    # node 1 buys its 5 from node 2 at the cap, so its 89 may sit on
    # xi_12 with zeta_12 = 0; node 2 sells below its cap, zeta_21 = 17
    assert pt.q[2][1] == three_node.kappa(1, 2)
    assert rep[1].zeta[2] + rep[1].xi[2] == pytest.approx(89.0)
    assert rep[2].xi[1] == 0.0
    assert rep[2].zeta[1] == pytest.approx(17.0)
    # with the shared zeta at 0 the default support reaches the point
    assert sorted(OMEGA_BUYER_SIDE) == sorted(eq.default_support(three_node))
    s = eq.solve_parameterized(three_node, eq.OmegaVector(OMEGA_BUYER_SIDE))
    assert s.is_gne
    assert max_gap(s.solution, pt) <= 1e-7


def test_agent_kkt_rejects_perturbed_point(three_node):
    base = market.solve_centralized(three_node)
    bad_D = dict(base.D)
    bad_D[1] += 0.5
    bad = dataclasses.replace(base, D=bad_D, kind="gne")
    rep = eq.check_agent_kkt(three_node, bad, 1)
    assert rep.max_residual > 1e-3


def test_axis_sweep_finds_worst_case(three_node, ve):
    strategy = eq.AxisStrategy(values=[0.0, 16.0, 80.0, 87.0],
                               support=list(FIG_SUPPORT))
    samples = eq.sweep_gne(three_node, strategy)
    assert len(samples) == 15
    sws = sorted(x.sw for x in samples)
    assert sws[0] == pytest.approx(GNE_SW, abs=1e-3)
    assert sws[-1] == pytest.approx(ve.sw, abs=1e-3)
    bound = eq.poa_bound(samples, ve.sw)
    assert bound["poa_lower_bound"] == pytest.approx(VE_SW / GNE_SW,
                                                     abs=1e-6)
    worst = min(samples, key=lambda x: x.sw)
    assert dict(worst.omega.items()) == OMEGA_STAR


def test_sweep_matches_individual_resolves(three_node):
    strategy = eq.AxisStrategy(values=[0.0, 40.0],
                               support=list(FIG_SUPPORT))
    samples = eq.sweep_gne(three_node, strategy)
    for smp in samples:
        redo = eq.solve_parameterized(three_node, smp.omega)
        assert redo.sw == pytest.approx(smp.sw, abs=1e-7)
        for n in three_node.node_ids:
            assert redo.solution.D[n] == pytest.approx(smp.solution.D[n],
                                                       abs=1e-6)


def test_random_strategy_deterministic(three_node):
    a = eq.sweep_gne(three_node,
                     eq.RandomStrategy(count_=30, seed=5,
                                       support=list(FIG_SUPPORT)))
    b = eq.sweep_gne(three_node,
                     eq.RandomStrategy(count_=30, seed=5,
                                       support=list(FIG_SUPPORT)))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert dict(x.omega.items()) == dict(y.omega.items())
        assert x.sw == y.sw


def test_default_support_excludes_selling_into_pair(three_node):
    # the default support takes omega[n][m] for n > m only
    strategy = eq.GridStrategy(0.0, 10.0, 10.0)
    samples = eq.sweep_gne(three_node, strategy)
    supports = {pair for s in samples for pair in s.omega.items()}
    for (n, m), _ in supports:
        assert n > m


def test_csv_exports(three_node):
    strategy = eq.AxisStrategy(values=[0.0, 16.0, 80.0, 87.0],
                               support=list(FIG_SUPPORT))
    samples = eq.sweep_gne(three_node, strategy)
    txt = eq.samples_to_csv(samples, three_node, support=FIG_SUPPORT)
    header = txt.splitlines()[0]
    assert header.startswith("omega[1][0],omega[2][0],omega[1][2],sw")
    assert len(txt.splitlines()) == len(samples) + 1
    cloud = eq.point_cloud_csv(samples, three_node)
    assert cloud.splitlines()[0] == "q01,q12,q20"
    assert len(cloud.splitlines()) == len(samples) + 1
    with pytest.raises(ValueError, match="3-node ring"):   # ieee14 has no 0-1 link
        eq.point_cloud_csv([], sc.builtin("ieee14"))


@pytest.mark.parametrize("strategy", [eq.GridStrategy(0.0, 10.0, 5.0),
                                      eq.AxisStrategy(values=[0.0, 1.0]),
                                      eq.RandomStrategy(count_=3)])
def test_sweep_without_links(strategy):
    # No links: the support is empty and every strategy has one point,
    # the empty omega vector, whose equilibrium is the VE.
    node = sc.ProsumerParams(id=0, d_min=0.0, d_max=8.0, g_min=0.0, g_max=10.0,
                             d_star=5.0, a_tilde=4.0, b_tilde=100.0, a=1.0,
                             b=5.0, d=0.0, delta_g=1.0)
    scn = sc.Scenario(name="one_node", units="MWh", prosumers=[node], links=[])
    samples = eq.sweep_gne(scn, strategy)
    assert len(samples) == 1
    assert samples[0].sw == pytest.approx(eq.solve_ve(scn).sw, abs=1e-9)


def test_budget_guard(three_node):
    with pytest.raises(eq.OmegaError, match="raise the budget explicitly"):
        eq.sweep_gne(three_node, eq.GridStrategy(0.0, 100.0, 1.0),
                     budget=100)
    # The grid's length is counted, not built: 1e14 + 1 values per axis.
    huge = eq.GridStrategy(0.0, 100.0, 1e-12)
    assert huge.count(3) == (10 ** 14 + 1) ** 3
    with pytest.raises(eq.OmegaError, match="over the budget of 1000000"):
        eq.sweep_gne(three_node, huge)


def test_negative_omega_rejected():
    with pytest.raises(ValueError, match="negative"):
        eq.OmegaVector({(1, 0): -1.0})


def test_non_finite_omega_rejected(three_node):
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="negative or not finite"):
            eq.OmegaVector({(1, 0): w})
    for values in ((0.0, np.nan), (0.0, np.inf), (-1.0,)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            eq.sweep_gne(three_node, eq.AxisStrategy(values))


def test_omega_pair_ids_must_be_integers():
    # (1.5, 0) once landed on (1, 0); a pair given twice kept its last weight.
    with pytest.raises(eq.OmegaError,
                       match=r"omega\[\(1\.5, 0\)\]: node ids must be two integers"):
        eq.OmegaVector({(1.5, 0): 3.0})
    with pytest.raises(eq.OmegaError,
                       match=r"omega\[\(1\.0, 0\.0\)\]: pair \(1, 0\) is given twice"):
        eq.OmegaVector([((1, 0), 3.0), ((1.0, 0.0), 5.0)])
    for key in ((1, 0, 2), "10", (np.nan, 0)):
        with pytest.raises(eq.OmegaError, match="node ids must be two integers"):
            eq.OmegaVector({key: 1.0})
    omega = eq.OmegaVector({(np.int64(1), 0.0): 3.0})
    assert omega.entries == {(1, 0): 3.0}
    assert all(type(v) is int for v in omega.support[0])


def test_repeated_support_pair_rejected(three_node):
    strategy = eq.AxisStrategy((0.0, 50.0), support=((1, 0), (1, 0)))
    with pytest.raises(eq.OmegaError, match="listed twice"):
        eq.sweep_gne(three_node, strategy)


def _assert_rows_match(part, full, rows):
    """The first len(rows) rows of batch ``part`` are rows ``rows`` of ``full``."""
    k = len(rows)
    for name in ("x", "mult_ineq", "mult_eq", "mult_lb", "mult_ub"):
        np.testing.assert_allclose(getattr(part, name)[:k], getattr(full, name)[rows],
                                   rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_array_equal(part.status_code[:k], full.status_code[rows])
    np.testing.assert_array_equal(part.iterations[:k], full.iterations[rows])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from([0.0, 10.0, 50.0, 100.0])
                            | st.floats(0.0, 100.0)] * 3),
                min_size=2, max_size=12),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
def test_batch_rows_solve_as_if_alone(W, seed, size):
    # A row's answer depends only on its own omega: not on the rows next
    # to it, their order, or an extreme row in the same batch.
    scn = sc.builtin("three_node")
    problem, idx = market.assemble(scn)
    cols = eq._omega_columns(idx, eq.default_support(scn))
    R = eq._linear_terms(problem, np.array(W), cols)
    full = qp.solve_batch(problem, R)
    for i in range(len(R)):
        _assert_rows_match(qp.solve_batch(problem, R[i:i + 1]), full, [i])
    perm = np.random.default_rng(seed).permutation(len(R))
    for start in range(0, len(R), size):
        rows = perm[start:start + size]
        _assert_rows_match(qp.solve_batch(problem, R[rows]), full, rows)
    extended = qp.solve_batch(problem, np.vstack([R, problem.r + 1e4]))
    _assert_rows_match(extended, full, np.arange(len(R)))


def test_grid_rows_land_on_their_face(three_node):
    # Polish moves each converged row onto its active face, flat faces
    # included, so complementarity holds to rounding.
    problem, idx = market.assemble(three_node)
    support = eq.default_support(three_node)
    cols = eq._omega_columns(idx, support)
    W = eq.GridStrategy(0.0, 100.0, 10.0).generate(support)   # 11^3 points
    R = eq._linear_terms(problem, W, cols)
    batch = qp.solve_batch(problem, R)
    assert (batch.status_code == 0).all()
    landed = batch.kkt_residuals["complementarity"] <= 1e-12
    assert landed.mean() >= 0.99, f"{landed.sum()} of {len(R)} rows"


def test_ieee14_rows_land_on_their_face():
    # The random ieee14 batch (250 omega points in [0, 5], seed 0): polish
    # lands 139 rows on their face; the rest keep the raw iterate, whose
    # face point crosses a row outside the guessed active set.
    scn = sc.ieee14_cost_case("b")
    problem, idx = market.assemble(scn)
    support = eq.default_support(scn)
    W = eq.RandomStrategy(250, low=0.0, high=5.0, seed=0).generate(support)
    R = eq._linear_terms(problem, W, eq._omega_columns(idx, support))
    batch = qp.solve_batch(problem, R)
    assert (batch.status_code == 0).all()
    landed = batch.kkt_residuals["complementarity"] <= 1e-12
    assert landed.sum() >= 139, f"{landed.sum()} of {len(R)} rows"


def test_learned_faces_claim_grid_rows_with_the_same_answer(three_node):
    # The odd points of the 11^3 grid lie between the even ones.  Solved
    # with the faces learned on the even points, most of them are claimed
    # on a learned face (0 iterations) and get the answer the iterations
    # give; the rest are solved as without faces.
    problem, idx = market.assemble(three_node)
    support = eq.default_support(three_node)
    cols = eq._omega_columns(idx, support)
    W = eq.GridStrategy(0.0, 100.0, 10.0).generate(support)
    R = eq._linear_terms(problem, W, cols)
    faces = {}
    qp.solve_batch(problem, R[::2], faces=faces)
    reuse = qp.solve_batch(problem, R[1::2], faces=faces)
    plain = qp.solve_batch(problem, R[1::2])
    claimed = reuse.iterations == 0
    assert claimed.mean() >= 0.4, f"{claimed.sum()} of {len(claimed)} rows"
    assert (reuse.status_code[claimed] == 0).all()
    for name in ("x", "mult_ineq", "mult_eq", "mult_lb", "mult_ub"):
        a, b = getattr(reuse, name), getattr(plain, name)
        np.testing.assert_allclose(a[claimed], b[claimed], rtol=0, atol=1e-10,
                                   err_msg=name)
        np.testing.assert_allclose(a[~claimed], b[~claimed], rtol=0, atol=1e-12,
                                   err_msg=name)
    np.testing.assert_array_equal(reuse.status_code, plain.status_code)
    np.testing.assert_array_equal(reuse.iterations[~claimed], plain.iterations[~claimed])


SOLUTION_FIELDS = ("x", "mult_ineq", "mult_eq", "mult_lb", "mult_ub")


def _omega_rows(scn, W):
    """The market QP of ``scn`` and one linear term per omega point of ``W``."""
    problem, idx = market.assemble(scn)
    cols = eq._omega_columns(idx, eq.default_support(scn))
    return problem, eq._linear_terms(problem, W, cols)


def test_grid_claims_take_at_most_one_face_row_solve_per_claimed_row(three_node,
                                                                     monkeypatch):
    # The 21^3 grid sweep claims rows by each learned face's stored map,
    # built once by a face solve of n + 1 rows, so the face solver inside
    # the claims solves fewer rows than are claimed; and every claimed row
    # gets the answer of the faces-free solve.
    solved, batches = [0], []
    claim, solve_batch = qp._claim, qp.solve_batch

    def counting_claim(P, R, G, h, A, b, face, *rest):
        def counting_face(Rf, *args):
            solved[0] += len(Rf)
            return face(Rf, *args)
        return claim(P, R, G, h, A, b, counting_face, *rest)

    def recording_solve_batch(problem, R, *args, **kwargs):
        batch = solve_batch(problem, R, *args, **kwargs)
        batches.append((problem, R, batch))
        return batch

    monkeypatch.setattr(qp, "_claim", counting_claim)
    monkeypatch.setattr(qp, "solve_batch", recording_solve_batch)
    eq.sweep_gne(three_node, eq.GridStrategy(0.0, 100.0, 5.0))
    monkeypatch.undo()
    problem = batches[0][0]
    R = np.vstack([rows[batch.iterations == 0] for _, rows, batch in batches])
    assert len(R) == 4594
    assert 0 < solved[0] <= len(R), f"{solved[0]} face rows for {len(R)} claims"
    plain = qp.solve_batch(problem, R)
    assert (plain.status_code == 0).all()
    for name in SOLUTION_FIELDS:
        claimed = np.vstack([getattr(batch, name)[batch.iterations == 0]
                             for _, _, batch in batches])
        np.testing.assert_allclose(claimed, getattr(plain, name), rtol=0, atol=1e-10,
                                   err_msg=name)


@pytest.mark.parametrize("pair,kappa", [((0, 2), 9.0), ((1, 2), 4.0)])
def test_faces_reused_on_another_capacity_claim_only_true_optima(three_node,
                                                                 pair, kappa):
    # Faces and their maps learned on three_node, reused on a copy with
    # one link capacity changed: the same inequality rows with another
    # right-hand side, so the maps are stale.  A row is still claimed only
    # with the faces-free answer; every other row goes to the IPM.
    W = eq.GridStrategy(0.0, 100.0, 10.0).generate(eq.default_support(three_node))
    problem, R = _omega_rows(three_node, W)
    faces = {}
    qp.solve_batch(problem, R[::4], faces=faces)
    qp.solve_batch(problem, R[2::4], faces=faces)   # claims, so builds the maps
    assert faces and all(fmap is not None for fmap in faces.values())
    links = dict(three_node.links)
    links[pair] = dataclasses.replace(links[pair], kappa=kappa)
    other, R = _omega_rows(dataclasses.replace(three_node, links=links), W[1::2])
    reuse = qp.solve_batch(other, R, faces=faces)
    plain = qp.solve_batch(other, R)
    claimed = reuse.iterations == 0
    assert claimed.any() == (pair == (0, 2)), f"{claimed.sum()} of {len(R)} rows"
    np.testing.assert_array_equal(reuse.status_code, plain.status_code)
    np.testing.assert_array_equal(reuse.iterations[~claimed], plain.iterations[~claimed])
    for name in SOLUTION_FIELDS:
        a, b = getattr(reuse, name), getattr(plain, name)
        np.testing.assert_allclose(a[claimed], b[claimed], rtol=0, atol=1e-10,
                                   err_msg=name)
        np.testing.assert_allclose(a[~claimed], b[~claimed], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_random_ieee14_sweep_keeps_no_face_that_claims_nothing(monkeypatch):
    # Random ieee14 points rarely share an optimal face: every face polish
    # learns here claims no row on its first try and is dropped, so the
    # store is empty after each claim (without the drop rule it holds 2, 2
    # and 4 faces after the three claims).
    sizes, claim = [], qp._claim

    def recording_claim(P, R, G, h, A, b, face, scale, faces, *rest):
        left = claim(P, R, G, h, A, b, face, scale, faces, *rest)
        sizes.append(len(faces))
        return left

    monkeypatch.setattr(qp, "_claim", recording_claim)
    monkeypatch.setattr(eq, "_BATCH_SIZE", 128)
    eq.sweep_gne(sc.ieee14_cost_case("b"), eq.RandomStrategy(512, high=5.0, seed=0))
    assert sizes and not any(sizes), sizes


def test_sweep_independent_of_batch_size(three_node, monkeypatch):
    # 6^3 points; batches of one solve each point alone.
    strategy = eq.GridStrategy(0.0, 100.0, 20.0)
    sws = []
    for size in (1, 7, 1024):
        monkeypatch.setattr(eq, "_BATCH_SIZE", size)
        sws.append(sorted(s.sw for s in eq.sweep_gne(three_node, strategy)))
    assert len(sws[0]) == len(sws[1]) == len(sws[2]) > 0
    np.testing.assert_allclose(sws[0], sws[2], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sws[1], sws[2], rtol=0, atol=1e-9)


def test_grid_strategy_stops_at_stop():
    assert eq.GridStrategy(0.0, 100.0, 40.0).values == (0.0, 40.0, 80.0)
    assert len(eq.GridStrategy(0.0, 100.0, 5.0).values) == 21
    assert len(eq.GridStrategy(0.0, 0.3, 0.1).values) == 4
    assert eq.GridStrategy(2.0, 2.0, 1.0).values == (2.0,)
    for start, stop in ((10.0, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="empty or not finite"):
            eq.GridStrategy(start, stop, 1.0)
    with pytest.raises(eq.OmegaError, match="positive"):
        eq.GridStrategy(0.0, 10.0, 0.0)
    with pytest.raises(eq.OmegaError, match="too long to count"):
        eq.GridStrategy(0.0, 100.0, 1e-320)


def test_random_strategy_needs_a_positive_count():
    for count in (0, -3):
        with pytest.raises(eq.OmegaError, match=f"positive sample count, got {count}"):
            eq.RandomStrategy(count)


def test_epsilon_comp_scale(three_node):
    assert eq.epsilon_comp(three_node) == pytest.approx(1.1e-5)


def test_ve_on_random_scenarios_matches_centralized():
    rng = np.random.default_rng(11)
    for _ in range(5):
        scn = random_scenario(rng)
        ve = eq.solve_ve(scn)
        cen = market.solve_centralized(scn)
        assert ve.sw == pytest.approx(cen.sw, rel=1e-7)
        for n in scn.node_ids:
            assert ve.D[n] == pytest.approx(cen.D[n], abs=1e-5)
