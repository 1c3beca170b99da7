"""Reporting-error bias: closed forms, the upper bound, and Monte Carlo."""

import warnings

import numpy as np
import pytest

from peertrade import privacy, scenario as sc
from peertrade.privacy import (ErrorModel, PrivacyError, clamp_error_model,
                               three_node_error_model)

R_LO = {0: 1.0, 1: 0.5, 2: 0.5}
R_HI = {0: 1.0, 1: 2.0, 2: 2.0}


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


@pytest.fixture(scope="module")
def errors():
    return three_node_error_model()


def test_alpha(three_node):
    assert privacy.alpha(three_node, 0) == pytest.approx(0.35, abs=1e-12)
    assert privacy.alpha(three_node, 1) == pytest.approx(100.0 + 1.0 / 30.0,
                                                         abs=1e-10)
    assert privacy.alpha(three_node, 2) == pytest.approx(100.05, abs=1e-12)


def test_clamping_emits_one_warning_per_repair(three_node, errors):
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        em = clamp_error_model(
            {(0, 1): 0.2, (0, 2): 0.2, (1, 0): 0.3, (1, 2): 0.8,
             (2, 0): 0.8, (2, 1): 0.1},
            {(0, 1): 0.2, (0, 2): 0.5, (1, 0): 0.0, (1, 2): 0.5,
             (2, 0): 0.0, (2, 1): 0.8},
            {(0, 1): -0.2, (0, 2): -0.3, (1, 0): -0.8, (1, 2): 0.5,
             (2, 0): 1.0, (2, 1): 0.0})
    assert len(wlist) == 5
    T = [sum(em.term(n, m) for m in three_node.neighbors(n))
         for n in (0, 1, 2)]
    assert T == pytest.approx([0.09, 1.78, 1.29], abs=1e-12)
    # the packaged model is the clamped one, minus the warnings
    assert em.sigma_d == errors.sigma_d
    assert em.cov == errors.cov


def test_rho_uniform_r(three_node):
    rho = privacy.compute_rho(three_node, privacy.default_r(three_node))
    for n in (0, 1, 2):
        assert rho[n] == pytest.approx(0.0049891900881, abs=1e-10)


def test_beta(three_node, errors):
    b = privacy.beta(three_node, errors)
    assert b[0] == pytest.approx(0.0045, abs=1e-12)
    assert b[1] == pytest.approx(177.88133333333334, abs=1e-8)
    assert b[2] == pytest.approx(128.871, abs=1e-9)


def test_expected_bias(three_node, errors):
    eb = privacy.expected_bias(three_node, errors,
                               privacy.default_r(three_node))
    assert eb[0] == pytest.approx(5.6007e-8, abs=1e-11)
    assert eb[1] == pytest.approx(0.00221391, abs=5e-9)
    assert eb[2] == pytest.approx(0.00160393, abs=5e-9)


def test_phi_bound(three_node, errors):
    phi = privacy.phi_bound(three_node, errors, R_LO, R_HI)
    assert phi[0] == pytest.approx(2.232e-7, abs=1e-9)
    assert phi[1] == pytest.approx(0.00567214, abs=1e-7)
    assert phi[2] == pytest.approx(0.00410852, abs=1e-7)


def test_phi_dominates_bias_inside_box(three_node, errors):
    phi = privacy.phi_bound(three_node, errors, R_LO, R_HI)
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = {0: 1.0, 1: rng.uniform(0.5, 2.0), 2: rng.uniform(0.5, 2.0)}
        eb = privacy.expected_bias(three_node, errors, r)
        for n in (0, 1, 2):
            assert abs(eb[n]) <= phi[n] + 1e-12


def test_monte_carlo_matches_closed_form(three_node, errors):
    eb = privacy.expected_bias(three_node, errors,
                               privacy.default_r(three_node))
    mc = privacy.monte_carlo_bias(three_node, errors,
                                  privacy.default_r(three_node),
                                  10 ** 5, seed=1)
    for n in (0, 1, 2):
        gap = abs(mc[n]["mean"] - eb[n])
        assert gap <= 3 * mc[n]["stderr"] or mc[n]["stderr"] == 0


def test_monte_carlo_deterministic(three_node, errors):
    r = privacy.default_r(three_node)
    a = privacy.monte_carlo_bias(three_node, errors, r, 2000, seed=3)
    b = privacy.monte_carlo_bias(three_node, errors, r, 2000, seed=3)
    assert a == b
    c = privacy.monte_carlo_bias(three_node, errors, r, 2000, seed=4)
    assert c != a


def test_equal_curvatures_give_exactly_zero(three_node, errors):
    p1 = three_node.prosumer(1)
    scn = privacy._with_utility(three_node, 1, p1.a, p1.b_tilde)
    eb = privacy.expected_bias(scn, errors, privacy.default_r(scn))
    assert eb[1] == 0.0
    mc = privacy.monte_carlo_bias(scn, errors, privacy.default_r(scn), 1000)
    assert mc[1]["mean"] == 0.0
    assert mc[1]["stderr"] == 0.0


def test_zero_noise_gives_zero_bias(three_node):
    em0 = ErrorModel(sigma_d={}, sigma_g={}, cov={})
    mc = privacy.monte_carlo_bias(three_node, em0,
                                  privacy.default_r(three_node), 1000)
    assert all(mc[n]["mean"] == 0.0 for n in mc)


def test_validation_errors(three_node, errors):
    with pytest.raises(PrivacyError, match="clamp_error_model"):
        ErrorModel(sigma_d={(0, 1): 0.1}, sigma_g={(0, 1): 0.1},
                   cov={(0, 1): 0.5})
    with pytest.raises(PrivacyError):
        privacy.monte_carlo_bias(three_node, errors,
                                 privacy.default_r(three_node), 10)
    with pytest.raises(PrivacyError):
        privacy.compute_rho(three_node, {0: 1.0, 1: -0.5, 2: 1.0})
    with pytest.raises(PrivacyError):
        privacy.phi_bound(three_node, errors,
                          {0: 1, 1: 2, 2: 1}, {0: 1, 1: 0.5, 2: 1})


@pytest.mark.parametrize("field", ["sigma_d", "sigma_g", "cov"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_error_model_rejected(field, value):
    model = {"sigma_d": {(0, 1): 0.2}, "sigma_g": {(0, 1): 0.2},
             "cov": {(0, 1): 0.0}}
    model[field] = {(0, 1): value}
    with pytest.raises(PrivacyError, match=rf"{field}\[\(0, 1\)\] = .* is not finite"):
        ErrorModel(**model)
    with pytest.raises(PrivacyError, match="is not finite"):
        clamp_error_model(**model)


@pytest.mark.parametrize("field", ["sigma_d", "sigma_g", "cov"])
def test_error_model_pair_ids_must_be_integers(field):
    model = {"sigma_d": {}, "sigma_g": {}, "cov": {}}
    model[field] = {(1.5, 0): 0.0}
    with pytest.raises(PrivacyError,
                       match=rf"{field}\[\(1\.5, 0\)\]: node ids must be two integers"):
        ErrorModel(**model)
    model[field] = [((1, 0), 0.0), ((1.0, 0.0), 0.0)]
    with pytest.raises(PrivacyError,
                       match=rf"{field}\[\(1\.0, 0\.0\)\]: pair \(1, 0\) is given twice"):
        clamp_error_model(**model)
    model[field] = {(1.0, 0.0): 0.0}
    assert ErrorModel(**model).pairs() == ((1, 0),)


def test_bias_report_rejects_a_pair_with_no_link(three_node):
    for pair in ((0, 7), (1, 1)):
        em = ErrorModel(sigma_d={pair: 0.2}, sigma_g={}, cov={})
        with pytest.raises(PrivacyError, match=rf"error model pair \({pair[0]}, {pair[1]}\) "
                                               "is not a directed link of scenario 'three_node'"):
            privacy.bias_report(three_node, em, samples=1000)


@pytest.mark.parametrize("field", ["sigma_d", "sigma_g"])
def test_negative_sigma_rejected_before_clamping(field):
    # The covariance 0.0 sits above the bound -0.2 * 0.2: checking it first
    # would warn of a clamp to 0.0 before the negative sigma is seen.
    model = {"sigma_d": {(0, 1): 0.2}, "sigma_g": {(0, 1): 0.2},
             "cov": {(0, 1): 0.0}}
    model[field] = {(0, 1): -0.2}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PrivacyError, match=rf"{field}\[\(0, 1\)\] = -0.2 is negative"):
            clamp_error_model(**model)
    assert caught == []


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_ratio_rejected(three_node, errors, value):
    r = {0: 1.0, 1: value, 2: 1.0}
    with pytest.raises(PrivacyError, match=r"r\[1\] = .* is not a finite"):
        privacy.compute_rho(three_node, r)
    with pytest.raises(PrivacyError, match="is not a finite"):
        privacy.phi_bound(three_node, errors, privacy.default_r(three_node), r)


def test_bias_monotone_in_own_ratio(three_node, errors):
    prev = None
    for rn in (0.5, 1.0, 1.5, 2.0):
        e = privacy.expected_bias(three_node, errors,
                                  {0: 1.0, 1: rn, 2: 1.0})[1]
        if prev is not None:
            assert e > prev
        prev = e


def test_surface_over_utility_curvatures(three_node, errors):
    res = privacy.bias_vs_utility_params(
        three_node, errors,
        a1_values=np.linspace(5, 25, 3), a2_values=np.linspace(5, 25, 3),
        r_lo=R_LO, r_hi=R_HI)
    assert len(res["surface"]) == 9
    assert all(row["percent_of_sw"] > 0 for row in res["surface"])
    assert res["max"]["phi_sum"] >= res["min"]["phi_sum"]


def test_report_bundle(three_node, errors):
    rep = privacy.bias_report(three_node, errors, r_lo=R_LO, r_hi=R_HI,
                              samples=2000, seed=5)
    d = rep.to_dict()
    assert set(d) == {"rho", "beta", "expected_bias", "phi", "mc_mean",
                      "mc_stderr", "samples"}
    assert rep.samples == 2000
    # without a box the bound collapses onto the point estimate
    rep2 = privacy.bias_report(three_node, errors, samples=1000)
    for n in (0, 1, 2):
        assert rep2.phi[n] == pytest.approx(abs(rep2.expected_bias[n]),
                                            abs=1e-15)
