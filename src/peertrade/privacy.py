"""Utility bias induced by forecasting neighbors' private data.

When target demands and renewable infeeds are private, each agent
forecasts its neighbors' values with zero-mean Gaussian errors and
clears its local problem on the forecast prices.  The resulting
deviation of agent n's decisions is linear in the aggregate error
S_n = sum over neighbors of (demand error + generation error), scaled by
rho_n(r), the agent's share of aggregate market flexibility.  The
expected utility gap has the closed form

    E[bias_n] = -1/2 (1/a~_n - 1/a_n) rho_n(r)^2 E[S_n^2],

with E[S_n^2] = sum of (sigma_d^2 + sigma_g^2 + 2 cov) over the agent's
pairs.  The Monte-Carlo check samples exactly that quadratic statistic;
the linear terms of the utility expansion average to zero and are only
bracketed, not pinned, by the deviation model, so they are left out.
A node with a~ = a has zero bias identically.

``r`` is the per-node ratio of the two sides' trade valuations against
the root (1 at the variational equilibrium); all analysis here takes it
as an input rather than recomputing an equilibrium.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import market
from .scenario import Scenario, _pair_keyed

DEFAULT_MC_CHUNK = 1 << 16   # chunk size is part of the seeding contract
MIN_MC_SAMPLES = 1000        # the smallest run monte_carlo_bias accepts
_SURFACE_NODES = (1, 2)      # bias_vs_utility_params: the two traded nodes
_SURFACE_B_TILDE = 60.0      # bias_vs_utility_params: their usage-benefit cap


class PrivacyError(ValueError):
    """Raised for invalid error models, ratio vectors, or boxes."""


def _floats(mp, label: str) -> dict:
    """``mp`` keyed by integer ``(n, m)`` pairs, with float values.  A
    non-integral, bool or repeated pair, a value that is not a real number,
    NaN or infinity raises PrivacyError."""
    out = {}
    for key, v in _pair_keyed(mp, PrivacyError, label).items():
        v = float(v)
        if not math.isfinite(v):
            raise PrivacyError(f"{label}[{key}] = {v} is not finite")
        out[key] = v
    return out


@dataclass(frozen=True)
class ErrorModel:
    """Per-(n, m) Gaussian forecast error model.

    ``sigma_d[(n, m)]`` is the standard deviation of agent n's error on
    m's target demand, ``sigma_g`` the same for m's renewable infeed,
    and ``cov`` their covariance.  Pairs are directed (n forecasts m) and
    keyed by integer node ids (a non-integral or bool id, a value that is
    not a real number or a pair given twice raises ``PrivacyError``);
    missing pairs mean error-free forecasts.
    Covariances must respect the Cauchy-Schwarz bound; use
    :func:`clamp_error_model` for data that does not.
    """

    sigma_d: Mapping
    sigma_g: Mapping
    cov: Mapping

    def __post_init__(self):
        def clean(mp, label, allow_negative):
            out = {}
            for key, v in _floats(mp, label).items():
                if not allow_negative and v < 0:
                    raise PrivacyError(f"{label}[{key}] = {v} is negative")
                out[key] = v
            return out

        sd = clean(self.sigma_d, "sigma_d", False)
        sg = clean(self.sigma_g, "sigma_g", False)
        cv = clean(self.cov, "cov", True)
        for pair, c in cv.items():
            bound = sd.get(pair, 0.0) * sg.get(pair, 0.0)
            if abs(c) > bound + 1e-12:
                raise PrivacyError(
                    f"cov[{pair}] = {c} violates the Cauchy-Schwarz bound "
                    f"{bound:.6g}; clamp_error_model() can fix the data")
        object.__setattr__(self, "sigma_d", sd)
        object.__setattr__(self, "sigma_g", sg)
        object.__setattr__(self, "cov", cv)

    def pairs(self) -> tuple:
        keys = set(self.sigma_d) | set(self.sigma_g) | set(self.cov)
        return tuple(sorted(keys))

    def term(self, n: int, m: int) -> float:
        """E[(eps_d + eps_g)^2] for the pair: sigma_d^2 + sigma_g^2 + 2cov."""
        p = (n, m)
        return (self.sigma_d.get(p, 0.0) ** 2 + self.sigma_g.get(p, 0.0) ** 2
                + 2.0 * self.cov.get(p, 0.0))


def clamp_error_model(sigma_d, sigma_g, cov) -> ErrorModel:
    """Build an ErrorModel, clamping covariances to the feasible bound.

    Every clamped pair triggers a warning: a covariance beyond
    sigma_d*sigma_g does not describe any joint Gaussian, so the nearest
    feasible value is the best available reading of such data.  The
    standard deviations are checked first, so invalid ones raise
    ``PrivacyError`` before any clamp or warning.
    """
    sd = _floats(sigma_d, "sigma_d")
    sg = _floats(sigma_g, "sigma_g")
    ErrorModel(sigma_d=sd, sigma_g=sg, cov={})
    cv = {}
    for k, v in _floats(cov, "cov").items():
        bound = sd.get(k, 0.0) * sg.get(k, 0.0)
        if abs(v) > bound:
            clamped = math.copysign(bound, v) if bound > 0 else 0.0
            warnings.warn(
                f"covariance for pair {k} clamped from {v} to {clamped} "
                f"(Cauchy-Schwarz bound {bound:.6g})", stacklevel=2)
            v = clamped
        cv[k] = v
    return ErrorModel(sigma_d=sd, sigma_g=sg, cov=cv)


def three_node_error_model() -> ErrorModel:
    """The demo error model used with the three_node scenario.

    Several covariances in the source data exceed what the stated
    standard deviations allow and get clamped (with warnings) to the
    nearest feasible values.
    """
    sigma_d = {(0, 1): 0.2, (0, 2): 0.2,
               (1, 0): 0.3, (1, 2): 0.8,
               (2, 0): 0.8, (2, 1): 0.1}
    sigma_g = {(0, 1): 0.2, (0, 2): 0.5,
               (1, 0): 0.0, (1, 2): 0.5,
               (2, 0): 0.0, (2, 1): 0.8}
    cov = {(0, 1): -0.2, (0, 2): -0.3,
           (1, 0): -0.8, (1, 2): 0.5,
           (2, 0): 1.0, (2, 1): 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return clamp_error_model(sigma_d, sigma_g, cov)


@dataclass(frozen=True)
class BiasReport:
    """Per-node bias summary; every field maps node id to a value."""

    rho: dict
    beta: dict
    expected_bias: dict
    phi: dict
    mc_mean: dict
    mc_stderr: dict
    samples: int

    def to_dict(self) -> dict:
        def num(mp):
            return {str(k): mp[k] for k in sorted(mp)}
        return {"rho": num(self.rho), "beta": num(self.beta),
                "expected_bias": num(self.expected_bias),
                "phi": num(self.phi), "mc_mean": num(self.mc_mean),
                "mc_stderr": num(self.mc_stderr), "samples": self.samples}


def alpha(scenario: Scenario, n: int) -> float:
    """Flexibility coefficient 1/(2 a~_n) + 1/a_n."""
    p = scenario.prosumer(n)
    return 1.0 / (2.0 * p.a_tilde) + 1.0 / p.a


def default_r(scenario: Scenario) -> dict:
    """The variational-equilibrium ratio vector, r identically 1."""
    return {n: 1.0 for n in scenario.node_ids}


def compute_rho(scenario: Scenario, r: Mapping) -> dict:
    """rho_n(r) = r_n / (alpha_0 + sum over root neighbors of alpha_m r_m)."""
    denom = alpha(scenario, 0)
    for m in scenario.neighbors(0):
        rm = _ratio(r, m)
        denom += alpha(scenario, m) * rm
    if denom <= 0:
        raise PrivacyError(
            f"flexibility denominator {denom:.6g} is not positive; "
            "the scenario's utility curvatures are degenerate")
    return {n: _ratio(r, n) / denom for n in scenario.node_ids}


def _ratio(r: Mapping, n: int) -> float:
    try:
        v = float(r[n])
    except KeyError:
        raise PrivacyError(f"ratio vector has no entry for node {n}") from None
    if not (math.isfinite(v) and v >= 0):
        raise PrivacyError(f"ratio r[{n}] = {v} is not a finite nonnegative number")
    return v


def _check_pairs(scenario: Scenario, errors: ErrorModel) -> None:
    """Raise ``PrivacyError`` unless every model pair is a directed link of
    ``scenario``; :func:`beta` and :func:`monte_carlo_bias` read a model
    against a scenario, and every other analysis reads it through them."""
    for n, m in errors.pairs():
        if not scenario.has_link(n, m):
            raise PrivacyError(f"error model pair {(n, m)} is not a directed link "
                               f"of scenario '{scenario.name}'")


def beta(scenario: Scenario, errors: ErrorModel) -> dict:
    """beta_n = -(1/a~_n - 1/a_n) * sum of error terms over n's neighbors."""
    _check_pairs(scenario, errors)
    out = {}
    for n in scenario.node_ids:
        p = scenario.prosumer(n)
        total = sum(errors.term(n, m) for m in scenario.neighbors(n))
        out[n] = -(1.0 / p.a_tilde - 1.0 / p.a) * total
    return out


def expected_bias(scenario: Scenario, errors: ErrorModel, r: Mapping) -> dict:
    """Closed-form E[estimated utility - true utility] per node."""
    rho = compute_rho(scenario, r)
    b = beta(scenario, errors)
    return {n: 0.5 * rho[n] ** 2 * b[n] for n in scenario.node_ids}


def _check_box(scenario: Scenario, r_lo: Mapping, r_hi: Mapping) -> None:
    """Raise ``PrivacyError`` unless every node's [r_lo, r_hi] is a box of
    finite nonnegative ratios."""
    for n in scenario.node_ids:
        lo, hi = _ratio(r_lo, n), _ratio(r_hi, n)
        if lo > hi:
            raise PrivacyError(f"invalid box for node {n}: [{lo}, {hi}]")


def phi_bound(scenario: Scenario, errors: ErrorModel,
              r_lo: Mapping, r_hi: Mapping) -> dict:
    """Upper bound Phi_n on |expected bias| over an r box.

    rho_n^2 increases in r_n and decreases in every other component, so
    the bound evaluates rho at r_n = r_hi[n] with all other components
    at their lows.
    """
    _check_box(scenario, r_lo, r_hi)
    b = beta(scenario, errors)
    out = {}
    for n in scenario.node_ids:
        r_eval = {m: _ratio(r_lo, m) for m in scenario.node_ids}
        r_eval[n] = _ratio(r_hi, n)
        rho_n = compute_rho(scenario, r_eval)[n]
        out[n] = 0.5 * abs(b[n]) * rho_n ** 2
    return out


def _pair_draw(errors: ErrorModel, pair, rng, count: int) -> np.ndarray:
    """One chunk of eps_d + eps_g for a pair, from the 2x2 Gaussian."""
    sd = errors.sigma_d.get(pair, 0.0)
    sg = errors.sigma_g.get(pair, 0.0)
    cv = errors.cov.get(pair, 0.0)
    u = rng.standard_normal(count)
    if sd > 0:
        resid = max(sg ** 2 - (cv / sd) ** 2, 0.0)
        eps_d = sd * u
        eps_g = (cv / sd) * u + math.sqrt(resid) * rng.standard_normal(count)
    else:
        eps_d = np.zeros(count)
        eps_g = sg * rng.standard_normal(count)
    return eps_d + eps_g


def _check_samples(samples: int) -> None:
    """Raise ``PrivacyError`` unless :func:`monte_carlo_bias` accepts ``samples``."""
    if samples < MIN_MC_SAMPLES:
        raise PrivacyError(f"need at least {MIN_MC_SAMPLES} samples, got {samples}")


def monte_carlo_bias(scenario: Scenario, errors: ErrorModel, r: Mapping,
                     samples: int, seed: int = 0) -> dict:
    """Sampled mean and standard error of the utility bias per node.

    Errors are drawn independently across pairs from each pair's 2x2
    covariance; chunk c of ``DEFAULT_MC_CHUNK`` samples uses the stream
    seeded by (seed, c), and running means/variances are merged across
    chunks, so results depend only on (seed, samples).
    """
    _check_pairs(scenario, errors)
    _check_samples(samples)
    rho = compute_rho(scenario, r)
    nodes = scenario.node_ids
    coef = {}
    for n in nodes:
        p = scenario.prosumer(n)
        coef[n] = -0.5 * (1.0 / p.a_tilde - 1.0 / p.a) * rho[n] ** 2

    count = 0
    mean = {n: 0.0 for n in nodes}
    m2 = {n: 0.0 for n in nodes}
    chunk_index = 0
    while count < samples:
        b = min(DEFAULT_MC_CHUNK, samples - count)
        rng = np.random.default_rng([seed, chunk_index])
        for n in nodes:
            s = np.zeros(b)
            for m in scenario.neighbors(n):
                s += _pair_draw(errors, (n, m), rng, b)
            vals = coef[n] * s * s
            # Chan-style merge of (count, mean, M2) with the chunk's stats.
            cm = float(vals.mean())
            cm2 = float(((vals - cm) ** 2).sum())
            delta = cm - mean[n]
            tot = count + b
            mean[n] += delta * b / tot
            m2[n] += cm2 + delta * delta * count * b / tot
        count += b
        chunk_index += 1

    out = {}
    for n in nodes:
        var = m2[n] / (count - 1) if count > 1 else 0.0
        out[n] = {"mean": mean[n], "stderr": math.sqrt(max(var, 0.0) / count)}
    return out


def bias_report(scenario: Scenario, errors: ErrorModel,
                r_lo: Optional[Mapping] = None,
                r_hi: Optional[Mapping] = None,
                samples: int = 10 ** 5, seed: int = 0) -> BiasReport:
    """Closed form, bound, and Monte-Carlo check in one bundle.

    The point estimates are taken at the VE vector r (all ones); by
    default the box degenerates to it, making phi equal |expected_bias|
    exactly.
    """
    r = default_r(scenario)
    if r_lo is None:
        r_lo = dict(r)
    if r_hi is None:
        r_hi = dict(r)
    mc = monte_carlo_bias(scenario, errors, r, samples, seed)
    return BiasReport(
        rho=compute_rho(scenario, r),
        beta=beta(scenario, errors),
        expected_bias=expected_bias(scenario, errors, r),
        phi=phi_bound(scenario, errors, r_lo, r_hi),
        mc_mean={n: mc[n]["mean"] for n in mc},
        mc_stderr={n: mc[n]["stderr"] for n in mc},
        samples=samples)


def _with_utility(scenario: Scenario, node: int, a_tilde: float,
                  b_tilde: float) -> Scenario:
    """Copy with one node's usage parameters replaced, D* = sqrt(b~/a~)."""
    pros = []
    for n in scenario.node_ids:
        p = scenario.prosumer(n)
        if n == node:
            p = dataclasses.replace(p, a_tilde=a_tilde, b_tilde=b_tilde,
                                    d_star=math.sqrt(b_tilde / a_tilde))
        pros.append(p)
    return Scenario(name=scenario.name, units=scenario.units,
                    prosumers=pros, links=list(scenario.links.values()))


def bias_vs_utility_params(scenario: Scenario, errors: ErrorModel,
                           a1_values: Sequence, a2_values: Sequence,
                           r_lo: Mapping, r_hi: Mapping) -> dict:
    """Phi sum surface over the two traded nodes' utility curvatures.

    The two nodes of ``_SURFACE_NODES`` share the usage-benefit cap
    ``_SURFACE_B_TILDE`` and get their target demand recomputed as
    sqrt(b_tilde / a_tilde); the bound is taken over the box [r_lo, r_hi].
    Each point also reports the bound as a percent of that point's optimal
    social welfare (the normalization is stated in the output, since
    percent figures are meaningless without it).
    """
    n1, n2 = _SURFACE_NODES
    rows = []
    for a1 in a1_values:
        for a2 in a2_values:
            scn = _with_utility(_with_utility(scenario, n1, float(a1), _SURFACE_B_TILDE),
                                n2, float(a2), _SURFACE_B_TILDE)
            phi = phi_bound(scn, errors, r_lo, r_hi)
            phi_sum = phi[n1] + phi[n2]
            sw = market.solve_centralized(scn).sw
            rows.append({"a_tilde_1": float(a1), "a_tilde_2": float(a2),
                         "phi_sum": phi_sum,
                         "percent_of_sw": 100.0 * phi_sum / sw if sw > 0 else None})
    best = min(rows, key=lambda d: d["phi_sum"])
    worst = max(rows, key=lambda d: d["phi_sum"])
    return {
        "surface": rows,
        "min": best,
        "max": worst,
        "normalization": ("percent_of_sw = 100 * phi_sum / optimal social "
                          "welfare of the modified scenario"),
    }

