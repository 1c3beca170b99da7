"""Data model, builtins, serialization, and validation."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_scenario
from peertrade import market, scenario as sc


@pytest.fixture(scope="module")
def three_node():
    return sc.builtin("three_node")


@pytest.fixture(scope="module")
def ieee14():
    return sc.builtin("ieee14")


def test_three_node_reference_parameters(three_node):
    scn = three_node
    assert scn.n_nodes == 3
    assert [scn.prosumer(n).d_star for n in (0, 1, 2)] == [6.0, 3.0, 3.0]
    assert [scn.prosumer(n).a_tilde for n in (0, 1, 2)] == [5.0, 15.0, 10.0]
    assert [scn.prosumer(n).delta_g for n in (0, 1, 2)] == [0.0, 3.0, 5.0]
    assert scn.kappa(0, 1) == scn.kappa(0, 2) == 10.0
    assert scn.kappa(1, 2) == 5.0
    for n in (0, 1, 2):
        assert (scn.prosumer(n).d_min, scn.prosumer(n).d_max) == (0.0, 10.0)
    assert (scn.prosumer(0).a, scn.prosumer(0).b) == (4.0, 30.0)
    assert (scn.prosumer(0).g_min, scn.prosumer(0).g_max) == (0.0, 10.0)
    for n in (1, 2):
        assert scn.prosumer(n).g_min == scn.prosumer(n).g_max == 0.0
    # preference prices: c(buyer, seller)
    assert scn.c(1, 0) == 3.0 and scn.c(0, 1) == 1.0
    assert scn.c(2, 0) == 2.0 and scn.c(0, 2) == 1.0
    assert scn.c(1, 2) == 1.0 and scn.c(2, 1) == 1.0


def test_three_node_validates_without_errors(three_node):
    findings = three_node.validate()
    assert [v for v in findings if v.severity == "error"] == []
    # the benchmark usage parameters do imply negative benefit at high
    # demand, which the validator points out
    assert {v.code for v in findings} == {"usage_window"}


def test_ieee14_shape_and_reference_fields(ieee14):
    scn = ieee14
    assert scn.n_nodes == 14
    assert len(scn.links) == 20
    assert scn.prosumer(3).d_star == 12.55
    assert abs(sum(p.delta_g for p in scn.prosumers.values()) - 28.39) < 0.01
    assert abs(sum(p.d_star for p in scn.prosumers.values()) - 69.94) < 0.01
    assert any(p.assumed for p in scn.prosumers.values())
    errors = [v for v in scn.validate() if v.severity == "error"]
    assert errors == []
    warned = {v.code for v in scn.validate()}
    assert "assumed_params" in warned


def test_c_tilde_antisymmetric(three_node):
    for lo, hi in three_node.links:
        assert three_node.c_tilde(lo, hi) == -three_node.c_tilde(hi, lo)
    assert three_node.c_tilde(1, 0) == 2.0


def test_neighbors_and_directed_pairs(three_node):
    assert three_node.neighbors(0) == (1, 2)
    assert three_node.neighbors(1) == (0, 2)
    pairs = list(three_node.directed_pairs())
    assert len(pairs) == 6
    assert (1, 0) in pairs and (0, 1) in pairs


def test_unknown_builtin():
    with pytest.raises(KeyError, match="unknown builtin"):
        sc.builtin("five_node")


def test_roundtrip_preserves_everything(three_node):
    text = sc.dumps_scenario(three_node)
    back = sc.loads_scenario(text)
    assert back == three_node
    assert sc.dumps_scenario(back) == text


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_roundtrip_random_scenarios(seed):
    scn = random_scenario(np.random.default_rng(seed))
    assert sc.loads_scenario(sc.dumps_scenario(scn)) == scn


def test_load_save_files(tmp_path, three_node):
    path = tmp_path / "scn.json"
    sc.save_scenario(three_node, path)
    assert sc.load_scenario(path) == three_node
    with pytest.raises(OSError):
        sc.load_scenario(tmp_path / "nope.json")


def test_malformed_json_reports_location():
    good = json.loads(sc.dumps_scenario(sc.builtin("three_node")))

    bad = dict(good)
    bad["prosumers"] = [dict(good["prosumers"][0], id="zero")] + good["prosumers"][1:]
    with pytest.raises(sc.ScenarioFormatError):
        sc.loads_scenario(json.dumps(bad))

    bad = dict(good)
    bad["links"] = [dict(good["links"][0], extra_field=1)] + good["links"][1:]
    with pytest.raises(sc.ScenarioFormatError, match="extra_field"):
        sc.loads_scenario(json.dumps(bad))

    bad = dict(good, schema_version=99)
    with pytest.raises(sc.ScenarioFormatError, match="schema_version"):
        sc.loads_scenario(json.dumps(bad))

    # json.dumps writes NaN and Infinity, and json.loads reads them back.
    for value in (float("nan"), float("inf"), -float("inf")):
        bad = dict(good)
        bad["prosumers"] = [dict(good["prosumers"][0], delta_g=value)] + good["prosumers"][1:]
        with pytest.raises(sc.ScenarioFormatError, match=r"prosumers\[0\]\.delta_g"):
            sc.loads_scenario(json.dumps(bad))
        bad = dict(good)
        bad["links"] = [dict(good["links"][0], kappa=value)] + good["links"][1:]
        with pytest.raises(sc.ScenarioFormatError, match=r"links\[0\]\.kappa"):
            sc.loads_scenario(json.dumps(bad))


_GOOD = json.loads(sc.dumps_scenario(sc.builtin("three_node")))


def _doc(drop=(), **top) -> str:
    """three_node's JSON with top-level fields replaced or dropped."""
    doc = {k: v for k, v in dict(_GOOD, **top).items() if k not in drop}
    return json.dumps(doc)


def _entry(kind, i, drop=(), **fields) -> str:
    """three_node's JSON with one prosumer or link entry changed."""
    entries = [dict(e) for e in _GOOD[kind]]
    entries[i] = {k: v for k, v in dict(entries[i], **fields).items()
                  if k not in drop}
    return _doc(**{kind: entries})


def _rebuilt(prosumers=None, links=None):
    """three_node built in Python with some prosumer or link entries replaced."""
    base = sc.builtin("three_node")
    return dataclasses.replace(base, prosumers={**base.prosumers, **(prosumers or {})},
                               links={**base.links, **(links or {})})


def _link(n, m, c_mn=1.0):
    return sc.TradeLink(n=n, m=m, kappa=5.0, c_nm=1.0, c_mn=c_mn)


@pytest.mark.parametrize("make,message", [
    # loads_scenario: structural errors raise ScenarioFormatError.
    (lambda: "[]", r"top level: expected a JSON object"),
    (lambda: _doc(extra=1), r"top level: unknown field\(s\) \['extra'\]"),
    (lambda: _doc(drop=("links",)), r"top level: missing field 'links'"),
    (lambda: _doc(name=3), r"name: expected a string"),
    (lambda: _doc(units=None), r"units: expected a string"),
    (lambda: _doc(prosumers={}), r"prosumers: expected a list"),
    (lambda: _doc(links="0-1"), r"links: expected a list"),
    (lambda: _doc(prosumers=[1]), r"prosumers\[0\]: expected an object"),
    (lambda: _doc(links=[[0, 1]]), r"links\[0\]: expected an object"),
    (lambda: _doc(prosumers=_GOOD["prosumers"] + _GOOD["prosumers"][:1]),
     r"prosumers\[3\]\.id: duplicate id 0"),
    (lambda: _entry("links", 1, m=0), r"links\[1\]: self-link on node 0"),
    (lambda: _doc(links=_GOOD["links"] + _GOOD["links"][:1]),
     r"links\[3\]: pair \(0, 1\) already has a link"),
    (lambda: _entry("prosumers", 2, drop=("a",)),
     r"prosumers\[2\]: missing field\(s\) \['a'\]"),
    (lambda: _entry("links", 0, assumed="yes"),
     r"links\[0\]\.assumed: expected true or false"),
    # Scenario.validate(): a scenario built in Python reports errors as data.
    (lambda: _rebuilt(prosumers={1: sc.builtin("three_node").prosumer(2)}),
     r"id_key_mismatch: \[error\] node 1: stored under id 1 but carries id 2"),
    (lambda: _rebuilt(links={(0, 1): _link(1, 2)}),
     r"pair_key_mismatch: \[error\] link \(0, 1\): stored under \(0, 1\) "
     r"but connects \(1, 2\)"),
    (lambda: _rebuilt(links={(2, 9): _link(2, 9)}),
     r"unknown_endpoint: \[error\] link \(2, 9\): endpoint 9 is not a prosumer id"),
    (lambda: _rebuilt(links={(0, 2): _link(0, 2, c_mn=0.0)}),
     r"nonpositive_price: \[error\] link \(0, 2\): c_mn=0.0 must be strictly "
     r"positive"),
    (lambda: _rebuilt(links={(1, 1): _link(1, 1)}),
     r"self_link: \[error\] link \(1, 1\): links node 1 to itself"),
])
def test_loader_and_validation_error_messages(make, message):
    made = make()
    if isinstance(made, str):
        with pytest.raises(sc.ScenarioFormatError, match=message):
            sc.loads_scenario(made)
    else:
        found = [f"{v.code}: {v}" for v in made.validate()]
        assert any(re.fullmatch(message, f) for f in found), found


def test_self_link_built_in_python_is_rejected():
    scn = _rebuilt(links={(1, 1): _link(1, 1)})
    assert [v.code for v in scn.validate() if v.severity == "error"] == ["self_link"]
    with pytest.raises(ValueError, match="links node 1 to itself"):
        market.solve_centralized(scn)


def test_repeated_id_or_pair_in_a_python_list_is_rejected():
    # The constructor holds the loader's rule, with its messages.
    base = sc.builtin("three_node")
    prosumers, links = list(base.prosumers.values()), list(base.links.values())
    with pytest.raises(sc.ScenarioFormatError,
                       match=r"^prosumers\[3\]\.id: duplicate id 0$"):
        sc.Scenario(name="dup", prosumers=prosumers + prosumers[:1], links=links)
    with pytest.raises(sc.ScenarioFormatError,
                       match=r"^links\[3\]: pair \(0, 1\) already has a link; "):
        sc.Scenario(name="dup", prosumers=prosumers, links=links + links[:1])
    rebuilt = sc.Scenario(name=base.name, prosumers=prosumers, links=links,
                          units=base.units)
    assert rebuilt == base


def _single_node_scenario(**overrides):
    fields = dict(id=0, d_min=0.0, d_max=10.0, g_min=0.0, g_max=5.0,
                  d_star=3.0, a_tilde=5.0, b_tilde=180.0, a=2.0, b=1.0,
                  d=0.0, delta_g=0.0)
    fields.update(overrides)
    return sc.Scenario(name="t", units="MWh",
                       prosumers=[sc.ProsumerParams(**fields)], links=[])


@pytest.mark.parametrize("override,code", [
    (dict(d_min=4.0, d_max=2.0), "demand_bounds"),
    (dict(g_min=3.0, g_max=1.0), "generation_bounds"),
    (dict(d_min=-1.0), "negative_bound"),
    (dict(a=0.0), "curvature"),
    (dict(a_tilde=-2.0), "curvature"),
    (dict(delta_g=-0.5), "negative_infeed"),
    (dict(b_tilde=-1.0), "negative_benefit_cap"),
    (dict(delta_g=float("nan")), "non_finite"),
    (dict(d=float("inf")), "non_finite"),
    (dict(b=-float("inf")), "non_finite"),
])
def test_prosumer_validation_errors(override, code):
    scn = _single_node_scenario(**override)
    codes = {v.code for v in scn.validate() if v.severity == "error"}
    assert code in codes


def test_link_validation_errors(three_node):
    links = list(three_node.links.values())
    links[0] = dataclasses.replace(links[0], kappa=-1.0, c_nm=0.0)
    scn = sc.Scenario(name="bad", units="MWh",
                      prosumers=[three_node.prosumer(n)
                                 for n in three_node.node_ids],
                      links=links)
    codes = {v.code for v in scn.validate() if v.severity == "error"}
    assert {"negative_capacity", "nonpositive_price"} <= codes
    links[0] = dataclasses.replace(links[0], kappa=1.0, c_nm=1.0, c_mn=float("inf"))
    scn = dataclasses.replace(scn, links=links)
    assert [v.code for v in scn.validate() if v.severity == "error"] == ["non_finite"]


def test_non_finite_field_is_a_validation_error(three_node):
    # Built in Python, not loaded from JSON: validate() is the only guard.
    bad = dataclasses.replace(three_node.prosumer(0), delta_g=float("nan"))
    scn = dataclasses.replace(three_node, prosumers={**three_node.prosumers, 0: bad})
    assert [v.code for v in scn.validate() if v.severity == "error"] == ["non_finite"]
    with pytest.raises(ValueError, match="is invalid.*delta_g=nan"):
        market.assemble(scn)


def test_missing_root_flagged():
    base = sc.builtin("three_node")
    pros = [dataclasses.replace(base.prosumer(n), id=n + 1)
            for n in base.node_ids]
    links = [dataclasses.replace(l, n=l.n + 1, m=l.m + 1)
             for l in base.links.values()]
    scn = sc.Scenario(name="rootless", units="MWh", prosumers=pros,
                      links=links)
    codes = {v.code for v in scn.validate()}
    assert "missing_root" in codes


def test_disconnected_warning():
    base = sc.builtin("three_node")
    extra = dataclasses.replace(base.prosumer(1), id=7)
    scn = sc.Scenario(name="island", units="MWh",
                      prosumers=[base.prosumer(n) for n in base.node_ids]
                      + [extra],
                      links=list(base.links.values()))
    codes = {v.code for v in scn.validate()}
    assert "disconnected" in codes


def test_usage_window_warning():
    scn = _single_node_scenario(d_star=0.0, b_tilde=20.0, d_max=10.0)
    codes = {v.code for v in scn.validate()}
    assert "usage_window" in codes


def test_with_costs_replaces_only_named_pairs(three_node):
    out = sc.with_costs(three_node, {(1, 0): 7.5})
    assert out.c(1, 0) == 7.5
    assert out.c(0, 1) == three_node.c(0, 1)
    assert out.c(2, 0) == three_node.c(2, 0)
    assert three_node.c(1, 0) == 3.0, "original untouched"


@pytest.mark.parametrize("costs, pair", [
    ({(5, 0): 3.0, (1, 1): 2.0}, r"\(5, 0\)"),   # a node the scenario lacks
    ({(1, 0): 7.5, (1, 1): 2.0}, r"\(1, 1\)"),   # a self pair
])
def test_with_costs_rejects_pairs_without_a_link(three_node, costs, pair):
    with pytest.raises(ValueError, match=f"cost pair {pair} names no link"):
        sc.with_costs(three_node, costs)


def test_ieee14_cost_cases():
    a = sc.ieee14_cost_case("a")
    assert all(a.c(lo, hi) == a.c(hi, lo) == 1.0 for lo, hi in a.links)
    b = sc.ieee14_cost_case("b")
    assert b == sc.builtin("ieee14")
    c = sc.ieee14_cost_case("c")
    assert all(c.c(lo, hi) == c.c(hi, lo) for lo, hi in c.links)
    d = sc.ieee14_cost_case("d")
    for lo, hi in d.links:
        if lo == 0:
            assert d.c(hi, 0) == 3.0 and d.c(0, hi) == 1.0
        else:
            assert d.c(lo, hi) == d.c(hi, lo) == 1.0
    with pytest.raises(KeyError, match="cost case"):
        sc.ieee14_cost_case("z")


def test_kappa_symmetric_and_c_lookup_errors(three_node):
    assert three_node.kappa(1, 0) == three_node.kappa(0, 1)
    with pytest.raises(KeyError):
        three_node.c(0, 5)
    assert not three_node.has_link(1, 1)
