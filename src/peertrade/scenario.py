"""Scenario data model for peer-to-peer energy trading markets.

A scenario is a set of prosumers (node 0 is the grid connection, called the
root) plus bilateral trade links.  Each prosumer has a quadratic usage
benefit ``-a_tilde * (D - d_star)**2 + b_tilde`` over demand ``D`` in
``[d_min, d_max]``, a quadratic generation cost ``0.5*a*G**2 + b*G + d``
over ``G`` in ``[g_min, g_max]``, and an exogenous renewable infeed
``delta_g``.  Each link carries a symmetric capacity ``kappa`` and a pair
of directed trading prices ``c_nm`` (what ``n`` pays per unit bought from
``m``) and ``c_mn``.

Scenarios are value objects: loading, validating, and saving never mutate
them, and validation reports problems as data instead of raising.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from typing import Iterator, Mapping

SCHEMA_VERSION = 1

BUILTIN_NAMES = ("three_node", "ieee14")


class ScenarioFormatError(ValueError):
    """Raised when scenario JSON cannot be parsed into a Scenario.

    The message includes the JSON path of the offending field (for
    structural problems) or the line and column (for syntax errors).
    """


@dataclass(frozen=True)
class ProsumerParams:
    """Static parameters of one market participant."""

    id: int
    d_min: float
    d_max: float
    g_min: float
    g_max: float
    d_star: float
    a_tilde: float
    b_tilde: float
    a: float
    b: float
    d: float
    delta_g: float
    assumed: bool = False

    def usage_benefit(self, demand: float) -> float:
        return -self.a_tilde * (demand - self.d_star) ** 2 + self.b_tilde

    def generation_cost(self, generation: float) -> float:
        return 0.5 * self.a * generation**2 + self.b * generation + self.d


@dataclass(frozen=True)
class TradeLink:
    """Bilateral trade link between prosumers ``n`` and ``m``.

    ``kappa`` caps the trade in either direction.  ``c_nm`` is the price
    agent ``n`` attaches to each unit it buys from ``m``; ``c_mn`` the
    reverse.  Both prices must be strictly positive.
    """

    n: int
    m: int
    kappa: float
    c_nm: float
    c_mn: float
    assumed: bool = False

    @property
    def pair(self) -> tuple[int, int]:
        """Unordered endpoint pair, smaller id first."""
        return (self.n, self.m) if self.n < self.m else (self.m, self.n)

    def price(self, buyer: int) -> float:
        """Price the given endpoint attaches to its purchases on this link."""
        if buyer == self.n:
            return self.c_nm
        if buyer == self.m:
            return self.c_mn
        raise KeyError(f"node {buyer} is not an endpoint of link {self.pair}")


@dataclass(frozen=True)
class Violation:
    """One validation finding.  ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.subject}: {self.message}"


def _keyed(items, key, clash: str) -> dict:
    """``items`` as a dict by ``key(item)``.  A mapping is taken as it is;
    a key repeated in a sequence raises ``ScenarioFormatError`` with
    ``clash`` formatted by the item's index ``i`` and its key ``k``."""
    if isinstance(items, Mapping):
        return dict(items)
    out = {}
    for i, item in enumerate(items):
        k = key(item)
        if k in out:
            raise ScenarioFormatError(clash.format(i=i, k=k))
        out[k] = item
    return out


def _is_real(v) -> bool:
    """A real number that is not a bool (``True == 1`` in Python)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _pair_keyed(entries, error, label: str) -> dict:
    """``entries``, a mapping or a sequence of ``(pair, value)`` items, as a
    dict keyed by ``(int, int)`` node-id pairs.  A pair whose ids are not
    integral numbers (a bool is not one), a value that is not a real
    number, or a pair given twice raises ``error`` naming the key as
    ``label[key]``."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    out = {}
    for key, value in items:
        try:
            n, m = key
            pair = (int(n), int(m))
        except (TypeError, ValueError, OverflowError):
            pair = None
        if pair is None or pair != (n, m) or not (_is_real(n) and _is_real(m)):
            raise error(f"{label}[{key!r}]: node ids must be two integers")
        if not _is_real(value):
            raise error(f"{label}[{key!r}] = {value!r} is not a real number")
        if pair in out:
            raise error(f"{label}[{key!r}]: pair {pair} is given twice")
        out[pair] = value
    return out


@dataclass(frozen=True)
class Scenario:
    """A complete market instance: prosumers plus trade links.

    ``prosumers`` maps node id to :class:`ProsumerParams`; ``links`` maps
    the unordered pair ``(min_id, max_id)`` to :class:`TradeLink`.  Both
    accept plain iterables at construction time and are converted; an
    iterable that repeats an id or a pair raises ``ScenarioFormatError``.
    """

    name: str
    prosumers: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    units: str = "arbitrary"

    def __post_init__(self):
        object.__setattr__(self, "prosumers", _keyed(
            self.prosumers, lambda p: p.id, "prosumers[{i}].id: duplicate id {k}"))
        object.__setattr__(self, "links", _keyed(
            self.links, lambda l: l.pair, "links[{i}]: pair {k} already has a link; "
            "capacities are per unordered pair, not per direction"))

    # -- lookups ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.prosumers)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.prosumers))

    def prosumer(self, node_id: int) -> ProsumerParams:
        return self.prosumers[node_id]

    def link(self, n: int, m: int) -> TradeLink:
        """Link between ``n`` and ``m`` regardless of argument order."""
        return self.links[(n, m) if n < m else (m, n)]

    def has_link(self, n: int, m: int) -> bool:
        return ((n, m) if n < m else (m, n)) in self.links

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each linked node's neighbours, ascending; cached (frozen value)."""
        adj: dict[int, list[int]] = {}
        for lo, hi in self.links:
            adj.setdefault(lo, []).append(hi)
            if hi != lo:
                adj.setdefault(hi, []).append(lo)
        return {n: tuple(sorted(ms)) for n, ms in adj.items()}

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Nodes sharing a link with ``node_id``, ascending; () if none."""
        return self._adjacency.get(node_id, ())

    def kappa(self, n: int, m: int) -> float:
        return self.link(n, m).kappa

    def c(self, n: int, m: int) -> float:
        """Price node ``n`` attaches to one unit bought from ``m``."""
        return self.link(n, m).price(n)

    def c_tilde(self, n: int, m: int) -> float:
        """Net cost of the pair for one unit flowing m -> n: c(n,m) - c(m,n)."""
        return self.c(n, m) - self.c(m, n)

    def directed_pairs(self) -> Iterator[tuple[int, int]]:
        """All (m, n) with a link, both orientations, lexicographic order."""
        return iter(sorted((n, m) for n, ms in self._adjacency.items()
                           for m in ms))

    # -- validation ------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check structural and economic invariants.

        Returns findings in a deterministic order: scenario-level checks,
        then prosumers by id, then links by endpoint pair.  Errors mean
        the scenario is not usable by the solvers; warnings flag modelling
        choices worth a second look but do not block anything.
        """
        out: list[Violation] = []

        for node_id in sorted(self.prosumers):
            if self.prosumers[node_id].id != node_id:
                out.append(Violation(
                    "error", "id_key_mismatch", f"node {node_id}",
                    f"stored under id {node_id} but carries id "
                    f"{self.prosumers[node_id].id}"))
        if 0 not in self.prosumers:
            out.append(Violation("error", "missing_root", "scenario",
                                 "no prosumer with id 0 (the grid connection)"))

        for pair in sorted(self.links):
            l = self.links[pair]
            if l.pair != pair:
                out.append(Violation(
                    "error", "pair_key_mismatch", f"link {pair}",
                    f"stored under {pair} but connects {l.pair}"))
            if l.n == l.m:
                out.append(Violation("error", "self_link", f"link {pair}",
                                     f"links node {l.n} to itself"))
            for end in pair:
                if end not in self.prosumers:
                    out.append(Violation(
                        "error", "unknown_endpoint", f"link {pair}",
                        f"endpoint {end} is not a prosumer id"))

        if 0 in self.prosumers and not self._connected_to_root():
            out.append(Violation("warning", "disconnected", "scenario",
                                 "trade graph does not connect every node to node 0"))

        for node_id in sorted(self.prosumers):
            out.extend(self._validate_prosumer(self.prosumers[node_id]))
        for pair in sorted(self.links):
            out.extend(self._validate_link(self.links[pair]))

        assumed = sorted([f"node {p.id}" for p in self.prosumers.values() if p.assumed]
                         + [f"link {l.pair}" for l in self.links.values() if l.assumed])
        if assumed:
            out.append(Violation("warning", "assumed_params", "scenario",
                                 "parameters filled in by assumption: " + ", ".join(assumed)))
        return out

    def _connected_to_root(self) -> bool:
        reached = {0}
        frontier = [0]
        while frontier:
            for other in self.neighbors(frontier.pop()):
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return reached >= set(self.prosumers)

    def _validate_prosumer(self, p: ProsumerParams) -> list[Violation]:
        subj = f"node {p.id}"
        out = _non_finite(p, _PROSUMER_FIELDS[1:], subj)
        if not p.d_min <= p.d_max:
            out.append(Violation("error", "demand_bounds", subj,
                                 f"d_min={p.d_min} exceeds d_max={p.d_max}"))
        if not p.g_min <= p.g_max:
            out.append(Violation("error", "generation_bounds", subj,
                                 f"g_min={p.g_min} exceeds g_max={p.g_max}"))
        for name in ("d_min", "d_max", "g_min", "g_max"):
            v = getattr(p, name)
            if v < 0:
                out.append(Violation("error", "negative_bound", subj,
                                     f"{name}={v} is negative"))
        if not p.a > 0:
            out.append(Violation("error", "curvature", subj,
                                 f"generation cost curvature a={p.a} must be positive"))
        if not p.a_tilde > 0:
            out.append(Violation("error", "curvature", subj,
                                 f"usage benefit curvature a_tilde={p.a_tilde} must be positive"))
        if p.b_tilde < 0:
            out.append(Violation("error", "negative_benefit_cap", subj,
                                 f"b_tilde={p.b_tilde} is negative"))
        if p.delta_g < 0:
            out.append(Violation("error", "negative_infeed", subj,
                                 f"delta_g={p.delta_g} is negative"))
        # Usage benefit stays nonnegative over the demand window only when
        # d_star sits within sqrt(b_tilde/a_tilde) of both bounds.
        if p.a_tilde > 0 and p.b_tilde >= 0 and p.d_min <= p.d_max:
            half_width = math.sqrt(p.b_tilde / p.a_tilde)
            lo = p.d_max - half_width
            hi = p.d_min + half_width
            if not (lo <= p.d_star <= hi):
                out.append(Violation(
                    "warning", "usage_window", subj,
                    f"d_star={p.d_star} outside [{lo:g}, {hi:g}]; usage benefit "
                    "goes negative somewhere in the demand window"))
        return out

    def _validate_link(self, l: TradeLink) -> list[Violation]:
        subj = f"link {l.pair}"
        out = _non_finite(l, _LINK_FIELDS[2:], subj)
        if l.kappa < 0:
            out.append(Violation("error", "negative_capacity", subj,
                                 f"kappa={l.kappa} is negative"))
        if not l.c_nm > 0:
            out.append(Violation("error", "nonpositive_price", subj,
                                 f"c_nm={l.c_nm} must be strictly positive"))
        if not l.c_mn > 0:
            out.append(Violation("error", "nonpositive_price", subj,
                                 f"c_mn={l.c_mn} must be strictly positive"))
        for end in l.pair:
            p = self.prosumers.get(end)
            if p is not None and p.g_max > l.kappa:
                out.append(Violation(
                    "warning", "gmax_exceeds_kappa", subj,
                    f"node {end} can generate {p.g_max} but the link only "
                    f"carries {l.kappa}"))
        return out


def _non_finite(params, fields: tuple[str, ...], subj: str) -> list[Violation]:
    """One error per float field of ``params`` that is NaN or infinite."""
    return [Violation("error", "non_finite", subj,
                      f"{name}={getattr(params, name)} is not a finite number")
            for name in fields if not math.isfinite(getattr(params, name))]


# -- JSON serialization ---------------------------------------------------

_PROSUMER_FIELDS = ("id", "d_min", "d_max", "g_min", "g_max", "d_star",
                    "a_tilde", "b_tilde", "a", "b", "d", "delta_g")
_LINK_FIELDS = ("n", "m", "kappa", "c_nm", "c_mn")


def _coerce(raw: dict, fields: tuple[str, ...], path: str, cls):
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    extra = set(raw) - set(fields) - {"assumed"}
    if extra:
        raise ScenarioFormatError(f"{path}: unknown field(s) {sorted(extra)}")
    missing = [f for f in fields if f not in raw]
    if missing:
        raise ScenarioFormatError(f"{path}: missing field(s) {missing}")
    kwargs = {}
    for f in fields:
        v = raw[f]
        if f in ("id", "n", "m"):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ScenarioFormatError(f"{path}.{f}: expected an integer, got {v!r}")
            kwargs[f] = v
        else:
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v)):
                raise ScenarioFormatError(
                    f"{path}.{f}: expected a finite number, got {v!r}")
            kwargs[f] = float(v)
    if not isinstance(raw.get("assumed", False), bool):
        raise ScenarioFormatError(f"{path}.assumed: expected true or false")
    if raw.get("assumed", False):
        kwargs["assumed"] = True
    return cls(**kwargs)


def loads_scenario(text: str) -> Scenario:
    """Parse scenario JSON.  Raises ScenarioFormatError on any problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level: expected a JSON object")
    extra = set(doc) - {"schema_version", "name", "units", "prosumers", "links"}
    if extra:
        raise ScenarioFormatError(f"top level: unknown field(s) {sorted(extra)}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key in ("name", "prosumers", "links"):
        if key not in doc:
            raise ScenarioFormatError(f"top level: missing field {key!r}")
    if not isinstance(doc["name"], str):
        raise ScenarioFormatError("name: expected a string")
    units = doc.get("units", "arbitrary")
    if not isinstance(units, str):
        raise ScenarioFormatError("units: expected a string")
    if not isinstance(doc["prosumers"], list):
        raise ScenarioFormatError("prosumers: expected a list")
    if not isinstance(doc["links"], list):
        raise ScenarioFormatError("links: expected a list")

    prosumers = [_coerce(raw, _PROSUMER_FIELDS, f"prosumers[{i}]", ProsumerParams)
                 for i, raw in enumerate(doc["prosumers"])]
    links = []
    for i, raw in enumerate(doc["links"]):
        l = _coerce(raw, _LINK_FIELDS, f"links[{i}]", TradeLink)
        if l.n == l.m:
            raise ScenarioFormatError(f"links[{i}]: self-link on node {l.n}")
        links.append(l)

    return Scenario(name=doc["name"], prosumers=prosumers, links=links,
                    units=units)


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads_scenario(text)
    except ScenarioFormatError as e:
        raise ScenarioFormatError(f"{path}: {e}") from None


def dumps_scenario(scenario: Scenario) -> str:
    """Serialize to canonical JSON.

    Prosumers are written by ascending id, links by ascending pair, so
    ``dumps(loads(dumps(s))) == dumps(s)`` byte for byte.
    """
    def prosumer_obj(p):
        obj = {f: getattr(p, f) for f in _PROSUMER_FIELDS}
        if p.assumed:
            obj["assumed"] = True
        return obj

    def link_obj(l):
        obj = {f: getattr(l, f) for f in _LINK_FIELDS}
        if l.assumed:
            obj["assumed"] = True
        return obj

    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "units": scenario.units,
        "prosumers": [prosumer_obj(scenario.prosumers[i])
                      for i in sorted(scenario.prosumers)],
        "links": [link_obj(scenario.links[pair])
                  for pair in sorted(scenario.links)],
    }
    return json.dumps(doc, indent=2) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))


def builtin(name: str) -> Scenario:
    """Return one of the packaged scenarios: 'three_node' or 'ieee14'."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin scenario {name!r}; "
                       f"available: {', '.join(BUILTIN_NAMES)}")
    text = resources.files("peertrade.data").joinpath(f"{name}.json").read_text(
        encoding="utf-8")
    return loads_scenario(text)


def with_costs(scenario: Scenario, costs: Mapping[tuple[int, int], float],
               name: str | None = None) -> Scenario:
    """Copy a scenario with some directed trading prices replaced.

    ``costs`` maps directed pairs ``(n, m)`` to the new price node ``n``
    attaches to purchases from ``m``.  Pairs not mentioned keep their
    prices; a pair with no link raises ``ValueError``.  Useful for cost
    sensitivity studies on a fixed network.
    """
    unknown = [pair for pair in costs if not scenario.has_link(*pair)]
    if unknown:
        raise ValueError(f"cost pair {unknown[0]} names no link of {scenario.name!r}")
    new_links = {}
    for pair, l in scenario.links.items():
        c_nm = costs.get((l.n, l.m), l.c_nm)
        c_mn = costs.get((l.m, l.n), l.c_mn)
        if c_nm != l.c_nm or c_mn != l.c_mn:
            l = replace(l, c_nm=c_nm, c_mn=c_mn)
        new_links[pair] = l
    return replace(scenario, links=new_links,
                   name=name if name is not None else scenario.name)


def ieee14_cost_case(case: str) -> Scenario:
    """The 14-bus scenario under one of four trading-price structures.

    ``"a"``: every directed price 1.0 (uniform).
    ``"b"``: the heterogeneous prices shipped with the builtin.
    ``"c"``: symmetric prices, taking the lower-id direction from case b.
    ``"d"``: 1.0 everywhere except purchases from the root, which cost 3.0.
    """
    base = builtin("ieee14")
    if case == "b":
        return base
    costs: dict[tuple[int, int], float] = {}
    for lo, hi in base.links:
        if case == "a":
            costs[(lo, hi)] = 1.0
            costs[(hi, lo)] = 1.0
        elif case == "c":
            costs[(lo, hi)] = base.c(lo, hi)
            costs[(hi, lo)] = base.c(lo, hi)
        elif case == "d":
            costs[(lo, hi)] = 3.0 if hi == 0 else 1.0
            costs[(hi, lo)] = 3.0 if lo == 0 else 1.0
        else:
            raise KeyError(f"unknown cost case {case!r}; use a, b, c or d")
    return with_costs(base, costs, name=f"ieee14_case_{case}")
