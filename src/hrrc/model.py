"""Core data model for hospitals/residents matching with regional caps.

An instance couples residents and hospitals through strict mutual preference
lists, gives each hospital a capacity, and optionally groups hospitals into
regions, each carrying a cap on the total number of residents assigned inside
the group.  Instances are treated as immutable values: every operation in
this package is a pure function over them.  Each instance compiles its
:class:`~hrrc.index.InstanceIndex`, and computes its :func:`classify` class,
on first use and keeps them, so an instance (its dicts included) must not be
mutated after first use; build a new one, for example with
:func:`dataclasses.replace`, which compiles afresh.

Document formats (UTF-8 JSON):

* instance::

      {"residents": [{"id": "r1", "prefs": ["h1", "h2"]}, ...],
       "hospitals": [{"id": "h1", "capacity": 1, "prefs": ["r2", "r1"]}, ...],
       "regions":   [{"hospitals": ["h1", "h2"], "cap": 1}, ...]}

  Array order is semantic for ``prefs`` (most preferred first) and fixes the
  declaration order of agents and regions; ``regions`` may be omitted.

* matching::

      {"pairs": [["r1", "h1"], ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .index import InstanceIndex


class InstanceError(ValueError):
    """An instance document could not be parsed or failed validation."""


@dataclass(frozen=True)
class Region:
    """A non-empty group of hospitals with a cap on total assignees."""

    hospitals: frozenset[str]
    cap: int


@dataclass(frozen=True)
class Instance:
    """A matching market: residents, hospitals, preferences, capacities, regions.

    ``residents`` and ``hospitals`` fix the declaration order used for every
    deterministic iteration in this package.  ``resident_prefs`` and
    ``hospital_prefs`` map each agent to its strictly ordered preference list
    over the other side; acceptability must be mutual.
    """

    residents: tuple[str, ...]
    hospitals: tuple[str, ...]
    capacities: dict[str, int]
    resident_prefs: dict[str, tuple[str, ...]]
    hospital_prefs: dict[str, tuple[str, ...]]
    regions: tuple[Region, ...] = ()

    @cached_property
    def _compiled(self) -> InstanceIndex:
        return InstanceIndex(self)

    @cached_property
    def index(self) -> InstanceIndex:
        """The compiled view every layer reads, built and validated on first use.

        Raises :class:`InstanceError` listing every violation if the instance
        is invalid.  The view is kept outside the dataclass fields, so
        equality and :func:`dataclasses.replace` ignore it.
        """
        require_valid(self)
        return self._compiled

    @cached_property
    def _class(self) -> InstanceClass:
        require_valid(self)
        alpha = max((len(p) for p in self.resident_prefs.values()), default=0)
        beta = max((len(p) for p in self.hospital_prefs.values()), default=0)
        gamma = max((len(reg.hospitals) for reg in self.regions), default=0)
        membership: set[str] = set()
        disjoint = True
        for reg in self.regions:
            if membership & reg.hospitals:
                disjoint = False
                break
            membership |= reg.hospitals
        return InstanceClass(alpha, beta, gamma, disjoint)


@dataclass(frozen=True)
class Assignment:
    """A set of (resident, hospital) pairs.

    Whether an assignment is a *matching* of a given instance (acceptable
    pairs only, each resident at most once, hospital capacities respected) is
    checked by :func:`hrrc.stability.is_matching`, not enforced here.
    """

    pairs: frozenset[tuple[str, str]] = frozenset()

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "Assignment":
        return Assignment(frozenset((r, h) for r, h in pairs))

    # The two lookups below scan every pair; code that looks up many agents
    # reads the matching once instead (see ``hrrc.stability``).
    def hospital_of(self, resident: str) -> str | None:
        for r, h in self.pairs:
            if r == resident:
                return h
        return None

    def residents_of(self, hospital: str) -> frozenset[str]:
        return frozenset(r for r, h in self.pairs if h == hospital)

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class InstanceClass:
    """Derived instance parameters used to route solvers.

    ``alpha``/``beta`` are the longest resident/hospital preference lists,
    ``gamma`` the largest region, all 0 for empty collections.  ``disjoint``
    is true when no hospital belongs to two regions.
    """

    alpha: int
    beta: int
    gamma: int
    disjoint: bool

    def __str__(self) -> str:
        tag = "disjoint" if self.disjoint else "overlapping"
        return f"(alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}, {tag} regions)"


FOUND = "found"
NONE_EXISTS = "none-exists"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve attempt: a matching, a proof of absence, or neither."""

    status: str
    matching: Assignment | None = None
    reason: str | None = None

    @staticmethod
    def found(matching: Assignment) -> "SolveOutcome":
        return SolveOutcome(FOUND, matching=matching)

    @staticmethod
    def none_exists() -> "SolveOutcome":
        return SolveOutcome(NONE_EXISTS)

    @staticmethod
    def unknown(reason: str) -> "SolveOutcome":
        return SolveOutcome(UNKNOWN, reason=reason)

    @property
    def is_found(self) -> bool:
        return self.status == FOUND


def make_instance(
    residents: Sequence[tuple[str, Sequence[str]]],
    hospitals: Sequence[tuple[str, int, Sequence[str]]],
    regions: Sequence[tuple[Iterable[str], int]] = (),
) -> Instance:
    """Assemble an :class:`Instance` from (id, prefs) and (id, capacity, prefs) rows."""
    return Instance(
        residents=tuple(r for r, _ in residents),
        hospitals=tuple(h for h, _, _ in hospitals),
        capacities={h: q for h, q, _ in hospitals},
        resident_prefs={r: tuple(prefs) for r, prefs in residents},
        hospital_prefs={h: tuple(prefs) for h, _, prefs in hospitals},
        regions=tuple(Region(frozenset(members), cap) for members, cap in regions),
    )


def validate(instance: Instance) -> list[str]:
    """Check every instance invariant; return one message per violation.

    Violations are data, not errors: an empty report means the instance is
    valid.  Use :func:`require_valid` to raise instead.  The check is the
    pass that compiles the instance's index, so it runs once per instance.
    """
    return list(instance._compiled.violations)


def require_valid(instance: Instance) -> None:
    """Raise :class:`InstanceError` listing all violations, if any."""
    violations = validate(instance)
    if violations:
        raise InstanceError("invalid instance: " + "; ".join(violations))


def classify(instance: Instance) -> InstanceClass:
    """The exact (alpha, beta, gamma, disjoint) parameters of a valid instance.

    They are computed on the first call and kept on the instance, like its
    index.  Raises :class:`InstanceError` if the instance is invalid.
    """
    return instance._class


def common_residents(instance: Instance, hospitals: Iterable[str]) -> set[str]:
    """Residents acceptable to every hospital in a non-empty group."""
    hs = list(hospitals)
    if not hs:
        raise InstanceError("common_residents requires a non-empty hospital group")
    common: set[str] | None = None
    for h in hs:
        if h not in instance.hospital_prefs:
            raise InstanceError(f"unknown hospital id: {h!r}")
        acc = set(instance.hospital_prefs[h])
        common = acc if common is None else common & acc
    assert common is not None
    return common


def example_g2() -> Instance:
    """The canonical 2x2 fixture with one cap-1 region and no strongly stable matching.

    Both residents and both hospitals find each other acceptable with opposed
    rankings; the region cap of 1 forbids assigning both residents, and every
    feasible matching leaves a strong blocking pair.
    """
    return make_instance(
        residents=[("r1", ["h1", "h2"]), ("r2", ["h2", "h1"])],
        hospitals=[("h1", 1, ["r2", "r1"]), ("h2", 1, ["r1", "r2"])],
        regions=[({"h1", "h2"}, 1)],
    )


# ---------------------------------------------------------------------------
# Serialization


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceError(message)


def instance_to_doc(instance: Instance) -> dict:
    return {
        "residents": [
            {"id": r, "prefs": list(instance.resident_prefs[r])} for r in instance.residents
        ],
        "hospitals": [
            {
                "id": h,
                "capacity": instance.capacities[h],
                "prefs": list(instance.hospital_prefs[h]),
            }
            for h in instance.hospitals
        ],
        "regions": [
            {"hospitals": sorted(reg.hospitals), "cap": reg.cap} for reg in instance.regions
        ],
    }


def save_instance(instance: Instance) -> str:
    """Render an instance document; inverse of :func:`load_instance`."""
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


def instance_from_doc(doc: object) -> Instance:
    _require(isinstance(doc, dict), "instance document must be a JSON object")
    assert isinstance(doc, dict)
    unknown = set(doc) - {"residents", "hospitals", "regions"}
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")

    residents: list[tuple[str, list[str]]] = []
    raw_res = doc.get("residents", [])
    _require(isinstance(raw_res, list), "'residents' must be an array")
    for k, entry in enumerate(raw_res):
        _require(isinstance(entry, dict), f"residents[{k}] must be an object")
        _require("id" in entry, f"residents[{k}] is missing 'id'")
        rid = entry["id"]
        _require(isinstance(rid, str), f"residents[{k}].id must be a string")
        prefs = entry.get("prefs", [])
        _require(
            isinstance(prefs, list) and all(isinstance(p, str) for p in prefs),
            f"residents[{k}].prefs must be an array of strings",
        )
        residents.append((rid, prefs))

    hospitals: list[tuple[str, int, list[str]]] = []
    raw_hosp = doc.get("hospitals", [])
    _require(isinstance(raw_hosp, list), "'hospitals' must be an array")
    for k, entry in enumerate(raw_hosp):
        _require(isinstance(entry, dict), f"hospitals[{k}] must be an object")
        _require("id" in entry, f"hospitals[{k}] is missing 'id'")
        hid = entry["id"]
        _require(isinstance(hid, str), f"hospitals[{k}].id must be a string")
        cap = entry.get("capacity")
        _require(
            isinstance(cap, int) and not isinstance(cap, bool),
            f"hospitals[{k}].capacity must be an integer",
        )
        prefs = entry.get("prefs", [])
        _require(
            isinstance(prefs, list) and all(isinstance(p, str) for p in prefs),
            f"hospitals[{k}].prefs must be an array of strings",
        )
        hospitals.append((hid, cap, prefs))

    _require(len({r for r, _ in residents}) == len(residents), "duplicate resident id")
    _require(len({h for h, _, _ in hospitals}) == len(hospitals), "duplicate hospital id")

    regions: list[tuple[frozenset[str], int]] = []
    raw_reg = doc.get("regions", [])
    _require(isinstance(raw_reg, list), "'regions' must be an array")
    for k, entry in enumerate(raw_reg):
        _require(isinstance(entry, dict), f"regions[{k}] must be an object")
        members = entry.get("hospitals")
        _require(
            isinstance(members, list) and all(isinstance(m, str) for m in members),
            f"regions[{k}].hospitals must be an array of strings",
        )
        cap = entry.get("cap")
        _require(
            isinstance(cap, int) and not isinstance(cap, bool),
            f"regions[{k}].cap must be an integer",
        )
        regions.append((frozenset(members), cap))

    # Deduplicate regions by hospital set; identical caps collapse, conflicting
    # caps survive so validation can report them.
    deduped: list[tuple[frozenset[str], int]] = []
    seen: set[tuple[frozenset[str], int]] = set()
    for members, cap in regions:
        if (members, cap) in seen:
            continue
        seen.add((members, cap))
        deduped.append((members, cap))

    instance = make_instance(residents, hospitals, deduped)
    require_valid(instance)
    return instance


def load_instance(text: str) -> Instance:
    """Parse and validate an instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance document is not valid JSON: {exc}") from exc
    return instance_from_doc(doc)


def matching_to_doc(assignment: Assignment) -> dict:
    return {"pairs": [[r, h] for r, h in assignment.sorted_pairs()]}


def save_matching(assignment: Assignment) -> str:
    return json.dumps(matching_to_doc(assignment), indent=2) + "\n"


def load_matching(text: str) -> Assignment:
    """Parse a matching document: ``{"pairs": [[resident, hospital], ...]}``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"matching document is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict) and "pairs" in doc, "matching document must have 'pairs'")
    pairs = doc["pairs"]
    _require(isinstance(pairs, list), "'pairs' must be an array")
    out = []
    for k, pair in enumerate(pairs):
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair),
            f"pairs[{k}] must be a [resident, hospital] pair of strings",
        )
        out.append((pair[0], pair[1]))
    return Assignment.of(out)
