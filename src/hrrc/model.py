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
  declaration order of agents and regions; ``regions`` may be omitted.  Ids
  are strings; capacities and caps are non-negative integers.

* matching::

      {"pairs": [["r1", "h1"], ...]}

The instance writers take valid instances only: they validate first and raise
:class:`InstanceError` otherwise, so every document they write loads back
equal.  The writers build document text directly, line by line; it is
byte-identical to ``json.dumps(doc, indent=2)`` plus a newline.  The instance
parser reads the residents and then the hospitals with one routine, then the
regions, building the instance's fields as it goes.  The parsers raise
:class:`InstanceError` naming the first fault they find.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .index import InstanceIndex, is_int


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
        # Two regions overlap exactly when some hospital sits in both.
        disjoint = all(len(ks) < 2 for ks in self.index.regions_of.values())
        alpha = max((len(p) for p in self.resident_prefs.values()), default=0)
        beta = max((len(p) for p in self.hospital_prefs.values()), default=0)
        gamma = max((len(reg.hospitals) for reg in self.regions), default=0)
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
#
# The writers lay a document out exactly as ``json.dumps(doc, indent=2)``
# does, but build its lines directly: with ``indent`` set, ``json`` runs its
# pure-Python encoder, which cost most of a writer's time.  The instance
# writers validate first, so every id they meet is a string, escaped by the C
# function that encoder calls itself, and every count an int, which ``json``
# renders as ``int.__repr__`` does.

_escape = json.encoder.encode_basestring_ascii
# Line breaks with the indentation of each depth a writer's arrays reach, and
# the item separators built from them.
_BREAK = tuple("\n" + "  " * depth for depth in range(5))
_SEPARATOR = tuple("," + line for line in _BREAK)


def _array(items: list[str], depth: int) -> str:
    """Rendered items as a JSON array ``depth`` levels deep, one item per line."""
    if not items:
        return "[]"
    return "[" + _BREAK[depth + 1] + _SEPARATOR[depth + 1].join(items) + _BREAK[depth] + "]"


def _ids(ids: Sequence[str], depth: int) -> str:
    """An array of agent ids ``depth`` levels deep; a non-str id raises TypeError."""
    return _array(list(map(_escape, ids)), depth)


def instance_to_doc(instance: Instance) -> dict:
    """The document of a valid instance; raises :class:`InstanceError` otherwise."""
    require_valid(instance)
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
    """Render a valid instance's document; inverse of :func:`load_instance`.

    Raises :class:`InstanceError` if the instance is invalid, so the text
    always loads back equal.  It is ``json.dumps(instance_to_doc(instance),
    indent=2)`` plus a newline, byte for byte.
    """
    require_valid(instance)
    resident_prefs = instance.resident_prefs
    hospital_prefs = instance.hospital_prefs
    capacities = instance.capacities
    residents = [
        '{\n      "id": ' + _escape(r)
        + ',\n      "prefs": ' + _ids(resident_prefs[r], 3)
        + "\n    }"
        for r in instance.residents
    ]
    hospitals = [
        '{\n      "id": ' + _escape(h)
        + ',\n      "capacity": ' + int.__repr__(capacities[h])
        + ',\n      "prefs": ' + _ids(hospital_prefs[h], 3)
        + "\n    }"
        for h in instance.hospitals
    ]
    regions = [
        '{\n      "hospitals": ' + _ids(sorted(reg.hospitals), 3)
        + ',\n      "cap": ' + int.__repr__(reg.cap)
        + "\n    }"
        for reg in instance.regions
    ]
    return (
        '{\n  "residents": ' + _array(residents, 1)
        + ',\n  "hospitals": ' + _array(hospitals, 1)
        + ',\n  "regions": ' + _array(regions, 1)
        + "\n}\n"
    )


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(map(str.__instancecheck__, value))


def _agents(doc: dict, side: str, capacities: dict[str, int] | None) -> tuple[dict, int]:
    """``doc[side]``'s preference lists by id, and the number of its entries.

    The hospital side passes ``capacities``: each entry's capacity, checked
    between its id and its prefs, fills it.
    """
    raw = doc.get(side, [])
    if not isinstance(raw, list):
        raise InstanceError(f"'{side}' must be an array")
    prefs_of: dict[str, tuple[str, ...]] = {}
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InstanceError(f"{side}[{k}] must be an object")
        if "id" not in entry:
            raise InstanceError(f"{side}[{k}] is missing 'id'")
        agent = entry["id"]
        if not isinstance(agent, str):
            raise InstanceError(f"{side}[{k}].id must be a string")
        if capacities is not None:
            cap = entry.get("capacity")
            if not is_int(cap):
                raise InstanceError(f"{side}[{k}].capacity must be an integer")
            capacities[agent] = cap
        prefs = entry.get("prefs", [])
        if not _is_strings(prefs):
            raise InstanceError(f"{side}[{k}].prefs must be an array of strings")
        prefs_of[agent] = tuple(prefs)
    return prefs_of, len(raw)


def instance_from_doc(doc: object) -> Instance:
    # One pass over the entries builds the instance's own fields.  Each message
    # is built only when its check fails: a document runs hundreds of checks
    # and almost never shows one.
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    unknown = set(doc) - {"residents", "hospitals", "regions"}
    if unknown:
        raise InstanceError(f"unknown top-level keys: {sorted(unknown)}")
    resident_prefs, n_residents = _agents(doc, "residents", None)
    capacities: dict[str, int] = {}
    hospital_prefs, n_hospitals = _agents(doc, "hospitals", capacities)
    # An id seen twice keeps one key, so the dict is shorter than its array.
    if len(resident_prefs) != n_residents:
        raise InstanceError("duplicate resident id")
    if len(hospital_prefs) != n_hospitals:
        raise InstanceError("duplicate hospital id")

    # Regions keyed by hospital set and cap, first occurrence first: identical
    # regions collapse, conflicting caps survive so validation can report them.
    regions: dict[tuple[frozenset[str], int], Region] = {}
    raw_reg = doc.get("regions", [])
    if not isinstance(raw_reg, list):
        raise InstanceError("'regions' must be an array")
    for k, entry in enumerate(raw_reg):
        if not isinstance(entry, dict):
            raise InstanceError(f"regions[{k}] must be an object")
        members = entry.get("hospitals")
        if not _is_strings(members):
            raise InstanceError(f"regions[{k}].hospitals must be an array of strings")
        cap = entry.get("cap")
        if not is_int(cap):
            raise InstanceError(f"regions[{k}].cap must be an integer")
        key = (frozenset(members), cap)
        if key not in regions:
            regions[key] = Region(*key)

    instance = Instance(
        residents=tuple(resident_prefs),
        hospitals=tuple(hospital_prefs),
        capacities=capacities,
        resident_prefs=resident_prefs,
        hospital_prefs=hospital_prefs,
        regions=tuple(regions.values()),
    )
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
    """Render a matching document: ``json.dumps(matching_to_doc(...), indent=2)`` and a newline.

    Ids must be strings, as a document holds them; any other id raises TypeError.
    """
    pairs = [
        "[\n      " + _escape(r) + ",\n      " + _escape(h) + "\n    ]"
        for r, h in assignment.sorted_pairs()
    ]
    return '{\n  "pairs": ' + _array(pairs, 1) + "\n}\n"


def load_matching(text: str) -> Assignment:
    """Parse a matching document: ``{"pairs": [[resident, hospital], ...]}``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"matching document is not valid JSON: {exc}") from exc
    if not (isinstance(doc, dict) and "pairs" in doc):
        raise InstanceError("matching document must have 'pairs'")
    pairs = doc["pairs"]
    if not isinstance(pairs, list):
        raise InstanceError("'pairs' must be an array")
    for k, pair in enumerate(pairs):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
        ):
            raise InstanceError(f"pairs[{k}] must be a [resident, hospital] pair of strings")
    return Assignment(frozenset(map(tuple, pairs)))
