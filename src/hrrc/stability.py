"""Feasibility, blocking pairs, and strong blocking pairs.

A blocking pair (r, h) is an acceptable pair where r is unassigned or prefers
h to its current hospital, and h is undersubscribed or prefers r to one of
its current assignees.  A blocking pair blocks *strongly* when moving r to h
keeps every regional cap satisfied, or when h prefers r to a current
assignee.  A feasible matching with no strong blocking pair is strongly
stable.  :func:`certified` holds the package's one certificate: every matching
a solver finds passes :func:`is_strongly_stable` there before it is returned.

Every public function reads the matching once into a :class:`_MatchingState`
over the instance's :class:`~hrrc.index.InstanceIndex`: who sits where, each
hospital's worst assignee, and each region's load.  With it a check costs
time linear in the instance's size plus the size of its output: blocking
pairs come from each resident's better prefix alone, a witness's displaced
resident is its hospital's worst assignee, and a move's feasibility looks
only at the regions it adds load to.  An invalid instance raises
:class:`~hrrc.model.InstanceError` when its index is compiled.

One generator, ``_blocking``, lists the blocking pairs and decides which of
them block strongly; :func:`report`, :func:`is_strongly_stable` (and so
:func:`certified`), :func:`blocking_pairs` and :func:`strong_blocking_pairs`
all read it.  Witnesses travel as plain tuples ``(resident, hospital,
move_feasible, displaced)``: ``hrrc check`` renders them as they are, and
only :func:`strong_blocking_pairs` builds :class:`BlockingWitness` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .model import Assignment, Instance, require_valid


@dataclass(frozen=True)
class BlockingWitness:
    """A strong blocking pair annotated with the conditions it meets.

    ``move_feasible`` records that reassigning the resident to the hospital
    keeps all regional caps; ``displaced`` names the hospital's worst current
    assignee the resident outranks.  Both are recorded when both hold.
    """

    resident: str
    hospital: str
    move_feasible: bool = False
    displaced: str | None = None

    def __post_init__(self) -> None:
        if not (self.move_feasible or self.displaced is not None):
            raise ValueError("an SBP witness must satisfy at least one condition")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.resident, self.hospital)

    def conditions(self) -> list[str]:
        return witness_conditions(self.move_feasible, self.displaced)


# A strong blocking pair as it travels inside the package, with
# BlockingWitness's fields in BlockingWitness's order.
Witness = tuple[str, str, bool, str | None]


def witness_conditions(move_feasible: bool, displaced: str | None) -> list[str]:
    """The conditions a strong blocking pair meets, as ``hrrc check`` names them."""
    out = []
    if displaced is not None:
        out.append(f"preferred-over-assignee({displaced})")
    if move_feasible:
        out.append("move-feasible")
    return out


class StabilityReport(NamedTuple):
    """Everything ``hrrc check`` prints about one assignment, computed once.

    ``violations`` is empty exactly when the assignment is a matching; the
    other fields are meaningful only then.  ``blocking_pairs`` holds
    ``(resident, hospital)`` tuples.  ``strong_blocking_pairs`` holds plain
    tuples ``(resident, hospital, move_feasible, displaced)``, the fields of
    :class:`BlockingWitness` in its order, and is empty unless the matching
    is feasible.
    """

    violations: list[str]
    feasible: bool
    blocking_pairs: list[tuple[str, str]]
    strong_blocking_pairs: list[Witness]

    @property
    def strongly_stable(self) -> bool:
        return not self.violations and self.feasible and not self.strong_blocking_pairs


class _MatchingState:
    """One matching read over one compiled instance.

    ``worst[h]`` is ``h``'s least-preferred assignee and ``worst_rank[h]``
    its rank (-1 with no assignee); ``region_load[k]`` counts the residents
    inside region ``k``.
    """

    __slots__ = (
        "instance", "index", "hospital_of", "assignees", "worst", "worst_rank", "region_load"
    )

    def __init__(self, instance: Instance, hospital_of: dict[str, str],
                 assignees: dict[str, list[str]]):
        self.instance = instance
        self.index = index = instance.index
        self.hospital_of = hospital_of
        self.assignees = assignees
        self.worst: dict[str, str] = {}
        self.worst_rank: dict[str, int] = {}
        self.region_load = [0] * len(index.region_caps)
        hrank, regions_of, load = index.hrank, index.regions_of, self.region_load
        for h, rs in assignees.items():
            if not rs:
                self.worst_rank[h] = -1
                continue
            rank = hrank[h]
            worst = max(rs, key=rank.__getitem__)
            self.worst[h] = worst
            self.worst_rank[h] = rank[worst]
            for k in regions_of[h]:
                load[k] += len(rs)

    @property
    def feasible(self) -> bool:
        return all(load <= cap for load, cap in zip(self.region_load, self.index.region_caps))


def _read(instance: Instance, assignment: Assignment) -> tuple[_MatchingState | None, list[str]]:
    """The matching state, or None and the violations if not a matching."""
    require_valid(instance)  # its lists are read as they are
    resident_prefs = instance.resident_prefs
    hospital_of: dict[str, str] = {}
    assignees: dict[str, list[str]] = {h: [] for h in instance.hospitals}
    clean = True
    for r, h in assignment.pairs:
        held = assignees.get(h)
        if clean:  # r comes for the first time, so each list is scanned once
            clean = h in resident_prefs.get(r, ()) and r not in hospital_of and held is not None
        if held is not None:
            held.append(r)  # every pair at a known hospital counts toward its load
        hospital_of[r] = h
    capacities = instance.capacities
    if clean and all(len(rs) <= capacities[h] for h, rs in assignees.items()):
        return _MatchingState(instance, hospital_of, assignees), []
    return None, _violations(instance, assignment, assignees)


def _violations(
    instance: Instance, assignment: Assignment, assignees: dict[str, list[str]]
) -> list[str]:
    out: list[str] = []
    seen_residents: set[str] = set()
    for r, h in assignment.sorted_pairs():
        if r not in instance.resident_prefs:
            out.append(f"unknown resident {r!r}")
        elif h not in instance.resident_prefs[r]:
            out.append(f"pair ({r!r}, {h!r}) is not acceptable")
        if h not in instance.hospital_prefs:
            out.append(f"unknown hospital {h!r}")
        if r in seen_residents:
            out.append(f"resident {r!r} is assigned more than once")
        seen_residents.add(r)
    for h in instance.hospitals:
        load = len(assignees[h])
        if load > instance.capacities[h]:
            out.append(f"hospital {h!r} holds {load} residents, capacity {instance.capacities[h]}")
    return out


def _state(instance: Instance, matching: Assignment) -> _MatchingState:
    state, violations = _read(instance, matching)
    if state is None:
        raise ValueError("not a matching: " + "; ".join(violations))
    return state


def _blocking(state: _MatchingState) -> Iterator[tuple[str, str, Witness | None]]:
    """Each blocking pair with its witness, in (resident-declaration,
    hospital-declaration) order.

    This is the package's one statement of the strong-blocking rule.  The
    witness is ``(resident, hospital, move_feasible, displaced)`` when the pair
    blocks strongly and None when it does not.  It is always None on an
    infeasible matching, where strong blocking pairs are not defined.
    """
    index, instance = state.index, state.instance
    hospital_pos, hrank, capacities = index.hospital_pos, index.hrank, instance.capacities
    regions_of, caps = index.regions_of, index.region_caps
    hospital_of, assignees = state.hospital_of, state.assignees
    worst, worst_rank, load = state.worst, state.worst_rank, state.region_load
    strong = state.feasible
    for r in instance.residents:
        prefs = instance.resident_prefs[r]
        current = hospital_of.get(r)
        # Hospitals r would rather have: its whole list when unassigned,
        # otherwise the strict prefix before its current hospital.
        better = prefs if current is None else prefs[: prefs.index(current)]
        if len(better) > 1:
            better = sorted(better, key=hospital_pos.__getitem__)
        # Moving r to h breaks only the caps of full regions that contain h
        # and not r's current hospital: only those gain a resident, and every
        # other region's load stays or falls.  An unassigned resident's
        # hospital is None, which is in no region.
        kept = regions_of.get(current, ())
        for h in better:
            preferred = hrank[h][r] < worst_rank[h]
            if not (preferred or len(assignees[h]) < capacities[h]):
                continue
            witness = None
            if strong:
                move_ok = True
                for k in regions_of[h]:
                    if load[k] >= caps[k] and k not in kept:
                        move_ok = False
                        break
                if preferred or move_ok:
                    witness = (r, h, move_ok, worst[h] if preferred else None)
            yield r, h, witness


def matching_violations(instance: Instance, assignment: Assignment) -> list[str]:
    """Why ``assignment`` is not a matching of ``instance`` (empty if it is)."""
    return _read(instance, assignment)[1]


def is_matching(instance: Instance, assignment: Assignment) -> bool:
    return not matching_violations(instance, assignment)


def is_feasible(instance: Instance, matching: Assignment) -> bool:
    """Whether every regional cap holds.  Rejects non-matching assignments."""
    return _state(instance, matching).feasible


def blocking_pairs(instance: Instance, matching: Assignment) -> list[tuple[str, str]]:
    """All blocking pairs, in (resident-declaration, hospital-declaration) order."""
    return [(r, h) for r, h, _ in _blocking(_state(instance, matching))]


def strong_blocking_pairs(instance: Instance, matching: Assignment) -> list[BlockingWitness]:
    """Witnesses for every strong blocking pair of a feasible matching.

    This is the only function that builds :class:`BlockingWitness` objects;
    :func:`report` carries the same witnesses as plain tuples.
    """
    state = _state(instance, matching)
    if not state.feasible:
        raise ValueError("strong blocking pairs are defined only for feasible matchings")
    return [BlockingWitness(*witness) for _, _, witness in _blocking(state) if witness is not None]


def is_strongly_stable(instance: Instance, matching: Assignment) -> bool:
    """Whether ``matching`` is feasible and admits no strong blocking pair."""
    state = _state(instance, matching)
    if not state.feasible:
        return False
    for _, _, witness in _blocking(state):
        if witness is not None:
            return False
    return True


def certified(instance: Instance, matching: Assignment, solver: str) -> Assignment:
    """``matching``, once :func:`is_strongly_stable` confirms it.

    Raises :class:`RuntimeError` naming ``solver`` otherwise: a solver
    returned a wrong answer.
    """
    if not is_strongly_stable(instance, matching):
        raise RuntimeError(f"{solver} produced a matching that is not strongly stable")
    return matching


def report(instance: Instance, assignment: Assignment) -> StabilityReport:
    """Violations, feasibility, blocking and strong blocking pairs, in one pass."""
    state, violations = _read(instance, assignment)
    if state is None:
        return StabilityReport(violations, False, [], [])
    bps: list[tuple[str, str]] = []
    sbps: list[Witness] = []
    for r, h, witness in _blocking(state):
        bps.append((r, h))
        if witness is not None:
            sbps.append(witness)
    return StabilityReport([], state.feasible, bps, sbps)
