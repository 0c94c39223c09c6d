"""Definition-level strong-stability checker, kept as a test reference only.

This is the checker the package shipped before it was rewritten on a
compiled instance index: every predicate is evaluated straight from the
definitions, by nested scans over residents and hospitals, and a move's
feasibility is decided by building the moved matching and recounting every
region.  It is slow (quadratic and worse) but obviously right, which is what
a differential test needs.  Function names and error behaviour mirror
:mod:`hrrc.stability`.
"""

from __future__ import annotations

from hrrc.model import Assignment, Instance
from hrrc.stability import BlockingWitness


def matching_violations(instance: Instance, assignment: Assignment) -> list[str]:
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
        load = len(assignment.residents_of(h))
        if load > instance.capacities[h]:
            out.append(f"hospital {h!r} holds {load} residents, capacity {instance.capacities[h]}")
    return out


def _require_matching(instance: Instance, assignment: Assignment) -> None:
    violations = matching_violations(instance, assignment)
    if violations:
        raise ValueError("not a matching: " + "; ".join(violations))


def _loads(instance: Instance, pairs: frozenset[tuple[str, str]]) -> list[int]:
    return [len({r for r, h in pairs if h in reg.hospitals}) for reg in instance.regions]


def is_feasible(instance: Instance, matching: Assignment) -> bool:
    _require_matching(instance, matching)
    return all(
        load <= reg.cap for load, reg in zip(_loads(instance, matching.pairs), instance.regions)
    )


def blocking_pairs(instance: Instance, matching: Assignment) -> list[tuple[str, str]]:
    _require_matching(instance, matching)
    hrank = {h: {r: i for i, r in enumerate(prefs)} for h, prefs in instance.hospital_prefs.items()}
    out: list[tuple[str, str]] = []
    for r in instance.residents:
        prefs = instance.resident_prefs[r]
        current = matching.hospital_of(r)
        better = prefs if current is None else prefs[: prefs.index(current)]
        for h in instance.hospitals:
            if h not in better:
                continue
            assigned = matching.residents_of(h)
            if len(assigned) < instance.capacities[h] or any(
                hrank[h][r] < hrank[h][r2] for r2 in assigned
            ):
                out.append((r, h))
    return out


def _move_is_feasible(instance: Instance, matching: Assignment, r: str, h: str) -> bool:
    old = matching.hospital_of(r)
    moved = set(matching.pairs)
    if old is not None:
        moved.discard((r, old))
    moved.add((r, h))
    pairs = frozenset(moved)
    return all(load <= reg.cap for load, reg in zip(_loads(instance, pairs), instance.regions))


def strong_blocking_pairs(instance: Instance, matching: Assignment) -> list[BlockingWitness]:
    if not is_feasible(instance, matching):
        raise ValueError("strong blocking pairs are defined only for feasible matchings")
    hrank = {h: {r: i for i, r in enumerate(prefs)} for h, prefs in instance.hospital_prefs.items()}
    out: list[BlockingWitness] = []
    for r, h in blocking_pairs(instance, matching):
        assigned = matching.residents_of(h)
        worse = [r2 for r2 in assigned if hrank[h][r] < hrank[h][r2]]
        displaced = max(worse, key=lambda r2: hrank[h][r2]) if worse else None
        move_ok = _move_is_feasible(instance, matching, r, h)
        if displaced is not None or move_ok:
            out.append(BlockingWitness(r, h, move_feasible=move_ok, displaced=displaced))
    return out


def is_strongly_stable(instance: Instance, matching: Assignment) -> bool:
    if not is_feasible(instance, matching):
        return False
    return not strong_blocking_pairs(instance, matching)
