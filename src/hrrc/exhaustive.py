"""Brute-force oracle over small instances.

Feasible matchings are enumerated by assigning residents one at a time in
declaration order; each resident tries its acceptable hospitals in hospital
declaration order and "unassigned" last, so matchings stream out in a fixed
lexicographic order.  Hospital and region loads are tracked incrementally and
prune infeasible prefixes.  The walk keeps its own stack, so no recursion
limit bounds the number of residents.

The existence check and the strongly stable set additionally cut a branch as
soon as some pair is a strong blocking pair in every completion of the
current prefix, which keeps the search tractable on the structured instances
the reductions emit.  The pruned branches never contain a strongly stable
matching, so the first surviving leaf is still the lexicographically least
one.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterator

from .model import Assignment, Instance, SolveOutcome
from .stability import is_strongly_stable

DEFAULT_WARN_LIMIT = 1_000_000


class _Search:
    """Incremental bookkeeping and the one depth-first walk over it.

    ``assignees[h]`` lists the residents placed at ``h``, latest last: the
    walk is depth-first, so the resident unplaced from ``h`` is always the
    one placed there last.

    A pair (r, h) is fully determined once every resident that can still
    change r's assignment, h's assignees, or the load of a region containing
    h has been placed.  From that point its strong-blocking status is final,
    so a prefix exhibiting such a pair can be abandoned: ``determined_at[i]``
    lists the hospitals whose pairs become final at resident ``i``.
    """

    def __init__(self, instance: Instance):
        index = instance.index
        self.instance = instance
        self.residents = instance.residents
        self.capacities = instance.capacities
        self.rrank = index.rrank
        self.hrank = index.hrank
        self.region_caps = index.region_caps
        self.regions_of = regions_of = index.regions_of
        self.resident_pos = resident_pos = index.resident_pos
        hospital_pos = index.hospital_pos
        # Per resident position: acceptable hospitals in declaration order,
        # then None for "unassigned".
        self.options = [
            (*sorted(instance.resident_prefs[r], key=hospital_pos.__getitem__), None)
            for r in self.residents
        ]
        self.assignees: dict[str, list[str]] = {h: [] for h in instance.hospitals}
        self.region_load = [0] * len(instance.regions)
        self.assigned: list[str | None] = [None] * len(self.residents)
        self.determined_at: list[list[str]] = [[] for _ in self.residents]
        for h in instance.hospitals:
            watchers = set(instance.hospital_prefs[h])
            for k in regions_of[h]:
                for h2 in instance.regions[k].hospitals:
                    watchers.update(instance.hospital_prefs[h2])
            if not instance.hospital_prefs[h] or not watchers:
                continue
            depth = max(resident_pos[r] for r in watchers)
            self.determined_at[depth].append(h)

    def current(self) -> Assignment:
        return Assignment.of(
            (r, h) for r, h in zip(self.residents, self.assigned) if h is not None
        )

    def _is_settled_sbp(self, r: str, h: str) -> bool:
        current = self.assigned[self.resident_pos[r]]
        if current == h:
            return False
        if current is not None and self.rrank[r][current] < self.rrank[r][h]:
            return False
        # r wants h; does h want r back?
        hrank = self.hrank[h]
        rank = hrank[r]
        assigned_here = self.assignees[h]
        if any(rank < hrank[r2] for r2 in assigned_here):
            return True
        if len(assigned_here) >= self.capacities[h]:
            return False
        # Move feasibility: only regions containing h but not r's hospital gain load.
        left = self.regions_of[current] if current is not None else ()
        return all(
            self.region_load[k] < self.region_caps[k] for k in self.regions_of[h] if k not in left
        )

    def doomed(self, i: int) -> bool:
        """Whether the prefix up to resident ``i`` holds a final strong blocking pair."""
        for h in self.determined_at[i]:
            for r in self.instance.hospital_prefs[h]:
                if self._is_settled_sbp(r, h):
                    return True
        return False

    def leaves(self, prune: Callable[[int], bool] | None = None) -> Iterator[Assignment]:
        """The feasible matchings of the walk, in canonical order.

        A branch is cut right after resident ``i`` is placed, or left
        unassigned, when ``prune(i)`` holds.
        """
        residents, options, assigned = self.residents, self.options, self.assigned
        assignees, capacities = self.assignees, self.capacities
        regions_of, region_load, region_caps = self.regions_of, self.region_load, self.region_caps
        n = len(residents)
        # cursor[i]: the position in options[i] of resident i's next option.
        cursor = [0] * n
        i = 0
        while i >= 0:
            if i == n:
                yield self.current()
                i -= 1
                continue
            h = assigned[i]
            if h is not None:  # take back resident i's previous option
                assigned[i] = None
                assignees[h].pop()
                for k in regions_of[h]:
                    region_load[k] -= 1
            pos = cursor[i]
            if pos == len(options[i]):
                cursor[i] = 0
                i -= 1
                continue
            cursor[i] = pos + 1
            h = options[i][pos]
            if h is not None:
                held = assignees[h]
                if len(held) >= capacities[h] or any(
                    region_load[k] >= region_caps[k] for k in regions_of[h]
                ):
                    continue
                assigned[i] = h
                held.append(residents[i])
                for k in regions_of[h]:
                    region_load[k] += 1
            if prune is None or not prune(i):
                i += 1


def _certified(search: _Search, matching: Assignment) -> Assignment:
    if not is_strongly_stable(search.instance, matching):
        raise RuntimeError("exhaustive search returned a matching that is not strongly stable")
    return matching


def enumerate_feasible(
    instance: Instance, *, warn_limit: int = DEFAULT_WARN_LIMIT
) -> Iterator[Assignment]:
    """Yield every feasible matching exactly once, in canonical order."""
    for emitted, matching in enumerate(_Search(instance).leaves(), start=1):
        if emitted == warn_limit + 1:
            warnings.warn(
                f"feasible-matching enumeration passed {warn_limit} matchings",
                RuntimeWarning,
                stacklevel=2,
            )
        yield matching


def strongly_stable_set(instance: Instance) -> set[Assignment]:
    """All strongly stable matchings: the leaves of the pruned walk, each certified."""
    search = _Search(instance)
    return {_certified(search, m) for m in search.leaves(search.doomed)}


def exists_strongly_stable(instance: Instance) -> SolveOutcome:
    """Decide existence; a found matching is the canonically first one."""
    search = _Search(instance)
    found = next(search.leaves(search.doomed), None)
    if found is None:
        return SolveOutcome.none_exists()
    return SolveOutcome.found(_certified(search, found))
