"""Brute-force oracle over small instances.

Feasible matchings are enumerated by assigning residents one at a time in
declaration order; each resident tries its acceptable hospitals in hospital
declaration order and "unassigned" last, so matchings stream out in a fixed
lexicographic order.  Hospital and region loads are tracked incrementally and
prune infeasible prefixes.

The existence check additionally cuts a branch as soon as some pair is a
strong blocking pair in every completion of the current prefix, which keeps
the search tractable on the structured instances the reductions emit.  The
pruned branches never contain a strongly stable matching, so the first
surviving leaf is still the lexicographically least one.
"""

from __future__ import annotations

import warnings
from typing import Iterator

from .index import InstanceIndex, index_for
from .model import Assignment, Instance, SolveOutcome
from .stability import is_strongly_stable

DEFAULT_WARN_LIMIT = 1_000_000


class _SearchState:
    """Shared incremental bookkeeping for the enumeration walks.

    ``assignees[h]`` lists the residents placed at ``h``, latest last: the
    walks are depth-first, so the resident unplaced from ``h`` is always the
    one placed there last.
    """

    def __init__(self, instance: Instance, index: InstanceIndex | None):
        self.index = index = index_for(instance, index)
        self.instance = instance
        self.residents = instance.residents
        self.capacities = index.capacities
        hospital_index = index.hospital_pos
        # Per resident: acceptable hospitals in declaration order.
        self.choices = {
            r: sorted(instance.resident_prefs[r], key=hospital_index.__getitem__)
            for r in self.residents
        }
        self.region_caps = index.region_caps
        self.regions_of = index.regions_of
        self.assignees: dict[str, list[str]] = {h: [] for h in instance.hospitals}
        self.region_load = [0] * len(instance.regions)
        self.assigned: list[str | None] = [None] * len(self.residents)

    def fits(self, h: str) -> bool:
        if len(self.assignees[h]) >= self.capacities[h]:
            return False
        return all(self.region_load[k] < self.region_caps[k] for k in self.regions_of[h])

    def place(self, i: int, h: str) -> None:
        self.assigned[i] = h
        self.assignees[h].append(self.residents[i])
        for k in self.regions_of[h]:
            self.region_load[k] += 1

    def unplace(self, i: int, h: str) -> None:
        self.assigned[i] = None
        self.assignees[h].pop()
        for k in self.regions_of[h]:
            self.region_load[k] -= 1

    def current(self) -> Assignment:
        return Assignment.of(
            (r, h) for r, h in zip(self.residents, self.assigned) if h is not None
        )


def enumerate_feasible(
    instance: Instance,
    *,
    warn_limit: int = DEFAULT_WARN_LIMIT,
    index: InstanceIndex | None = None,
) -> Iterator[Assignment]:
    """Yield every feasible matching exactly once, in canonical order."""
    state = _SearchState(instance, index)
    n = len(state.residents)
    emitted = 0

    def walk(i: int) -> Iterator[Assignment]:
        nonlocal emitted
        if i == n:
            emitted += 1
            if emitted == warn_limit + 1:
                warnings.warn(
                    f"feasible-matching enumeration passed {warn_limit} matchings",
                    RuntimeWarning,
                    stacklevel=3,
                )
            yield state.current()
            return
        r = state.residents[i]
        for h in state.choices[r]:
            if state.fits(h):
                state.place(i, h)
                yield from walk(i + 1)
                state.unplace(i, h)
        yield from walk(i + 1)

    yield from walk(0)


def strongly_stable_set(
    instance: Instance, *, index: InstanceIndex | None = None
) -> set[Assignment]:
    """All strongly stable matchings: the feasible ones the checker accepts."""
    index = index_for(instance, index)
    return {
        m
        for m in enumerate_feasible(instance, index=index)
        if is_strongly_stable(instance, m, index=index)
    }


class _ExistenceSearch(_SearchState):
    """Depth-first existence search with determined-blocking-pair cutoffs.

    A pair (r, h) is fully determined once every resident that can still
    change r's assignment, h's assignees, or the load of a region containing
    h has been placed.  From that point its strong-blocking status is final,
    so a prefix exhibiting such a pair can be abandoned.
    """

    def __init__(self, instance: Instance, index: InstanceIndex | None):
        super().__init__(instance, index)
        self.rrank = self.index.rrank
        self.hrank = self.index.hrank
        self.resident_pos = resident_pos = self.index.resident_pos
        n = len(self.residents)
        self.determined_at: list[list[str]] = [[] for _ in range(n)]
        for h in instance.hospitals:
            watchers = set(instance.hospital_prefs[h])
            for k in self.regions_of[h]:
                for h2 in instance.regions[k].hospitals:
                    watchers.update(instance.hospital_prefs[h2])
            if not instance.hospital_prefs[h] or not watchers:
                continue
            depth = max(resident_pos[r] for r in watchers)
            self.determined_at[depth].append(h)

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

    def doomed(self, depth: int) -> bool:
        for h in self.determined_at[depth]:
            for r in self.instance.hospital_prefs[h]:
                if self._is_settled_sbp(r, h):
                    return True
        return False


def exists_strongly_stable(
    instance: Instance, *, index: InstanceIndex | None = None
) -> SolveOutcome:
    """Decide existence; a found matching is the canonically first one."""
    search = _ExistenceSearch(instance, index)
    n = len(search.residents)

    def walk(i: int) -> Assignment | None:
        if i == n:
            return search.current()
        r = search.residents[i]
        for h in search.choices[r]:
            if search.fits(h):
                search.place(i, h)
                if not search.doomed(i):
                    found = walk(i + 1)
                    if found is not None:
                        return found
                search.unplace(i, h)
        if search.doomed(i):
            return None
        return walk(i + 1)

    found = walk(0)
    if found is None:
        return SolveOutcome.none_exists()
    if not is_strongly_stable(instance, found, index=search.index):
        raise RuntimeError("exhaustive search returned a matching that is not strongly stable")
    return SolveOutcome.found(found)
