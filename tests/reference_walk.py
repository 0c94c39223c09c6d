"""The chronological pruned walk of the exhaustive oracle, kept as a test reference.

This is the walk ``hrrc.exhaustive`` ran before it learned to backjump: it
assigns residents in declaration order, tries each one's hospitals in
declaration order and "unassigned" last, and after a dead end always steps
back to the previous resident.  A prefix is cut when it overfills a hospital
or a region, or when some pair is a strong blocking pair that no later
resident can change.  It revisits every combination of the residents placed
between a conflict's cause and its detection, which makes it slow on the
reduction instances, but each step is plainly the definition, which is what a
differential test needs.  It assumes a valid instance.
"""

from __future__ import annotations

from typing import Iterator

from hrrc.model import Assignment, Instance, SolveOutcome


class _ChronologicalSearch:
    def __init__(self, instance: Instance):
        index = instance.index
        self.instance = instance
        self.residents = instance.residents
        self.rrank = {r: {h: i for i, h in enumerate(p)} for r, p in instance.resident_prefs.items()}
        self.hrank = index.hrank
        self.region_caps, self.regions_of = index.region_caps, index.regions_of
        self.resident_pos = index.resident_pos
        self.options = [
            (*sorted(instance.resident_prefs[r], key=index.hospital_pos.__getitem__), None)
            for r in self.residents
        ]
        self.assignees: dict[str, list[str]] = {h: [] for h in instance.hospitals}
        self.region_load = [0] * len(instance.regions)
        self.assigned: list[str | None] = [None] * len(self.residents)
        # determined_at[i]: hospitals whose pairs no resident after i can change.
        self.determined_at: list[list[str]] = [[] for _ in self.residents]
        for h in instance.hospitals:
            watchers = set(instance.hospital_prefs[h])
            for k in self.regions_of[h]:
                for h2 in instance.regions[k].hospitals:
                    watchers.update(instance.hospital_prefs[h2])
            if instance.hospital_prefs[h] and watchers:
                self.determined_at[max(self.resident_pos[r] for r in watchers)].append(h)

    def _is_settled_sbp(self, r: str, h: str) -> bool:
        current = self.assigned[self.resident_pos[r]]
        if current == h:
            return False
        if current is not None and self.rrank[r][current] < self.rrank[r][h]:
            return False
        hrank = self.hrank[h]
        assigned_here = self.assignees[h]
        if any(hrank[r] < hrank[r2] for r2 in assigned_here):
            return True
        if len(assigned_here) >= self.instance.capacities[h]:
            return False
        left = self.regions_of[current] if current is not None else ()
        return all(
            self.region_load[k] < self.region_caps[k] for k in self.regions_of[h] if k not in left
        )

    def doomed(self, i: int) -> bool:
        return any(
            self._is_settled_sbp(r, h)
            for h in self.determined_at[i]
            for r in self.instance.hospital_prefs[h]
        )

    def leaves(self) -> Iterator[Assignment]:
        """The strongly stable matchings, in canonical order."""
        n = len(self.residents)
        cursor = [0] * n
        i = 0
        while i >= 0:
            if i == n:
                yield Assignment.of(
                    (r, h) for r, h in zip(self.residents, self.assigned) if h is not None
                )
                i -= 1
                continue
            h = self.assigned[i]
            if h is not None:
                self.assigned[i] = None
                self.assignees[h].pop()
                for k in self.regions_of[h]:
                    self.region_load[k] -= 1
            if cursor[i] == len(self.options[i]):
                cursor[i] = 0
                i -= 1
                continue
            h = self.options[i][cursor[i]]
            cursor[i] += 1
            if h is not None:
                if len(self.assignees[h]) >= self.instance.capacities[h] or any(
                    self.region_load[k] >= self.region_caps[k] for k in self.regions_of[h]
                ):
                    continue
                self.assigned[i] = h
                self.assignees[h].append(self.residents[i])
                for k in self.regions_of[h]:
                    self.region_load[k] += 1
            if not self.doomed(i):
                i += 1


def exists_strongly_stable_chronologically(instance: Instance) -> SolveOutcome:
    found = next(_ChronologicalSearch(instance).leaves(), None)
    return SolveOutcome.none_exists() if found is None else SolveOutcome.found(found)


def strongly_stable_set_chronologically(instance: Instance) -> set[Assignment]:
    return set(_ChronologicalSearch(instance).leaves())
