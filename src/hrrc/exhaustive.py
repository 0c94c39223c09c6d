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

A dead end does not step back one resident at a time.  Every rejected option
names its culprits: the earlier residents whose assignments alone rule it
out, whatever the residents in between do.  When a resident runs out of
options, the walk jumps straight back to the latest culprit (conflict-directed
backjumping, Prosser 1993); the residents it skips cannot repair the
conflict, so the subtrees it skips hold no leaf, and the walk yields the same
leaves in the same order as a chronological one.

The walk can also cover a closed slice of the residents, read on the
instance's own compiled view (see :func:`first_leaf`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .model import Assignment, Instance, SolveOutcome
from .stability import certified


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

    The walk covers ``residents``: every resident by default, or a closed
    slice, which holds every resident who lists a hospital the slice lists
    or a hospital of a region containing one.  Nothing outside it can change
    what the walk reads, so the tables cover only the slice's residents, the
    hospitals they list and the other members of those hospitals' regions.
    Over independent closed blocks, each in declaration order, the first
    leaf is the union of each block's first leaf, and a block with no leaf
    blames only its own residents, so the walk ends when it runs out.

    Sets of residents are bit masks over positions in the walk.
    ``listers[h]`` holds the residents who list ``h`` (the only ones who can
    change its load), and ``region_listers[k]`` those who list a hospital of
    region ``k``.  Each depth of the walk keeps a conflict set, the culprits
    of the options it rejected:

    * a full hospital: the residents placed there;
    * a region at its cap: the residents inside the region;
    * a final strong blocking pair (r, h), found by :meth:`doomed`: r and a
      worse resident at h, when h would displace one; otherwise r, the
      residents who list h, and those who list a hospital of a region that
      contains h and not r's hospital (they fix that h has room and that
      the move fits every cap).

    Whatever the other residents do, the culprits' assignments alone make
    the option infeasible or leave a strong blocking pair.  So when a
    resident runs out of options, its conflict set rules out every one of
    them, and reassigning the residents placed after the set's latest
    member cannot help.  The walk jumps back to that member, takes back
    everyone placed after it, and adds the rest of the set to the member's
    own: they are why its current option failed.  An empty set means no
    leaf remains.  Skipped subtrees hold no leaf, so the leaves and their
    order, the first one included, are those of a chronological walk.  Under
    a prefix that led to a yielded leaf the walk steps back one resident at
    a time, since a yielded option is not a rejected one and has no
    culprits.
    """

    def __init__(self, instance: Instance, residents: tuple[str, ...] | None = None):
        index = instance.index
        self.instance = instance
        self.capacities = instance.capacities
        self.rrank = index.rrank
        self.hrank = index.hrank
        self.region_caps = index.region_caps
        self.regions_of = regions_of = index.regions_of
        hospital_pos = index.hospital_pos
        regions = instance.regions
        if residents is None:
            residents = instance.residents
            self.resident_pos = index.resident_pos
            hospitals = instance.hospitals
            region_ids: Iterable[int] = range(len(regions))
        else:
            self.resident_pos = {r: i for i, r in enumerate(residents)}
            listed = dict.fromkeys(h for r in residents for h in instance.resident_prefs[r])
            region_ids = {k for h in listed for k in regions_of[h]}
            # Members that nobody in the slice lists: a full region reads them.
            unlisted = {h for k in region_ids for h in regions[k].hospitals}.difference(listed)
            hospitals = [*listed, *unlisted]
        self.residents = residents
        # Per resident position: acceptable hospitals in declaration order,
        # then None for "unassigned".
        self.options = [
            (*sorted(instance.resident_prefs[r], key=hospital_pos.__getitem__), None)
            for r in residents
        ]
        self.assignees: dict[str, list[str]] = {h: [] for h in hospitals}
        self.region_load = [0] * len(regions)
        self.assigned: list[str | None] = [None] * len(residents)
        prefs = instance.hospital_prefs
        self.listers = listers = {h: self._mask(prefs[h]) for h in hospitals}
        self.region_listers = region_listers = [0] * len(regions)
        for k in region_ids:
            for h in regions[k].hospitals:
                region_listers[k] |= listers[h]
        self.determined_at: list[list[str]] = [[] for _ in residents]
        for h in hospitals:
            watchers = listers[h]
            if not watchers:
                continue
            for k in regions_of[h]:
                watchers |= region_listers[k]
            self.determined_at[watchers.bit_length() - 1].append(h)

    def _mask(self, residents: Iterable[str]) -> int:
        pos = self.resident_pos
        mask = 0
        for r in residents:
            mask |= 1 << pos[r]
        return mask

    def current(self) -> Assignment:
        return Assignment.of(
            (r, h) for r, h in zip(self.residents, self.assigned) if h is not None
        )

    def _settled_sbp_culprits(self, r: str, h: str) -> int:
        """The culprits of (r, h) if it is a strong blocking pair, else 0."""
        pos = self.resident_pos[r]
        current = self.assigned[pos]
        if current == h:
            return 0
        if current is not None and self.rrank[r][current] < self.rrank[r][h]:
            return 0
        # r wants h; does h want r back?
        hrank = self.hrank[h]
        rank = hrank[r]
        assigned_here = self.assignees[h]
        for worse in assigned_here:
            if rank < hrank[worse]:
                return 1 << pos | 1 << self.resident_pos[worse]
        if len(assigned_here) >= self.capacities[h]:
            return 0
        # Move feasibility: only regions containing h but not r's hospital gain load.
        left = self.regions_of[current] if current is not None else ()
        culprits = 1 << pos | self.listers[h]
        for k in self.regions_of[h]:
            if k not in left:
                if self.region_load[k] >= self.region_caps[k]:
                    return 0
                culprits |= self.region_listers[k]
        return culprits

    def doomed(self, i: int) -> int:
        """The culprits of a final strong blocking pair in the prefix up to resident ``i``, or 0."""
        for h in self.determined_at[i]:
            for r in self.instance.hospital_prefs[h]:
                culprits = self._settled_sbp_culprits(r, h)
                if culprits:
                    return culprits
        return 0

    def leaves(self, prune: Callable[[int], int] | None = None) -> Iterator[Assignment]:
        """The feasible matchings of the walk, in canonical order.

        A branch is cut right after resident ``i`` is placed, or left
        unassigned, when ``prune(i)`` returns its culprits: a non-zero mask
        of positions up to ``i`` whose assignments alone rule out every leaf.
        """
        residents, options, assigned = self.residents, self.options, self.assigned
        assignees, capacities = self.assignees, self.capacities
        regions_of, region_load, region_caps = self.regions_of, self.region_load, self.region_caps
        regions = self.instance.regions
        n = len(residents)

        def unplace(j: int) -> None:
            h = assigned[j]
            assigned[j] = None
            assignees[h].pop()
            for k in regions_of[h]:
                region_load[k] -= 1

        # cursor[i]: the position in options[i] of resident i's next option;
        # conflicts[i]: the culprits of the options resident i has lost.
        cursor = [0] * (n + 1)
        conflicts = [0] * (n + 1)
        # Residents before position `pinned` sit as in the last yielded leaf.
        pinned = 0
        i = 0
        while i >= 0:
            if i == n:
                yield self.current()
                i = pinned = n - 1
                continue
            if assigned[i] is not None:  # take back resident i's previous option
                unplace(i)
            pos = cursor[i]
            if pos == len(options[i]):
                if i <= pinned:
                    back = i - 1
                else:
                    culprits = conflicts[i] & ((1 << i) - 1)
                    back = culprits.bit_length() - 1
                    conflicts[back] |= culprits
                    for j in range(i - 1, back, -1):
                        if assigned[j] is not None:
                            unplace(j)
                i = back
                continue
            if i < pinned:
                pinned = i
            cursor[i] = pos + 1
            h = options[i][pos]
            if h is not None:
                held = assignees[h]
                if len(held) >= capacities[h]:
                    conflicts[i] |= self._mask(held)
                    continue
                full = next((k for k in regions_of[h] if region_load[k] >= region_caps[k]), None)
                if full is not None:
                    for h2 in regions[full].hospitals:
                        conflicts[i] |= self._mask(assignees[h2])
                    continue
                assigned[i] = h
                held.append(residents[i])
                for k in regions_of[h]:
                    region_load[k] += 1
            if prune is not None:
                culprits = prune(i)
                if culprits:
                    conflicts[i] |= culprits
                    continue
            i += 1
            cursor[i] = conflicts[i] = 0


def enumerate_feasible(instance: Instance) -> Iterator[Assignment]:
    """Yield every feasible matching exactly once, in canonical order."""
    yield from _Search(instance).leaves()


def strongly_stable_set(instance: Instance) -> set[Assignment]:
    """All strongly stable matchings: the leaves of the pruned walk, each certified."""
    search = _Search(instance)
    return {certified(instance, m, "strongly_stable_set") for m in search.leaves(search.doomed)}


def first_leaf(instance: Instance, residents: tuple[str, ...] | None = None) -> Assignment | None:
    """The first leaf of the pruned walk over ``residents``, or None if none survives.

    ``residents`` is every resident by default, or a closed slice (see
    :class:`_Search`).  The leaf is not certified: a slice's pairs alone
    need not be strongly stable on the whole instance.
    """
    search = _Search(instance, residents)
    return next(search.leaves(search.doomed), None)


def exists_strongly_stable(instance: Instance) -> SolveOutcome:
    """Decide existence; a found matching is the canonically first one."""
    found = first_leaf(instance)
    if found is None:
        return SolveOutcome.none_exists()
    return SolveOutcome.found(certified(instance, found, "exists_strongly_stable"))
