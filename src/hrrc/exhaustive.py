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

Set-up reads the instance's compiled view once into flat tables of integers
indexed by position, and the walk reads only those: no id is looked up while
it runs.  The walk covers a closed slice of the residents, with resident and
hospital tables sized to the slice; the whole instance is the slice of every
resident (see :func:`first_leaf`).
"""

from __future__ import annotations

from typing import Iterator

from .model import Assignment, Instance, SolveOutcome
from .stability import certified


class _Search:
    """Flat tables and the one depth-first walk over them.

    Residents are numbered by their position in the walk, and the hospitals
    they list in declaration order.  Regions keep the instance's numbers.
    Sets of residents are bit masks over positions.

    * ``options[i]`` lists resident ``i``'s acceptable hospitals in
      declaration order as (hospital, its rank on the resident's list),
      then "unassigned" as (-1, a rank worse than every hospital's):
      hospital -1, the hospital tables' last entry, is never full and lies
      in no region.
    * Per hospital: ``capacity``, ``load``, ``assignees`` (the mask of the
      residents placed there, updated as the walk places and removes them)
      and ``hospital_regions``.  Per region: ``region_caps``,
      ``region_load``, ``region_assignees`` and ``region_listers`` (the
      residents who list one of its hospitals).
    * Per position: ``assigned``, the hospital, or None while the walk has
      not placed the resident, and ``assigned_rank``, its rank on the
      resident's list.  So "r prefers h to its assignment" is one integer
      comparison.

    A pair (r, h) is fully determined once every resident that can still
    change r's assignment, h's assignees, or the load of a region containing
    h has been placed.  From that point its strong-blocking status is final,
    so a prefix exhibiting such a pair can be abandoned.  ``determined_at[i]``
    lists the hospitals whose pairs become final at resident ``i``, in
    declaration order, each as (hospital, its listers in its own order as
    (position, bit, the hospital's rank on the lister's list), the mask of
    its listers, its regions).  Its listers are the only residents who can
    change its load.

    The walk covers a closed slice ``residents``, which holds every resident
    who lists a hospital the slice lists or a hospital of a region
    containing one; the default, every resident, is the whole instance.
    Nothing outside the slice can change what the walk reads, so the tables
    cover only its residents and the hospitals they list; a hospital that
    none of them lists holds no one, so the region tables read it as empty.
    Over independent closed blocks, each in declaration order, the first
    leaf is the union of each block's first leaf, and a block with no leaf
    blames only its own residents, so the walk ends when it runs out.

    Each depth of the walk keeps a conflict set, the culprits of the options
    it rejected:

    * a full hospital: the residents placed there;
    * a region at its cap: the residents inside the region;
    * a final strong blocking pair (r, h): r and the earliest placed
      resident at h whom h ranks below r, when there is one; otherwise r,
      the residents who list h, and those who list a hospital of a region
      that contains h and not r's hospital (they fix that h has room and
      that the move fits every cap).

    Whatever the other residents do, the culprits' assignments alone make
    the option infeasible or leave a strong blocking pair.  So when a
    resident runs out of options, its conflict set rules out every one of
    them, and reassigning the residents placed after the set's latest
    member cannot help.  The walk jumps back to that member, takes back
    everyone placed after it, and adds the rest of the set to the member's
    own: they are why its current option failed.  An empty set means no
    leaf remains.  Skipped subtrees hold no leaf, so the leaves and their
    order, the first one included, are those of a chronological walk.  A
    yielded leaf rejects no option, so each of its residents gets its
    predecessor as a culprit: under the leaf's prefix the same rule steps
    back one resident at a time.

    ``checks`` counts the pruned walk's tests for a final strong blocking
    pair: one after each option, "unassigned" included, that fits every
    capacity and cap.
    """

    def __init__(self, instance: Instance, residents: tuple[str, ...] | None = None):
        index = instance.index
        hrank, hospital_pos, regions_of = index.hrank, index.hospital_pos, index.regions_of
        resident_prefs, hospital_prefs = instance.resident_prefs, instance.hospital_prefs
        if residents is None:
            residents = instance.residents
        listed = {h for r in residents for h in resident_prefs[r]}
        hospitals = sorted(listed, key=hospital_pos.__getitem__)
        local = {h: j for j, h in enumerate(hospitals)}
        self.residents = residents
        self.hospitals = hospitals
        n, m = len(residents), len(hospitals)
        # One pass over the residents' lists.  listers[j][t] is the resident
        # that hospital j ranks t-th, as (position, bit, j's rank on its
        # list), and lister_masks[j] is the mask of them all.
        listers = [[None] * len(hospital_prefs[h]) for h in hospitals]
        lister_masks = [0] * m
        unassigned = (-1, m)
        self.options = options = []
        for i, r in enumerate(residents):
            bit = 1 << i
            row = []
            for rank, h in enumerate(resident_prefs[r]):
                j = local[h]
                listers[j][hrank[h][r]] = (i, bit, rank)
                lister_masks[j] |= bit
                row.append((j, rank))
            row.sort()
            row.append(unassigned)
            options.append(row)
        capacities = instance.capacities
        self.capacity = [*map(capacities.__getitem__, hospitals), n]
        self.load = [0] * (m + 1)
        self.assignees = [0] * (m + 1)
        self.hospital_regions = hospital_regions = [*map(regions_of.__getitem__, hospitals), ()]
        self.region_caps = index.region_caps
        self.region_load = [0] * len(index.region_caps)
        self.region_assignees = [0] * len(index.region_caps)
        self.region_listers = region_listers = [0] * len(index.region_caps)
        self.assigned: list[int | None] = [None] * n
        self.assigned_rank = [m] * n
        for j in range(m):
            for k in hospital_regions[j]:
                region_listers[k] |= lister_masks[j]
        self.determined_at: list[list] = [[] for _ in residents]
        # Every hospital in the tables has a lister, so each becomes final.
        for j in range(m):
            watchers = lister_masks[j]
            regions = hospital_regions[j]
            for k in regions:
                watchers |= region_listers[k]
            self.determined_at[watchers.bit_length() - 1].append(
                (j, listers[j], lister_masks[j], regions)
            )
        self.checks = 0

    def current(self) -> Assignment:
        hospitals = self.hospitals
        return Assignment(
            frozenset((r, hospitals[h]) for r, h in zip(self.residents, self.assigned) if h >= 0)
        )

    def leaves(self, pruned: bool) -> Iterator[Assignment]:
        """The feasible matchings of the walk, in canonical order.

        When ``pruned``, a branch is cut right after resident ``i`` is
        placed, or left unassigned, when a pair made final at ``i`` blocks
        strongly; its culprits are a non-zero mask of positions up to ``i``
        whose assignments alone rule out every leaf.
        """
        options, assigned, assigned_rank = self.options, self.assigned, self.assigned_rank
        capacity, load, assignees = self.capacity, self.load, self.assignees
        hospital_regions = self.hospital_regions
        region_caps, region_load = self.region_caps, self.region_load
        region_assignees, region_listers = self.region_assignees, self.region_listers
        determined_at = self.determined_at
        n = len(options)

        def unplace(j: int) -> None:
            h = assigned[j]
            assigned[j] = None
            bit = 1 << j
            load[h] -= 1
            assignees[h] ^= bit
            for k in hospital_regions[h]:
                region_load[k] -= 1
                region_assignees[k] ^= bit

        # cursor[i]: the position in options[i] of resident i's next option;
        # conflicts[i]: the culprits of the options resident i has lost.
        # Every resident before the current one holds an option.
        cursor = [0] * (n + 1)
        conflicts = [0] * (n + 1)
        i = 0
        while i >= 0:
            if i == n:
                yield self.current()
                # The leaf's options are not rejected ones: blame each
                # resident's predecessor, so the walk steps back one at a time.
                for j in range(1, n):
                    conflicts[j] |= 1 << (j - 1)
                i = n - 1
                continue
            if assigned[i] is not None:  # take back resident i's previous option
                unplace(i)
            pos = cursor[i]
            if pos == len(options[i]):
                culprits = conflicts[i] & ((1 << i) - 1)
                back = culprits.bit_length() - 1
                conflicts[back] |= culprits
                for j in range(i - 1, back, -1):
                    unplace(j)
                i = back
                continue
            cursor[i] = pos + 1
            h, rank = options[i][pos]
            if load[h] >= capacity[h]:
                conflicts[i] |= assignees[h]
                continue
            full = False
            for k in hospital_regions[h]:
                if region_load[k] >= region_caps[k]:
                    conflicts[i] |= region_assignees[k]
                    full = True
                    break
            if full:
                continue
            bit = 1 << i
            assigned[i] = h
            assigned_rank[i] = rank
            load[h] += 1
            assignees[h] |= bit
            for k in hospital_regions[h]:
                region_load[k] += 1
                region_assignees[k] |= bit
            if pruned:
                # Is a pair made final at i a strong blocking pair?
                self.checks += 1
                culprits = 0
                for j, entries, listers, regions in determined_at[i]:
                    held = assignees[j]
                    seen = 0  # j's listers up to r in j's order
                    for r, r_bit, r_rank in entries:
                        seen |= r_bit
                        if r_rank >= assigned_rank[r]:
                            continue  # r holds j or a hospital it prefers
                        displaced = held & ~seen  # the residents at j it ranks below r
                        if displaced:
                            culprits = r_bit | displaced & -displaced  # and the earliest
                            break
                        if load[j] >= capacity[j]:
                            continue
                        # j has room: the move must fit every region it enters.
                        left = hospital_regions[assigned[r]]
                        culprits = r_bit | listers
                        for k in regions:
                            if k not in left:
                                if region_load[k] >= region_caps[k]:
                                    culprits = 0
                                    break
                                culprits |= region_listers[k]
                        if culprits:
                            break
                    if culprits:
                        break
                if culprits:
                    conflicts[i] |= culprits
                    continue
            i += 1
            cursor[i] = conflicts[i] = 0


def enumerate_feasible(instance: Instance) -> Iterator[Assignment]:
    """Yield every feasible matching exactly once, in canonical order."""
    yield from _Search(instance).leaves(False)


def strongly_stable_set(instance: Instance) -> set[Assignment]:
    """All strongly stable matchings: the leaves of the pruned walk, each certified."""
    leaves = _Search(instance).leaves(True)
    return {certified(instance, m, "strongly_stable_set") for m in leaves}


def first_leaf(instance: Instance, residents: tuple[str, ...] | None = None) -> Assignment | None:
    """The first leaf of the pruned walk over ``residents``, or None if none survives.

    ``residents`` is a closed slice (see :class:`_Search`); the default,
    every resident, walks the whole instance.  The leaf is not certified: a
    slice's pairs alone need not be strongly stable on the whole instance.
    """
    return next(_Search(instance, residents).leaves(True), None)


def exists_strongly_stable(instance: Instance) -> SolveOutcome:
    """Decide existence; a found matching is the canonically first one."""
    found = first_leaf(instance)
    if found is None:
        return SolveOutcome.none_exists()
    return SolveOutcome.found(certified(instance, found, "exists_strongly_stable"))
