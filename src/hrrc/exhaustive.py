"""Brute-force oracle over small instances.

Feasible matchings are enumerated by assigning residents one at a time in
declaration order; each resident tries its acceptable hospitals in hospital
declaration order and "unassigned" last, so matchings stream out in a fixed
lexicographic order.  Hospitals and regions are one kind of cap: each is a
slot of one counter table that tracks its room left as the walk places and
takes back residents, and a full slot prunes the prefix.  The walk keeps its
own stack, so no recursion limit bounds the number of residents.

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
indexed by position or slot, and the walk reads only those: no id is looked
up while it runs.  The walk covers a closed slice of the residents, with
resident and hospital tables sized to the slice; the whole instance is the
slice of every resident (see :func:`first_leaf`).
"""

from __future__ import annotations

from typing import Iterator

from .model import Assignment, Instance, SolveOutcome
from .stability import certified


class _Search:
    """Flat tables and the one depth-first walk over them.

    Residents are numbered by their position in the walk, and the hospitals
    they list in declaration order.  Sets of residents are bit masks over
    positions.

    * Every region and every hospital is one slot of a single counter table:
      region ``k`` keeps the instance's number as its slot, and hospital
      ``j`` is slot ``first + j``.  Per slot: ``room``, its cap or capacity
      minus its load; ``held``, the mask of the residents placed under it
      (updated as the walk places and removes them); and ``listers``, the
      mask of the residents who list its hospital, or a hospital of its
      region.
    * ``options[i]`` lists resident ``i``'s acceptable hospitals in
      declaration order as (hospital slot, the hospital's rank on the
      resident's list, the slots a place there fills: the hospital's, then
      its regions'), then "unassigned", which ranks below every hospital and
      fills no slot.
    * Per position: ``assigned``, the slots its resident's option fills
      (none before the walk places it), and ``assigned_rank``, that option's
      rank on the resident's list.  So "r prefers h to its assignment" is one
      integer comparison.

    A pair (r, h) is fully determined once every resident that can still
    change r's assignment, h's assignees, or the load of a region containing
    h has been placed.  From that point its strong-blocking status is final,
    so a prefix exhibiting such a pair can be abandoned.  ``determined_at[i]``
    lists the hospitals whose pairs become final at resident ``i``, in
    declaration order, each as (its slot, its listers in its own order as
    (position, bit, the hospital's rank on the lister's list), its regions).
    Its listers are the only residents who can change its load.

    The walk covers a closed slice ``residents``, which holds every resident
    who lists a hospital the slice lists or a hospital of a region
    containing one; the default, every resident, is the whole instance.
    Nothing outside the slice can change what the walk reads, so the tables
    cover only its residents and the hospitals they list; a hospital that
    none of them lists holds no one, so the region slots read it as empty.
    Over independent closed blocks, each in declaration order, the first
    leaf is the union of each block's first leaf, and a block with no leaf
    blames only its own residents, so the walk ends when it runs out.

    Each depth of the walk keeps a conflict set, the culprits of the options
    it rejected:

    * a full slot, a hospital at its capacity or a region at its cap: the
      residents placed under it;
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
    capacity and cap.  It is up to date whenever the walk yields or ends.
    """

    def __init__(self, instance: Instance, residents: tuple[str, ...] | None = None):
        index = instance.index
        hrank, hospital_pos, regions_of = index.hrank, index.hospital_pos, index.regions_of
        resident_prefs, hospital_prefs = instance.resident_prefs, instance.hospital_prefs
        if residents is None:
            residents = instance.residents
        listed = {h for r in residents for h in resident_prefs[r]}
        hospitals = sorted(listed, key=hospital_pos.__getitem__)
        self.residents = residents
        self.hospitals = hospitals
        self.first = first = len(index.region_caps)
        n, m = len(residents), len(hospitals)
        # Hospital h's slot and the slots a place there fills: its own, then
        # its regions'.
        fills = {h: (s,) + regions_of[h] for s, h in enumerate(hospitals, first)}
        # One pass over the residents' lists.  ranked[s][t] is the resident
        # that slot s's hospital ranks t-th, as (position, bit, the hospital's
        # rank on its list).
        ranked = [None] * first + [[None] * len(hospital_prefs[h]) for h in hospitals]
        self.listers = listers = [0] * (first + m)
        unassigned = (None, m, ())
        self.options = options = []
        for i, r in enumerate(residents):
            bit = 1 << i
            row = []
            for rank, h in enumerate(resident_prefs[r]):
                f = fills[h]
                s = f[0]
                ranked[s][hrank[h][r]] = (i, bit, rank)
                listers[s] |= bit
                row.append((s, rank, f))
            row.sort()
            row.append(unassigned)
            options.append(row)
        capacities = instance.capacities
        self.room = [*index.region_caps, *map(capacities.__getitem__, hospitals)]
        self.held = [0] * (first + m)
        self.assigned: list[tuple[int, ...]] = [()] * n
        self.assigned_rank = [m] * n
        for s, h in enumerate(hospitals, first):
            for k in regions_of[h]:
                listers[k] |= listers[s]
        self.determined_at: list[list] = [[] for _ in residents]
        # Every hospital in the tables has a lister, so each becomes final.
        for s, h in enumerate(hospitals, first):
            regions = regions_of[h]
            watchers = listers[s]
            for k in regions:
                watchers |= listers[k]
            self.determined_at[watchers.bit_length() - 1].append((s, ranked[s], regions))
        self.checks = 0

    def current(self) -> Assignment:
        hospitals, first = self.hospitals, self.first
        return Assignment(
            frozenset(
                (r, hospitals[f[0] - first]) for r, f in zip(self.residents, self.assigned) if f
            )
        )

    def leaves(self, pruned: bool) -> Iterator[Assignment]:
        """The feasible matchings of the walk, in canonical order.

        When ``pruned``, a branch is cut right after resident ``i`` is
        placed, or left unassigned, when a pair made final at ``i`` blocks
        strongly; its culprits are a non-zero mask of positions up to ``i``
        whose assignments alone rule out every leaf.  A search runs one walk:
        it leaves its tables as the walk last had them.
        """
        options, assigned, assigned_rank = self.options, self.assigned, self.assigned_rank
        room, held, listers = self.room, self.held, self.listers
        determined_at = self.determined_at
        n = len(options)
        checks = self.checks
        # cursor[i]: the position in options[i] of resident i's next option;
        # conflicts[i]: the culprits of the options resident i has lost.
        # The residents up to ``last`` hold an option; every one before the
        # current resident does, and the walk takes back the rest before it
        # moves on.
        cursor = [0] * (n + 1)
        conflicts = [0] * (n + 1)
        i = 0
        last = -1
        while i >= 0:
            if i == n:
                self.checks = checks
                yield self.current()
                # The leaf's options are not rejected ones: blame each
                # resident's predecessor, so the walk steps back one at a time.
                for j in range(1, n):
                    conflicts[j] |= 1 << (j - 1)
                i = n - 1
                continue
            while last >= i:
                bit = 1 << last
                for s in assigned[last]:
                    room[s] += 1
                    held[s] ^= bit
                last -= 1
            pos = cursor[i]
            if pos == len(options[i]):
                # Jump back to the latest culprit; with none, i = -1 ends the walk.
                culprits = conflicts[i] & ((1 << i) - 1)
                i = culprits.bit_length() - 1
                conflicts[i] |= culprits
                continue
            cursor[i] = pos + 1
            _, rank, fills = options[i][pos]
            for s in fills:
                if not room[s]:  # a full slot blames the residents it holds
                    conflicts[i] |= held[s]
                    break
            else:
                bit = 1 << i
                for s in fills:
                    room[s] -= 1
                    held[s] |= bit
                assigned[i] = fills
                assigned_rank[i] = rank
                last = i
                if pruned:
                    # Is a pair made final at i a strong blocking pair?
                    checks += 1
                    culprits = 0
                    for s, entries, regions in determined_at[i]:
                        at = held[s]
                        seen = 0  # the hospital's listers up to r in its order
                        for r, r_bit, r_rank in entries:
                            seen |= r_bit
                            if r_rank >= assigned_rank[r]:
                                continue  # r holds the hospital or one it prefers
                            displaced = at & ~seen  # the residents there it ranks below r
                            if displaced:
                                culprits = r_bit | displaced & -displaced  # and the earliest
                                break
                            if not room[s]:
                                continue
                            # The hospital has room: the move must fit every
                            # region it enters.
                            left = assigned[r]
                            culprits = r_bit | listers[s]
                            for k in regions:
                                if k not in left:
                                    if not room[k]:
                                        culprits = 0
                                        break
                                    culprits |= listers[k]
                            if culprits:
                                break
                        if culprits:
                            break
                    if culprits:
                        conflicts[i] |= culprits
                        continue
                i += 1
                cursor[i] = conflicts[i] = 0
        self.checks = checks


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
