"""The capacity-reduction loop that reruns deferred acceptance, kept as a test reference.

This is the loop ``hrrc.poly_solvers.solve_2x2_free`` ran before deferred
acceptance became resumable: after every capacity decrement it runs ``rgs``
from scratch on the lowered capacities and recounts every region's load.  It
costs one full deferred-acceptance pass per decrement, but each step is
plainly what the squeeze rule says, which is what a differential test needs.
It assumes a valid 2x2-free disjoint (2,2,2) instance with capacities of at
most 2, and applies the same squeeze rule as the package.  ``choose`` picks
the region to squeeze among the overloaded ones, listed in declaration order;
the first one by default.
"""

from __future__ import annotations

from typing import Callable

from hrrc.hr_core import rgs
from hrrc.model import Assignment, Instance, Region


def common_residents(instance: Instance, hospitals: frozenset[str]) -> set[str]:
    """Residents acceptable to every hospital in a non-empty group."""
    first, *rest = hospitals
    prefs = instance.hospital_prefs
    return set(prefs[first]).intersection(*(prefs[h] for h in rest))


def squeeze_by_reruns(
    instance: Instance, choose: Callable[[list[Region]], Region] = lambda regions: regions[0]
) -> tuple[dict[str, int], Assignment]:
    """The capacities the loop ends with, and the matching."""
    index = instance.index
    common = {
        reg.hospitals: common_residents(instance, reg.hospitals)
        for reg in instance.regions
        if len(reg.hospitals) == 2
    }
    capacities = dict(instance.capacities)
    for _ in range(sum(capacities.values()) + 1):
        matching = rgs(instance, ignore_regions=True, capacities=capacities)
        region_load = [0] * len(instance.regions)
        for _r, h in matching.pairs:
            for k in index.regions_of[h]:
                region_load[k] += 1
        candidates = [reg for reg, load in zip(instance.regions, region_load) if load > reg.cap]
        if not candidates:
            return capacities, matching
        overloaded = choose(candidates)
        members = sorted(overloaded.hospitals, key=index.hospital_pos.__getitem__)
        if len(members) == 1:
            squeeze = members[0]
        elif len(common[overloaded.hospitals]) == 1:
            (r,) = common[overloaded.hospitals]
            h_plus, h_minus = sorted(members, key=index.rrank[r].__getitem__)
            squeeze = h_minus if capacities[h_minus] > 0 else h_plus
        else:
            squeeze = next((h for h in members if capacities[h] > 0), members[0])
        if capacities[squeeze] <= 0:
            raise RuntimeError("the reference loop found an overloaded region with no capacity left")
        capacities[squeeze] -= 1
    raise RuntimeError("the reference loop failed to terminate")


def solve_2x2_free_by_reruns(instance: Instance) -> Assignment:
    return squeeze_by_reruns(instance)[1]
