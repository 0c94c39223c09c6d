"""The capacity-reduction loop that reruns deferred acceptance, kept as a test reference.

This is the loop ``hrrc.poly_solvers.solve_2x2_free`` ran before deferred
acceptance became resumable: after every capacity decrement it runs ``rgs``
from scratch on the lowered capacities and recounts every region's load.  It
costs one full deferred-acceptance pass per decrement, but each step is
plainly what the squeeze rule says, which is what a differential test needs.
It assumes a valid 2x2-free disjoint (2,2,2) instance with capacities of at
most 2, and applies the same squeeze rule as the package.
"""

from __future__ import annotations

from hrrc.hr_core import rgs
from hrrc.index import InstanceIndex
from hrrc.model import Assignment, Instance, common_residents


def solve_2x2_free_by_reruns(instance: Instance) -> Assignment:
    index = InstanceIndex(instance)
    common = {
        reg.hospitals: common_residents(instance, reg.hospitals)
        for reg in instance.regions
        if len(reg.hospitals) == 2
    }
    capacities = dict(instance.capacities)
    for _ in range(sum(capacities.values()) + 1):
        current = index.with_capacities(dict(capacities))
        matching = rgs(current.instance, ignore_regions=True, index=current)
        region_load = [0] * len(instance.regions)
        for _r, h in matching.pairs:
            for k in index.regions_of[h]:
                region_load[k] += 1
        overloaded = next(
            (reg for reg, load in zip(instance.regions, region_load) if load > reg.cap), None
        )
        if overloaded is None:
            return matching
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
