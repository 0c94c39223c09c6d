"""Resident-proposing deferred acceptance and the capacity-shrinking step."""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from .index import InstanceIndex, index_for
from .model import Assignment, Instance


def rgs(
    instance: Instance, *, ignore_regions: bool = False, index: InstanceIndex | None = None
) -> Assignment:
    """Resident-optimal stable matching of the underlying capacitated market.

    Regions play no role here; passing a region-bearing instance requires the
    explicit ``ignore_regions`` flag so call sites acknowledge that the caps
    are being set aside.  The instance is validated unless its ``index`` is
    passed.
    """
    index = index_for(instance, index)
    if instance.regions and not ignore_regions:
        raise ValueError(
            "instance declares regions; pass ignore_regions=True to run plain "
            "deferred acceptance on it"
        )
    hrank = index.hrank
    next_choice = {r: 0 for r in instance.residents}
    held: dict[str, list[str]] = {h: [] for h in instance.hospitals}
    free = deque(instance.residents)
    while free:
        r = free.popleft()
        prefs = instance.resident_prefs[r]
        while next_choice[r] < len(prefs):
            h = prefs[next_choice[r]]
            next_choice[r] += 1
            q = index.capacities[h]
            if q == 0:
                continue
            if len(held[h]) < q:
                held[h].append(r)
                break
            worst = max(held[h], key=hrank[h].__getitem__)
            if hrank[h][r] < hrank[h][worst]:
                held[h].remove(worst)
                held[h].append(r)
                free.append(worst)
                break
    return Assignment.of((r, h) for h, rs in held.items() for r in rs)


def shrink(instance: Instance) -> Instance:
    """Cap each hospital's capacity by the length of its preference list.

    Idempotent, and preserves the set of strongly stable matchings: a
    hospital can never hold more residents than it finds acceptable.
    """
    capacities = {
        h: min(instance.capacities[h], len(instance.hospital_prefs[h]))
        for h in instance.hospitals
    }
    return replace(instance, capacities=capacities)
