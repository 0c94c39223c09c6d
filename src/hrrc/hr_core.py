"""Deferred acceptance, resumable after capacity cuts; shrinking; the greedy fill.

:func:`greedy` is the package's one greedy fill: it decides the classes whose
residents or hospitals list at most one agent, and fills the witnesses of the
hardness reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable, Mapping

from .model import Assignment, Instance


class DeferredAcceptance:
    """Resident-proposing deferred acceptance that resumes after a capacity cut.

    Building the state runs deferred acceptance on ``capacities`` (by default
    the instance's own), with regions set aside.  :meth:`squeeze` lowers one
    hospital's capacity by one; the resident it rejects, if any, goes on
    proposing from where they stopped.  Proposal order does not change the
    resident-optimal stable matching (McVitie & Wilson 1970) and a lower
    capacity only adds rejections, so the state always holds the matching a
    fresh run on its capacities would give.

    ``next_choice[r]`` is how far down its list ``r`` has proposed, ``held[h]``
    the residents ``h`` holds.  ``gained`` collects every hospital that accepted
    a proposal; the caller clears it once read.
    """

    __slots__ = ("capacities", "next_choice", "held", "gained", "_prefs", "_hrank")

    def __init__(self, instance: Instance, capacities: Mapping[str, int] | None = None):
        self._prefs = instance.resident_prefs
        self._hrank = instance.index.hrank
        self.capacities = dict(instance.capacities if capacities is None else capacities)
        self.next_choice = dict.fromkeys(instance.residents, 0)
        self.held: dict[str, list[str]] = {h: [] for h in instance.hospitals}
        self.gained: set[str] = set()
        self._propose(deque(instance.residents))

    def _propose(self, free: deque[str]) -> None:
        prefs_of, hrank, capacities = self._prefs, self._hrank, self.capacities
        next_choice, held, gained = self.next_choice, self.held, self.gained
        while free:
            r = free.popleft()
            prefs = prefs_of[r]
            while next_choice[r] < len(prefs):
                h = prefs[next_choice[r]]
                next_choice[r] += 1
                q = capacities[h]
                if q == 0:
                    continue
                held_h, rank = held[h], hrank[h]
                if len(held_h) >= q:
                    worst = max(held_h, key=rank.__getitem__)
                    if rank[worst] < rank[r]:
                        continue
                    held_h.remove(worst)
                    free.append(worst)
                held_h.append(r)
                gained.add(h)
                break

    def squeeze(self, h: str) -> None:
        """Lower ``h``'s capacity by one and resume from the rejection it forces."""
        self.capacities[h] -= 1
        held_h = self.held[h]
        if len(held_h) > self.capacities[h]:
            worst = max(held_h, key=self._hrank[h].__getitem__)
            held_h.remove(worst)
            self._propose(deque([worst]))

    def matching(self) -> Assignment:
        """The matching the state holds."""
        return Assignment.of((r, h) for h, rs in self.held.items() for r in rs)


def rgs(
    instance: Instance,
    *,
    ignore_regions: bool = False,
    capacities: Mapping[str, int] | None = None,
) -> Assignment:
    """Resident-optimal stable matching of the underlying capacitated market.

    Regions play no role here; passing a region-bearing instance requires the
    explicit ``ignore_regions`` flag so call sites acknowledge that the caps
    are being set aside.  ``capacities``, when given, replaces the instance's
    hospital capacities (each a non-negative integer).
    """
    if instance.regions and not ignore_regions:
        raise ValueError(
            "instance declares regions; pass ignore_regions=True to run plain "
            "deferred acceptance on it"
        )
    return DeferredAcceptance(instance, capacities).matching()


def shrunk_capacities(instance: Instance) -> dict[str, int]:
    """Each hospital's capacity, capped by the length of its preference list."""
    return {
        h: min(instance.capacities[h], len(instance.hospital_prefs[h]))
        for h in instance.hospitals
    }


def shrink(instance: Instance) -> Instance:
    """Cap each hospital's capacity by the length of its preference list.

    Idempotent, and preserves the set of strongly stable matchings: a
    hospital can never hold more residents than it finds acceptable.
    """
    return replace(instance, capacities=shrunk_capacities(instance))


def greedy(
    candidates: Iterable[tuple[str, str]],
    capacities: Mapping[str, int],
    regions: Iterable[tuple[Iterable[str], int]],
) -> Assignment:
    """Take each candidate (r, h), in order, while r is free and h has room.

    h has room while it and every region holding it are under their caps:
    ``capacities`` gives each hospital's room and ``regions`` holds one
    ``(hospitals, cap)`` row per region; a hospital at capacity 0 is closed.
    """
    # A hospital's counters of room left: its own, then one per region
    # holding it, shared with the region's other members.
    room = {h: [[q]] for h, q in capacities.items()}
    for members, cap in regions:
        left = [cap]
        for h in members:
            room[h].append(left)
    taken: dict[str, str] = {}
    for r, h in candidates:
        if r in taken:
            continue
        counters = room[h]
        if 0 not in [left[0] for left in counters]:
            for left in counters:
                left[0] -= 1
            taken[r] = h
    return Assignment(frozenset(taken.items()))
