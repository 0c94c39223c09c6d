"""Deferred acceptance, resumable after capacity cuts; shrinking; the greedy fill.

:class:`DeferredAcceptance` is the package's one deferred acceptance.  Each
hospital holds its assignees as their positions on its own preference list,
so finding and rejecting the worst of them is integer work.

:func:`greedy` is the package's one greedy fill: it decides the classes whose
residents or hospitals list at most one agent, and fills the witnesses of the
hardness reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable, Mapping

from .index import is_int
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

    ``next_choice[r]`` is how far down its list ``r`` has proposed.
    ``held[h]`` holds, in no order, the positions on ``h``'s preference list
    of the residents ``h`` holds, so its worst assignee is the largest one.
    :meth:`squeeze` returns the hospitals that accepted a proposal while it
    ran.  ``capacities``, when given, must hold one non-negative int per
    hospital of the instance; :class:`ValueError` names the first hospital
    that breaks this.
    """

    __slots__ = ("capacities", "next_choice", "held", "_prefs", "_hprefs", "_hrank")

    def __init__(self, instance: Instance, capacities: Mapping[str, int] | None = None):
        self._prefs = instance.resident_prefs
        self._hprefs = instance.hospital_prefs
        self._hrank = instance.index.hrank
        if capacities is None:
            capacities = instance.capacities
        else:
            _check_capacities(instance, capacities)
        self.capacities = dict(capacities)
        self.next_choice = dict.fromkeys(instance.residents, 0)
        self.held: dict[str, list[int]] = {h: [] for h in instance.hospitals}
        self._propose(deque(instance.residents))

    def _propose(self, free: deque[str]) -> list[str]:
        """Let the ``free`` residents propose; return the accepting hospitals, in order."""
        prefs_of, hprefs, hrank = self._prefs, self._hprefs, self._hrank
        capacities, next_choice, held = self.capacities, self.next_choice, self.held
        accepted = []
        while free:
            r = free.popleft()
            prefs = prefs_of[r]
            i = next_choice[r]
            while i < len(prefs):
                h = prefs[i]
                i += 1
                q = capacities[h]
                if q == 0:
                    continue
                held_h, rank = held[h], hrank[h][r]
                if len(held_h) >= q:
                    worst = max(held_h)
                    if worst < rank:
                        continue
                    held_h.remove(worst)
                    free.append(hprefs[h][worst])
                held_h.append(rank)
                accepted.append(h)
                break
            next_choice[r] = i
        return accepted

    def squeeze(self, h: str) -> list[str]:
        """Lower ``h``'s capacity by one and resume from the rejection it forces.

        Returns the hospitals that accepted a proposal meanwhile, in proposal order.
        """
        self.capacities[h] -= 1
        held_h = self.held[h]
        if len(held_h) > self.capacities[h]:
            worst = max(held_h)
            held_h.remove(worst)
            return self._propose(deque([self._hprefs[h][worst]]))
        return []

    def matching(self) -> Assignment:
        """The matching the state holds."""
        hprefs = self._hprefs
        return Assignment(
            frozenset((hprefs[h][t], h) for h, ranks in self.held.items() for t in ranks)
        )


def _check_capacities(instance: Instance, capacities: Mapping[str, int]) -> None:
    """Raise :class:`ValueError` unless ``capacities`` holds one non-negative int per hospital."""
    for h in instance.hospitals:
        if h not in capacities:
            raise ValueError(f"capacities have no entry for hospital {h!r}")
        q = capacities[h]
        if not is_int(q) or q < 0:
            raise ValueError(f"hospital {h!r} has invalid capacity {q!r}")
    if len(capacities) != len(instance.hospitals):
        known = instance.index.hospital_pos
        for h in capacities:
            if h not in known:
                raise ValueError(f"capacities name {h!r}, which is not a hospital of the instance")


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
    hospital capacities: one non-negative int per hospital, or
    :class:`ValueError`.
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
