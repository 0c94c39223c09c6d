"""Deferred acceptance on resident ids, kept as a test reference.

This is the resumable deferred acceptance ``hrrc.hr_core`` ran before its
hospitals held their assignees' ranks: ``held[h]`` lists the residents ``h``
holds, and the worst of them is found by looking each one's rank up.  It
proposes in the same order as the package, so a differential test can
compare not only the matching but also how far each resident proposed, the
capacities and the hospitals that accepted, which :meth:`squeeze` returns.  It
assumes a valid instance and valid capacities.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from hrrc.model import Assignment, Instance


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
    the residents ``h`` holds.  :meth:`squeeze` returns the hospitals that
    accepted a proposal while it ran, in proposal order.
    """

    __slots__ = ("capacities", "next_choice", "held", "_prefs", "_hrank")

    def __init__(self, instance: Instance, capacities: Mapping[str, int] | None = None):
        self._prefs = instance.resident_prefs
        self._hrank = instance.index.hrank
        self.capacities = dict(instance.capacities if capacities is None else capacities)
        self.next_choice = dict.fromkeys(instance.residents, 0)
        self.held: dict[str, list[str]] = {h: [] for h in instance.hospitals}
        self._propose(deque(instance.residents))

    def _propose(self, free: deque[str]) -> list[str]:
        prefs_of, hrank, capacities = self._prefs, self._hrank, self.capacities
        next_choice, held = self.next_choice, self.held
        accepted = []
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
                accepted.append(h)
                break
        return accepted

    def squeeze(self, h: str) -> list[str]:
        """Lower ``h``'s capacity by one and resume from the rejection it forces.

        Returns the hospitals that accepted a proposal meanwhile, in proposal order.
        """
        self.capacities[h] -= 1
        held_h = self.held[h]
        if len(held_h) > self.capacities[h]:
            worst = max(held_h, key=self._hrank[h].__getitem__)
            held_h.remove(worst)
            return self._propose(deque([worst]))
        return []

    def matching(self) -> Assignment:
        """The matching the state holds."""
        return Assignment.of((r, h) for h, rs in self.held.items() for r in rs)
