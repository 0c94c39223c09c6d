"""A compiled view of one instance: the lookup tables every layer shares.

An :class:`InstanceIndex` is built in time linear in the instance's size, and
building it is the instance's validation: it fills the tables, both sides'
rank tables first, checks each side's lists against the other side's table
with one routine, and collects every violation as it goes.  Each instance
compiles its own view on first use and keeps it (``Instance.index``, see
:mod:`hrrc.model`), so every layer reads the same tables and no instance is
validated twice.  The tables stand for a valid instance only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Instance


def is_int(value: object) -> bool:
    """Whether ``value`` may stand as a capacity or cap: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_lists(
    side: str, agents: tuple, prefs_of: dict, rank: dict, other: str, other_rank: dict, out: list
) -> list[str]:
    """Append one side's duplicate and unknown entries to ``out``; return its non-mutual ones.

    A list with a repeated entry is longer than its table in ``rank``.
    """
    mutual: list[str] = []
    for a in agents:
        prefs = prefs_of.get(a, ())
        if len(rank[a]) != len(prefs):
            out.append(f"{side} {a!r} has duplicate entries in preference list")
        for b in prefs:
            listed = other_rank.get(b)
            if listed is None:
                out.append(f"{side} {a!r} lists unknown {other} {b!r}")
            elif a not in listed:
                mutual.append(f"{side} {a!r} lists {b!r} but {b!r} does not list {a!r}")
    return mutual


class InstanceIndex:
    """Declaration positions, rank tables, and region membership.

    ``rrank[r][h]`` / ``hrank[h][r]`` is the position of ``h`` on ``r``'s list
    (of ``r`` on ``h``'s).  ``regions_of[h]`` lists, in declaration order, the
    indices into ``instance.regions`` of the regions containing ``h``;
    ``region_caps[k]`` is region ``k``'s cap.  ``violations`` holds one message
    per broken instance invariant, in :func:`hrrc.model.validate`'s order; the
    tables are meaningful only when it is empty.  Treat everything as
    read-only.
    """

    __slots__ = (
        "resident_pos",
        "hospital_pos",
        "rrank",
        "hrank",
        "regions_of",
        "region_caps",
        "violations",
    )

    def __init__(self, instance: Instance):
        out: list[str] = []
        residents, hospitals = instance.residents, instance.hospitals
        self.resident_pos = rpos = {r: i for i, r in enumerate(residents)}
        self.hospital_pos = hpos = {h: i for i, h in enumerate(hospitals)}
        if len(rpos) != len(residents):
            out.append("duplicate resident ids in declaration")
        if len(hpos) != len(hospitals):
            out.append("duplicate hospital ids in declaration")
        # The documents hold string ids only, so the writers need them too.
        if not all(map(str.__instancecheck__, residents)):
            out.append("non-string resident ids in declaration")
        if not all(map(str.__instancecheck__, hospitals)):
            out.append("non-string hospital ids in declaration")
        shared = rpos.keys() & hpos.keys()
        if shared:
            out.append(f"ids used on both sides: {sorted(shared, key=str)}")

        resident_prefs, hospital_prefs = instance.resident_prefs, instance.hospital_prefs
        capacities = instance.capacities
        if resident_prefs.keys() != rpos.keys():
            out.append("resident_prefs keys do not match declared residents")
        if hospital_prefs.keys() != hpos.keys():
            out.append("hospital_prefs keys do not match declared hospitals")
        if capacities.keys() != hpos.keys():
            out.append("capacities keys do not match declared hospitals")
        for h in hospitals:
            q = capacities.get(h)
            if not is_int(q) or q < 0:
                out.append(f"hospital {h!r} has invalid capacity {q!r}")

        self.rrank = rrank = {
            r: {h: i for i, h in enumerate(resident_prefs.get(r, ()))} for r in residents
        }
        self.hrank = hrank = {
            h: {r: i for i, r in enumerate(hospital_prefs.get(h, ()))} for h in hospitals
        }
        # Each side checks its entries against the other side's table; the
        # non-mutual entries of both sides follow every other list fault.
        mutual = _check_lists("resident", residents, resident_prefs, rrank, "hospital", hrank, out)
        mutual += _check_lists("hospital", hospitals, hospital_prefs, hrank, "resident", rrank, out)
        out += mutual

        self.regions_of = regions_of = dict.fromkeys(hospitals, ())
        seen_sets: dict[frozenset[str], int] = {}
        for k, reg in enumerate(instance.regions):
            members = reg.hospitals
            if not members:
                out.append("region with empty hospital set")
                continue
            if hpos.keys() >= members:
                for h in members:
                    regions_of[h] += (k,)
            else:
                unknown = sorted((h for h in members if h not in hpos), key=str)
                out.append(
                    f"region {sorted(members, key=str)} contains unknown hospitals {unknown}"
                )
            cap = reg.cap
            if not is_int(cap) or cap < 0:
                out.append(f"region {sorted(members, key=str)} has invalid cap {cap!r}")
            if members in seen_sets:
                out.append(
                    f"duplicate region {sorted(members, key=str)} "
                    f"(caps {seen_sets[members]} and {cap})"
                )
            else:
                seen_sets[members] = cap
        self.region_caps = tuple(reg.cap for reg in instance.regions)
        self.violations = out
