"""A compiled view of one instance: the lookup tables every layer shares.

Building an :class:`InstanceIndex` takes time linear in the instance's size
and validates it, collecting every violation.  Each instance compiles its
view on first use and keeps it (``Instance.index``, see :mod:`hrrc.model`),
so none is validated twice.  The tables stand for a valid instance only.

Only the hospitals' lists get rank tables.  The residents' lists are checked
entry by entry against them; the hospitals' lists are, only when a count
fails.  It passes when nothing is reported yet and both sides' lists hold as
many entries in all, and then that check would report nothing.  Proof: the
residents' entries ``(r, h)`` are distinct pairs with ``r`` in ``h``'s table,
so their total is at most the tables' total, which is at most the hospitals'
lists' total.  The two ends are equal, so every table entry is a resident
entry (known and mutual), and no list is longer than its table (no repeats).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Instance


def is_int(value: object) -> bool:
    """Whether ``value`` may stand as a capacity or cap: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class InstanceIndex:
    """Declaration positions, the hospitals' rank tables, and region membership.

    ``hrank[h][r]`` is the position of ``r`` on ``h``'s list.  ``regions_of[h]``
    lists, in declaration order, the indices into ``instance.regions`` of the
    regions containing ``h``; ``region_caps[k]`` is region ``k``'s cap.
    ``violations`` holds one message per broken instance invariant, in
    :func:`hrrc.model.validate`'s order; the tables are meaningful only when
    it is empty.  Treat everything as read-only.
    """

    __slots__ = (
        "resident_pos", "hospital_pos", "hrank", "regions_of", "region_caps", "violations"
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

        self.hrank = hrank = {
            h: {r: i for i, r in enumerate(hospital_prefs.get(h, ()))} for h in hospitals
        }
        # The non-mutual entries of both sides follow every other list fault.
        mutual: list[str] = []
        for r in residents:
            prefs = resident_prefs.get(r, ())
            if len(set(prefs)) != len(prefs):
                out.append(f"resident {r!r} has duplicate entries in preference list")
            for h in prefs:
                listed = hrank.get(h)
                if listed is None:
                    out.append(f"resident {r!r} lists unknown hospital {h!r}")
                elif r not in listed:
                    mutual.append(f"resident {r!r} lists {h!r} but {h!r} does not list {r!r}")
        # The count of the module docstring; with nothing reported yet, each
        # side's lists are keyed by its declared ids.
        if out or mutual or (
            sum(map(len, resident_prefs.values())) != sum(map(len, hospital_prefs.values()))
        ):
            listed_by = {r: set(resident_prefs.get(r, ())) for r in residents}
            for h in hospitals:
                prefs = hospital_prefs.get(h, ())
                if len(hrank[h]) != len(prefs):
                    out.append(f"hospital {h!r} has duplicate entries in preference list")
                for r in prefs:
                    if r not in listed_by:
                        out.append(f"hospital {h!r} lists unknown resident {r!r}")
                    elif h not in listed_by[r]:
                        mutual.append(f"hospital {h!r} lists {r!r} but {r!r} does not list {h!r}")
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
