"""Instance validation by separate passes, kept as a test reference only.

This is the validator the package shipped before validation became the pass
that compiles an instance's index: it builds each agent's list as a set and
checks every invariant in its own loop.  The package's :func:`hrrc.model.validate`
must return the same messages in the same order.
"""

from __future__ import annotations

from hrrc.model import Instance


def validate(instance: Instance) -> list[str]:
    out: list[str] = []
    residents, hospitals = instance.residents, instance.hospitals
    rset, hset = set(residents), set(hospitals)

    if len(rset) != len(residents):
        out.append("duplicate resident ids in declaration")
    if len(hset) != len(hospitals):
        out.append("duplicate hospital ids in declaration")
    if any(not isinstance(r, str) for r in residents):
        out.append("non-string resident ids in declaration")
    if any(not isinstance(h, str) for h in hospitals):
        out.append("non-string hospital ids in declaration")
    shared = rset & hset
    if shared:
        out.append(f"ids used on both sides: {sorted(shared, key=str)}")

    if set(instance.resident_prefs) != rset:
        out.append("resident_prefs keys do not match declared residents")
    if set(instance.hospital_prefs) != hset:
        out.append("hospital_prefs keys do not match declared hospitals")
    if set(instance.capacities) != hset:
        out.append("capacities keys do not match declared hospitals")

    for h in hospitals:
        q = instance.capacities.get(h)
        if not isinstance(q, int) or isinstance(q, bool) or q < 0:
            out.append(f"hospital {h!r} has invalid capacity {q!r}")

    # Each agent's list as a set, for the duplicate and mutuality checks.
    racc: dict[str, set[str]] = {}
    hacc: dict[str, set[str]] = {}
    for r in residents:
        prefs = instance.resident_prefs.get(r, ())
        racc[r] = set(prefs)
        if len(racc[r]) != len(prefs):
            out.append(f"resident {r!r} has duplicate entries in preference list")
        for h in prefs:
            if h not in hset:
                out.append(f"resident {r!r} lists unknown hospital {h!r}")
    for h in hospitals:
        prefs = instance.hospital_prefs.get(h, ())
        hacc[h] = set(prefs)
        if len(hacc[h]) != len(prefs):
            out.append(f"hospital {h!r} has duplicate entries in preference list")
        for r in prefs:
            if r not in rset:
                out.append(f"hospital {h!r} lists unknown resident {r!r}")

    # Mutual acceptability, both directions.
    for r in residents:
        for h in instance.resident_prefs.get(r, ()):
            if h in hset and r not in hacc[h]:
                out.append(f"resident {r!r} lists {h!r} but {h!r} does not list {r!r}")
    for h in hospitals:
        for r in instance.hospital_prefs.get(h, ()):
            if r in rset and h not in racc[r]:
                out.append(f"hospital {h!r} lists {r!r} but {r!r} does not list {h!r}")

    seen_sets: dict[frozenset[str], int] = {}
    for reg in instance.regions:
        if not reg.hospitals:
            out.append("region with empty hospital set")
            continue
        unknown = reg.hospitals - hset
        if unknown:
            out.append(
                f"region {sorted(reg.hospitals, key=str)} "
                f"contains unknown hospitals {sorted(unknown, key=str)}"
            )
        if not isinstance(reg.cap, int) or isinstance(reg.cap, bool) or reg.cap < 0:
            out.append(f"region {sorted(reg.hospitals, key=str)} has invalid cap {reg.cap!r}")
        if reg.hospitals in seen_sets:
            out.append(
                f"duplicate region {sorted(reg.hospitals, key=str)} "
                f"(caps {seen_sets[reg.hospitals]} and {reg.cap})"
            )
        else:
            seen_sets[reg.hospitals] = reg.cap

    return out
