"""Validation by the compiling pass against the separate-pass reference.

``reference_validate`` checks each invariant in its own loop;
:func:`hrrc.model.validate` reports what the one pass that compiles the
instance's index collected.  On valid random instances broken in one to three
ways, both must give the same messages in the same order, and
``load_instance`` must raise the same error text with either validator.  Some
broken instances keep the list totals that let validation skip the hospital
side's entry-by-entry check; those must still report every fault.
"""

from __future__ import annotations

import json
import random
import re

import pytest

import hrrc.model as model
import reference_validate as ref
from gen import random_instance
from hrrc.model import (
    Instance,
    InstanceError,
    Region,
    instance_to_doc,
    load_instance,
    make_instance,
)

BAD_COUNTS = [-1, -3, True, False, "2", None, 1.5]


def _pick_list(rng, prefs):
    """A random agent of ``prefs`` with a non-empty list, or None."""
    agents = [a for a, p in prefs.items() if p]
    return rng.choice(agents) if agents else None


def mutate(rng: random.Random, inst: Instance) -> Instance:
    residents, hospitals = list(inst.residents), list(inst.hospitals)
    caps = dict(inst.capacities)
    rprefs = {r: list(p) for r, p in inst.resident_prefs.items()}
    hprefs = {h: list(p) for h, p in inst.hospital_prefs.items()}
    regions = [(reg.hospitals, reg.cap) for reg in inst.regions]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(15)
        side, other = rng.choice([(rprefs, hospitals), (hprefs, residents)])
        if kind == 0:
            residents.append(rng.choice(residents))
        elif kind == 1:
            hospitals.append(rng.choice(hospitals))
        elif kind == 2:
            shared = rng.choice(hospitals)
            residents.append(shared)
            if rng.random() < 0.5:
                rprefs[shared] = []
        elif kind in (3, 4, 5):
            keyed = (rprefs, hprefs, caps)[kind - 3]
            if keyed and rng.random() < 0.5:
                del keyed[rng.choice(list(keyed))]
            else:
                keyed["ghost"] = [] if keyed is not caps else 1
        elif kind == 6:
            caps[rng.choice(hospitals)] = rng.choice(BAD_COUNTS)
        elif kind == 7:
            agent = _pick_list(rng, side)
            if agent is not None:
                side[agent].insert(rng.randint(0, len(side[agent])), rng.choice(side[agent]))
        elif kind == 8 and side:
            agent = rng.choice(list(side))
            side[agent].append(rng.choice(["x1", "x2", "h1", "r1"]))
        elif kind == 9:
            agent = _pick_list(rng, side)
            if agent is not None:
                side[agent].remove(rng.choice(side[agent]))
        elif kind == 10 and side:
            agent = rng.choice(list(side))
            side[agent].append(rng.choice(other))
        elif kind == 11:
            regions.append((frozenset(), rng.randint(0, 2)))
        elif kind == 12:
            members = {rng.choice(hospitals), rng.choice(["x1", "x2"])}
            regions.append((frozenset(members), rng.randint(0, 2)))
        elif kind == 13:
            # Swap one entry between two hospitals' lists: every total stays.
            listing = [h for h, p in hprefs.items() if p]
            if len(listing) >= 2:
                a, b = (hprefs[h] for h in rng.sample(listing, 2))
                i, j = rng.randrange(len(a)), rng.randrange(len(b))
                a[i], b[j] = b[j], a[i]
        elif regions and rng.random() < 0.5:
            members, cap = rng.choice(regions)
            regions.append((members, rng.choice([cap, 7] + BAD_COUNTS)))
        else:
            members = frozenset(rng.sample(hospitals, rng.randint(1, len(hospitals))))
            regions.append((members, rng.choice(BAD_COUNTS)))
    return Instance(
        residents=tuple(residents),
        hospitals=tuple(hospitals),
        capacities=caps,
        resident_prefs={r: tuple(p) for r, p in rprefs.items()},
        hospital_prefs={h: tuple(p) for h, p in hprefs.items()},
        regions=tuple(Region(members, cap) for members, cap in regions),
    )


def balanced(inst: Instance) -> bool:
    """Whether the declared residents' lists hold as many entries in all as
    the declared hospitals' lists: the count that lets validation skip the
    hospital side's entry-by-entry check when nothing else is wrong."""
    return sum(len(inst.resident_prefs.get(r, ())) for r in inst.residents) == sum(
        len(inst.hospital_prefs.get(h, ())) for h in inst.hospitals
    )


# The messages only the hospital side's entry-by-entry check reports.
_HOSPITAL_LIST_FAULT = re.compile(r"hospital '\w+' (lists|has duplicate)")


def test_validate_matches_reference_on_mutated_instances():
    rng = random.Random(41)
    broken = balanced_broken = hospital_side = 0
    for _ in range(3000):
        inst = random_instance(rng, max_residents=5, max_hospitals=5)
        assert model.validate(inst) == ref.validate(inst) == []
        mutant = mutate(rng, inst)
        expected = ref.validate(mutant)
        assert model.validate(mutant) == expected
        broken += bool(expected)
        if expected and balanced(mutant):
            balanced_broken += 1
            hospital_side += any(map(_HOSPITAL_LIST_FAULT.match, expected))
        if expected:
            with pytest.raises(InstanceError) as info:
                mutant.index
            assert str(info.value) == "invalid instance: " + "; ".join(expected)
    assert broken > 2500
    # Mutants that pass the count yet break a hospital's list: the count alone
    # must not let validation skip the hospital side.
    assert balanced_broken >= 200
    assert hospital_side >= 100


@pytest.mark.parametrize(
    ("instance", "expected"),
    [
        (
            make_instance([("r1", ["h1", "h1"])], [("h1", 1, ["r1"]), ("h2", 1, ["r1"])]),
            [
                "resident 'r1' has duplicate entries in preference list",
                "hospital 'h2' lists 'r1' but 'r1' does not list 'h2'",
            ],
        ),
        (
            make_instance([("r1", ["h1"])] * 2, [("h1", 1, ["r1"]), ("h2", 1, ["r1"])]),
            [
                "duplicate resident ids in declaration",
                "hospital 'h2' lists 'r1' but 'r1' does not list 'h2'",
            ],
        ),
        (
            make_instance([("r1", ["x"]), ("x", ["h2"])], [("x", 1, ["r1"]), ("h2", 1, ["r1"])]),
            [
                "ids used on both sides: ['x']",
                "resident 'x' lists 'h2' but 'h2' does not list 'x'",
                "hospital 'h2' lists 'r1' but 'r1' does not list 'h2'",
            ],
        ),
    ],
    ids=["duplicate-entry", "repeated-declared-id", "id-on-both-sides"],
)
def test_validate_checks_hospital_lists_when_totals_balance(instance, expected):
    """Each instance balances the count yet is invalid, so the hospital side's
    lists must still be checked entry by entry."""
    assert balanced(instance)
    assert ref.validate(instance) == expected
    assert model.validate(instance) == expected


def test_validate_matches_reference_on_non_string_ids():
    rng = random.Random(44)
    for _ in range(300):
        inst = random_instance(rng, max_residents=4, max_hospitals=4)
        agent = rng.choice(inst.residents + inst.hospitals)
        sub = {agent: rng.choice([0, None, (agent,)])}.get
        renamed = Instance(
            residents=tuple(sub(r, r) for r in inst.residents),
            hospitals=tuple(sub(h, h) for h in inst.hospitals),
            capacities={sub(h, h): q for h, q in inst.capacities.items()},
            resident_prefs={sub(r, r): tuple(sub(h, h) for h in p)
                            for r, p in inst.resident_prefs.items()},
            hospital_prefs={sub(h, h): tuple(sub(r, r) for r in p)
                            for h, p in inst.hospital_prefs.items()},
            regions=tuple(Region(frozenset(sub(h, h) for h in reg.hospitals), reg.cap)
                          for reg in inst.regions),
        )
        side = "resident" if agent in inst.resident_prefs else "hospital"
        expected = ref.validate(renamed)
        assert expected == [f"non-string {side} ids in declaration"]
        assert model.validate(renamed) == expected


@pytest.mark.parametrize(
    ("instance", "expected"),
    [
        (
            make_instance([("r", ["h"])], [("h", 1, ["r"])], [(["h", 2], 1)]),
            ["region [2, 'h'] contains unknown hospitals [2]"],
        ),
        (
            make_instance([(1, ["a"]), ("a", [1])], [(1, 1, ["a"]), ("a", 1, [1])]),
            [
                "non-string resident ids in declaration",
                "non-string hospital ids in declaration",
                "ids used on both sides: [1, 'a']",
            ],
        ),
    ],
    ids=["region", "both-sides"],
)
def test_validate_reports_mixed_id_types(instance, expected):
    """An API-built instance may mix id types; the messages list them by
    their text instead of failing to compare them."""
    assert ref.validate(instance) == expected
    assert model.validate(instance) == expected


def test_validate_returns_a_fresh_list():
    inst = mutate(random.Random(3), random_instance(random.Random(3)))
    first = model.validate(inst)
    first.append("tampered")
    assert model.validate(inst) == ref.validate(inst)


def _load_error(text: str) -> str | None:
    try:
        load_instance(text)
    except InstanceError as exc:
        return str(exc)
    return None


def mutate_doc(rng: random.Random, doc: dict) -> dict:
    residents, hospitals, regions = doc["residents"], doc["hospitals"], doc["regions"]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(9)
        agents = rng.choice([residents, hospitals])
        entry = rng.choice(agents)
        if kind == 0:
            agents.append(json.loads(json.dumps(entry)))
        elif kind == 1:
            rng.choice(hospitals)["capacity"] = rng.choice([-1, -2])
        elif kind == 2 and entry["prefs"]:
            entry["prefs"].append(rng.choice(entry["prefs"]))
        elif kind == 3:
            entry["prefs"].append(rng.choice(["x1", "x2"]))
        elif kind == 4 and entry["prefs"]:
            entry["prefs"].pop(rng.randrange(len(entry["prefs"])))
        elif kind == 5:
            regions.append({"hospitals": [], "cap": 1})
        elif kind == 6:
            regions.append({"hospitals": [rng.choice(hospitals)["id"], "x1"], "cap": 1})
        elif kind == 7 and regions:
            region = rng.choice(regions)
            regions.append({"hospitals": region["hospitals"], "cap": region["cap"] + rng.randint(0, 1)})
        else:
            members = sorted({rng.choice(hospitals)["id"] for _ in range(2)})
            regions.append({"hospitals": members, "cap": rng.choice([-1, 0, 1])})
    return doc


def test_load_instance_errors_match_reference(monkeypatch):
    rng = random.Random(43)
    texts = []
    for _ in range(1500):
        doc = instance_to_doc(random_instance(rng, max_residents=5, max_hospitals=5))
        texts.append(json.dumps(mutate_doc(rng, doc)))
    errors = [_load_error(text) for text in texts]
    monkeypatch.setattr(model, "validate", ref.validate)
    assert errors == [_load_error(text) for text in texts]
    assert sum(e is not None for e in errors) > 1000
