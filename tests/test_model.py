"""Instance model: validation, classification, fixtures, serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import instances, random_instance
from hrrc.model import (
    Assignment,
    InstanceError,
    Region,
    classify,
    common_residents,
    example_g2,
    load_instance,
    load_matching,
    make_instance,
    save_instance,
    save_matching,
    validate,
)


def test_g2_fixture_is_valid():
    assert validate(example_g2()) == []


def test_g2_shape():
    g2 = example_g2()
    assert g2.residents == ("r1", "r2")
    assert g2.hospitals == ("h1", "h2")
    assert g2.capacities == {"h1": 1, "h2": 1}
    assert g2.resident_prefs["r1"] == ("h1", "h2")
    assert g2.resident_prefs["r2"] == ("h2", "h1")
    assert g2.hospital_prefs["h1"] == ("r2", "r1")
    assert g2.hospital_prefs["h2"] == ("r1", "r2")
    assert g2.regions == (Region(frozenset({"h1", "h2"}), 1),)


def test_g2_classifies_as_222_disjoint():
    cls = classify(example_g2())
    assert (cls.alpha, cls.beta, cls.gamma, cls.disjoint) == (2, 2, 2, True)


def test_validate_flags_one_sided_acceptability():
    inst = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, [])],
    )
    report = validate(inst)
    assert len(report) == 1
    assert "does not list" in report[0]


def test_validate_flags_empty_region():
    inst = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, ["r"])],
        regions=[(set(), 1)],
    )
    assert any("empty" in v for v in validate(inst))


def test_validate_flags_duplicate_region_sets_and_negative_caps():
    inst = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, ["r"])],
        regions=[({"h"}, 1), ({"h"}, 2)],
    )
    assert any("duplicate region" in v for v in validate(inst))
    inst2 = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, ["r"])],
        regions=[({"h"}, -1)],
    )
    assert any("invalid cap" in v for v in validate(inst2))


def test_capacity_zero_is_allowed():
    inst = make_instance(residents=[("r", ["h"])], hospitals=[("h", 0, ["r"])])
    assert validate(inst) == []


def test_classify_empty_region_set_has_gamma_zero():
    inst = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])])
    cls = classify(inst)
    assert cls.gamma == 0
    assert cls.disjoint


def test_classify_overlapping_regions():
    inst = make_instance(
        residents=[("r", ["h1", "h2"])],
        hospitals=[("h1", 1, ["r"]), ("h2", 1, ["r"])],
        regions=[({"h1", "h2"}, 1), ({"h2"}, 1)],
    )
    assert not classify(inst).disjoint


def test_classify_rejects_invalid_instance():
    bad = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, [])])
    with pytest.raises(InstanceError):
        classify(bad)


def test_common_residents():
    g2 = example_g2()
    assert common_residents(g2, ["h1", "h2"]) == {"r1", "r2"}
    assert common_residents(g2, ["h1"]) == set(g2.hospital_prefs["h1"])
    with pytest.raises(InstanceError):
        common_residents(g2, [])
    disjoint_lists = make_instance(
        residents=[("r1", ["h1"]), ("r2", ["h2"])],
        hospitals=[("h1", 1, ["r1"]), ("h2", 1, ["r2"])],
    )
    assert common_residents(disjoint_lists, ["h1", "h2"]) == set()


def test_instance_roundtrip_g2():
    g2 = example_g2()
    assert load_instance(save_instance(g2)) == g2


def test_load_rejects_duplicate_hospital_id():
    doc = """
    {"residents": [], "hospitals": [
      {"id": "h", "capacity": 1, "prefs": []},
      {"id": "h", "capacity": 2, "prefs": []}]}
    """
    with pytest.raises(InstanceError, match="duplicate hospital id"):
        load_instance(doc)


def test_load_without_regions_defaults_to_none():
    doc = '{"residents": [{"id": "r", "prefs": []}], "hospitals": [{"id": "h", "capacity": 1, "prefs": []}]}'
    assert load_instance(doc).regions == ()


def test_load_deduplicates_identical_regions_and_rejects_conflicts():
    base = """
    {"residents": [{"id": "r", "prefs": ["h"]}],
     "hospitals": [{"id": "h", "capacity": 1, "prefs": ["r"]}],
     "regions": [{"hospitals": ["h"], "cap": 1}, {"hospitals": ["h"], "cap": %d}]}
    """
    assert len(load_instance(base % 1).regions) == 1
    with pytest.raises(InstanceError, match="duplicate region"):
        load_instance(base % 2)


def test_load_rejects_non_json_and_bad_structure():
    with pytest.raises(InstanceError):
        load_instance("not json")
    with pytest.raises(InstanceError, match="missing 'id'"):
        load_instance('{"residents": [{"prefs": []}], "hospitals": []}')


def test_matching_roundtrip():
    m = Assignment.of([("r1", "h1"), ("r2", "h2")])
    assert load_matching(save_matching(m)) == m
    assert load_matching('{"pairs": []}') == Assignment()


@settings(max_examples=60, deadline=None)
@given(instances())
def test_save_load_identity(instance):
    assert load_instance(save_instance(instance)) == instance


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(min_value=0, max_value=2**31))
def test_classify_invariant_under_renaming(instance, seed):
    rng = random.Random(seed)
    res_names = [f"R{i}x" for i in range(len(instance.residents))]
    hosp_names = [f"H{i}x" for i in range(len(instance.hospitals))]
    rng.shuffle(res_names)
    rng.shuffle(hosp_names)
    rmap = dict(zip(instance.residents, res_names))
    hmap = dict(zip(instance.hospitals, hosp_names))
    renamed = make_instance(
        residents=[(rmap[r], [hmap[h] for h in instance.resident_prefs[r]]) for r in instance.residents],
        hospitals=[
            (hmap[h], instance.capacities[h], [rmap[r] for r in instance.hospital_prefs[h]])
            for h in instance.hospitals
        ],
        regions=[({hmap[h] for h in reg.hospitals}, reg.cap) for reg in instance.regions],
    )
    assert classify(renamed) == classify(instance)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_disjoint_means_each_hospital_in_at_most_one_region(instance):
    cls = classify(instance)
    counts = {h: 0 for h in instance.hospitals}
    for reg in instance.regions:
        for h in reg.hospitals:
            counts[h] += 1
    if cls.disjoint:
        assert all(c <= 1 for c in counts.values())
    else:
        assert any(c > 1 for c in counts.values())
