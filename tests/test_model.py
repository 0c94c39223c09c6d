"""Instance model: validation, classification, fixtures, serialization."""

from __future__ import annotations

import dataclasses
import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    all_oneinthree_formulas,
    all_ppn_formulas,
    instances,
    random_instance,
    random_matching_pairs,
)
from hrrc.cli import main
from hrrc.model import (
    Assignment,
    Instance,
    InstanceError,
    Region,
    classify,
    example_g2,
    instance_to_doc,
    load_instance,
    load_matching,
    make_instance,
    matching_to_doc,
    require_valid,
    save_instance,
    save_matching,
    validate,
)
from hrrc.reductions import ReductionVariant, reduce_oneinthree, reduce_ppn


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


_R = {"id": "r", "prefs": []}
_H = {"id": "h", "capacity": 1, "prefs": []}

# One malformed document per parser message, with the exact text reported.
# A document given as a str is parsed as is; any other value is dumped first.
# The rows with two faults pin that the first fault in reading order wins.
INSTANCE_ERRORS = [
    ("not json", "instance document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"residents": [', "instance document is not valid JSON: Expecting value: line 1 column 16 (char 15)"),
    ([], "instance document must be a JSON object"),
    ({"zeta": 1, "residents": [], "alpha": 2}, "unknown top-level keys: ['alpha', 'zeta']"),
    ({"residents": {}}, "'residents' must be an array"),
    ({"residents": ["r"]}, "residents[0] must be an object"),
    ({"residents": [_R, {"prefs": []}]}, "residents[1] is missing 'id'"),
    ({"residents": [{"id": 1}]}, "residents[0].id must be a string"),
    ({"residents": [{"id": "r", "prefs": "h"}]}, "residents[0].prefs must be an array of strings"),
    ({"residents": [{"id": "r", "prefs": ["h", 2]}]}, "residents[0].prefs must be an array of strings"),
    ({"hospitals": {}}, "'hospitals' must be an array"),
    ({"hospitals": [None]}, "hospitals[0] must be an object"),
    ({"hospitals": [_H, {"capacity": 1}]}, "hospitals[1] is missing 'id'"),
    ({"hospitals": [{"id": ["h"]}]}, "hospitals[0].id must be a string"),
    ({"hospitals": [{"id": "h"}]}, "hospitals[0].capacity must be an integer"),
    ({"hospitals": [{"id": "h", "capacity": True}]}, "hospitals[0].capacity must be an integer"),
    ({"hospitals": [{"id": "h", "capacity": 1.0}]}, "hospitals[0].capacity must be an integer"),
    ({"hospitals": [{"id": "h", "capacity": 1, "prefs": {}}]}, "hospitals[0].prefs must be an array of strings"),
    ({"hospitals": [{"id": "h", "capacity": 1, "prefs": [None]}]}, "hospitals[0].prefs must be an array of strings"),
    ({"residents": [_R, _R]}, "duplicate resident id"),
    ({"hospitals": [_H, _H]}, "duplicate hospital id"),
    ({"regions": {}}, "'regions' must be an array"),
    ({"regions": [["h"]]}, "regions[0] must be an object"),
    ({"regions": [{"cap": 1}]}, "regions[0].hospitals must be an array of strings"),
    ({"regions": [{"hospitals": "h", "cap": 1}]}, "regions[0].hospitals must be an array of strings"),
    ({"regions": [{"hospitals": [1], "cap": 1}]}, "regions[0].hospitals must be an array of strings"),
    ({"regions": [{"hospitals": ["h"]}]}, "regions[0].cap must be an integer"),
    ({"regions": [{"hospitals": ["h"], "cap": False}]}, "regions[0].cap must be an integer"),
    (
        {"residents": [{"id": "r", "prefs": ["h"]}], "hospitals": [_H]},
        "invalid instance: resident 'r' lists 'h' but 'h' does not list 'r'",
    ),
    ({"residents": [{"prefs": []}], "hospitals": 3}, "residents[0] is missing 'id'"),
    ({"residents": [_R, _R], "hospitals": [{"id": "h"}]}, "hospitals[0].capacity must be an integer"),
    ({"residents": [_R, _R], "regions": 5}, "duplicate resident id"),
    ({"residents": [_R, _R], "hospitals": [_H, _H]}, "duplicate resident id"),
    ({"regions": [{"hospitals": ["x"], "cap": 1}], "extra": 0}, "unknown top-level keys: ['extra']"),
]

MATCHING_ERRORS = [
    ("{", "matching document is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ([], "matching document must have 'pairs'"),
    ({"pair": []}, "matching document must have 'pairs'"),
    ({"pairs": {}}, "'pairs' must be an array"),
    ({"pairs": [["r", "h"], "rh"]}, "pairs[1] must be a [resident, hospital] pair of strings"),
    ({"pairs": [["r"]]}, "pairs[0] must be a [resident, hospital] pair of strings"),
    ({"pairs": [["r", "h", "x"]]}, "pairs[0] must be a [resident, hospital] pair of strings"),
    ({"pairs": [["r", 1]]}, "pairs[0] must be a [resident, hospital] pair of strings"),
    ({"pairs": [1, ["r", None]]}, "pairs[0] must be a [resident, hospital] pair of strings"),
    ({"pairs": [["r", "h"]], "extra": 1}, "unknown top-level keys: ['extra']"),
]


def _text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


@pytest.mark.parametrize("doc, message", INSTANCE_ERRORS)
def test_instance_parser_error_messages_are_pinned(doc, message):
    with pytest.raises(InstanceError) as exc:
        load_instance(_text(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("doc, message", MATCHING_ERRORS)
def test_matching_parser_error_messages_are_pinned(doc, message):
    with pytest.raises(InstanceError) as exc:
        load_matching(_text(doc))
    assert str(exc.value) == message


def test_parser_errors_reach_the_cli_stderr_line(capsys, tmp_path):
    good = tmp_path / "g2.json"
    good.write_text(save_instance(example_g2()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"residents": [{"prefs": []}], "hospitals": 3}))
    assert main(["solve", str(bad)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: residents[0] is missing 'id'\n")
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": [["r1", "h1"], ["r2"]]}))
    assert main(["check", str(good), str(pairs)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: pairs[1] must be a [resident, hospital] pair of strings\n",
    )


# --- the one-pass parser against the rows it reads ------------------------------
#
# load_instance builds the instance's fields as it reads each entry.  The
# reference collects the document's rows first, drops exact duplicate
# regions keeping the first, and assembles them with make_instance.


def instance_from_rows(doc: dict) -> Instance:
    residents = [(e["id"], e.get("prefs", [])) for e in doc.get("residents", [])]
    hospitals = [(e["id"], e["capacity"], e.get("prefs", [])) for e in doc.get("hospitals", [])]
    regions: list[tuple[frozenset[str], int]] = []
    for e in doc.get("regions", []):
        region = (frozenset(e["hospitals"]), e["cap"])
        if region not in regions:
            regions.append(region)
    return make_instance(residents, hospitals, regions)


def assert_parsed_as_rows(doc: dict) -> None:
    """``load_instance`` gives the rows' instance field by field, dict key order
    and region order included, or fails with the message that instance gives."""
    expected = instance_from_rows(doc)
    violations = validate(expected)
    if violations:
        with pytest.raises(InstanceError) as exc:
            load_instance(json.dumps(doc))
        assert str(exc.value) == "invalid instance: " + "; ".join(violations)
        return
    parsed = load_instance(json.dumps(doc))
    for field in dataclasses.fields(Instance):
        got, want = getattr(parsed, field.name), getattr(expected, field.name)
        assert (type(got), got) == (type(want), want), field.name
        if isinstance(want, dict):
            assert list(got) == list(want), field.name


def test_parser_builds_the_rows_instance_on_reductions():
    for n in (2, 3):
        for formula in all_ppn_formulas(n):
            for variant in PPN_TARGETS:
                assert_parsed_as_rows(instance_to_doc(reduce_ppn(formula, variant)[0]))
    for formula in all_oneinthree_formulas(4):
        assert_parsed_as_rows(instance_to_doc(reduce_oneinthree(formula)))


def test_parser_builds_the_rows_instance_on_random_draws():
    rng = random.Random(31)
    for gamma in (None, 0, 1, 2, 3):
        for _ in range(40):
            doc = instance_to_doc(random_instance(rng, 8, 8, gamma=gamma, edge_prob=0.5))
            # Repeat some regions, members shuffled, with the same or another cap.
            for region in list(doc["regions"]):
                if rng.random() < 0.3:
                    members = rng.sample(region["hospitals"], len(region["hospitals"]))
                    cap = region["cap"] + rng.choice((0, 0, 1))
                    at = rng.randint(0, len(doc["regions"]))
                    doc["regions"].insert(at, {"hospitals": members, "cap": cap})
            assert_parsed_as_rows(doc)


_TWO_BY_THREE = {
    "residents": [{"id": r, "prefs": ["h3", "h1", "h2"]} for r in ("r2", "r1")],
    "hospitals": [{"id": h, "capacity": 1, "prefs": ["r1", "r2"]} for h in ("h3", "h1", "h2")],
}


@pytest.mark.parametrize(
    "doc",
    [
        {**_TWO_BY_THREE, "regions": [{"hospitals": ["h1", "h2"], "cap": 1}] * 2},
        {
            **_TWO_BY_THREE,
            "regions": [
                {"hospitals": ["h2", "h1"], "cap": 1},
                {"hospitals": ["h3"], "cap": 0},
                {"hospitals": ["h1", "h2"], "cap": 1},
                {"hospitals": ["h3"], "cap": 0},
            ],
        },
        {
            **_TWO_BY_THREE,
            "regions": [{"hospitals": ["h1", "h2"], "cap": 1}, {"hospitals": ["h2", "h1"], "cap": 2}],
        },
        {
            **_TWO_BY_THREE,
            "regions": [
                {"hospitals": ["h3"], "cap": 2},
                {"hospitals": ["h3", "h2"], "cap": 1},
                {"hospitals": ["h3"], "cap": 1},
                {"hospitals": ["h2", "h3"], "cap": 1},
                {"hospitals": ["h3"], "cap": 2},
            ],
        },
        {
            **_TWO_BY_THREE,
            "regions": [{"hospitals": ["h2", "h3", "h1"], "cap": 2}, {"hospitals": ["h1"], "cap": 1}],
        },
        _TWO_BY_THREE,
        {
            "residents": [{"id": "r1"}, {"id": "r2", "prefs": []}],
            "hospitals": [{"id": "h2", "capacity": 0}, {"id": "h1", "capacity": 3, "prefs": []}],
            "regions": [{"hospitals": ["h1", "h2"], "cap": 2}],
        },
        {"hospitals": [{"id": "h", "capacity": 1}]},
        {},
    ],
    ids=[
        "identical duplicate regions",
        "identical duplicates, members out of order",
        "conflicting duplicate regions",
        "conflicting caps, first occurrences kept in order",
        "region members out of order",
        "omitted regions",
        "omitted prefs",
        "omitted residents and regions",
        "empty document",
    ],
)
def test_parser_builds_the_rows_instance_on_edge_cases(doc):
    assert_parsed_as_rows(doc)


def load_matching_per_pair(text: str) -> Assignment:
    """The matching parser as it was before it built its set in one call: a
    generator checks each pair's members, and the pairs are copied one by one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"matching document is not valid JSON: {exc}") from exc
    if not (isinstance(doc, dict) and "pairs" in doc):
        raise InstanceError("matching document must have 'pairs'")
    pairs = doc["pairs"]
    if not isinstance(pairs, list):
        raise InstanceError("'pairs' must be an array")
    out = []
    for k, pair in enumerate(pairs):
        if not (
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
        ):
            raise InstanceError(f"pairs[{k}] must be a [resident, hospital] pair of strings")
        out.append((pair[0], pair[1]))
    return Assignment.of(out)


def _parse_outcome(parse, text):
    try:
        return ("ok", parse(text))
    except InstanceError as exc:
        return ("raised", str(exc))


_NOT_PAIRS = ["r1", 1, None, True, {"r": "h"}, [], ["r1"], ["r1", "h1", "h1"], [["r1"], "h1"]]
_NOT_IDS = [1, 0, None, False, 2.5, ["r1"], {"id": "r1"}]


def test_load_matching_matches_the_per_pair_parser_on_mutated_documents():
    rng = random.Random(5)
    outcomes = {"ok": 0, "raised": 0}
    for _ in range(400):
        instance = random_instance(rng, 6, 5)
        valid = [list(p) for p in random_matching_pairs(rng, instance)]
        pairs = list(valid)
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, len(pairs))
            mutation = rng.randrange(4)
            if mutation == 0 or not valid:  # not a pair: a non-list, or 0, 1 or 3 items
                pairs.insert(k, rng.choice(_NOT_PAIRS))
            elif mutation == 1:  # a member that is not a string
                pair = list(rng.choice(valid))
                pair[rng.randrange(2)] = rng.choice(_NOT_IDS)
                pairs.insert(k, pair)
            else:  # an exact duplicate pair
                pairs.insert(k, list(rng.choice(valid)))
        text = json.dumps({"pairs": pairs})
        expected = _parse_outcome(load_matching_per_pair, text)
        assert _parse_outcome(load_matching, text) == expected
        outcomes[expected[0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_matching_roundtrip():
    m = Assignment.of([("r1", "h1"), ("r2", "h2")])
    assert load_matching(save_matching(m)) == m
    assert load_matching('{"pairs": []}') == Assignment()


# --- the writers against the json module ---------------------------------------
#
# save_instance and save_matching build their text directly; json.dumps with
# indent=2 is the reference layout they must reproduce byte for byte.  The
# instance writers take valid instances only, so every document they write
# loads back equal.


def assert_written_as_json_dumps(instance: Instance) -> None:
    assert validate(instance) == []
    text = save_instance(instance)
    assert text == json.dumps(instance_to_doc(instance), indent=2) + "\n"
    assert load_instance(text) == instance


def assert_writers_refuse(instance: Instance) -> None:
    """Both instance writers raise require_valid's InstanceError on an invalid instance."""
    with pytest.raises(InstanceError) as expected:
        require_valid(instance)
    for write in (save_instance, instance_to_doc):
        with pytest.raises(InstanceError) as caught:
            write(instance)
        assert str(caught.value) == str(expected.value)


def assert_matching_written_as_json_dumps(matching: Assignment) -> None:
    assert save_matching(matching) == json.dumps(matching_to_doc(matching), indent=2) + "\n"


PPN_TARGETS = [ReductionVariant.PPN_223, ReductionVariant.PPN_232, ReductionVariant.PPN_322]


def test_writers_match_json_dumps_on_reductions():
    # The builders do not validate their output, so this pins that every image
    # is valid and loads back equal.
    images = [
        reduce_ppn(formula, variant)[0]
        for n in (2, 3)
        for formula in all_ppn_formulas(n)
        for variant in PPN_TARGETS
    ]
    assert len(images) == 351
    images += [reduce_oneinthree(formula) for n in (4, 5) for formula in all_oneinthree_formulas(n)]
    assert len(images) == 351 + 331
    for instance in images:
        assert_written_as_json_dumps(instance)


def test_writers_match_json_dumps_on_random_draws():
    rng = random.Random(12)
    draws = [example_g2()]
    for gamma in (None, 0, 1, 2, 3):
        draws += [random_instance(rng, 8, 8, gamma=gamma, edge_prob=0.5) for _ in range(40)]
    for instance in draws:
        assert_written_as_json_dumps(instance)
        assert_matching_written_as_json_dumps(Assignment.of(random_matching_pairs(rng, instance)))


ODD_IDS = ["", "r\u00e9", "h\U0001F600", 'say "hi"', "back\\slash", "\x00\t\n\x1f", "\u2028\u2029", "/"]


class Count(enum.IntEnum):
    TWO = 2


EDGE_INSTANCES = {
    "odd string ids": make_instance(
        residents=[(ODD_IDS[0], ODD_IDS[4:]), (ODD_IDS[1], ODD_IDS[:3:-1])],
        hospitals=[(x, 1, ODD_IDS[:2]) for x in ODD_IDS[4:]]
        + [(ODD_IDS[2], 2, []), (ODD_IDS[3], 0, [])],
        regions=[(ODD_IDS[2:6], 1), (ODD_IDS[6:], 2)],
    ),
    # json renders an int subclass as int.__repr__ does, and so must the writer.
    "int-subclass counts": make_instance(
        residents=[("r", ["h"])], hospitals=[("h", Count.TWO, ["r"])], regions=[(["h"], Count.TWO)]
    ),
    # make_instance does not validate, so these two reach the writers invalid.
    "non-string ids and odd capacities": make_instance(
        residents=[(1, [("h", 2), None]), (("r", 2), [1.5, True])],
        hospitals=[(("h", 2), True, [1]), (None, -3, [("r", 2)]), ("h", 2.5, [])],
        regions=[([("h", 2)], None), ([None], False), (["h"], -1), (["h"], 10**20)],
    ),
    "ids only in preference lists": make_instance(
        residents=[("r", ["ghost", "h"])], hospitals=[("h", 1, ["r", "phantom"])]
    ),
    "empty preference lists": make_instance(
        residents=[("r1", []), ("r2", [])], hospitals=[("h", 1, [])], regions=[(["h"], 0)]
    ),
    "no residents": make_instance(residents=[], hospitals=[("h", 1, [])]),
    "no hospitals": make_instance(residents=[("r", [])], hospitals=[]),
    "no regions": make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])]),
    "nothing at all": make_instance(residents=[], hospitals=[]),
    "region members out of order": make_instance(
        residents=[("r", ["h3", "h1", "h2"])],
        hospitals=[(h, 1, ["r"]) for h in ("h3", "h1", "h2")],
        regions=[(("h3", "h1", "h2"), 2), (["h2", "h1"], 1)],
    ),
}


REFUSED = {"non-string ids and odd capacities", "ids only in preference lists"}


@pytest.mark.parametrize("name", list(EDGE_INSTANCES))
def test_save_instance_matches_json_dumps_on_edge_cases(name):
    if name in REFUSED:
        assert_writers_refuse(EDGE_INSTANCES[name])
    else:
        assert_written_as_json_dumps(EDGE_INSTANCES[name])


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [("r1", "h1")],
        list(zip(ODD_IDS, reversed(ODD_IDS))),
        # Every control character, quotes and backslashes, non-ASCII text and
        # a lone surrogate, on both sides of a pair.
        [(chr(c), f"h{c}") for c in [*range(0x20), 0x7F]],
        [('"', "\\"), ('\\"', '"\\'), ("\\u0041", '""')],
        [("r\u00e9sident", "h\u00f4pital"), ("\u65e5\u672c", "\U0001F3E5"), ("\ud800", "\udfff")],
        [(1, 2), (0, 5)],
        [(("r", 1), "h"), (("r", 0), None)],
        [("r", 1)],
        [(1, "h")],
    ],
)
def test_save_matching_matches_json_dumps_on_edge_cases(pairs):
    matching = Assignment.of(pairs)
    if all(isinstance(x, str) for pair in pairs for x in pair):
        assert_matching_written_as_json_dumps(matching)
    else:
        # A document holds string ids only, and the escaper refuses any other.
        with pytest.raises(TypeError):
            save_matching(matching)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_save_load_identity(instance):
    assert load_instance(save_instance(instance)) == instance


@pytest.mark.parametrize(
    ("instance", "message"),
    [
        (make_instance([(1, ["h"])], [("h", 1, [1])]), "non-string resident ids in declaration"),
        (make_instance([("r", [2])], [(2, 1, ["r"])]), "non-string hospital ids in declaration"),
    ],
)
def test_validation_refuses_ids_a_document_cannot_hold(instance, message):
    # The writer refuses such an instance, so it never writes a document that
    # does not load back.
    assert validate(instance) == [message]
    with pytest.raises(InstanceError, match=message):
        save_instance(instance)


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
