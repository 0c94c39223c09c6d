"""The compiled instance index, built once per instance by its validation."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from gen import random_instance
from hrrc import cli, model
from hrrc.cli import main
from hrrc.exhaustive import strongly_stable_set
from hrrc.index import InstanceIndex
from hrrc.model import (
    Assignment,
    InstanceError,
    classify,
    example_g2,
    load_instance,
    make_instance,
    save_instance,
    save_matching,
    validate,
)
from hrrc.poly_solvers import dispatch, solve_222_disjoint
from hrrc.stability import is_strongly_stable, report


def test_index_tables():
    index = example_g2().index
    assert index.resident_pos == {"r1": 0, "r2": 1}
    assert index.hospital_pos == {"h1": 0, "h2": 1}
    assert index.hrank["h1"] == {"r2": 0, "r1": 1}
    assert not hasattr(index, "rrank")
    assert index.regions_of == {"h1": (0,), "h2": (0,)}
    assert index.region_caps == (1,)
    assert index.violations == []


def test_index_validates_on_first_use():
    bad = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, [])])
    for use in (
        lambda: bad.index,
        lambda: classify(bad),
        lambda: dispatch(bad),
        lambda: is_strongly_stable(bad, Assignment()),
        lambda: report(bad, Assignment()),
        lambda: strongly_stable_set(bad),
    ):
        with pytest.raises(InstanceError, match="does not list"):
            use()
    assert validate(bad) == ["resident 'r' lists 'h' but 'h' does not list 'r'"]


def test_replace_compiles_afresh():
    g2 = example_g2()
    index = g2.index
    assert g2.index is index
    lowered = replace(g2, capacities={"h1": 0, "h2": 1})
    assert lowered.index is not index
    assert g2 == example_g2()
    assert lowered == replace(example_g2(), capacities={"h1": 0, "h2": 1})
    broken = replace(g2, capacities={"h1": -1, "h2": 1})
    with pytest.raises(InstanceError, match="invalid capacity -1"):
        broken.index


@pytest.fixture()
def compiles(monkeypatch):
    """Every instance an InstanceIndex is compiled from, in order."""
    calls = []
    original = InstanceIndex.__init__

    def counting(self, instance):
        calls.append(instance)
        original(self, instance)

    monkeypatch.setattr(InstanceIndex, "__init__", counting)
    return calls


def compiled_once_each(calls):
    return len({id(instance) for instance in calls}) == len(calls)


def test_each_instance_compiles_at_most_once(compiles):
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng, max_residents=5, max_hospitals=5, max_capacity=2)
        validate(inst)
        classify(inst)
        outcome = dispatch(inst, brute_limit=64)
        if outcome.is_found:
            report(inst, outcome.matching)
        strongly_stable_set(inst)
        solve_222_disjoint(example_g2())
    assert compiled_once_each(compiles)


def test_dispatch_validates_once(compiles):
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(
            rng, max_residents=8, max_hospitals=8, alpha=2, beta=2, gamma=2, disjoint=True,
            max_capacity=2,
        )
        compiles.clear()
        dispatch(inst)
        assert sum(c is inst for c in compiles) == 1
        assert compiled_once_each(compiles)


def test_solve_222_disjoint_validates_once(compiles):
    g2 = example_g2()
    solve_222_disjoint(g2)
    assert sum(c is g2 for c in compiles) == 1
    assert compiled_once_each(compiles)


@pytest.mark.parametrize("command", ["classify", "solve", "check", "brute"])
def test_cli_validates_once(command, compiles, monkeypatch, tmp_path, capsys):
    # Writing the fixture validates (so compiles) example_g2; count from main's start.
    path = tmp_path / "g2.json"
    path.write_text(save_instance(example_g2()))
    matching = tmp_path / "empty.json"
    matching.write_text(save_matching(Assignment()))
    loaded = []

    def recording(text):
        instance = load_instance(text)
        loaded.append(instance)
        return instance

    monkeypatch.setattr(cli, "load_instance", recording)
    argv = [command, str(path)] + ([str(matching)] if command == "check" else [])
    compiles.clear()
    main(argv)
    assert len(loaded) == 1
    assert sum(c is loaded[0] for c in compiles) == 1
    # example_g2 is one 2x2 block, which solve decides on the instance's own view.
    assert len(compiles) == 1
    assert compiled_once_each(compiles)


def two_blocks_and_a_squeeze():
    """A found disjoint (2,2,2) instance: two 2x2 blocks, and a region the loop squeezes."""
    return make_instance(
        residents=[
            ("r1", ["h1", "h2"]),
            ("r2", ["h2", "h1"]),
            ("s1", ["k1", "k2"]),
            ("s2", ["k2", "k1"]),
            ("t1", ["g1", "g2"]),
            ("t2", ["g1"]),
        ],
        hospitals=[
            ("h1", 1, ["r2", "r1"]),
            ("h2", 1, ["r1", "r2"]),
            ("k1", 1, ["s2", "s1"]),
            ("k2", 1, ["s1", "s2"]),
            ("g1", 2, ["t2", "t1"]),
            ("g2", 1, ["t1"]),
        ],
        regions=[({"h1", "h2"}, 2), ({"k1", "k2"}, 2), ({"g1", "g2"}, 1)],
    )


def test_solve_222_disjoint_compiles_only_the_instance(compiles, tmp_path, capsys):
    inst = two_blocks_and_a_squeeze()
    out = solve_222_disjoint(inst)
    assert out.matching == Assignment.of(
        [("r1", "h1"), ("r2", "h2"), ("s1", "k1"), ("s2", "k2"), ("t2", "g1")]
    )
    assert compiles[0] is inst
    assert len(compiles) == 1
    compiles.clear()
    path = tmp_path / "blocks.json"
    path.write_text(save_instance(inst))
    assert main(["solve", str(path)]) == 0
    assert len(compiles) == 1


def test_each_instance_is_classified_once(monkeypatch, tmp_path):
    computed = []
    original = model.InstanceClass
    monkeypatch.setattr(
        model, "InstanceClass", lambda *params: computed.append(params) or original(*params)
    )
    inst = two_blocks_and_a_squeeze()
    assert dispatch(inst).is_found
    assert computed == [(2, 2, 2, True)]
    assert classify(inst) is classify(inst)
    assert len(computed) == 1
    path = tmp_path / "blocks.json"
    path.write_text(save_instance(inst))
    assert main(["solve", str(path)]) == 0
    assert len(computed) == 2
    assert classify(replace(inst, regions=())) == original(2, 2, 0, True)
