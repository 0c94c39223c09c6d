"""The compiled instance index and validation once per public call."""

from __future__ import annotations

import random

import pytest

import hrrc.model as model
from gen import random_instance
from hrrc.cli import main
from hrrc.index import InstanceIndex, index_for
from hrrc.model import (
    Assignment,
    InstanceError,
    example_g2,
    make_instance,
    save_instance,
    save_matching,
)
from hrrc.poly_solvers import dispatch, solve_222_disjoint


def test_index_tables():
    g2 = example_g2()
    index = InstanceIndex(g2)
    assert index.resident_pos == {"r1": 0, "r2": 1}
    assert index.hospital_pos == {"h1": 0, "h2": 1}
    assert index.rrank["r2"] == {"h2": 0, "h1": 1}
    assert index.hrank["h1"] == {"r2": 0, "r1": 1}
    assert index.regions_of == {"h1": (0,), "h2": (0,)}
    assert index.region_caps == (1,)


def test_with_capacities_shares_tables():
    index = InstanceIndex(example_g2())
    lowered = index.with_capacities({"h1": 0, "h2": 1})
    assert lowered.instance.capacities == {"h1": 0, "h2": 1}
    assert lowered.capacities is lowered.instance.capacities
    assert lowered.hrank is index.hrank
    assert index.instance.capacities == {"h1": 1, "h2": 1}


def test_index_for_validates_and_checks_identity():
    bad = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, [])])
    with pytest.raises(InstanceError, match="does not list"):
        index_for(bad)
    index_for(bad, validate=False)
    g2 = example_g2()
    with pytest.raises(ValueError, match="different instance"):
        dispatch(g2, index=InstanceIndex(example_g2()))


@pytest.fixture()
def validations(monkeypatch):
    calls = []
    original = model.validate

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(model, "validate", counting)
    return calls


def test_dispatch_validates_once(validations):
    rng = random.Random(3)
    for _ in range(40):
        inst = random_instance(
            rng, max_residents=8, max_hospitals=8, alpha=2, beta=2, gamma=2, disjoint=True,
            max_capacity=2,
        )
        validations.clear()
        dispatch(inst)
        assert len(validations) == 1


def test_solve_222_disjoint_validates_once(validations):
    solve_222_disjoint(example_g2())
    assert len(validations) == 1


@pytest.mark.parametrize("command", ["classify", "solve", "check", "brute"])
def test_cli_validates_once(command, validations, tmp_path, capsys):
    path = tmp_path / "g2.json"
    path.write_text(save_instance(example_g2()))
    matching = tmp_path / "empty.json"
    matching.write_text(save_matching(Assignment()))
    argv = [command, str(path)] + ([str(matching)] if command == "check" else [])
    main(argv)
    assert len(validations) == 1
