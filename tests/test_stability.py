"""Feasibility and (strong) blocking-pair predicates against the 2x2 fixture."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import instances, random_instance, random_matching_pairs
from hrrc.model import Assignment, Region, example_g2, make_instance
from hrrc.stability import (
    BlockingWitness,
    blocking_pairs,
    is_feasible,
    is_matching,
    is_strongly_stable,
    matching_violations,
    strong_blocking_pairs,
)


def g2_with_cap(cap: int):
    g2 = example_g2()
    return replace(g2, regions=(Region(frozenset({"h1", "h2"}), cap),))


def test_is_feasible():
    g2 = example_g2()
    assert not is_feasible(g2, Assignment.of([("r1", "h1"), ("r2", "h2")]))
    assert is_feasible(g2, Assignment.of([("r1", "h1")]))
    assert is_feasible(g2, Assignment())


def test_is_feasible_rejects_non_matching():
    g2 = example_g2()
    with pytest.raises(ValueError, match="not a matching"):
        is_feasible(g2, Assignment.of([("r1", "h1"), ("r1", "h2")]))


def test_matching_violations_reports_each_kind():
    g2 = example_g2()
    over = Assignment.of([("r1", "h1"), ("r2", "h1")])
    assert any("capacity" in v for v in matching_violations(g2, over))
    stranger = Assignment.of([("zz", "h1")])
    assert any("unknown resident" in v for v in matching_violations(g2, stranger))
    assert is_matching(g2, Assignment.of([("r1", "h2")]))


def test_blocking_pairs_on_g2():
    g2 = example_g2()
    assert blocking_pairs(g2, Assignment.of([("r1", "h1")])) == [("r2", "h1"), ("r2", "h2")]
    assert blocking_pairs(g2, Assignment.of([("r1", "h1"), ("r2", "h2")])) == []
    assert set(blocking_pairs(g2, Assignment())) == {
        ("r1", "h1"),
        ("r1", "h2"),
        ("r2", "h1"),
        ("r2", "h2"),
    }


def test_strong_blocking_pairs_on_g2():
    g2 = example_g2()
    witnesses = strong_blocking_pairs(g2, Assignment.of([("r1", "h1")]))
    assert [w.pair for w in witnesses] == [("r2", "h1")]
    w = witnesses[0]
    assert w.displaced == "r1"
    assert not w.move_feasible  # the move would overload the region

    empty_witnesses = strong_blocking_pairs(g2, Assignment())
    by_pair = {w.pair: w for w in empty_witnesses}
    assert ("r1", "h1") in by_pair
    assert by_pair[("r1", "h1")].move_feasible


def test_strong_blocking_pairs_cap2_perfect_matching():
    inst = g2_with_cap(2)
    assert strong_blocking_pairs(inst, Assignment.of([("r1", "h1"), ("r2", "h2")])) == []


def test_strong_blocking_pairs_rejects_infeasible():
    g2 = example_g2()
    with pytest.raises(ValueError, match="feasible"):
        strong_blocking_pairs(g2, Assignment.of([("r1", "h1"), ("r2", "h2")]))


def test_is_strongly_stable_on_g2():
    g2 = example_g2()
    assert not is_strongly_stable(g2, Assignment.of([("r1", "h1")]))
    assert is_strongly_stable(g2_with_cap(2), Assignment.of([("r1", "h1"), ("r2", "h2")]))
    # Infeasible matchings are simply not strongly stable.
    assert not is_strongly_stable(g2, Assignment.of([("r1", "h1"), ("r2", "h2")]))


def test_all_five_feasible_g2_matchings_fail():
    g2 = example_g2()
    five = [
        Assignment(),
        Assignment.of([("r1", "h1")]),
        Assignment.of([("r1", "h2")]),
        Assignment.of([("r2", "h1")]),
        Assignment.of([("r2", "h2")]),
    ]
    for m in five:
        assert is_feasible(g2, m)
        assert not is_strongly_stable(g2, m)


def test_witness_invariant():
    with pytest.raises(ValueError):
        BlockingWitness("r", "h")
    w = BlockingWitness("r", "h", move_feasible=True)
    assert w.conditions() == ["move-feasible"]


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(min_value=0, max_value=2**31))
def test_sbps_are_a_subset_of_bps(instance, seed):
    rng = random.Random(seed)
    matching = Assignment.of(random_matching_pairs(rng, instance))
    if not is_feasible(instance, matching):
        return
    bps = set(blocking_pairs(instance, matching))
    sbps = strong_blocking_pairs(instance, matching)
    assert {w.pair for w in sbps} <= bps
    assert is_strongly_stable(instance, matching) == (not sbps)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_without_regions_strong_stability_is_classical_stability(seed):
    rng = random.Random(seed)
    instance = random_instance(rng, max_residents=4, max_hospitals=4, gamma=0)
    matching = Assignment.of(random_matching_pairs(rng, instance))
    # With no regions every move is feasible, so a blocking pair always
    # blocks strongly.
    assert is_strongly_stable(instance, matching) == (
        not blocking_pairs(instance, matching)
    )
