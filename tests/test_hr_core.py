"""Deferred acceptance and the capacity-shrinking step.

``reference_da.DeferredAcceptance`` is the package's deferred acceptance as it
was on resident ids; the differential below pins the rank-based one to it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest

import reference_da
from gen import random_instance
from hrrc.exhaustive import strongly_stable_set
from hrrc.hr_core import DeferredAcceptance, rgs, shrink
from hrrc.model import Assignment, example_g2, make_instance
from hrrc.stability import blocking_pairs, is_matching


def brute_stable_matchings(instance):
    """Independent oracle: every stable matching of a region-free instance.

    Enumerates the full choice product per resident and filters by the
    blocking-pair definition; shares nothing with the proposal algorithm.
    """
    options = [
        [None] + list(instance.resident_prefs[r]) for r in instance.residents
    ]
    out = []
    for combo in product(*options):
        m = Assignment.of(
            (r, h) for r, h in zip(instance.residents, combo) if h is not None
        )
        if is_matching(instance, m) and not blocking_pairs(instance, m):
            out.append(m)
    return out


def test_rgs_on_g2_ignoring_region():
    m = rgs(example_g2(), ignore_regions=True)
    assert m == Assignment.of([("r1", "h1"), ("r2", "h2")])
    assert blocking_pairs(example_g2(), m) == []


def test_rgs_requires_flag_for_region_bearing_instances():
    with pytest.raises(ValueError, match="ignore_regions"):
        rgs(example_g2())


def test_rgs_zero_capacity_and_empty():
    zeroed = make_instance(
        residents=[("r1", ["h"]), ("r2", ["h"])],
        hospitals=[("h", 0, ["r1", "r2"])],
    )
    assert rgs(zeroed) == Assignment()
    empty = make_instance(residents=[], hospitals=[])
    assert rgs(empty) == Assignment()


def test_rgs_output_is_stable_on_random_instances():
    rng = random.Random(7)
    for _ in range(300):
        inst = random_instance(rng, gamma=0)
        m = rgs(inst)
        assert is_matching(inst, m)
        assert blocking_pairs(inst, m) == []


def test_rural_hospital_invariant_against_brute_force():
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        inst = random_instance(rng, max_residents=4, max_hospitals=4, gamma=0, max_capacity=2)
        stable = brute_stable_matchings(inst)
        assert stable, "every capacitated market has a stable matching"
        m = rgs(inst)
        assert m in stable
        counts = [
            {h: len(s.residents_of(h)) for h in inst.hospitals} for s in stable
        ]
        assert all(c == counts[0] for c in counts)
        checked += 1
    assert checked == 150


def test_rgs_is_deterministic():
    rng = random.Random(13)
    for _ in range(50):
        inst = random_instance(rng, gamma=0)
        assert rgs(inst) == rgs(inst)


def test_capacity_decrement_moves_counts_by_at_most_one():
    rng = random.Random(17)
    for _ in range(200):
        inst = random_instance(rng, gamma=0)
        before = rgs(inst)
        for h in inst.hospitals:
            if inst.capacities[h] == 0:
                continue
            caps = dict(inst.capacities)
            caps[h] -= 1
            after = rgs(replace(inst, capacities=caps))
            assert len(after.residents_of(h)) >= len(before.residents_of(h)) - 1
            for other in inst.hospitals:
                if other != h:
                    assert len(after.residents_of(other)) >= len(before.residents_of(other))


def test_squeezes_resume_to_the_rerun_matching():
    rng = random.Random(23)
    squeezes = 0
    for _ in range(300):
        inst = random_instance(rng, gamma=0)
        da = DeferredAcceptance(inst)
        assert da.matching() == rgs(inst)
        while True:
            open_hospitals = [h for h in inst.hospitals if da.capacities[h] > 0]
            if not open_hospitals or rng.random() < 0.1:
                break
            before = {h: len(rs) for h, rs in da.held.items()}
            returned = da.squeeze(rng.choice(open_hospitals))
            squeezes += 1
            assert da.matching() == rgs(replace(inst, capacities=dict(da.capacities)))
            grew = {h for h, rs in da.held.items() if len(rs) > before[h]}
            assert grew <= set(returned)
    assert squeezes > 1000


def assert_same_state(da, ref):
    assert da.matching() == ref.matching()
    assert da.next_choice == ref.next_choice
    assert da.capacities == ref.capacities


def test_da_matches_the_reference_after_every_squeeze():
    rng = random.Random(29)
    squeezes = zeros = empties = 0
    for k in range(400):
        inst = random_instance(rng, 10, 6, gamma=0, edge_prob=rng.choice((0.3, 0.6, 0.9)))
        # Every other draw runs on capacities passed in, as the solvers do.
        caps = {h: rng.randint(0, 3) for h in inst.hospitals} if k % 2 else None
        da, ref = DeferredAcceptance(inst, caps), reference_da.DeferredAcceptance(inst, caps)
        zeros += 0 in da.capacities.values()
        empties += any(not prefs for prefs in inst.resident_prefs.values())
        assert_same_state(da, ref)
        while True:
            open_hospitals = [h for h in inst.hospitals if da.capacities[h] > 0]
            if not open_hospitals or rng.random() < 0.1:
                break
            h = rng.choice(open_hospitals)
            assert da.squeeze(h) == ref.squeeze(h)
            squeezes += 1
            assert_same_state(da, ref)
    assert squeezes > 1000 and zeros > 100 and empties > 50


@pytest.mark.parametrize("seed, proposals", [(0, 222), (3, 26), (4, 39), (5, 114)])
def test_da_proposal_counts(seed, proposals):
    inst = random_instance(random.Random(seed), 60, 8, gamma=0)
    for da in (DeferredAcceptance(inst), reference_da.DeferredAcceptance(inst)):
        assert sum(da.next_choice.values()) == proposals


@pytest.mark.parametrize(
    "capacities, message",
    [
        ({"h1": -1, "h2": 1}, "hospital 'h1' has invalid capacity -1"),
        ({"h1": 1}, "no entry for hospital 'h2'"),
        ({"h1": 1, "h2": 1.5}, "hospital 'h2' has invalid capacity 1.5"),
        ({"h1": True, "h2": 1}, "hospital 'h1' has invalid capacity True"),
        ({"h1": 1, "h2": 1, "h3": 1}, "'h3', which is not a hospital"),
    ],
)
def test_da_refuses_bad_capacities(capacities, message):
    inst = example_g2()
    with pytest.raises(ValueError, match=message):
        rgs(inst, ignore_regions=True, capacities=capacities)
    with pytest.raises(ValueError, match=message):
        DeferredAcceptance(inst, capacities)


def test_shrink_examples():
    inst = make_instance(
        residents=[("r", ["h1", "h2", "h3"])],
        hospitals=[("h1", 3, ["r"]), ("h2", 2, ["r"]), ("h3", 0, ["r"])],
    )
    shrunk = shrink(inst)
    assert shrunk.capacities == {"h1": 1, "h2": 1, "h3": 0}
    assert shrink(example_g2()) == example_g2()


def test_shrink_is_idempotent_and_preserves_strongly_stable_set():
    rng = random.Random(19)
    for _ in range(120):
        inst = random_instance(rng, max_residents=4, max_hospitals=4)
        shrunk = shrink(inst)
        assert shrink(shrunk) == shrunk
        assert strongly_stable_set(inst) == strongly_stable_set(shrunk)
