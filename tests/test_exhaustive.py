"""The brute-force oracle: enumeration order, completeness, existence search."""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

from gen import all_ppn_formulas, random_instance
from reference_walk import (
    exists_strongly_stable_chronologically,
    strongly_stable_set_chronologically,
)
from hrrc.exhaustive import (
    _Search,
    enumerate_feasible,
    exists_strongly_stable,
    first_leaf,
    strongly_stable_set,
)
from hrrc.model import Assignment, example_g2, make_instance, save_matching
from hrrc.reductions import ReductionVariant, reduce_ppn
from hrrc.stability import is_feasible, is_matching, is_strongly_stable


def naive_feasible(instance):
    """Independent recount: the full product of per-resident choices, then filter.

    The product runs in the walk's order: the first resident in declaration
    order changes slowest, and each one tries the hospitals it lists in
    hospital declaration order, then "unassigned".
    """
    position = {h: j for j, h in enumerate(instance.hospitals)}
    options = [
        [*sorted(instance.resident_prefs[r], key=position.__getitem__), None]
        for r in instance.residents
    ]
    out = []
    for combo in product(*options):
        m = Assignment.of(
            (r, h) for r, h in zip(instance.residents, combo) if h is not None
        )
        if is_matching(instance, m) and is_feasible(instance, m):
            out.append(m)
    return out


def test_g2_has_exactly_five_feasible_matchings():
    g2 = example_g2()
    ms = list(enumerate_feasible(g2))
    assert len(ms) == 5
    assert set(ms) == {
        Assignment(),
        Assignment.of([("r1", "h1")]),
        Assignment.of([("r1", "h2")]),
        Assignment.of([("r2", "h1")]),
        Assignment.of([("r2", "h2")]),
    }


def test_single_pair_instance():
    inst = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])])
    assert len(list(enumerate_feasible(inst))) == 2
    assert strongly_stable_set(inst) == {Assignment.of([("r", "h")])}


def test_zero_capacity_only_empty():
    inst = make_instance(residents=[("r", ["h"])], hospitals=[("h", 0, ["r"])])
    assert list(enumerate_feasible(inst)) == [Assignment()]


def test_enumeration_is_canonical_and_duplicate_free():
    rng = random.Random(23)
    for _ in range(100):
        inst = random_instance(rng, max_residents=4, max_hospitals=4)
        ms = list(enumerate_feasible(inst))
        assert len(ms) == len(set(ms))
        assert set(ms) == set(naive_feasible(inst))
        rerun = list(enumerate_feasible(inst))
        assert ms == rerun


def test_strongly_stable_set_matches_definition():
    rng = random.Random(29)
    for _ in range(100):
        inst = random_instance(rng, max_residents=4, max_hospitals=4)
        expected = {
            m for m in enumerate_feasible(inst) if is_strongly_stable(inst, m)
        }
        assert strongly_stable_set(inst) == expected


def test_exists_on_g2_variants():
    g2 = example_g2()
    assert exists_strongly_stable(g2).status == "none-exists"
    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(g2, regions=(Region(frozenset({"h1", "h2"}), 2),))
    out = exists_strongly_stable(cap2)
    assert out.is_found
    assert is_strongly_stable(cap2, out.matching)


def test_exists_on_empty_instance():
    empty = make_instance(residents=[], hospitals=[])
    out = exists_strongly_stable(empty)
    assert out.is_found
    assert out.matching == Assignment()


def test_exists_agrees_with_set_and_returns_canonical_first():
    rng = random.Random(31)
    for _ in range(200):
        inst = random_instance(rng, max_residents=5, max_hospitals=5)
        sset = strongly_stable_set(inst)
        out = exists_strongly_stable(inst)
        if sset:
            assert out.is_found
            first = next(
                m for m in enumerate_feasible(inst) if is_strongly_stable(inst, m)
            )
            assert out.matching == first
        else:
            assert out.status == "none-exists"


def walk_draws():
    """1,500 draws of up to five agents a side.

    The odd ones are tight (unit capacities and caps, dense lists), so they
    often have no strongly stable matching.
    """
    rng = random.Random(37)
    tight = dict(min_capacity=1, max_capacity=1, max_region_cap=1, edge_prob=0.9)
    return [
        random_instance(
            rng,
            max_residents=5,
            max_hospitals=5,
            gamma=rng.choice([None, 2, 3]),
            disjoint=rng.random() < 0.3,
            min_region_cap=1,
            **(tight if draw % 2 else {}),
        )
        for draw in range(1500)
    ]


def test_walk_yields_the_canonical_order():
    # The sets alone would pass a walk that reorders its leaves, or one that
    # jumps over a leaf and finds it again later.
    rng = random.Random(23)
    draws = [random_instance(rng, max_residents=4, max_hospitals=4) for _ in range(100)]
    for inst in draws + walk_draws()[1::2]:
        feasible = naive_feasible(inst)
        assert list(enumerate_feasible(inst)) == feasible
        stable = [m for m in feasible if is_strongly_stable(inst, m)]
        assert list(_Search(inst).leaves(True)) == stable


def test_backjumping_walk_equals_the_chronological_walk():
    # Tight draws reach none-exists often enough to check that a jump never
    # skips a strongly stable matching; the 2-variable PPN reductions catch a
    # jump past a resident who could fill a blocking pair's hospital or one of
    # its regions.
    draws = walk_draws()
    reductions = [
        reduce_ppn(formula, variant)[0]
        for formula in all_ppn_formulas(2)
        for variant in ReductionVariant
        if variant is not ReductionVariant.ONE_IN_THREE_222
    ]
    verdicts = {"found": 0, "none-exists": 0}
    checks = 0
    for inst in draws + reductions:
        out = exists_strongly_stable(inst)
        assert out == exists_strongly_stable_chronologically(inst)
        assert strongly_stable_set(inst) == strongly_stable_set_chronologically(inst)
        verdicts[out.status] += 1
        search = _Search(inst)
        next(search.leaves(True), None)
        checks += search.checks
    assert verdicts["none-exists"] >= 30, verdicts
    # Recorded like PINNED_SEARCH below.  Culprits that are sound but not the
    # ones the rules name (say, every worse resident at h, not the earliest)
    # keep the leaves and move this count.
    assert checks == 34_126
    # The count read after every leaf the walk yields and once more at
    # exhaustion, so it must be up to date at each yield, not only the first.
    leaves = running = 0
    for inst in draws:
        search = _Search(inst)
        for _ in search.leaves(True):
            leaves += 1
            running += search.checks
        running += search.checks
    assert (leaves, running) == (1_634, 120_113)


# Recorded from the walk that looked every id up in dicts, with its strong
# blocking pair test wrapped and counted: the pruned walk's tests on the way
# to the first leaf of every PPN reduction, and the bytes of each first leaf.
# A culprit rule that changes, or a change to the order in which the walk
# tests pairs, moves a count even where the leaves stay the same.
PINNED_SEARCH = {
    ReductionVariant.PPN_223: (
        11_576, "9cbd60e4a4a1be52992680ea66caf5be94100a9379590402200a63c62ffdec44"
    ),
    ReductionVariant.PPN_232: (
        11_396, "fdc6d485492c17d63b91d4ff2369862711667fed65942da1b2851410875915b5"
    ),
    ReductionVariant.PPN_322: (
        31_241, "b40194c8a89e3774d067458e1b7c3c21ed044cb4d842abfce696c4b86054056d"
    ),
}
# The same count over the 15 unsatisfiable formulas on four variables.
PINNED_UNSATISFIABLE_CHECKS = {
    ReductionVariant.PPN_223: 245_776,
    ReductionVariant.PPN_232: 92_014,
    ReductionVariant.PPN_322: 24_793,
}


@pytest.mark.parametrize("variant", list(PINNED_SEARCH), ids=lambda v: v.value)
def test_pruned_walk_search_is_pinned(variant):
    checks = 0
    digest = hashlib.sha256()
    for formula in all_ppn_formulas(2) + all_ppn_formulas(3):
        instance = reduce_ppn(formula, variant)[0]
        search = _Search(instance)
        leaf = next(search.leaves(True))
        checks += search.checks
        digest.update(save_matching(leaf).encode())
        # A slice of every resident is walked exactly as the whole instance.
        everyone = _Search(instance, instance.residents)
        assert next(everyone.leaves(True)) == leaf
        assert everyone.checks == search.checks
    assert (checks, digest.hexdigest()) == PINNED_SEARCH[variant]


def test_pruned_walk_search_on_unsatisfiable_formulas_is_pinned(unsatisfiable_ppn4):
    for variant, pinned in PINNED_UNSATISFIABLE_CHECKS.items():
        checks = 0
        for formula in unsatisfiable_ppn4:
            search = _Search(reduce_ppn(formula, variant)[0])
            assert next(search.leaves(True), None) is None
            checks += search.checks
        assert checks == pinned, variant


def renamed_rows(instance, tag):
    """``instance``'s resident, hospital and region rows with ``tag`` before every id."""
    return (
        [(tag + r, [tag + h for h in instance.resident_prefs[r]]) for r in instance.residents],
        [
            (tag + h, instance.capacities[h], [tag + r for r in instance.hospital_prefs[h]])
            for h in instance.hospitals
        ],
        [({tag + h for h in reg.hospitals}, reg.cap) for reg in instance.regions],
    )


def interleaved(rng, a, b):
    """The items of ``a`` and ``b`` in a random merge that keeps each one's order."""
    sources = [iter(a)] * len(a) + [iter(b)] * len(b)
    rng.shuffle(sources)
    return [next(source) for source in sources]


def test_first_leaf_on_a_slice_equals_the_oracle_on_its_own_instance():
    # Two draws, renamed apart, are declared interleaved in one instance.  The
    # walk over the first draw's residents is a closed slice of that instance:
    # it must give the first draw's own verdict and matching, although every
    # position and region index differs.  Tight draws reach none-exists, and
    # regions that hold a hospital nobody lists check that the slice's tables
    # cover every member of a region it reads.
    rng = random.Random(43)
    tight = dict(min_capacity=1, max_capacity=1, min_region_cap=1, max_region_cap=1, edge_prob=0.9)
    verdicts = {"found": 0, "none-exists": 0}
    unlisted = 0
    for draw in range(1500):
        a, b = (
            random_instance(
                rng,
                max_residents=5,
                max_hospitals=5,
                gamma=rng.choice([None, 2, 3]),
                disjoint=rng.random() < 0.3,
                **(tight if draw % 2 else {}),
            )
            for _ in range(2)
        )
        rows_a, rows_b = renamed_rows(a, "a"), renamed_rows(b, "b")
        joint = make_instance(*(interleaved(rng, x, y) for x, y in zip(rows_a, rows_b)))
        leaf = first_leaf(joint, tuple(r for r, _ in rows_a[0]))
        out = exists_strongly_stable(a)
        if out.is_found:
            assert leaf == Assignment.of(("a" + r, "a" + h) for r, h in out.matching.pairs)
        else:
            assert leaf is None
        verdicts[out.status] += 1
        unlisted += any(
            any(a.hospital_prefs[h] for h in reg.hospitals)
            and not all(a.hospital_prefs[h] for h in reg.hospitals)
            for reg in a.regions
        )
    assert verdicts["none-exists"] >= 20 and unlisted >= 80, (verdicts, unlisted)


def test_strongly_stable_set_on_a_deep_instance():
    n = 1500
    deep = make_instance(
        residents=[(f"r{i}", [f"h{i}"]) for i in range(n)],
        hospitals=[(f"h{i}", 1, [f"r{i}"]) for i in range(n)],
    )
    assert strongly_stable_set(deep) == {Assignment.of((f"r{i}", f"h{i}") for i in range(n))}


def test_final_certificate_failure_raises(monkeypatch):
    import hrrc.stability as stability
    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(example_g2(), regions=(Region(frozenset({"h1", "h2"}), 2),))
    monkeypatch.setattr(stability, "is_strongly_stable", lambda *a, **k: False)
    with pytest.raises(RuntimeError, match="not strongly stable"):
        exists_strongly_stable(cap2)
    with pytest.raises(RuntimeError, match="not strongly stable"):
        strongly_stable_set(cap2)
