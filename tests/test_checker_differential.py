"""The linear-time checker against the definition-level reference checker.

``reference_checker`` evaluates every predicate straight from the
definitions; :mod:`hrrc.stability` reads the matching once over a compiled
index.  On small random instances, with disjoint and overlapping regions and
with assignments that are sometimes not matchings at all, both must give the
same answers, the same witness lists in the same order, and the same errors.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker as ref
from gen import random_instance, random_matching_pairs
from hrrc import stability
from hrrc.cli import main
from hrrc.model import Assignment, example_g2, make_instance, save_instance, save_matching
from hrrc.poly_solvers import dispatch
from hrrc.stability import BlockingWitness


def outcome(func, *args):
    """``("ok", value)`` or ``("raised", type, message)``, for comparison."""
    try:
        return ("ok", func(*args))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def assert_agree(instance, matching):
    for name in (
        "matching_violations",
        "is_feasible",
        "blocking_pairs",
        "strong_blocking_pairs",
        "is_strongly_stable",
    ):
        expected = outcome(getattr(ref, name), instance, matching)
        assert outcome(getattr(stability, name), instance, matching) == expected, name

    report = stability.report(instance, matching)
    violations = ref.matching_violations(instance, matching)
    assert report.violations == violations
    if not violations:
        feasible = ref.is_feasible(instance, matching)
        assert report.feasible == feasible
        assert report.blocking_pairs == ref.blocking_pairs(instance, matching)
        assert report.strong_blocking_pairs == (
            ref.strong_blocking_pairs(instance, matching) if feasible else []
        )
        assert report.strongly_stable == ref.is_strongly_stable(instance, matching)


def corrupt(rng: random.Random, instance, pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Sometimes add a pair that may break acceptability, uniqueness or capacity."""
    if rng.random() < 0.7:
        return pairs
    residents = list(instance.residents) + ["stranger"]
    hospitals = list(instance.hospitals) + ["nowhere"]
    return pairs + [(rng.choice(residents), rng.choice(hospitals))]


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_checker_matches_reference(seed, disjoint):
    rng = random.Random(seed)
    instance = random_instance(
        rng,
        max_residents=5,
        max_hospitals=4,
        disjoint=disjoint,
        max_capacity=2,
        max_region_cap=2,
        edge_prob=0.7,
    )
    pairs = corrupt(rng, instance, random_matching_pairs(rng, instance))
    assert_agree(instance, Assignment.of(pairs))


def test_random_sample_covers_overlapping_and_infeasible_cases():
    """The property above reaches the cases that matter, on a fixed sample."""
    rng = random.Random(7)
    seen = {"overlapping": 0, "infeasible": 0, "strong": 0, "not a matching": 0}
    for _ in range(300):
        instance = random_instance(rng, max_residents=5, max_hospitals=4, max_region_cap=2)
        members = [h for reg in instance.regions for h in reg.hospitals]
        seen["overlapping"] += len(members) != len(set(members))
        matching = Assignment.of(corrupt(rng, instance, random_matching_pairs(rng, instance)))
        assert_agree(instance, matching)
        if ref.matching_violations(instance, matching):
            seen["not a matching"] += 1
        elif not ref.is_feasible(instance, matching):
            seen["infeasible"] += 1
        elif ref.strong_blocking_pairs(instance, matching):
            seen["strong"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def _two_hospital_region(extra_regions=()):
    """r prefers h1 to h2; h1 and h2 share a cap-1 region; r sits at h2."""
    return make_instance(
        residents=[("r", ["h1", "h2"]), ("s", ["h3"])],
        hospitals=[("h1", 1, ["r"]), ("h2", 1, ["r"]), ("h3", 1, ["s"])],
        regions=[({"h1", "h2"}, 1), *extra_regions],
    )


@pytest.mark.parametrize(
    ("extra_regions", "move_feasible"),
    [
        # The shared region's load stays 1: the move is feasible.
        ((), True),
        # A second, overlapping region around h1 and h3 is already full, so
        # the move would overload it.
        ((({"h1", "h3"}, 1),), False),
        # An overlapping region around h2 and h3 only loses load.
        ((({"h2", "h3"}, 2),), True),
    ],
)
def test_move_inside_one_region(extra_regions, move_feasible):
    instance = _two_hospital_region(extra_regions)
    matching = Assignment.of([("r", "h2"), ("s", "h3")])
    assert_agree(instance, matching)
    assert stability.blocking_pairs(instance, matching) == [("r", "h1")]
    expected = (
        [BlockingWitness("r", "h1", move_feasible=True)] if move_feasible else []
    )
    assert stability.strong_blocking_pairs(instance, matching) == expected


def test_witness_names_the_worst_assignee():
    instance = make_instance(
        residents=[("a", ["h"]), ("b", ["h"]), ("c", ["h"])],
        hospitals=[("h", 2, ["a", "b", "c"])],
        regions=[({"h"}, 2)],
    )
    matching = Assignment.of([("b", "h"), ("c", "h")])
    assert_agree(instance, matching)
    (witness,) = stability.strong_blocking_pairs(instance, matching)
    assert (witness.pair, witness.displaced, witness.move_feasible) == (("a", "h"), "c", False)


# --- hrrc check's text against the reference ----------------------------------


def reference_check_output(instance, matching) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``hrrc check``, rendered from the reference."""
    violations = ref.matching_violations(instance, matching)
    if violations:
        return 2, "", "error: assignment is not a matching: " + "; ".join(violations) + "\n"
    feasible = ref.is_feasible(instance, matching)
    bps = ref.blocking_pairs(instance, matching)
    lines = [f"feasible: {'yes' if feasible else 'no'}", f"blocking pairs: {len(bps)}"]
    lines += [f"  ({r}, {h})" for r, h in bps]
    stable = feasible
    if feasible:
        sbps = ref.strong_blocking_pairs(instance, matching)
        stable = not sbps
        lines.append(f"strong blocking pairs: {len(sbps)}")
        for w in sbps:
            conditions = []
            if w.displaced is not None:
                conditions.append(f"preferred-over-assignee({w.displaced})")
            if w.move_feasible:
                conditions.append("move-feasible")
            lines.append(f"  ({w.resident}, {w.hospital}) via {', '.join(conditions)}")
    lines.append(f"strongly stable: {'yes' if stable else 'no'}")
    return (0 if stable else 1), "\n".join(lines) + "\n", ""


def test_check_text_matches_reference(capsys, tmp_path):
    """``hrrc check``'s bytes on seeded draws: stable, unstable, infeasible and
    non-matching assignments, the stable ones from ``dispatch``."""
    rng = random.Random(2024)
    instance_file, matching_file = tmp_path / "instance.json", tmp_path / "matching.json"
    cases = [(example_g2(), Assignment.of([("r1", "h1")]))]
    for _ in range(120):
        instance = random_instance(rng, max_residents=8, max_hospitals=6, max_region_cap=2)
        pairs = corrupt(rng, instance, random_matching_pairs(rng, instance))
        cases.append((instance, Assignment.of(pairs)))
        outcome = dispatch(instance)
        if outcome.is_found:
            cases.append((instance, outcome.matching))
    seen = {0: 0, 1: 0, 2: 0, "infeasible": 0}
    for instance, matching in cases:
        instance_file.write_text(save_instance(instance))
        matching_file.write_text(save_matching(matching))
        expected = reference_check_output(instance, matching)
        code = main(["check", str(instance_file), str(matching_file)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        seen[code] += 1
        seen["infeasible"] += expected[1].startswith("feasible: no")
    assert all(count >= 10 for count in seen.values()), seen
