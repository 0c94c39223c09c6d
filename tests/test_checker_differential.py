"""The linear-time checker against the definition-level reference checker.

``reference_checker`` evaluates every predicate straight from the
definitions; :mod:`hrrc.stability` reads the matching once over a compiled
index.  On small random instances, with disjoint and overlapping regions and
with assignments that are sometimes not matchings at all, both must give the
same answers, the same witness lists in the same order, and the same errors.
"""

from __future__ import annotations

import json
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
        # The report carries witnesses as plain tuples in BlockingWitness's
        # field order.
        assert [BlockingWitness(*w) for w in report.strong_blocking_pairs] == (
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


# --- hrrc check's output against the reference --------------------------------


def reference_conditions(w: BlockingWitness) -> list[str]:
    conditions = []
    if w.displaced is not None:
        conditions.append(f"preferred-over-assignee({w.displaced})")
    if w.move_feasible:
        conditions.append("move-feasible")
    return conditions


def shape(w: BlockingWitness) -> str:
    """Which of ``hrrc check``'s three condition lists ``w`` renders as."""
    if w.displaced is None:
        return "move-feasible only"
    return "both" if w.move_feasible else "displaced only"


def reference_check_output(instance, matching, as_json: bool) -> tuple[int, str, str, list]:
    """Exit code, stdout and stderr of ``hrrc check`` (with ``--json`` when
    ``as_json``), rendered from the reference, and the reference's witnesses."""
    violations = ref.matching_violations(instance, matching)
    if violations:
        err = "error: assignment is not a matching: " + "; ".join(violations) + "\n"
        return 2, "", err, []
    feasible = ref.is_feasible(instance, matching)
    bps = ref.blocking_pairs(instance, matching)
    sbps = ref.strong_blocking_pairs(instance, matching) if feasible else []
    stable = feasible and not sbps
    code = 0 if stable else 1
    if as_json:
        payload = {
            "feasible": feasible,
            "strongly_stable": stable,
            "blocking_pairs": [[r, h] for r, h in bps],
            "strong_blocking_pairs": [
                {
                    "resident": w.resident,
                    "hospital": w.hospital,
                    "conditions": reference_conditions(w),
                }
                for w in sbps
            ],
        }
        return code, json.dumps(payload, indent=2) + "\n", "", sbps
    lines = [f"feasible: {'yes' if feasible else 'no'}", f"blocking pairs: {len(bps)}"]
    lines += [f"  ({r}, {h})" for r, h in bps]
    if feasible:
        lines.append(f"strong blocking pairs: {len(sbps)}")
        for w in sbps:
            via = ", ".join(reference_conditions(w))
            lines.append(f"  ({w.resident}, {w.hospital}) via {via}")
    lines.append(f"strongly stable: {'yes' if stable else 'no'}")
    return code, "\n".join(lines) + "\n", "", sbps


def check_cases():
    """Seeded draws: stable, unstable, infeasible and non-matching
    assignments, the stable ones from ``dispatch``."""
    rng = random.Random(2024)
    cases = [(example_g2(), Assignment.of([("r1", "h1")]))]
    for _ in range(120):
        instance = random_instance(rng, max_residents=8, max_hospitals=6, max_region_cap=2)
        pairs = corrupt(rng, instance, random_matching_pairs(rng, instance))
        cases.append((instance, Assignment.of(pairs)))
        outcome = dispatch(instance)
        if outcome.is_found:
            cases.append((instance, outcome.matching))
    return cases


def assert_check_matches_reference(capsys, tmp_path, as_json: bool) -> None:
    """``hrrc check``'s bytes on every case.  Every verdict and every witness
    shape must come up, so that each rendering branch runs."""
    instance_file, matching_file = tmp_path / "instance.json", tmp_path / "matching.json"
    seen = dict.fromkeys([0, 1, 2, "infeasible", "displaced only", "move-feasible only", "both"], 0)
    for instance, matching in check_cases():
        instance_file.write_text(save_instance(instance))
        matching_file.write_text(save_matching(matching))
        *expected, witnesses = reference_check_output(instance, matching, as_json)
        argv = ["check", str(instance_file), str(matching_file)] + ["--json"] * as_json
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == tuple(expected)
        seen[code] += 1
        seen["infeasible"] += code != 2 and not ref.is_feasible(instance, matching)
        for w in witnesses:
            seen[shape(w)] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_check_text_matches_reference(capsys, tmp_path):
    assert_check_matches_reference(capsys, tmp_path, as_json=False)


def test_check_json_matches_reference(capsys, tmp_path):
    assert_check_matches_reference(capsys, tmp_path, as_json=True)
