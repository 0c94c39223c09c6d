#!/usr/bin/env python3
"""Sweep random instances per tractable class and cross-check the solvers.

For the three always-solvable classes the experiment verifies every returned
matching with the stability checker.  On singleton regions it also requires
the matching of the reference deferred acceptance in ``tests/reference_da.py``
run on the folded capacities.  For the disjoint (2,2,2) class it also
compares the solver's verdict against exhaustive search.  A third of those
draws hold example_g2-shaped blocks, so that the solver's negative verdict
is exercised too: the sweep fails unless it reaches `found` and reaches
`none-exists` on at least 5% of its draws.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference_da  # noqa: E402
from gen import TIGHT_2X2, random_g2_blocks, random_instance  # noqa: E402
from hrrc import (  # noqa: E402
    Assignment,
    Instance,
    exists_strongly_stable,
    is_strongly_stable,
    solve_222_disjoint,
    solve_hosp_len1,
    solve_regions_size1,
    solve_res_len1,
)


# The least share of disjoint (2,2,2) draws that must come out none-exists.
MIN_NONE_SHARE = 0.05


def fail(message: str) -> NoReturn:
    raise SystemExit(f"disagreement: {message}")


def folded_reference_da(inst: Instance) -> Assignment:
    """The reference deferred acceptance, each singleton cap folded into its hospital."""
    capacities = dict(inst.capacities)
    for reg in inst.regions:
        (h,) = reg.hospitals
        capacities[h] = min(capacities[h], reg.cap)
    return reference_da.DeferredAcceptance(inst, capacities).matching()


# Each class: its name, solver, draw arguments, and a reference matching
# the solver must equal, if any.
CLASSES = [
    ("singleton regions", solve_regions_size1, dict(gamma=1), folded_reference_da),
    ("unit resident lists", solve_res_len1, dict(alpha=1, gamma=3), None),
    ("unit hospital lists", solve_hosp_len1, dict(beta=1, gamma=3), None),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-side", type=int, default=8)
    args = parser.parse_args()

    for name, solver, params, reference in CLASSES:
        rng = random.Random(args.seed)
        t0 = time.perf_counter()
        for _ in range(args.samples):
            inst = random_instance(rng, args.max_side, args.max_side, **params)
            matching = solver(inst)
            if not is_strongly_stable(inst, matching):
                fail(f"{solver.__name__} returned an unstable matching on {inst}")
            if reference is not None and matching != reference(inst):
                fail(f"{solver.__name__} differs from {reference.__name__} on {inst}")
        dt = time.perf_counter() - t0
        same = "" if reference is None else f", equal to {reference.__name__}"
        print(f"{name:22s} {args.samples} instances, all strongly stable{same}  ({dt:.2f}s)")

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    verdicts = {"found": 0, "none-exists": 0}
    side = min(args.max_side, 6)
    for k in range(args.samples):
        # As in acceptance criterion 3, every third draw is a tight 2x2 one.
        if k % 3 == 2:
            inst = random_instance(rng, **TIGHT_2X2)
        elif k % 3 == 1:
            inst = random_g2_blocks(rng)
        else:
            inst = random_instance(rng, side, side, alpha=2, beta=2, gamma=2, disjoint=True)
        out = solve_222_disjoint(inst)
        oracle = exists_strongly_stable(inst).status
        if out.status != oracle:
            fail(f"solve_222_disjoint says {out.status}, the oracle {oracle}, on {inst}")
        if out.is_found and not is_strongly_stable(inst, out.matching):
            fail(f"solve_222_disjoint returned an unstable matching on {inst}")
        verdicts[out.status] += 1
    dt = time.perf_counter() - t0
    print(
        f"disjoint (2,2,2)       {args.samples} instances match the oracle: "
        f"{verdicts['found']} found, {verdicts['none-exists']} none-exists  ({dt:.2f}s)"
    )
    if verdicts["found"] == 0 or verdicts["none-exists"] < MIN_NONE_SHARE * args.samples:
        raise SystemExit(
            f"the disjoint (2,2,2) sweep needs found and at least {MIN_NONE_SHARE:.0%} "
            "none-exists draws; draw more samples"
        )


if __name__ == "__main__":
    main()
