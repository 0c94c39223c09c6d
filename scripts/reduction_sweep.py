#!/usr/bin/env python3
"""Round-trip experiment: formulas -> matching instances -> assignments.

Samples small 2-positive/1-negative formulas, reduces each through all three
target classes, and checks that brute-force satisfiability agrees with
strongly-stable-matching existence; satisfiable cases are additionally pushed
through the encode/decode witness maps.  Random draws are almost always
satisfiable, so the sweep then adds the 15 unsatisfiable formulas among every
PPN formula on four variables, and exits non-zero if a target saw only one
verdict.
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

from gen import all_ppn_formulas, random_ppn_formula  # noqa: E402
from hrrc import (  # noqa: E402
    ReductionVariant,
    decode_matching,
    encode_assignment,
    exists_strongly_stable,
    is_strongly_stable,
    reduce_ppn,
    sat_brute,
)
from hrrc.reductions import CnfFormula, satisfies  # noqa: E402

VARIANTS = [ReductionVariant.PPN_223, ReductionVariant.PPN_232, ReductionVariant.PPN_322]


def fail(message: str) -> NoReturn:
    raise SystemExit(f"round trip failed: {message}")


def sweep(formula: CnfFormula, stats: dict) -> None:
    """Check one formula's verdict and witnesses on every target; count the verdict."""
    witness = sat_brute(formula)
    for variant in VARIANTS:
        instance, _table = reduce_ppn(formula, variant)
        out = exists_strongly_stable(instance)
        if out.is_found != (witness is not None):
            fail(f"{variant.value} says {out.status} on {formula}, sat_brute {witness}")
        if witness is None:
            stats[variant]["unsat"] += 1
            continue
        stats[variant]["sat"] += 1
        encoded = encode_assignment(formula, witness, variant)
        if not is_strongly_stable(instance, encoded):
            fail(f"{variant.value}: the encoded witness of {formula} is not strongly stable")
        for matching in (encoded, out.matching):
            if not satisfies(formula, decode_matching(formula, matching, variant)):
                fail(f"{variant.value}: a matching of {formula} decodes to a non-model")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vars", type=int, default=4)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    stats = {v: {"sat": 0, "unsat": 0} for v in VARIANTS}
    for _ in range(args.count):
        sweep(random_ppn_formula(rng, rng.randint(2, args.max_vars)), stats)
    unsatisfiable = [f for f in all_ppn_formulas(4) if sat_brute(f) is None]
    for formula in unsatisfiable:
        sweep(formula, stats)
    dt = time.perf_counter() - t0
    for variant in VARIANTS:
        s = stats[variant]
        print(
            f"{variant.value}: {args.count + len(unsatisfiable)} formulas, verdicts agree "
            f"({s['sat']} satisfiable, {s['unsat']} unsatisfiable)  [{dt:.2f}s total]"
        )
    if any(0 in s.values() for s in stats.values()):
        raise SystemExit("a target's sweep reached only one verdict; draw more formulas")


if __name__ == "__main__":
    main()
