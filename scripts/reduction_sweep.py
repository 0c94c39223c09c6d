#!/usr/bin/env python3
"""Round-trip experiment: formulas -> matching instances -> assignments.

Samples small 2-positive/1-negative formulas, reduces each through the three
PPN target classes, and checks that brute-force satisfiability agrees with
strongly-stable-matching existence; satisfiable cases are additionally pushed
through the encode/decode witness maps, and the encoded model must decode to
itself.  Random draws are almost always
satisfiable, so the sweep then adds the 15 unsatisfiable formulas among every
PPN formula on four variables.  The exactly-one-in-three target gets the same
checks on every set of 2 to 4 positive 3-clauses over four or five variables
(11 of the 331 have no exactly-one model).  Exits non-zero if a target saw
only one verdict.
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

from gen import all_oneinthree_formulas, all_ppn_formulas, random_ppn_formula  # noqa: E402
from hrrc import (  # noqa: E402
    ReductionVariant,
    decode_matching,
    encode_assignment,
    exists_strongly_stable,
    is_strongly_stable,
    reduce_oneinthree,
    reduce_ppn,
    sat_brute,
)
from hrrc.reductions import (  # noqa: E402
    MODE_ONE_IN_THREE,
    MODE_ORDINARY,
    CnfFormula,
    satisfies,
)

PPN_VARIANTS = [ReductionVariant.PPN_223, ReductionVariant.PPN_232, ReductionVariant.PPN_322]
ONE_IN_THREE = ReductionVariant.ONE_IN_THREE_222


def fail(message: str) -> NoReturn:
    raise SystemExit(f"round trip failed: {message}")


def sweep(formula: CnfFormula, variant: ReductionVariant, stats: dict) -> None:
    """Check one formula's verdict and witnesses on one target; count the verdict."""
    if variant is ONE_IN_THREE:
        mode, instance = MODE_ONE_IN_THREE, reduce_oneinthree(formula)
    else:
        mode, instance = MODE_ORDINARY, reduce_ppn(formula, variant)[0]
    witness = sat_brute(formula, mode=mode)
    out = exists_strongly_stable(instance)
    if out.is_found != (witness is not None):
        fail(f"{variant.value} says {out.status} on {formula}, sat_brute {witness}")
    if witness is None:
        stats["unsat"] += 1
        return
    stats["sat"] += 1
    encoded = encode_assignment(formula, witness, variant)
    if not is_strongly_stable(instance, encoded):
        fail(f"{variant.value}: the encoded witness of {formula} is not strongly stable")
    if decode_matching(formula, encoded, variant) != witness:
        fail(f"{variant.value}: the encoded witness of {formula} decodes to another model")
    for matching in (encoded, out.matching):
        if not satisfies(formula, decode_matching(formula, matching, variant), mode):
            fail(f"{variant.value}: a matching of {formula} decodes to a non-model")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vars", type=int, default=4)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    ppn = [random_ppn_formula(rng, rng.randint(2, args.max_vars)) for _ in range(args.count)]
    ppn += [f for f in all_ppn_formulas(4) if sat_brute(f) is None]
    formulas = {variant: ppn for variant in PPN_VARIANTS}
    formulas[ONE_IN_THREE] = all_oneinthree_formulas(4) + all_oneinthree_formulas(5)
    stats = {variant: {"sat": 0, "unsat": 0} for variant in formulas}
    for variant, sample in formulas.items():
        for formula in sample:
            sweep(formula, variant, stats[variant])
    dt = time.perf_counter() - t0
    for variant, sample in formulas.items():
        s = stats[variant]
        print(
            f"{variant.value}: {len(sample)} formulas, verdicts agree "
            f"({s['sat']} satisfiable, {s['unsat']} unsatisfiable)  [{dt:.2f}s total]"
        )
    if any(0 in s.values() for s in stats.values()):
        raise SystemExit("a target's sweep reached only one verdict; draw more formulas")


if __name__ == "__main__":
    main()
