#!/usr/bin/env python3
"""Write BENCH_walk.json: the oracle's pruned walk on fixed hard inputs.

Usage: ``python3 scripts/bench.py [--out PATH] [--expect PATH]``

Each row names one fixed input and records its size in agents (residents
plus hospitals), the walk's verdict, its ``checks`` (the tests for a final
strong blocking pair, which do not depend on the machine), the best of three
wall times of set-up plus walk to the first leaf or exhaustion, and the
Python version.  The rows:

* ``tight-draw``: the fourth tight draw of ``Random(37)`` at 30x30;
* ``ppn-232``, ``ppn-322`` and ``ppn-223``: the ``to_ppn`` image of the
  unsatisfiable 3-CNF with all eight sign patterns over x1-x3, reduced to
  each PPN target.

``--out`` defaults to ``BENCH_walk.json`` at the root of the repository.
With ``--expect``, the script exits non-zero when the rows' names, verdicts or
check counts differ from those in that file; seconds are not compared.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen import random_instance  # noqa: E402
from hrrc.exhaustive import _Search  # noqa: E402
from hrrc.model import Instance  # noqa: E402
from hrrc.reductions import CnfFormula, ReductionVariant, reduce_ppn, to_ppn  # noqa: E402

REPEATS = 3


def inputs():
    """Each row's name, the text that names its input, and the instance."""
    rng = random.Random(37)
    tight = dict(
        alpha=3, beta=3, gamma=3, edge_prob=0.9,
        min_capacity=1, max_capacity=1, min_region_cap=1, max_region_cap=1,
    )
    yield (
        "tight-draw",
        "index 3 of random_instance(Random(37), 30, 30, alpha=3, beta=3, gamma=3, "
        "edge_prob=0.9, min_capacity=1, max_capacity=1, min_region_cap=1, "
        "max_region_cap=1), drawn in turn",
        [random_instance(rng, 30, 30, **tight) for _ in range(4)][3],
    )
    signs = product((1, -1), repeat=3)
    image = to_ppn(CnfFormula(3, tuple((a, 2 * b, 3 * c) for a, b, c in signs)))[0]
    for variant in (ReductionVariant.PPN_232, ReductionVariant.PPN_322, ReductionVariant.PPN_223):
        yield (
            variant.value,
            f"reduce_ppn(to_ppn(F), {variant.value}), F the 3-CNF of all eight "
            "clauses (±x1 ∨ ±x2 ∨ ±x3)",
            reduce_ppn(image, variant)[0],
        )


def row(name: str, text: str, instance: Instance) -> dict:
    instance.index  # compile the view outside the timed runs
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        search = _Search(instance)
        leaf = next(search.leaves(True), None)
        seconds.append(time.perf_counter() - start)
    return {
        "name": name,
        "input": text,
        "agents": len(instance.residents) + len(instance.hospitals),
        "verdict": "none-exists" if leaf is None else "found",
        "checks": search.checks,
        "seconds": round(min(seconds), 3),
        "python": platform.python_version(),
    }


def outcomes(rows: list[dict]) -> list[tuple]:
    """The fields of the rows that do not depend on the machine."""
    return [(r["name"], r["verdict"], r["checks"]) for r in rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_walk.json"))
    parser.add_argument("--expect", help="a BENCH_walk.json whose verdicts and checks must recur")
    args = parser.parse_args()
    rows = []
    for name, text, instance in inputs():
        rows.append(row(name, text, instance))
        print(f"{name}: {rows[-1]['agents']} agents, {rows[-1]['verdict']}, "
              f"{rows[-1]['checks']:,} checks, {rows[-1]['seconds']:.3f} s", flush=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"topic": "walk", "rows": rows}, f, indent=1, ensure_ascii=False)
        f.write("\n")
    if args.expect:
        with open(args.expect, encoding="utf-8") as f:
            expected = json.load(f)["rows"]
        got, want = outcomes(rows), outcomes(expected)
        if got != want:
            print(f"rows differ from {args.expect}:\n  got      {got}\n  expected {want}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
