#!/usr/bin/env python3
"""Mutation check: every mutant in the table fails the tests named with it.

Usage: ``python3 scripts/mutants.py``

Copies the tree to a temporary directory, runs the named tests of every row
once unmutated (they must pass), then applies one row at a time and runs
``pytest -x -q`` on that row's tests.  A row is a file, a text that must
occur in it exactly once, its replacement, and the tests that must fail.
Exits non-zero when a mutant survives, when its tests fail for another
reason than a failed test (a collection error, say), or when a row's text no
longer occurs exactly once, so that drift in the code shows here.

``EQUIVALENT`` lists mutants that no test can kill, each with its reason;
only their texts are checked.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    tests: tuple[str, ...]


DA_DIFFERENTIAL = "tests/test_hr_core.py::test_da_matches_the_reference_after_every_squeeze"
WALK_DIFFERENTIAL = "tests/test_exhaustive.py::test_backjumping_walk_equals_the_chronological_walk"
WALK_PINS = "tests/test_exhaustive.py::test_pruned_walk_search_is_pinned"
WALK_ORDER = "tests/test_exhaustive.py::test_walk_yields_the_canonical_order"
READER_DIFFERENTIAL = "tests/test_cli.py::test_plain_reader_agrees_with_argparse_on_random_lines"
LOOP_DIFFERENTIAL = (
    "tests/test_poly_solvers.py::"
    "test_solve_222_disjoint_equals_blocks_and_rerun_reference_on_criterion_3_draws"
)

MUTANTS = [
    # Deferred acceptance displaces the best held resident instead of the worst.
    Mutant(
        "src/hrrc/hr_core.py",
        "worst = max(held_h)\n                    if worst < rank:",
        "worst = min(held_h)\n                    if worst < rank:",
        (DA_DIFFERENTIAL, "tests/test_hr_core.py::test_da_proposal_counts"),
    ),
    # A squeeze rejects the best held resident.
    Mutant(
        "src/hrrc/hr_core.py",
        "worst = max(held_h)\n            held_h.remove(worst)\n            return self._propose",
        "worst = min(held_h)\n            held_h.remove(worst)\n            return self._propose",
        (DA_DIFFERENTIAL,),
    ),
    # A squeeze reports no accepting hospital, so the capacity loop never
    # sees the regions its displaced resident overloads.
    Mutant(
        "src/hrrc/hr_core.py",
        "return self._propose(deque([self._hprefs[h][worst]]))",
        "self._propose(deque([self._hprefs[h][worst]]))\n            return []",
        (LOOP_DIFFERENTIAL, DA_DIFFERENTIAL),
    ),
    # The squeeze order puts the common resident's preferred member first.
    Mutant(
        "src/hrrc/poly_solvers.py",
        "members.sort(key=instance.resident_prefs[common[0]].index, reverse=True)",
        "members.sort(key=instance.resident_prefs[common[0]].index)",
        (LOOP_DIFFERENTIAL,),
    ),
    # The capacity loop ignores the common residents the block scan found, so
    # every squeeze tries the members in declaration order.
    Mutant(
        "src/hrrc/poly_solvers.py",
        "commons.get(k, [])",
        "[]",
        (LOOP_DIFFERENTIAL,),
    ),
    # The capacity loop ignores the hospitals a squeeze returns.
    Mutant(
        "src/hrrc/poly_solvers.py",
        "stack.extend(regions_of[h])",
        "pass",
        (LOOP_DIFFERENTIAL,),
    ),
    # A full slot's residents are left out of the culprits: those placed at a
    # full hospital, or inside a region at its cap.
    Mutant(
        "src/hrrc/exhaustive.py",
        "conflicts[i] |= held[s]\n                    break",
        "break",
        (WALK_DIFFERENTIAL, WALK_PINS),
    ),
    # A final pair's culprits leave out the earliest displaced resident.
    Mutant(
        "src/hrrc/exhaustive.py",
        "r_bit | displaced & -displaced",
        "r_bit",
        (WALK_DIFFERENTIAL, WALK_PINS),
    ),
    # A move that fits leaves the hospital's listers out of its culprits.
    Mutant(
        "src/hrrc/exhaustive.py",
        "culprits = r_bit | listers[s]",
        "culprits = r_bit",
        (WALK_DIFFERENTIAL, WALK_PINS),
    ),
    # A move that fits leaves the listers of the regions it enters out of its
    # culprits.
    Mutant(
        "src/hrrc/exhaustive.py",
        "culprits |= listers[k]",
        "pass",
        (WALK_DIFFERENTIAL, WALK_PINS),
    ),
    # A yielded leaf leaves conflicts untouched: no predecessor is blamed.
    Mutant(
        "src/hrrc/exhaustive.py",
        "conflicts[j] |= 1 << (j - 1)",
        "pass",
        (WALK_DIFFERENTIAL, WALK_ORDER),
    ),
    # ``checks`` is written back only when the walk ends, not before a yield.
    Mutant(
        "src/hrrc/exhaustive.py",
        "self.checks = checks\n                yield",
        "yield",
        (WALK_DIFFERENTIAL, WALK_PINS),
    ),
    # Options in preference order instead of hospital declaration order.
    Mutant(
        "src/hrrc/exhaustive.py",
        "            row.sort()\n",
        "",
        (WALK_PINS, WALK_DIFFERENTIAL),
    ),
    # A ppn-223 variable gadget's first resident lists its hospitals swapped.
    Mutant(
        "src/hrrc/reductions.py",
        "b.resident(e1, (b1, b3))",
        "b.resident(e1, (b3, b1))",
        ("tests/test_reductions.py::test_ppn_instance_bytes_are_pinned",),
    ),
    # The id lists of a written instance are indented one space short.
    Mutant(
        "src/hrrc/model.py",
        '_ID_SEPARATOR = ",\\n        "',
        '_ID_SEPARATOR = ",\\n       "',
        ("tests/test_model.py::test_writers_match_json_dumps_on_reductions",),
    ),
    # The hospitals' lists are never checked entry by entry.
    Mutant(
        "src/hrrc/index.py",
        "if out or mutual or (",
        "if False and (",
        ("tests/test_validate_differential.py::test_validate_checks_hospital_lists_when_totals_balance",),
    ),
    # The plain reader takes a value outside its action's choices.
    Mutant(
        "src/hrrc/cli.py",
        "    if action.choices is not None and value not in action.choices:\n"
        "        raise ValueError(token)\n",
        "",
        (READER_DIFFERENTIAL,),
    ),
    # The plain reader takes a value that starts with "-".
    Mutant(
        "src/hrrc/cli.py",
        '    if token.startswith("-"):\n        raise ValueError(token)\n',
        "",
        (READER_DIFFERENTIAL,),
    ),
]

EQUIVALENT = [
    # A proposer is never held by the hospital it proposes to, so no held
    # rank equals the proposer's and "<" and "<=" take the same branch.
    (
        Mutant("src/hrrc/hr_core.py", "if worst < rank:", "if worst <= rank:", ()),
        "a proposer is never already held by the hospital it proposes to",
    ),
]


def _occurrences(mutant: Mutant, tree: Path) -> int:
    return (tree / mutant.file).read_text(encoding="utf-8").count(mutant.text)


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def main() -> int:
    failures = []
    for mutant in MUTANTS + [m for m, _ in EQUIVALENT]:
        count = _occurrences(mutant, ROOT)
        if count != 1:
            failures.append(f"{mutant.file}: {mutant.text!r} occurs {count} times, not once")
    if failures:
        print("\n".join(failures))
        return 1
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        proc = _pytest(tree, named)
        if proc.returncode != 0:
            print("the named tests fail without a mutant:\n" + proc.stdout + proc.stderr)
            return 1
        for mutant in MUTANTS:
            path = tree / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.text, mutant.replacement), encoding="utf-8")
            start = time.perf_counter()
            proc = _pytest(tree, mutant.tests)
            path.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # and anything else (collection errors) kills it for no reason.
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
            print(f"{verdict:8} {time.perf_counter() - start:5.1f}s  {mutant.file}: "
                  f"{mutant.text!r} -> {mutant.replacement!r}")
            if verdict != "killed":
                failures.append(proc.stdout[-2000:] + proc.stderr[-2000:])
    for failure in failures:
        print(failure)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed; "
          f"{len(EQUIVALENT)} equivalent listed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
