"""The truth-table SAT decider, kept as a test reference.

This is ``hrrc.reductions.sat_brute`` as it was before it became a
backjumping search: it builds every assignment of variables 1..n in
lexicographic order (variable 1 most significant, false < true) and returns
the first that satisfies the formula.  It takes 2^n evaluations of the whole
formula, but each step is plainly the definition, which is what a
differential test needs.
"""

from __future__ import annotations

from itertools import product

from hrrc.reductions import (
    MODE_ONE_IN_THREE,
    MODE_ORDINARY,
    CnfFormula,
    SatAssignment,
    satisfies,
)


def sat_brute(
    formula: CnfFormula, mode: str = MODE_ORDINARY, max_vars: int = 20
) -> SatAssignment | None:
    """Lexicographically least satisfying assignment (false < true), or None."""
    if mode not in (MODE_ORDINARY, MODE_ONE_IN_THREE):
        raise ValueError(f"unknown satisfaction mode {mode!r}")
    if formula.num_vars > max_vars:
        raise ValueError(
            f"formula has {formula.num_vars} variables, above the brute-force bound {max_vars}"
        )
    variables = range(1, formula.num_vars + 1)
    for values in product((False, True), repeat=formula.num_vars):
        assignment = dict(zip(variables, values))
        if satisfies(formula, assignment, mode):
            return assignment
    return None
