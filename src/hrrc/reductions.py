"""CNF formulas and their translations into matching instances.

Two formula families are handled:

* *positive exactly-one* formulas: every clause has three distinct positive
  literals and is satisfied when exactly one of them is true;
* *2-positive/1-negative* (PPN) formulas: clauses of two or three literals in
  which every variable occurs exactly twice positively and once negatively.

``to_ppn`` rewrites any small CNF into an equisatisfiable PPN formula.  The
``reduce_*`` builders emit matching instances whose strongly stable matchings
correspond exactly to satisfying assignments, and ``encode_assignment`` /
``decode_matching`` translate witnesses across that correspondence.

Gadget ids embed their indices (``x'_2_1``, ``c'_3_2``, ...) so emitted
instance documents can be read against the source formula; the occurrence
table ties clause positions to variable occurrence slots and is what the
cross-gadget wiring and the decoders navigate by.

Each target is one row of a table of gadget emitters.  ``encode_assignment``
fills a witness first fit from the gadgets the builder emits, with the hospitals
a false variable closes shut, so a slot hospital's (``x'_i_k``) room follows
from its variable gadget rather than from a rule of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable

from .hr_core import greedy
from .model import Assignment, Instance, make_instance


class DimacsError(ValueError):
    """A DIMACS CNF document could not be parsed."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..num_vars.

    Each clause is a tuple of non-zero literals: ``+v`` for the variable,
    ``-v`` for its negation.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for j, clause in enumerate(self.clauses, start=1):
            if not clause:
                raise ValueError(f"clause {j} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {j} has out-of-range literal {lit}")


SatAssignment = dict[int, bool]

MODE_ORDINARY = "ordinary"
MODE_ONE_IN_THREE = "one_in_three"
_MAX_VARS = 20  # the most variables sat_brute accepts


def parse_dimacs(text: str) -> CnfFormula:
    """Parse standard DIMACS CNF: a ``p cnf`` header, 0-terminated clauses, ``c`` comments."""
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: invalid literal {token!r}") from exc
            if lit == 0:
                if not current:
                    raise DimacsError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds declared {num_vars} variables"
                    )
                current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause is not terminated by 0")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise DimacsError(
            f"header declares {declared_clauses} clauses but {len(clauses)} were read"
        )
    return CnfFormula(num_vars, tuple(clauses))


def _ppn_scan(
    formula: CnfFormula,
) -> tuple[list[str], dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """``check_ppn``'s report, and each variable's positive and negative
    (clause, position) slots in clause order, both indices 1-based."""
    out: list[str] = []
    positive: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, formula.num_vars + 1)}
    negative: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, formula.num_vars + 1)}
    for j, clause in enumerate(formula.clauses, start=1):
        if len(clause) not in (2, 3):
            out.append(f"clause {j} has {len(clause)} literals (needs 2 or 3)")
        if len(set(clause)) != len(clause):
            out.append(f"clause {j} repeats a literal")
        for ell, lit in enumerate(clause, start=1):
            if lit > 0:
                positive[lit].append((j, ell))
            else:
                negative[-lit].append((j, ell))
    for i in positive:
        if len(positive[i]) != 2 or len(negative[i]) != 1:
            out.append(
                f"variable {i} occurs {len(positive[i])} times positively and "
                f"{len(negative[i])} negatively (needs 2 and 1)"
            )
    return out, positive, negative


def check_ppn(formula: CnfFormula) -> list[str]:
    """Violations of the 2-positive/1-negative shape (empty report = compliant).

    Clauses must have two or three literals and may not repeat a variable
    with the same sign; a complementary pair inside one clause is allowed.
    Every variable must occur exactly twice positively and once negatively.
    """
    return _ppn_scan(formula)[0]


def check_one_in_three_positive(formula: CnfFormula) -> list[str]:
    """Violations of the positive exactly-one shape (empty report = compliant)."""
    out: list[str] = []
    for j, clause in enumerate(formula.clauses, start=1):
        if len(clause) != 3:
            out.append(f"clause {j} has {len(clause)} literals (needs 3)")
        negated = [lit for lit in clause if lit < 0]
        if negated:
            out.append(f"clause {j} contains negated literals {negated}")
        if len({abs(lit) for lit in clause}) != len(clause):
            out.append(f"clause {j} repeats a variable")
    return out


def literal_value(lit: int, assignment: SatAssignment) -> bool:
    value = assignment[abs(lit)]
    return value if lit > 0 else not value


def satisfies(formula: CnfFormula, assignment: SatAssignment, mode: str = MODE_ORDINARY) -> bool:
    if mode == MODE_ORDINARY:
        return all(any(literal_value(lit, assignment) for lit in c) for c in formula.clauses)
    if mode == MODE_ONE_IN_THREE:
        return all(
            sum(literal_value(lit, assignment) for lit in c) == 1 for c in formula.clauses
        )
    raise ValueError(f"unknown satisfaction mode {mode!r}")


def sat_brute(formula: CnfFormula, mode: str = MODE_ORDINARY) -> SatAssignment | None:
    """Lexicographically least satisfying assignment (false < true), or None.

    The search decides variables 1..n in order, False before True, so the
    first model it reaches is the least one with variable 1 most significant.
    Each clause is checked once, when its highest variable is set: it fails
    when no literal is true, or in ``MODE_ONE_IN_THREE`` when the count of
    true literal occurrences is not exactly one (a repeated literal counts
    twice).  When both values of a variable fail, the search jumps back to the
    highest variable below it in the failed clauses, merging the rest of their
    variables into that variable's conflict set (conflict-directed
    backjumping); an empty set means no model.  Every skipped subtree holds no
    model, so the answer is the one a truth table in lexicographic order gives.
    """
    if mode not in (MODE_ORDINARY, MODE_ONE_IN_THREE):
        raise ValueError(f"unknown satisfaction mode {mode!r}")
    if formula.num_vars > _MAX_VARS:
        raise ValueError(
            f"formula has {formula.num_vars} variables, above the brute-force bound {_MAX_VARS}"
        )
    n = formula.num_vars
    exactly_one = mode == MODE_ONE_IN_THREE
    # checks[v]: each clause whose highest variable is v, with a bit mask of its variables.
    checks: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n + 1)]
    for clause in formula.clauses:
        mask = 0
        for lit in clause:
            mask |= 1 << abs(lit)
        checks[mask.bit_length() - 1].append((clause, mask))
    value = [False] * (n + 1)
    # tried[v]: how many of variable v's values have been tried;
    # conflicts[v]: the variables of the clauses its tried values failed.
    tried = [0] * (n + 2)
    conflicts = [0] * (n + 2)
    v = 1
    while v <= n:
        if tried[v] == 2:
            culprits = conflicts[v] & ((1 << v) - 1)
            if not culprits:
                return None
            v = culprits.bit_length() - 1
            conflicts[v] |= culprits
            continue
        value[v] = tried[v] == 1
        tried[v] += 1
        for clause, mask in checks[v]:
            true = 0
            for lit in clause:
                if value[lit] if lit > 0 else not value[-lit]:
                    true += 1
            if true == 0 or (exactly_one and true > 1):
                conflicts[v] |= mask
                break
        else:
            v += 1
            tried[v] = conflicts[v] = 0
    return dict(zip(range(1, n + 1), value[1 : n + 1]))


# ---------------------------------------------------------------------------
# Normalization to the PPN shape


def to_ppn(formula: CnfFormula) -> tuple[CnfFormula, dict[int, int]]:
    """Rewrite a CNF with clauses of at most three literals into PPN shape.

    Every variable is split into one fresh variable per occurrence, chained
    by cyclic two-literal implication clauses that force all copies to agree;
    fresh variables standing for negative occurrences are then renamed with
    inverted polarity.  1-literal clauses are first padded into two 2-literal
    clauses over a fresh throwaway variable, numbered above the source's.  The
    result is equisatisfiable with the input.

    Also returns, for each source variable v that occurs in a clause, the
    literal of its first copy c that has v's value: ``+c``, or ``-c`` when
    copy c was flipped.
    """
    for j, clause in enumerate(formula.clauses, start=1):
        if len(clause) > 3:
            raise ValueError(f"clause {j} has {len(clause)} literals; at most 3 supported")

    # Pad unit clauses: (l) becomes (l or w) and (l or not w).
    clauses: list[list[int]] = []
    next_var = formula.num_vars + 1
    for clause in formula.clauses:
        if len(clause) == 1:
            clauses += [[clause[0], next_var], [clause[0], -next_var]]
            next_var += 1
        else:
            clauses.append(list(clause))

    # One fresh variable per occurrence, in (variable, occurrence) order.
    occurrences: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, next_var)}
    for cj, clause in enumerate(clauses):
        for pos, lit in enumerate(clause):
            occurrences[abs(lit)].append((cj, pos))

    fresh = 0
    first: dict[int, int] = {}
    cycle_clauses: list[tuple[int, int]] = []
    for v, slots in occurrences.items():
        if not slots:
            continue
        # Copies standing for negative occurrences are renamed with inverted
        # polarity, which turns their host literal positive and leaves every
        # copy with two positive and one negative occurrence; ``copies`` holds
        # each copy's literal with the value of v.
        copies = []
        for cj, pos in slots:
            fresh += 1
            copies.append(fresh if clauses[cj][pos] > 0 else -fresh)
            clauses[cj][pos] = fresh
        if v <= formula.num_vars:
            first[v] = copies[0]
        # Cyclic chain forcing every copy to mirror v: (copy_t or not copy_{t+1}).
        cycle_clauses += zip(copies, [-lit for lit in copies[1:] + copies[:1]])

    return CnfFormula(fresh, tuple(map(tuple, clauses)) + tuple(cycle_clauses)), first


def from_ppn(assignment: SatAssignment, first: dict[int, int], num_vars: int) -> SatAssignment:
    """Map an assignment of ``to_ppn``'s formula back to the ``num_vars`` original variables.

    Each variable v reads ``first[v]``, the literal of its first copy;
    padding variables are dropped, and a variable that occurs in no clause
    reads false.
    """
    return {v: v in first and literal_value(first[v], assignment) for v in range(1, num_vars + 1)}


# ---------------------------------------------------------------------------
# Occurrence bookkeeping for PPN formulas


@dataclass(frozen=True)
class OccurrenceTable:
    """Bidirectional index between variables' occurrence slots and clause positions.

    ``positive[i]`` gives the two (clause, position) slots of variable i's
    positive occurrences in order, ``negative[i]`` the slot of its negation;
    ``slots[(clause, position)]`` gives back (variable, kind) with kind 1 and
    2 for the positive occurrences and 3 for the negative one.  Clause and
    position indices are 1-based.
    """

    positive: dict[int, tuple[tuple[int, int], tuple[int, int]]]
    negative: dict[int, tuple[int, int]]
    slots: dict[tuple[int, int], tuple[int, int]]

    def to_doc(self) -> dict:
        return {
            "variables": [
                {
                    "variable": i,
                    "positive": [list(s) for s in self.positive[i]],
                    "negative": list(self.negative[i]),
                }
                for i in sorted(self.positive)
            ]
        }


def occurrence_table(formula: CnfFormula) -> OccurrenceTable:
    violations, positive, negative = _ppn_scan(formula)
    if violations:
        raise ValueError("formula is not in PPN shape: " + "; ".join(violations))
    slots: dict[tuple[int, int], tuple[int, int]] = {}
    for i, (first, second) in positive.items():
        slots[first], slots[second], slots[negative[i][0]] = (i, 1), (i, 2), (i, 3)
    return OccurrenceTable(
        positive={i: (first, second) for i, (first, second) in positive.items()},
        negative={i: slot for i, (slot,) in negative.items()},
        slots=slots,
    )


# ---------------------------------------------------------------------------
# Instance builders


class ReductionVariant(Enum):
    """Target parameter class of a formula-to-instance reduction."""

    ONE_IN_THREE_222 = "one-in-three-222"
    PPN_223 = "ppn-223"
    PPN_232 = "ppn-232"
    PPN_322 = "ppn-322"


class _Builder:
    def __init__(self) -> None:
        self.residents: list[tuple[str, list[str]]] = []
        self.hospitals: list[tuple[str, int, list[str]]] = []
        # Each region's cap, by its hospital set; the first cap emitted for a set holds.
        self.regions: dict[frozenset[str], int] = {}

    def resident(self, rid: str, prefs: list[str]) -> None:
        self.residents.append((rid, prefs))

    def hospital(self, hid: str, capacity: int, prefs: list[str]) -> None:
        self.hospitals.append((hid, capacity, prefs))

    def region(self, members: tuple[str, ...], cap: int) -> None:
        self.regions.setdefault(frozenset(members), cap)

    def build(self) -> Instance:
        return make_instance(self.residents, self.hospitals, self.regions.items())


def _x1(i: int) -> str:
    return f"x'_{i}"


def _g(j: int, k: int) -> str:
    return f"g'_{j}_{k}"


def _e(i: int, k: int) -> str:
    return f"e'_{i}_{k}"


def _b(i: int, k: int) -> str:
    return f"b'_{i}_{k}"


def _x(i: int, k: int) -> str:
    return f"x'_{i}_{k}"


def _c(j: int, ell: int) -> str:
    return f"c'_{j}_{ell}"


def _a(j: int, k: int) -> str:
    return f"a'_{j}_{k}"


def _u(j: int, k: int) -> str:
    return f"u'_{j}_{k}"


def _y(j: int) -> str:
    return f"y'_{j}"


def _d(j: int) -> str:
    return f"d'_{j}"


def _z(j: int) -> str:
    return f"z'_{j}"


def _t(j: int) -> str:
    return f"t'_{j}"


def _w(j: int) -> str:
    return f"w'_{j}"


def _check_oneinthree(formula: CnfFormula) -> None:
    """Raise ValueError unless ``reduce_oneinthree`` accepts ``formula``."""
    violations = check_one_in_three_positive(formula)
    if violations:
        raise ValueError("formula is not positive exactly-one: " + "; ".join(violations))
    used = {abs(lit) for clause in formula.clauses for lit in clause}
    missing = sorted(set(range(1, formula.num_vars + 1)) - used)
    if missing:
        raise ValueError(
            f"variables {missing} occur in no clause; a variable block without a "
            "region cannot be kept stable while empty, so such formulas are rejected"
        )


def _variable_oneinthree(b: _Builder, i: int, _table: None) -> None:
    b.resident(_y(i), [_x1(i)])
    b.hospital(_x1(i), 1, [_y(i)])


def _block(b: _Builder, j: int, *g2_first: str) -> None:
    """Clause j's 2x2 block, unstable on its own; ``g2_first`` head g'_j_2's list."""
    b.resident(_g(j, 1), [_g(j, 2), _g(j, 4)])
    b.resident(_g(j, 3), [_g(j, 4), _g(j, 2)])
    b.hospital(_g(j, 2), 1, [*g2_first, _g(j, 3), _g(j, 1)])
    b.hospital(_g(j, 4), 1, [_g(j, 1), _g(j, 3)])


def _clause_oneinthree(b: _Builder, j: int, clause: tuple[int, ...], _table: None) -> None:
    _block(b, j)
    members = [_g(j, 2), _g(j, 4)] + [_x1(lit) for lit in clause]
    for pair in combinations(members, 2):
        b.region(pair, 1)


def _variable_223(b: _Builder, i: int, table: OccurrenceTable) -> None:
    b.resident(_e(i, 1), [_b(i, 1), _b(i, 3)])
    b.resident(_e(i, 2), [_b(i, 2), _b(i, 4)])
    b.hospital(_b(i, 1), 1, [_e(i, 1)])
    b.hospital(_x(i, 1), 1, [_c(*table.positive[i][0])])
    b.hospital(_b(i, 2), 1, [_e(i, 2)])
    b.hospital(_x(i, 2), 1, [_c(*table.positive[i][1])])
    b.hospital(_b(i, 3), 1, [_e(i, 1)])
    b.hospital(_b(i, 4), 1, [_e(i, 2)])
    b.hospital(_x(i, 3), 1, [_c(*table.negative[i])])
    b.region((_b(i, 1), _x(i, 1)), 1)
    b.region((_b(i, 2), _x(i, 2)), 1)
    b.region((_b(i, 3), _b(i, 4), _x(i, 3)), 2)


def _variable_232(b: _Builder, i: int, table: OccurrenceTable) -> None:
    b.resident(_e(i, 1), [_b(i, 1), _x(i, 3)])
    b.resident(_e(i, 2), [_b(i, 2), _x(i, 3)])
    b.hospital(_b(i, 1), 1, [_e(i, 1)])
    b.hospital(_x(i, 1), 1, [_c(*table.positive[i][0])])
    b.hospital(_b(i, 2), 1, [_e(i, 2)])
    b.hospital(_x(i, 2), 1, [_c(*table.positive[i][1])])
    b.hospital(_x(i, 3), 2, [_e(i, 1), _e(i, 2), _c(*table.negative[i])])
    b.region((_b(i, 1), _x(i, 1)), 1)
    b.region((_b(i, 2), _x(i, 2)), 1)


def _variable_322(b: _Builder, i: int, table: OccurrenceTable) -> None:
    b.resident(_e(i, 1), [_b(i, 1), _x(i, 1)])
    b.resident(_e(i, 2), [_b(i, 1), _x(i, 2)])
    b.resident(_e(i, 3), [_b(i, 2), _x(i, 3)])
    b.resident(_e(i, 4), [_b(i, 2)])
    b.hospital(_x(i, 1), 1, [_e(i, 1), _c(*table.positive[i][0])])
    b.hospital(_x(i, 2), 1, [_e(i, 2), _c(*table.positive[i][1])])
    b.hospital(_x(i, 3), 1, [_e(i, 3), _c(*table.negative[i])])
    b.hospital(_b(i, 1), 2, [_e(i, 2), _e(i, 1)])
    b.hospital(_b(i, 2), 2, [_e(i, 4), _e(i, 3)])
    b.region((_b(i, 1), _b(i, 2)), 2)


def _slot_hospital(table: OccurrenceTable, j: int, ell: int) -> str:
    i, kind = table.slots[(j, ell)]
    return _x(i, kind)


def _common_clause(b: _Builder, j: int, clause: tuple[int, ...], table: OccurrenceTable) -> None:
    """Clause j's gadget in the 223 and 232 reductions."""
    c1, c2, a1, y = _c(j, 1), _c(j, 2), _a(j, 1), _y(j)
    b.resident(c1, [_slot_hospital(table, j, 1), a1])
    b.resident(c2, [_slot_hospital(table, j, 2), a1])
    b.hospital(a1, 1, [c1, c2])
    if len(clause) == 2:
        b.region((a1, y), 1)
    else:
        c3, d, a2, a3 = _c(j, 3), _d(j), _a(j, 2), _a(j, 3)
        b.resident(d, [a2, a3])
        b.resident(c3, [_slot_hospital(table, j, 3), a3])
        b.hospital(a2, 1, [d])
        b.hospital(a3, 1, [d, c3])
        b.region((a1, a2), 1)
        b.region((a3, y), 1)
    b.hospital(y, 1, [_z(j)])


def _clause_322(b: _Builder, j: int, clause: tuple[int, ...], table: OccurrenceTable) -> None:
    """Clause j's gadget in the 322 reduction."""
    c1, c2, u1, a1, a2, y = _c(j, 1), _c(j, 2), _u(j, 1), _a(j, 1), _a(j, 2), _y(j)
    b.resident(c1, [_slot_hospital(table, j, 1), a1])
    b.resident(c2, [_slot_hospital(table, j, 2), a2])
    b.hospital(a1, 1, [c1, u1])
    b.hospital(a2, 1, [c2, u1])
    if len(clause) == 2:
        b.resident(u1, [a1, a2, y])
        b.hospital(y, 1, [u1, _z(j)])
    else:
        c3, d, u2, a3, a4, w = _c(j, 3), _d(j), _u(j, 2), _a(j, 3), _a(j, 4), _w(j)
        b.resident(u1, [a1, a2, w])
        b.resident(d, [w, a4])
        b.resident(c3, [_slot_hospital(table, j, 3), a3])
        b.resident(u2, [a4, a3, y])
        b.hospital(w, 1, [u1, d])
        b.hospital(a4, 1, [d, u2])
        b.hospital(a3, 1, [c3, u2])
        b.hospital(y, 1, [u2, _z(j)])


def _tail_223(b: _Builder, j: int) -> None:
    _block(b, j)
    b.resident(_z(j), [_y(j), _t(j)])
    b.hospital(_t(j), 1, [_z(j)])
    b.region((_g(j, 2), _g(j, 4), _t(j)), 1)


def _tail_232(b: _Builder, j: int) -> None:
    _block(b, j, _z(j))
    b.resident(_z(j), [_y(j), _g(j, 2)])
    b.region((_g(j, 2), _g(j, 4)), 1)


def _tail_322(b: _Builder, j: int) -> None:
    b.resident(_z(j), [_y(j), _g(j, 2), _g(j, 4)])
    b.resident(_g(j, 3), [_g(j, 4), _g(j, 2)])
    b.hospital(_g(j, 2), 1, [_g(j, 3), _z(j)])
    b.hospital(_g(j, 4), 1, [_z(j), _g(j, 3)])
    b.region((_g(j, 2), _g(j, 4)), 1)


@dataclass(frozen=True)
class _Target:
    """One reduction target: the gadgets its builder emits, and how witnesses read them.

    The builder emits ``variable(b, i, table)`` per variable, ``clause(b, j,
    clause, table)`` per clause, then ``tail(b, j)`` per clause; every witness
    holds ``tail_pairs(j)`` in the tail.  A false variable i closes
    ``closes(i)``; a matching reads i as ``read_as`` when it holds ``reads(i,
    table)``.  ``table_of`` raises unless the reduction accepts a formula, and
    returns the occurrence table that wires its gadgets.
    """

    variable: Callable[..., None]
    clause: Callable[..., None]
    tail: Callable[[_Builder, int], None]
    tail_pairs: Callable[[int], tuple[tuple[str, str], ...]]
    closes: Callable[[int], tuple[str, ...]]
    read_as: bool = True
    reads: Callable[..., tuple[str, str]] = lambda i, table: (_c(*table.negative[i]), _x(i, 3))
    mode: str = MODE_ORDINARY
    table_of: Callable[[CnfFormula], OccurrenceTable | None] = occurrence_table


_ROWS = {
    ReductionVariant.ONE_IN_THREE_222: _Target(
        _variable_oneinthree, _clause_oneinthree, lambda b, j: None, lambda j: (),
        closes=lambda i: (_x1(i),), reads=lambda i, _table: (_y(i), _x1(i)),
        mode=MODE_ONE_IN_THREE, table_of=_check_oneinthree),
    ReductionVariant.PPN_223: _Target(
        _variable_223, _common_clause, _tail_223, lambda j: ((_z(j), _t(j)),),
        closes=lambda i: (_b(i, 1), _b(i, 2))),
    ReductionVariant.PPN_232: _Target(
        _variable_232, _common_clause, _tail_232, lambda j: ((_z(j), _g(j, 2)),),
        closes=lambda i: (_b(i, 1), _b(i, 2))),
    ReductionVariant.PPN_322: _Target(
        _variable_322, _clause_322, _tail_322, lambda j: ((_z(j), _y(j)), (_g(j, 3), _g(j, 4))),
        closes=lambda i: (_b(i, 1),), read_as=False),
}


def _row(variant: ReductionVariant, formula: CnfFormula) -> tuple[_Target, OccurrenceTable | None]:
    """``variant``'s row, and the occurrence table of a formula the row accepts."""
    row = _ROWS.get(variant)
    if row is None:
        raise ValueError(f"unknown reduction variant {variant}")
    return row, row.table_of(formula)


def _gadgets(row: _Target, formula: CnfFormula, table: OccurrenceTable | None) -> _Builder:
    """A builder holding ``row``'s variable gadgets, then its clause gadgets."""
    b = _Builder()
    for i in range(1, formula.num_vars + 1):
        row.variable(b, i, table)
    for j, clause in enumerate(formula.clauses, start=1):
        row.clause(b, j, clause, table)
    return b


def _build(row: _Target, formula: CnfFormula, table: OccurrenceTable | None) -> Instance:
    """``row``'s instance: its variable gadgets, clause gadgets, then tails."""
    b = _gadgets(row, formula, table)
    for j in range(1, len(formula.clauses) + 1):
        row.tail(b, j)
    return b.build()


def reduce_oneinthree(formula: CnfFormula) -> Instance:
    """Translate a positive exactly-one formula into an overlapping-regions instance.

    Per variable: one resident/hospital pair that is matched exactly when the
    variable is true.  Per clause: a 2x2 block with no stable configuration
    of its own, plus cap-1 regions over every pair drawn from the block's
    hospitals and the clause's three variable hospitals.  The caps make the
    block harmless exactly when exactly one variable hospital is filled.
    """
    row, table = _row(ReductionVariant.ONE_IN_THREE_222, formula)
    return _build(row, formula, table)


def reduce_ppn(
    formula: CnfFormula, variant: ReductionVariant
) -> tuple[Instance, OccurrenceTable]:
    """Translate a PPN formula into a disjoint-regions instance of the target class."""
    if variant is ReductionVariant.ONE_IN_THREE_222 or variant not in _ROWS:
        raise ValueError(f"variant {variant} is not a PPN reduction target")
    row, table = _row(variant, formula)
    return _build(row, formula, table), table


# ---------------------------------------------------------------------------
# Witness translation


def encode_assignment(
    formula: CnfFormula, assignment: SatAssignment, variant: ReductionVariant
) -> Assignment:
    """Build the strongly stable matching that a satisfying assignment induces.

    The variable and clause gadgets, emitted as the reduction emits them, are
    filled first fit by :func:`hrrc.hr_core.greedy`, each resident in
    declaration order taking the first hospital on its list with room, with
    the hospitals a false variable closes shut (see the module docstring);
    each clause's tail adds the same pairs in every witness.
    """
    row, table = _row(variant, formula)
    if not satisfies(formula, assignment, row.mode):
        semantics = " (exactly-one semantics)" if row.mode == MODE_ONE_IN_THREE else ""
        raise ValueError("assignment does not satisfy the formula" + semantics)
    b = _gadgets(row, formula, table)
    false = [i for i in range(1, formula.num_vars + 1) if not assignment[i]]
    closed = {h for i in false for h in row.closes(i)}
    candidates = ((r, h) for r, prefs in b.residents for h in prefs)
    capacities = {h: 0 if h in closed else capacity for h, capacity, _prefs in b.hospitals}
    fill = greedy(candidates, capacities, b.regions.items())
    tails = (pair for j in range(1, len(formula.clauses) + 1) for pair in row.tail_pairs(j))
    return Assignment(fill.pairs.union(tails))


def decode_matching(
    formula: CnfFormula, matching: Assignment, variant: ReductionVariant
) -> SatAssignment:
    """Read a satisfying assignment off a strongly stable matching.

    Variable i is read off one pair: ``(y'_i, x'_i)`` in one-in-three, where it
    means true, and the negative occurrence at its slot, ``(c'_j_ell, x'_i_3)``,
    in the PPN targets, where it means true in ppn-223 and ppn-232 and false in
    ppn-322.  The caller is responsible for the matching actually being
    strongly stable on the reduced instance; only then is the result
    guaranteed to satisfy the formula.
    """
    row, table = _row(variant, formula)
    return {
        i: (row.reads(i, table) in matching) == row.read_as
        for i in range(1, formula.num_vars + 1)
    }
