"""Formula checks, normalization, the four reductions, witness translation."""

from __future__ import annotations

import hashlib
import random
import time
from itertools import product

import pytest

import reference_sat
from gen import all_oneinthree_formulas, all_ppn_formulas, random_cnf, random_ppn_formula
from hrrc.exhaustive import exists_strongly_stable, strongly_stable_set
from hrrc.model import classify, save_instance, save_matching
from hrrc.poly_solvers import HARD
from hrrc.reductions import (
    CnfFormula,
    DimacsError,
    MODE_ONE_IN_THREE,
    MODE_ORDINARY,
    ReductionVariant,
    check_one_in_three_positive,
    check_ppn,
    decode_matching,
    encode_assignment,
    from_ppn,
    occurrence_table,
    parse_dimacs,
    reduce_oneinthree,
    reduce_ppn,
    sat_brute,
    satisfies,
    to_ppn,
)
from hrrc.stability import is_strongly_stable

PPN_VARIANTS = [ReductionVariant.PPN_223, ReductionVariant.PPN_232, ReductionVariant.PPN_322]
# The class each reduction's output must have: the least class it makes NP-hard.
ADVERTISED = {cell.reduction: cell.least for cell in HARD}

# Three 3-clauses over three variables; variable i is negated in clause i.
PPN_3X3 = CnfFormula(3, ((-1, 2, 3), (1, -2, 3), (1, 2, -3)))


# --- parsing -----------------------------------------------------------------


def test_parse_dimacs_basic():
    f = parse_dimacs("c a comment\np cnf 2 1\n1 -2 0\n")
    assert f.num_vars == 2
    assert f.clauses == ((1, -2),)


def test_parse_dimacs_multiline_clauses_and_comments():
    f = parse_dimacs("p cnf 3 2\nc mid comment\n1 2\n3 0 -1 -2 -3 0\n")
    assert f.clauses == ((1, 2, 3), (-1, -2, -3))


def test_parse_dimacs_errors():
    with pytest.raises(DimacsError, match="not terminated"):
        parse_dimacs("p cnf 2 1\n1 -2\n")
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("1 -2 0\n")
    with pytest.raises(DimacsError, match="exceeds"):
        parse_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(DimacsError, match="declares"):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(DimacsError, match="invalid literal"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


# --- shape checks ------------------------------------------------------------


def test_check_ppn_accepts_compliant_formula():
    assert check_ppn(CnfFormula(2, ((1, 2), (1, -2), (-1, 2)))) == []
    assert check_ppn(PPN_3X3) == []


def test_check_ppn_violations():
    assert any("literals" in v for v in check_ppn(CnfFormula(1, ((1,), (1,), (-1,)))))
    three_pos = CnfFormula(2, ((1, 2), (1, 2), (1, -2), (-1, 2)))
    assert any("variable 1" in v for v in check_ppn(three_pos))
    dup = CnfFormula(2, ((1, 1), (2, -1), (2, -2)))
    assert any("repeats" in v for v in check_ppn(dup))


def test_check_ppn_report_is_exact():
    f = CnfFormula(3, ((1,), (1, 1, -2), (2, -1, 3, -3)))
    report = [
        "clause 1 has 1 literals (needs 2 or 3)",
        "clause 2 repeats a literal",
        "clause 3 has 4 literals (needs 2 or 3)",
        "variable 1 occurs 3 times positively and 1 negatively (needs 2 and 1)",
        "variable 2 occurs 1 times positively and 1 negatively (needs 2 and 1)",
        "variable 3 occurs 1 times positively and 1 negatively (needs 2 and 1)",
    ]
    assert check_ppn(f) == report
    with pytest.raises(ValueError) as err:
        occurrence_table(f)
    assert str(err.value) == "formula is not in PPN shape: " + "; ".join(report)


def test_check_ppn_permits_complementary_pair_in_clause():
    f = CnfFormula(2, ((1, -1), (1, 2), (2, -2)))
    assert check_ppn(f) == []


def test_check_one_in_three_positive():
    assert check_one_in_three_positive(CnfFormula(3, ((1, 2, 3),))) == []
    assert any(
        "3" in v for v in check_one_in_three_positive(CnfFormula(2, ((1, 2),)))
    )
    assert any(
        "negated" in v
        for v in check_one_in_three_positive(CnfFormula(3, ((1, -2, 3),)))
    )
    assert any(
        "repeats" in v
        for v in check_one_in_three_positive(CnfFormula(2, ((1, 1, 2),)))
    )


# --- brute-force SAT ----------------------------------------------------------


def test_sat_brute_least_assignment():
    assert sat_brute(CnfFormula(2, ((1, 2),))) == {1: False, 2: True}
    assert sat_brute(CnfFormula(3, ((1, 2, 3),)), mode=MODE_ONE_IN_THREE) == {
        1: False,
        2: False,
        3: True,
    }
    assert sat_brute(CnfFormula(1, ((1,), (-1,)))) is None


def test_sat_brute_bound():
    big = CnfFormula(25, ((1, 2),))
    with pytest.raises(ValueError, match="bound"):
        sat_brute(big)


def assert_equals_truth_table(formula):
    for mode in (MODE_ORDINARY, MODE_ONE_IN_THREE):
        assert sat_brute(formula, mode) == reference_sat.sat_brute(formula, mode), (formula, mode)


SAT_EDGE_CASES = [
    (CnfFormula(0, ()), MODE_ORDINARY, {}),
    # Variables 2 and 4 are in no clause, so they stay False.
    (CnfFormula(4, ((-1, 3), (1, 3))), MODE_ORDINARY, {1: False, 2: False, 3: True, 4: False}),
    # A complementary pair satisfies its clause under either value.
    (CnfFormula(2, ((1, -1), (2,))), MODE_ORDINARY, {1: False, 2: True}),
    # In one-in-three mode a repeated true literal counts twice.
    (CnfFormula(2, ((1, 1, 2),)), MODE_ONE_IN_THREE, {1: False, 2: True}),
    (CnfFormula(1, ((1, 1, 1),)), MODE_ONE_IN_THREE, None),
    (CnfFormula(3, ((1, 2, 2), (-2, -2, 3))), MODE_ONE_IN_THREE, None),
    # (x1 -x1 x2) has exactly one true literal iff x2 is False.
    (CnfFormula(2, ((1, -1, 2),)), MODE_ONE_IN_THREE, {1: False, 2: False}),
]


def test_sat_brute_equals_the_truth_table_on_edge_cases():
    for formula, mode, expected in SAT_EDGE_CASES:
        assert sat_brute(formula, mode) == expected, formula
        assert_equals_truth_table(formula)


def test_sat_brute_equals_the_truth_table_on_ppn_formulas():
    for formula in all_ppn_formulas(2) + all_ppn_formulas(3):
        assert_equals_truth_table(formula)


def test_sat_brute_equals_the_truth_table_on_random_cnfs_and_their_normalizations():
    rng = random.Random(10)
    normalized = 0
    for d in range(3000):
        formula = random_cnf(rng, max_vars=7, max_clauses=8, clause_sizes=(1, 2, 3))
        assert_equals_truth_table(formula)
        # The truth table costs 2^n, so every image of up to 10 variables is
        # compared, and every 25th draw's image of up to 14.
        image, _origins = to_ppn(formula)
        if image.num_vars <= (14 if d % 25 == 0 else 10):
            assert_equals_truth_table(image)
            normalized += 1
    assert normalized > 1000


@pytest.mark.parametrize(
    "formula, expected",
    [
        (CnfFormula(20, ((20,), (-20,))), None),
        (CnfFormula(20, tuple((v,) for v in range(1, 21))), {v: True for v in range(1, 21)}),
    ],
    ids=["last-variable-contradiction", "all-unit-positive"],
)
def test_sat_brute_is_fast_where_a_truth_table_is_slowest(formula, expected):
    # A truth table tries all 2^20 assignments on the first formula and the
    # last one on the second; backjumping needs a few dozen steps on either.
    start = time.perf_counter()
    assert sat_brute(formula) == expected
    assert time.perf_counter() - start < 0.1


# --- normalization -----------------------------------------------------------


def test_to_ppn_three_occurrences_adds_three_copies_and_clauses():
    f = CnfFormula(2, ((1, 2), (1, -2), (-1, 2)))
    out, origins = to_ppn(f)
    assert out.num_vars == 6
    assert len(out.clauses) == len(f.clauses) + 6
    assert check_ppn(out) == []
    assert origins == {1: 1, 2: 4}


def test_to_ppn_output_passes_check_even_when_already_ppn():
    out, _ = to_ppn(PPN_3X3)
    assert check_ppn(out) == []


def test_to_ppn_handles_unit_clauses():
    out, origins = to_ppn(CnfFormula(1, ((1,),)))
    assert check_ppn(out) == []
    assert sat_brute(out) is not None
    assert origins == {1: 1} and out.num_vars == 4
    unsat, _ = to_ppn(CnfFormula(1, ((1,), (-1,))))
    assert check_ppn(unsat) == []
    assert sat_brute(unsat) is None


def test_to_ppn_preserves_satisfiability_on_random_formulas():
    rng = random.Random(61)
    for _ in range(150):
        f = random_cnf(rng, max_vars=4, max_clauses=4, clause_sizes=(1, 2, 3))
        out, _ = to_ppn(f)
        assert check_ppn(out) == []
        assert (sat_brute(f) is None) == (sat_brute(out) is None)


def test_from_ppn_reads_back_exactly_the_source_models():
    # Every model of the image reads back as a model of the source, and every
    # source model is read back, once its variables that occur in no clause
    # are set false.
    rng = random.Random(31)
    checked = satisfiable = 0
    for _ in range(600):
        f = random_cnf(rng, max_vars=5, max_clauses=6, clause_sizes=(1, 2, 3))
        image, first = to_ppn(f)
        if image.num_vars > 12:
            continue
        unused = set(range(1, f.num_vars + 1)) - {abs(lit) for c in f.clauses for lit in c}
        expected = {tuple(a.items()) for a in models(f) if not any(a[v] for v in unused)}
        readbacks = {tuple(from_ppn(a, first, f.num_vars).items()) for a in models(image)}
        assert readbacks == expected, f
        checked += 1
        satisfiable += bool(expected)
    assert (checked, satisfiable) == (367, 325)


def test_to_ppn_rejects_wide_clauses():
    with pytest.raises(ValueError, match="at most 3"):
        to_ppn(CnfFormula(4, ((1, 2, 3, 4),)))


# --- occurrence table ---------------------------------------------------------


def test_occurrence_table_directions_are_inverse():
    table = occurrence_table(PPN_3X3)
    assert table.negative == {1: (1, 1), 2: (2, 2), 3: (3, 3)}
    for i, slots in table.positive.items():
        for rank, slot in enumerate(slots, start=1):
            assert table.slots[slot] == (i, rank)
    for i, slot in table.negative.items():
        assert table.slots[slot] == (i, 3)
    assert len(table.slots) == 9


def test_occurrence_table_requires_ppn():
    with pytest.raises(ValueError, match="PPN"):
        occurrence_table(CnfFormula(1, ((1,),)))


# --- one-in-three reduction ----------------------------------------------------


def test_reduce_oneinthree_counts():
    inst = reduce_oneinthree(CnfFormula(3, ((1, 2, 3),)))
    assert len(inst.residents) == 5
    assert len(inst.hospitals) == 5
    assert len(inst.regions) == 10
    assert classify(inst) == ADVERTISED[ReductionVariant.ONE_IN_THREE_222]


def test_reduce_oneinthree_shared_variable_regions_are_deduplicated():
    inst = reduce_oneinthree(CnfFormula(4, ((1, 2, 3), (1, 2, 4))))
    sets = [reg.hospitals for reg in inst.regions]
    assert len(sets) == len(set(sets))
    assert frozenset({"x'_1", "x'_2"}) in sets


def test_reduce_oneinthree_rejects_bad_input():
    with pytest.raises(ValueError, match="exactly-one"):
        reduce_oneinthree(CnfFormula(2, ((1, 2),)))
    with pytest.raises(ValueError, match="no clause"):
        reduce_oneinthree(CnfFormula(4, ((1, 2, 3),)))


def test_reduce_oneinthree_satisfiable_single_clause():
    f = CnfFormula(3, ((1, 2, 3),))
    inst = reduce_oneinthree(f)
    out = exists_strongly_stable(inst)
    assert out.is_found
    decoded = decode_matching(f, out.matching, ReductionVariant.ONE_IN_THREE_222)
    assert satisfies(f, decoded, MODE_ONE_IN_THREE)
    assert sum(decoded.values()) == 1


def test_unsatisfiable_oneinthree_formulas_reduce_to_none_exists():
    unsatisfiable = {
        n: [f for f in all_oneinthree_formulas(n) if sat_brute(f, mode=MODE_ONE_IN_THREE) is None]
        for n in (4, 5)
    }
    assert unsatisfiable[4] == [CnfFormula(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))]
    assert len(unsatisfiable[5]) == 10
    for formula in unsatisfiable[4] + unsatisfiable[5]:
        assert exists_strongly_stable(reduce_oneinthree(formula)).status == "none-exists", formula


def test_oneinthree_encode_decode_roundtrip():
    f = CnfFormula(3, ((1, 2, 3),))
    for a in (
        {1: True, 2: False, 3: False},
        {1: False, 2: True, 3: False},
        {1: False, 2: False, 3: True},
    ):
        inst = reduce_oneinthree(f)
        m = encode_assignment(f, a, ReductionVariant.ONE_IN_THREE_222)
        assert is_strongly_stable(inst, m)
        assert decode_matching(f, m, ReductionVariant.ONE_IN_THREE_222) == a
    with pytest.raises(ValueError, match="satisfy"):
        encode_assignment(f, {1: True, 2: True, 3: False}, ReductionVariant.ONE_IN_THREE_222)


# --- PPN reductions -------------------------------------------------------------


def ppn_expected_counts(formula, variant):
    n = formula.num_vars
    m2 = sum(1 for c in formula.clauses if len(c) == 2)
    m3 = sum(1 for c in formula.clauses if len(c) == 3)
    m = m2 + m3
    if variant is ReductionVariant.PPN_223:
        return (2 * n + 2 * m2 + 4 * m3 + 3 * m, 7 * n + 2 * m2 + 4 * m3 + 3 * m, 3 * n + m2 + 2 * m3 + m)
    if variant is ReductionVariant.PPN_232:
        return (2 * n + 2 * m2 + 4 * m3 + 3 * m, 5 * n + 2 * m2 + 4 * m3 + 2 * m, 2 * n + m2 + 2 * m3 + m)
    return (4 * n + 3 * m2 + 6 * m3 + 2 * m, 5 * n + 3 * m2 + 6 * m3 + 2 * m, n + m)


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_reduce_ppn_counts_on_three_clause_formula(variant):
    inst, _ = reduce_ppn(PPN_3X3, variant)
    counts = (len(inst.residents), len(inst.hospitals), len(inst.regions))
    assert counts == ppn_expected_counts(PPN_3X3, variant)
    expected = {
        ReductionVariant.PPN_223: (27, 42, 18),
        ReductionVariant.PPN_232: (27, 33, 15),
        ReductionVariant.PPN_322: (36, 39, 6),
    }[variant]
    assert counts == expected


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_reduce_ppn_counts_and_class_on_random_shapes(variant):
    rng = random.Random(67)
    for _ in range(25):
        f = random_ppn_formula(rng, rng.randint(2, 6))
        inst, _ = reduce_ppn(f, variant)
        counts = (len(inst.residents), len(inst.hospitals), len(inst.regions))
        assert counts == ppn_expected_counts(f, variant)
        assert classify(inst) == ADVERTISED[variant]


def test_reduce_ppn_rejects_bad_input():
    with pytest.raises(ValueError, match="PPN"):
        reduce_ppn(CnfFormula(1, ((1,),)), ReductionVariant.PPN_223)
    with pytest.raises(ValueError, match="target"):
        reduce_ppn(PPN_3X3, ReductionVariant.ONE_IN_THREE_222)


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_terminal_block_pairs_in_encodings(variant):
    a = sat_brute(PPN_3X3)
    m = encode_assignment(PPN_3X3, a, variant)
    for j in (1, 2, 3):
        if variant is ReductionVariant.PPN_223:
            assert (f"z'_{j}", f"t'_{j}") in m
        elif variant is ReductionVariant.PPN_232:
            assert (f"z'_{j}", f"g'_{j}_2") in m
        else:
            assert (f"z'_{j}", f"y'_{j}") in m
            assert (f"g'_{j}_3", f"g'_{j}_4") in m


SMALL_PPN_FORMULAS = all_ppn_formulas(2) + all_ppn_formulas(3)


def models(formula, mode=MODE_ORDINARY):
    """Every model of ``formula`` under ``mode``, in ``product((False, True), ...)`` order."""
    for values in product((False, True), repeat=formula.num_vars):
        a = dict(zip(range(1, formula.num_vars + 1), values))
        if satisfies(formula, a, mode):
            yield a


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_encode_decode_roundtrip_all_satisfying_assignments(variant):
    for f in SMALL_PPN_FORMULAS:
        inst, _ = reduce_ppn(f, variant)
        for a in models(f):
            m = encode_assignment(f, a, variant)
            assert is_strongly_stable(inst, m)
            assert decode_matching(f, m, variant) == a


def test_encodings_seat_each_slot_by_its_literal():
    # No code states the slot polarity any more: it follows from the variable
    # gadgets.  Pin it on every slot, the positive ones decode never reads
    # included: c'_j_ell sits at its slot hospital x'_i_kind exactly when the
    # slot's literal is false (ppn-223, ppn-232) or true (ppn-322).
    checks = 0
    for f in SMALL_PPN_FORMULAS:
        slots = occurrence_table(f).slots
        for a in models(f):
            for variant in PPN_VARIANTS:
                m = encode_assignment(f, a, variant)
                seated_when = variant is ReductionVariant.PPN_322
                for (j, ell), (i, kind) in slots.items():
                    literal = a[i] if kind < 3 else not a[i]
                    seated = (f"c'_{j}_{ell}", f"x'_{i}_{kind}") in m
                    assert seated == (literal == seated_when), (f, a, variant, (j, ell))
                    checks += 1
    assert checks == 11844


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_strongly_stable_matchings_decode_to_satisfying_assignments(variant):
    # The full sweep (351 reductions) takes about a minute; a seeded sample of
    # the 2-3 variable formulas keeps this to about a second per target.
    for f in random.Random(79).sample(SMALL_PPN_FORMULAS, 5):
        inst, _ = reduce_ppn(f, variant)
        matchings = strongly_stable_set(inst)
        assert matchings
        for m in matchings:
            assert satisfies(f, decode_matching(f, m, variant))


def test_encode_rejects_non_satisfying_assignment():
    f = CnfFormula(2, ((1, 2), (1, -2), (-1, 2)))
    bad = {1: False, 2: False}
    assert not satisfies(f, bad)
    for variant in PPN_VARIANTS:
        with pytest.raises(ValueError, match="satisfy"):
            encode_assignment(f, bad, variant)


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_equisatisfiability_on_sampled_formulas(variant):
    rng = random.Random(73)
    for _ in range(10):
        f = random_ppn_formula(rng, rng.randint(2, 3))
        inst, _ = reduce_ppn(f, variant)
        sat = sat_brute(f) is not None
        out = exists_strongly_stable(inst)
        assert out.is_found == sat
        if out.is_found:
            decoded = decode_matching(f, out.matching, variant)
            assert satisfies(f, decoded)


def test_ppn_reduction_handles_complementary_clause():
    # A tautological 2-clause exercises the wiring where one clause hosts two
    # occurrence slots of the same variable.
    f = CnfFormula(2, ((1, -1), (1, 2), (2, -2)))
    assert check_ppn(f) == []
    for variant in PPN_VARIANTS:
        inst, _ = reduce_ppn(f, variant)
        out = exists_strongly_stable(inst)
        assert out.is_found == (sat_brute(f) is not None)


def test_exhaustive_formula_families_are_all_satisfiable():
    assert all_ppn_formulas(1) == []
    for n in (2, 3):
        formulas = all_ppn_formulas(n)
        assert formulas
        assert all(check_ppn(f) == [] for f in formulas)
        assert all(sat_brute(f) is not None for f in formulas)


def test_all_ppn_formulas_lists_are_pinned():
    # Recorded from the generator before it skipped blocks of equal slots:
    # the same formulas in the same order for n = 2, 3 and 4.
    digest = hashlib.sha256()
    for n, count in ((2, 4), (3, 113), (4, 5970)):
        formulas = all_ppn_formulas(n)
        assert len(formulas) == count
        digest.update(repr([f.clauses for f in formulas]).encode())
    assert digest.hexdigest() == "e7a4b66d6f509a327cf854f6bf48113e567ada51eedae5890fed845dac23f97a"


# The three digests below were recorded from the builders and the table-driven
# clause encodings that preceded the first-fit rule; they pin the bytes of every
# instance and witness the reductions emit on these formulas.


def test_ppn_instance_bytes_are_pinned():
    digest = hashlib.sha256()
    for f in SMALL_PPN_FORMULAS:
        for variant in PPN_VARIANTS:
            digest.update(save_instance(reduce_ppn(f, variant)[0]).encode())
    assert digest.hexdigest() == "01838a3babbcf46db852790041efe7c31445a28898b88399a72f29f1834510cb"


def test_ppn_encoding_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for f in SMALL_PPN_FORMULAS:
        for a in models(f):
            for variant in PPN_VARIANTS:
                digest.update(save_matching(encode_assignment(f, a, variant)).encode())
                count += 1
    assert count == 1326
    assert digest.hexdigest() == "f04692b519886018eb207f8840c6a039cd3af755b4db4f9937c83debe6f0febf"


def test_oneinthree_instance_and_encoding_bytes_are_pinned():
    digest = hashlib.sha256()
    builds = encodings = 0
    for f in all_oneinthree_formulas(4) + all_oneinthree_formulas(5):
        digest.update(save_instance(reduce_oneinthree(f)).encode())
        builds += 1
        for a in models(f, MODE_ONE_IN_THREE):
            m = encode_assignment(f, a, ReductionVariant.ONE_IN_THREE_222)
            digest.update(save_matching(m).encode())
            encodings += 1
    assert (builds, encodings) == (331, 592)
    assert digest.hexdigest() == "24ae5abfd14d18666246ed6fae1046c90367d7d827c030a119c7f7b34fe6288c"


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_unsatisfiable_ppn_formula_reduces_to_none_exists(variant, unsatisfiable_ppn4):
    for formula in unsatisfiable_ppn4:
        instance, _table = reduce_ppn(formula, variant)
        assert exists_strongly_stable(instance).status == "none-exists", formula


# Unsatisfiable CNFs outside the PPN shape: (x)(-x), and every 2-clause on two variables.
UNSATISFIABLE_CNFS = [
    CnfFormula(1, ((1,), (-1,))),
    CnfFormula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
]


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_unsatisfiable_cnf_normalizes_and_reduces_to_none_exists(variant):
    for formula in UNSATISFIABLE_CNFS:
        normalized, _origins = to_ppn(formula)
        assert sat_brute(normalized) is None
        instance, _table = reduce_ppn(normalized, variant)
        assert exists_strongly_stable(instance).status == "none-exists", formula


@pytest.mark.parametrize("variant", PPN_VARIANTS)
def test_eight_variable_outlier_is_decided(variant):
    # Draw 2 took over 30 s per target (54.9 M nodes on ppn-223) before the
    # walk learned to backjump; each target now takes milliseconds.
    rng = random.Random(8)
    random_ppn_formula(rng, 8)
    formula = random_ppn_formula(rng, 8)
    assert sat_brute(formula) is not None
    instance, _table = reduce_ppn(formula, variant)
    out = exists_strongly_stable(instance)
    assert out.is_found
    assert satisfies(formula, decode_matching(formula, out.matching, variant))


def test_cli_brute_decides_an_unsatisfiable_reduction(capsys, tmp_path, unsatisfiable_ppn4):
    from hrrc.cli import main

    formula = unsatisfiable_ppn4[0]
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text(
        f"p cnf {formula.num_vars} {len(formula.clauses)}\n"
        + "".join(" ".join(map(str, c)) + " 0\n" for c in formula.clauses)
    )
    inst_path = tmp_path / "ppn322.json"
    assert main(["reduce", str(cnf), "--target", "ppn-322", "--out", str(inst_path)]) == 0
    assert main(["brute", str(inst_path), "--force"]) == 1
    assert capsys.readouterr().out == "none-exists\n"
