"""The polynomial solvers, the classification table and the dispatcher."""

from __future__ import annotations

import importlib.util
import random
import re
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from gen import TIGHT_2X2, random_instance
from hrrc.exhaustive import exists_strongly_stable, strongly_stable_set
from hrrc.hr_core import DeferredAcceptance, rgs
from hrrc.model import (
    Assignment,
    InstanceClass,
    Region,
    classify,
    example_g2,
    instance_from_doc,
    make_instance,
)
from hrrc.poly_solvers import (
    HARD,
    TRACTABLE,
    dispatch,
    find_2x2_subinstances,
    solve_222_disjoint,
    solve_2x2_free,
    solve_hosp_len1,
    solve_regions_size1,
    solve_res_len1,
)
from hrrc.reductions import CnfFormula, ReductionVariant, reduce_oneinthree, reduce_ppn
from hrrc.stability import blocking_pairs, is_strongly_stable, strong_blocking_pairs
from reference_capacity_loop import solve_2x2_free_by_reruns, squeeze_by_reruns


def g2_with_cap(cap):
    g2 = example_g2()
    return replace(g2, regions=(Region(frozenset({"h1", "h2"}), cap),))


G2_CLASS = InstanceClass(2, 2, 2, True)


def guard_message(condition, cls):
    """The class guard's message, as a pattern for ``pytest.raises``."""
    return re.escape(f"solver requires {condition}, got {cls}")


# --- singleton regions -----------------------------------------------------


def test_regions_size1_folds_cap_into_capacity():
    inst = make_instance(
        residents=[("r1", ["h"]), ("r2", ["h"])],
        hospitals=[("h", 2, ["r1", "r2"])],
        regions=[({"h"}, 1)],
    )
    assert solve_regions_size1(inst) == Assignment.of([("r1", "h")])
    assert strongly_stable_set(inst) == {Assignment.of([("r1", "h")])}


def test_regions_size1_without_regions_equals_rgs():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, gamma=0)
        assert solve_regions_size1(inst) == rgs(inst)


def test_regions_size1_equals_rgs_on_trimmed_instance():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng, gamma=1)
        caps = dict(inst.capacities)
        for reg in inst.regions:
            (h,) = reg.hospitals
            caps[h] = min(caps[h], reg.cap)
        assert solve_regions_size1(inst) == rgs(
            replace(inst, capacities=caps), ignore_regions=True
        )


def test_regions_size1_rejects_g2():
    with pytest.raises(ValueError, match=guard_message("regions of size at most 1", G2_CLASS)):
        solve_regions_size1(example_g2())


# --- unit resident lists ---------------------------------------------------


def test_res_len1_takes_best_resident():
    inst = make_instance(
        residents=[("r1", ["h"]), ("r2", ["h"])],
        hospitals=[("h", 1, ["r2", "r1"])],
    )
    assert solve_res_len1(inst) == Assignment.of([("r2", "h")])


def test_res_len1_region_blocks_second_hospital():
    inst = make_instance(
        residents=[("r1", ["h1"]), ("r2", ["h2"])],
        hospitals=[("h1", 1, ["r1"]), ("h2", 1, ["r2"])],
        regions=[({"h1", "h2"}, 1)],
    )
    m = solve_res_len1(inst)
    assert m == Assignment.of([("r1", "h1")])
    assert ("r2", "h2") in blocking_pairs(inst, m)
    assert strong_blocking_pairs(inst, m) == []


def test_res_len1_zero_capacities():
    inst = make_instance(
        residents=[("r1", ["h1"]), ("r2", ["h2"])],
        hospitals=[("h1", 0, ["r1"]), ("h2", 0, ["r2"])],
    )
    assert solve_res_len1(inst) == Assignment()


def test_res_len1_rejects_long_lists():
    with pytest.raises(
        ValueError, match=guard_message("resident lists of length at most 1", G2_CLASS)
    ):
        solve_res_len1(example_g2())


# --- unit hospital lists ---------------------------------------------------


def test_hosp_len1_skips_region_capped_first_choice():
    inst = make_instance(
        residents=[("r", ["h1", "h2"])],
        hospitals=[("h1", 1, ["r"]), ("h2", 1, ["r"])],
        regions=[({"h1"}, 0)],
    )
    m = solve_hosp_len1(inst)
    assert m == Assignment.of([("r", "h2")])
    assert ("r", "h1") in blocking_pairs(inst, m)
    assert strong_blocking_pairs(inst, m) == []


def test_hosp_len1_zero_capacity_and_independent_residents():
    inst = make_instance(residents=[("r", ["h"])], hospitals=[("h", 0, ["r"])])
    assert solve_hosp_len1(inst) == Assignment()
    pair = make_instance(
        residents=[("r1", ["h1"]), ("r2", ["h2"])],
        hospitals=[("h1", 1, ["r1"]), ("h2", 1, ["r2"])],
    )
    assert solve_hosp_len1(pair) == Assignment.of([("r1", "h1"), ("r2", "h2")])


def test_hosp_len1_rejects_long_lists():
    with pytest.raises(
        ValueError, match=guard_message("hospital lists of length at most 1", G2_CLASS)
    ):
        solve_hosp_len1(example_g2())


# --- 2x2 blocks ------------------------------------------------------------


def test_find_2x2_subinstances_on_g2():
    subs = find_2x2_subinstances(example_g2())
    assert len(subs) == 1
    assert subs[0].residents == ("r1", "r2")
    assert subs[0].hospitals == ("h1", "h2")


def test_find_2x2_subinstances_empty_cases():
    no_regions = make_instance(
        residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])]
    )
    assert find_2x2_subinstances(no_regions) == []
    one_common = make_instance(
        residents=[("r1", ["h1", "h2"]), ("r2", ["h1"])],
        hospitals=[("h1", 1, ["r2", "r1"]), ("h2", 1, ["r1"])],
        regions=[({"h1", "h2"}, 1)],
    )
    assert find_2x2_subinstances(one_common) == []


def test_solve_2x2_free_decrements_once():
    inst = make_instance(
        residents=[("r1", ["h1", "h2"]), ("r2", ["h1"])],
        hospitals=[("h1", 1, ["r2", "r1"]), ("h2", 1, ["r1"])],
        regions=[({"h1", "h2"}, 1)],
    )
    m = solve_2x2_free(inst)
    assert m == Assignment.of([("r2", "h1")])
    assert is_strongly_stable(inst, m)


def test_solve_2x2_free_no_overload_returns_rgs():
    inst = make_instance(
        residents=[("r1", ["h1"]), ("r2", ["h2"])],
        hospitals=[("h1", 1, ["r1"]), ("h2", 1, ["r2"])],
        regions=[({"h1"}, 1), ({"h2"}, 1)],
    )
    assert solve_2x2_free(inst) == rgs(inst, ignore_regions=True)


def test_solve_2x2_free_drives_capacity_to_zero():
    inst = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, ["r"])],
        regions=[({"h"}, 0)],
    )
    m = solve_2x2_free(inst)
    assert m == Assignment()
    assert ("r", "h") in blocking_pairs(inst, m)
    assert is_strongly_stable(inst, m)


def test_solve_2x2_free_rejects_blocks_and_big_caps():
    with pytest.raises(ValueError, match=re.escape(
        "region ['h1', 'h2'] has two common residents; extract its 2x2 block first"
    )):
        solve_2x2_free(example_g2())
    big = make_instance(
        residents=[("r", ["h"])], hospitals=[("h", 3, ["r"])]
    )
    with pytest.raises(ValueError, match="capacities"):
        solve_2x2_free(big)
    overlapping = make_instance(
        residents=[("r", ["h1", "h2"])],
        hospitals=[("h1", 1, ["r"]), ("h2", 1, ["r"])],
        regions=[({"h1", "h2"}, 1), ({"h1"}, 1)],
    )
    with pytest.raises(ValueError, match=guard_message(
        "a disjoint (2,2,2) instance", InstanceClass(2, 1, 2, False)
    )):
        solve_2x2_free(overlapping)


# --- the capacity loop against the rerun reference ---------------------------


def block_free_rest(instance):
    """The shrunk block-free remainder of a disjoint (2,2,2) instance.

    Built here from the instance's rows, so a block that is not closed makes
    it invalid.
    """
    blocks = {a for sub in find_2x2_subinstances(instance) for a in sub.residents + sub.hospitals}
    return make_instance(
        residents=[(r, instance.resident_prefs[r]) for r in instance.residents if r not in blocks],
        hospitals=[
            (h, min(instance.capacities[h], len(instance.hospital_prefs[h])), instance.hospital_prefs[h])
            for h in instance.hospitals
            if h not in blocks
        ],
        regions=[(reg.hospitals, reg.cap) for reg in instance.regions if not reg.hospitals & blocks],
    )


def block_oracle_pairs(instance):
    """The oracle's pairs on each 2x2 block built on its own; None if some block has none."""
    pairs = []
    for sub in find_2x2_subinstances(instance):
        block = make_instance(
            residents=[(r, instance.resident_prefs[r]) for r in sub.residents],
            hospitals=[(h, instance.capacities[h], instance.hospital_prefs[h]) for h in sub.hospitals],
            regions=[(sub.region.hospitals, sub.region.cap)],
        )
        solved = exists_strongly_stable(block)
        if not solved.is_found:
            return None
        pairs += solved.matching.pairs
    return pairs


def squeezed_against_reference(instance):
    """Check solve_222_disjoint against the blocks' oracle and the rerun loop on the rest.

    Returns whether the package's loop had to squeeze.
    """
    rest = block_free_rest(instance)
    expected = solve_2x2_free_by_reruns(rest)
    assert solve_2x2_free(rest) == expected
    pairs = block_oracle_pairs(instance)
    outcome = solve_222_disjoint(instance)
    if pairs is None:
        assert outcome.status == "none-exists"
        return False
    assert outcome.matching == Assignment.of(pairs + list(expected.pairs))
    return expected != rgs(rest, ignore_regions=True)


def criterion_3_draws(seed, count):
    """Instances drawn as acceptance criterion 3 draws them."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 2:
            yield random_instance(rng, **TIGHT_2X2)
        else:
            yield random_instance(
                rng, max_residents=6, max_hospitals=6, alpha=2, beta=2, gamma=2, disjoint=True
            )


def bench_disjoint_instances(sizes, with_g2=False):
    """Disjoint (2,2,2) instances from the benchmark's generator, one per size.

    With ``with_g2`` each holds one unsolvable block among solvable ones.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(5)
    return [instance_from_doc(inputs.disjoint_doc(rng, n, with_g2)) for n in sizes]


def test_solve_222_disjoint_equals_blocks_and_rerun_reference_on_criterion_3_draws():
    squeezed = sum(squeezed_against_reference(inst) for inst in criterion_3_draws(2024, 600))
    assert squeezed > 50, "the sweep should reach the capacity loop"


def test_solve_222_disjoint_equals_blocks_and_rerun_reference_at_bench_sizes():
    for inst in bench_disjoint_instances((120, 250, 1000)):
        squeezed_against_reference(inst)
    # One unsolvable block among 2 to 24 solvable ones: the one walk over
    # every block's residents must still end in none-exists.
    for inst in bench_disjoint_instances((120, 250, 1000), with_g2=True):
        assert block_oracle_pairs(inst) is None
        squeezed_against_reference(inst)


@pytest.fixture()
def loop_states(monkeypatch):
    """The DeferredAcceptance states the capacity loop builds, recorded as it runs."""
    import hrrc.poly_solvers as poly_solvers

    states = []

    class Recording(DeferredAcceptance):
        __slots__ = ()

        def __init__(self, instance, capacities=None):
            super().__init__(instance, capacities)
            states.append(self)

    monkeypatch.setattr(poly_solvers, "DeferredAcceptance", Recording)
    return states


def loop_state(instance, loop_states):
    """The state solve_222_disjoint's capacity loop ends in.

    None when some block has no strongly stable matching, so no loop runs.
    """
    loop_states.clear()
    if not solve_222_disjoint(instance).is_found:
        assert not loop_states, "the loop ran although a block has no strongly stable matching"
        return None
    (state,) = loop_states
    return state


def test_capacity_loop_proposes_each_pair_at_most_once(monkeypatch, loop_states):
    import hrrc.poly_solvers as poly_solvers

    def no_rerun(*args, **kwargs):
        raise AssertionError("the capacity loop reran deferred acceptance")

    monkeypatch.setattr(poly_solvers, "rgs", no_rerun)
    instances = list(criterion_3_draws(77, 150)) + bench_disjoint_instances((250, 1000))
    squeezes = 0
    for inst in instances:
        state = loop_state(inst, loop_states)
        if state is None:
            continue
        proposals = sum(state.next_choice.values())
        assert proposals <= sum(len(prefs) for prefs in inst.resident_prefs.values())
        squeezes += sum(block_free_rest(inst).capacities.values()) - sum(state.capacities.values())
    assert squeezes > 100, "the instances should exercise the capacity loop"


def test_capacity_loop_order_does_not_matter(loop_states):
    """Random squeeze orders end at the package's capacities and matching."""
    rng = random.Random(31)
    choices = 0
    for inst in list(criterion_3_draws(2025, 400)) + bench_disjoint_instances((120, 250)):
        state = loop_state(inst, loop_states)
        if state is None:
            continue
        rest = block_free_rest(inst)
        reached = ({h: state.capacities[h] for h in rest.hospitals}, state.matching())
        for _ in range(3):
            def choose(regions):
                nonlocal choices
                choices += len(regions) > 1
                return rng.choice(regions)

            assert squeeze_by_reruns(rest, choose) == reached
    assert choices > 100, "the draws should overload several regions at once"


def test_solve_222_disjoint_scans_each_size2_region_once(monkeypatch, loop_states):
    """One scan finds the blocks and the common residents the squeeze orders read."""
    import hrrc.poly_solvers as poly_solvers

    scanned = []
    pair_common = poly_solvers._pair_common

    def counted(instance, hospitals):
        scanned.append(frozenset(hospitals))
        return pair_common(instance, hospitals)

    monkeypatch.setattr(poly_solvers, "_pair_common", counted)
    squeezes = 0
    for inst in bench_disjoint_instances((120, 250)):
        scanned.clear()
        state = loop_state(inst, loop_states)
        assert Counter(scanned) == Counter(
            reg.hospitals for reg in inst.regions if len(reg.hospitals) == 2
        )
        squeezes += sum(block_free_rest(inst).capacities.values()) - sum(state.capacities.values())
    assert squeezes > 10, "the capacity loop should squeeze size-2 regions"


# --- full disjoint (2,2,2) solver -------------------------------------------


def test_solve_222_disjoint_on_g2():
    assert solve_222_disjoint(example_g2()).status == "none-exists"


def test_solve_222_disjoint_cap2_finds_perfect_matching():
    out = solve_222_disjoint(g2_with_cap(2))
    assert out.is_found
    assert out.matching == Assignment.of([("r1", "h1"), ("r2", "h2")])


def test_solve_222_disjoint_two_disjoint_blocks():
    inst = make_instance(
        residents=[
            ("r1", ["h1", "h2"]),
            ("r2", ["h2", "h1"]),
            ("s1", ["k1", "k2"]),
            ("s2", ["k2", "k1"]),
        ],
        hospitals=[
            ("h1", 1, ["r2", "r1"]),
            ("h2", 1, ["r1", "r2"]),
            ("k1", 1, ["s2", "s1"]),
            ("k2", 1, ["s1", "s2"]),
        ],
        regions=[({"h1", "h2"}, 2), ({"k1", "k2"}, 2)],
    )
    out = solve_222_disjoint(inst)
    assert out.is_found
    assert len(out.matching) == 4
    assert is_strongly_stable(inst, out.matching)


def test_solve_222_disjoint_rejects_wrong_class():
    overlapping = make_instance(
        residents=[("r", ["h1", "h2"])],
        hospitals=[("h1", 1, ["r"]), ("h2", 1, ["r"])],
        regions=[({"h1", "h2"}, 1), ({"h1"}, 1)],
    )
    with pytest.raises(ValueError, match=guard_message(
        "a disjoint (2,2,2) instance", InstanceClass(2, 1, 2, False)
    )):
        solve_222_disjoint(overlapping)


def test_solve_222_disjoint_agrees_with_oracle():
    rng = random.Random(41)
    found = nones = 0
    for _ in range(300):
        inst = random_instance(
            rng, max_residents=5, max_hospitals=5, alpha=2, beta=2, gamma=2, disjoint=True
        )
        out = solve_222_disjoint(inst)
        oracle = exists_strongly_stable(inst)
        assert out.status == oracle.status
        if out.is_found:
            found += 1
            assert is_strongly_stable(inst, out.matching)
        else:
            nones += 1
    assert found and nones, "sweep should hit both verdicts"


def test_solve_222_disjoint_decides_every_block_shape_as_the_oracle_does():
    """Both list orders of each agent, capacities 0-3 and region caps 0-3: 1,024 shapes.

    With two residents any capacity or cap of 2 or more acts alike, so these
    are all the shapes.  Each block is declared after an unrelated pair and
    its region, so the solver reads it at other positions of the parent's
    view than the block built as its own instance has.
    """
    hospital_orders = (["h1", "h2"], ["h2", "h1"])
    resident_orders = (["r1", "r2"], ["r2", "r1"])
    found = nones = 0
    for l1, l2, m1, m2, q1, q2, cap in product(
        hospital_orders, hospital_orders, resident_orders, resident_orders,
        range(4), range(4), range(4),
    ):
        inst = make_instance(
            residents=[("s", ["t"]), ("r1", l1), ("r2", l2)],
            hospitals=[("t", 1, ["s"]), ("h1", q1, m1), ("h2", q2, m2)],
            regions=[({"t"}, 1), ({"h1", "h2"}, cap)],
        )
        pairs = block_oracle_pairs(inst)
        outcome = solve_222_disjoint(inst)
        if pairs is None:
            assert outcome.status == "none-exists"
            nones += 1
        else:
            assert outcome.matching == Assignment.of(pairs + [("s", "t")])
            found += 1
    assert found + nones == 1024 and found and nones


# --- per-class random sweeps ------------------------------------------------


@pytest.mark.parametrize(
    "solver,params",
    [
        (solve_regions_size1, dict(gamma=1)),
        (solve_res_len1, dict(alpha=1)),
        (solve_hosp_len1, dict(beta=1)),
    ],
)
def test_class_solvers_always_return_strongly_stable(solver, params):
    rng = random.Random(43)
    for _ in range(300):
        inst = random_instance(rng, **params)
        m = solver(inst)
        assert is_strongly_stable(inst, m)


def test_solve_2x2_free_random_sweep():
    rng = random.Random(47)
    checked = 0
    for _ in range(500):
        inst = random_instance(
            rng, max_residents=5, max_hospitals=5, alpha=2, beta=2, gamma=2,
            disjoint=True, max_capacity=2,
        )
        if find_2x2_subinstances(inst):
            continue
        m = solve_2x2_free(inst)
        assert is_strongly_stable(inst, m)
        checked += 1
    assert checked > 200


# --- dispatcher --------------------------------------------------------------


def test_dispatch_routes_g2_to_the_disjoint_solver():
    out = dispatch(example_g2())
    assert out.status == "none-exists"


def test_dispatch_priority_gamma_first():
    inst = make_instance(
        residents=[("r", ["h"])],
        hospitals=[("h", 1, ["r"])],
        regions=[({"h"}, 1)],
    )
    # gamma=1 and alpha=1 both hold; the singleton-region solver wins and
    # both routes give the same strongly stable matching here.
    assert dispatch(inst).matching == solve_regions_size1(inst)


def test_dispatch_falls_back_to_brute_force_within_limit():
    overlapping = make_instance(
        residents=[("r1", ["h1", "h2"]), ("r2", ["h2", "h1"])],
        hospitals=[("h1", 1, ["r1", "r2"]), ("h2", 1, ["r2", "r1"])],
        regions=[({"h1", "h2"}, 2), ({"h1"}, 1)],
    )
    out = dispatch(overlapping)
    assert out.is_found
    assert is_strongly_stable(overlapping, out.matching)


def test_dispatch_reports_unknown_above_limit():
    residents = [(f"r{i}", [f"h{i}"]) for i in range(1, 8)]
    residents[0] = ("r1", ["h1", "h2"])
    hospitals = [(f"h{i}", 1, [f"r{i}"]) for i in range(1, 8)]
    hospitals[0] = ("h1", 1, ["r1"])
    hospitals[1] = ("h2", 1, ["r2", "r1"])
    residents[1] = ("r2", ["h2"])
    inst = make_instance(
        residents, hospitals,
        regions=[({"h1", "h2"}, 1), ({"h2", "h3"}, 1)],
    )
    out = dispatch(inst, brute_limit=4)
    assert out.status == "unknown"
    assert out.reason == (
        "no polynomial-time solver covers class (alpha=2, beta=2, gamma=2, overlapping regions): "
        "deciding existence of a strongly stable matching is NP-hard already for overlapping "
        "regions with all parameters at 2; instance has 14 agents, above the brute-force limit of 4"
    )
    # The same instance is decidable when the limit allows it.
    assert dispatch(inst, brute_limit=64).status in ("found", "none-exists")


def test_dispatch_outcomes_match_oracle_on_mixed_instances():
    rng = random.Random(53)
    for _ in range(150):
        inst = random_instance(rng, max_residents=4, max_hospitals=4)
        out = dispatch(inst, brute_limit=64)
        oracle = exists_strongly_stable(inst)
        assert out.status == oracle.status
        if out.is_found:
            assert is_strongly_stable(inst, out.matching)


# --- the classification table ------------------------------------------------

ALL_CLASSES = [
    InstanceClass(alpha, beta, gamma, disjoint)
    for alpha, beta, gamma in product(range(4), repeat=3)
    for disjoint in (True, False)
]


def hard_cell(cls):
    """The first HARD cell at or below ``cls``: the one an unknown verdict names."""
    return next((cell for cell in HARD if cell.covers(cls)), None)


def test_every_class_is_tractable_or_hard_and_never_both():
    tractable = {cls for cls in ALL_CLASSES if any(cell.admits(cls) for cell in TRACTABLE)}
    hard = {cls for cls in ALL_CLASSES if hard_cell(cls) is not None}
    assert not tractable & hard
    assert tractable | hard == set(ALL_CLASSES)
    assert (len(tractable), len(hard)) == (113, 15)
    assert sorted(cell.reduction.name for cell in HARD) == sorted(ReductionVariant.__members__)


def chained_witness(cls):
    """The hard class an unknown verdict names, as an if chain over the parameters."""
    if not cls.disjoint:
        return "overlapping regions with all parameters at 2"
    if cls.gamma >= 3:
        return "disjoint regions at parameters (2, 2, 3)"
    if cls.beta >= 3:
        return "disjoint regions at parameters (2, 3, 2)"
    return "disjoint regions at parameters (3, 2, 2)"


def test_each_hard_class_names_the_chained_witness():
    for cls in ALL_CLASSES:
        cell = hard_cell(cls)
        if cell is not None:
            assert cell.witness == chained_witness(cls), cls


def test_dispatch_names_each_reductions_hard_cell():
    ppn = CnfFormula(3, ((-1, 2, 3), (1, -2, 3), (1, 2, -3)))
    for cell in HARD:
        if cell.reduction is ReductionVariant.ONE_IN_THREE_222:
            inst = reduce_oneinthree(CnfFormula(3, ((1, 2, 3),)))
        else:
            inst, _ = reduce_ppn(ppn, cell.reduction)
        assert classify(inst) == cell.least
        out = dispatch(inst, brute_limit=0)
        assert out.status == "unknown"
        assert out.reason.startswith(
            f"no polynomial-time solver covers class {cell.least}: deciding existence of a "
            f"strongly stable matching is NP-hard already for {cell.witness}; "
        )


def test_dispatch_and_solve_call_solvers_through_module_attributes(monkeypatch):
    """A wrapper bound to a solver's module attribute, as a tracer binds one, sees every call."""
    import hrrc.poly_solvers as poly_solvers

    calls = []
    for name in ("solve_regions_size1", "solve_222_disjoint"):
        def recorder(instance, name=name, solver=getattr(poly_solvers, name)):
            calls.append(name)
            return solver(instance)

        monkeypatch.setattr(poly_solvers, name, recorder)
    gamma0 = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])])
    assert dispatch(gamma0).matching == Assignment.of([("r", "h")])
    assert poly_solvers.solve(gamma0, "alg1") == dispatch(gamma0)
    assert dispatch(example_g2()).status == "none-exists"
    assert poly_solvers.solve(example_g2(), "alg5").status == "none-exists"
    assert calls == ["solve_regions_size1"] * 3 + ["solve_222_disjoint"] * 2


# --- internal consistency checks raise, whatever the interpreter flags -------


def test_squeeze_without_capacity_raises(monkeypatch):
    import hrrc.poly_solvers as poly_solvers

    inst = make_instance(
        residents=[("r1", ["h1"])],
        hospitals=[("h1", 1, ["r1"])],
        regions=[({"h1"}, 0)],
    )
    # A squeeze that lowers the capacity but rejects no one keeps the region
    # overloaded after its only hospital has been squeezed to zero.
    def squeeze_without_rejecting(self, h):
        self.capacities[h] -= 1
        return []

    monkeypatch.setattr(poly_solvers.DeferredAcceptance, "squeeze", squeeze_without_rejecting)
    with pytest.raises(RuntimeError, match="no capacity left"):
        solve_2x2_free(inst)
