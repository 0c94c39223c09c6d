"""Polynomial-time solvers for the tractable parameter classes, plus a dispatcher.

Each solver targets one class in which a strongly stable matching provably
exists (or, for the disjoint (2,2,2) class, can be decided):

* ``solve_regions_size1``  -- every region is a single hospital;
* ``solve_res_len1``       -- every resident lists at most one hospital;
* ``solve_hosp_len1``      -- every hospital lists at most one resident;
* ``solve_2x2_free``       -- disjoint (2,2,2) instances whose size-2 regions
  have at most one common acceptable resident;
* ``solve_222_disjoint``   -- general disjoint (2,2,2) instances: one run of
  the exhaustive oracle's walk decides every independent 2x2 block on the
  instance's own compiled view, and the capacity loop of ``solve_2x2_free``
  runs on the whole instance with the blocks' hospitals closed.

The paper's classification is two tables.  ``TRACTABLE`` lists the
polynomial cells in routing order, and ``HARD`` the least class each
reduction makes NP-hard; every class is in exactly one of them.  ``dispatch``
routes an instance to the first tractable cell that admits its class, falls
back to exhaustive search on small instances, and otherwise names the hard
cell below the class.  ``solve`` runs one solver by its ``--algorithm`` name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .exhaustive import exists_strongly_stable, first_leaf
from .hr_core import DeferredAcceptance, greedy, rgs, shrunk_capacities
from .model import (
    Assignment,
    Instance,
    InstanceClass,
    Region,
    SolveOutcome,
    classify,
)
from .reductions import ReductionVariant
from .stability import certified

DEFAULT_BRUTE_LIMIT = 12

# ``--algorithm`` names and the solvers they run.  The table holds names, not
# functions: ``solve`` looks each one up when called, so rebinding a module
# attribute (as a tracing wrapper does) reroutes every caller.
ALGORITHMS = {
    "alg1": "solve_regions_size1",
    "alg2": "solve_res_len1",
    "alg3": "solve_hosp_len1",
    "alg4": "solve_2x2_free",
    "alg5": "solve_222_disjoint",
    "brute": "exists_strongly_stable",
}


@dataclass(frozen=True)
class TractableCell:
    """Classes ``algorithm`` decides in polynomial time, as ``admits`` and ``condition`` state."""

    algorithm: str
    condition: str
    admits: Callable[[InstanceClass], bool]


@dataclass(frozen=True)
class HardCell:
    """The least class ``reduction`` makes NP-hard, and the ``witness`` text naming it."""

    least: InstanceClass
    reduction: ReductionVariant
    witness: str

    def covers(self, cls: InstanceClass) -> bool:
        """Whether ``cls`` is at or above ``least``: overlapping regions count as above disjoint."""
        c = self.least
        return (cls.alpha >= c.alpha and cls.beta >= c.beta and cls.gamma >= c.gamma
                and (c.disjoint or not cls.disjoint))


# The polynomial cells, in the order dispatch tries them.
TRACTABLE = (
    TractableCell("alg1", "regions of size at most 1", lambda c: c.gamma <= 1),
    TractableCell("alg2", "resident lists of length at most 1", lambda c: c.alpha <= 1),
    TractableCell("alg3", "hospital lists of length at most 1", lambda c: c.beta <= 1),
    TractableCell("alg5", "a disjoint (2,2,2) instance",
                  lambda c: c.alpha <= 2 and c.beta <= 2 and c.gamma <= 2 and c.disjoint),
)

# One cell per reduction; an unknown verdict names the first that covers its class.
HARD = (
    HardCell(InstanceClass(2, 2, 2, False), ReductionVariant.ONE_IN_THREE_222,
             "overlapping regions with all parameters at 2"),
    HardCell(InstanceClass(2, 2, 3, True), ReductionVariant.PPN_223,
             "disjoint regions at parameters (2, 2, 3)"),
    HardCell(InstanceClass(2, 3, 2, True), ReductionVariant.PPN_232,
             "disjoint regions at parameters (2, 3, 2)"),
    HardCell(InstanceClass(3, 2, 2, True), ReductionVariant.PPN_322,
             "disjoint regions at parameters (3, 2, 2)"),
)


def _require_class(instance: Instance, algorithm: str) -> None:
    """Raise :class:`ValueError` unless ``algorithm``'s tractable cell admits ``instance``."""
    cls = classify(instance)
    cell = next(cell for cell in TRACTABLE if cell.algorithm == algorithm)
    if not cell.admits(cls):
        raise ValueError(f"solver requires {cell.condition}, got {cls}")


@dataclass(frozen=True)
class SubInstance2x2:
    """Two residents and two hospitals that list only each other, tied by a region.

    Under disjoint regions such a block cannot interact with the rest of the
    instance, and its residents are a closed slice of the parent instance's
    residents for the oracle's walk (see :func:`solve_222_disjoint`).
    """

    residents: tuple[str, str]
    hospitals: tuple[str, str]
    region: Region


def solve_regions_size1(instance: Instance) -> Assignment:
    """Solve instances whose regions are all singletons.

    Folding each singleton cap into its hospital's capacity reduces the
    problem to plain deferred acceptance.
    """
    _require_class(instance, "alg1")
    capacities = dict(instance.capacities)
    for reg in instance.regions:
        (h,) = reg.hospitals
        capacities[h] = min(capacities[h], reg.cap)
    return rgs(instance, ignore_regions=True, capacities=capacities)


def solve_res_len1(instance: Instance) -> Assignment:
    """Solve instances where every resident lists at most one hospital.

    Each hospital greedily takes the best residents on its list while its own
    capacity and every region containing it stay strictly under their caps.
    """
    _require_class(instance, "alg2")
    candidates = ((r, h) for h in instance.hospitals for r in instance.hospital_prefs[h])
    regions = ((reg.hospitals, reg.cap) for reg in instance.regions)
    return greedy(candidates, instance.capacities, regions)


def solve_hosp_len1(instance: Instance) -> Assignment:
    """Solve instances where every hospital lists at most one resident.

    Each resident takes the best hospital on its list whose capacity and
    containing regions all have room.
    """
    _require_class(instance, "alg3")
    candidates = ((r, h) for r in instance.residents for h in instance.resident_prefs[r])
    regions = ((reg.hospitals, reg.cap) for reg in instance.regions)
    return greedy(candidates, instance.capacities, regions)


def find_2x2_subinstances(instance: Instance) -> list[SubInstance2x2]:
    """Locate every independent 2x2 block, in region declaration order.

    A size-2 region forms a block exactly when two residents are acceptable
    to both member hospitals.  In a disjoint (2,2,2) instance every block
    ``(r1, r2, h1, h2)`` is closed, so nothing outside it refers to it:

    * ``h1`` and ``h2`` each list ``r1`` and ``r2``, and by beta <= 2 nothing else;
    * acceptability is mutual, so ``r1`` and ``r2`` each list ``h1`` and ``h2``,
      and by alpha <= 2 nothing else;
    * regions are disjoint, so the block's region is the only one holding
      ``h1`` or ``h2``, and it holds nothing else.
    """
    if not classify(instance).disjoint:
        raise ValueError("2x2 block extraction requires disjoint regions")
    index = instance.index
    hospital_index = index.hospital_pos
    resident_index = index.resident_pos
    out = []
    for reg in instance.regions:
        if len(reg.hospitals) != 2:
            continue
        common = _pair_common(instance, reg.hospitals)
        if len(common) != 2:
            continue
        r1, r2 = sorted(common, key=resident_index.__getitem__)
        h1, h2 = sorted(reg.hospitals, key=hospital_index.__getitem__)
        out.append(SubInstance2x2((r1, r2), (h1, h2), reg))
    return out


def _pair_common(instance: Instance, hospitals: Iterable[str]) -> list[str]:
    """The residents both hospitals of a size-2 region list."""
    a, b = hospitals
    listed = instance.index.hrank[b]
    return [r for r in instance.hospital_prefs[a] if r in listed]


def solve_2x2_free(instance: Instance) -> Assignment:
    """Solve disjoint (2,2,2) instances that contain no 2x2 block.

    Runs deferred acceptance ignoring regions, then, while some region is
    over its cap, lowers the capacity of one of that region's hospitals and
    resumes deferred acceptance from the rejection that forces.  The hospital
    to squeeze is the region's sole member, or (when one resident is
    acceptable to both members) that resident's less-preferred member while
    it still has capacity, or the first member with capacity left.

    The order in which overloaded regions are squeezed does not change the
    capacities or the matching reached:

    1. On capacities ``c``, deferred acceptance gives one matching in any
       proposal order (McVitie & Wilson 1970), and hospital ``h`` holds
       ``min(c[h], |P_h|)`` residents, ``P_h`` being the residents that ever
       proposed to it.  A lower capacity only adds rejections, so every
       ``P_h`` grows: a squeeze never lowers another hospital's load.
    2. Regions are disjoint and the squeeze rule reads only the capacities of
       the region's own members, so after ``n_R`` squeezes of region ``R``
       its members' capacities are fixed whatever happened elsewhere.  The
       state is a function of the vector ``n`` of squeeze counts.
    3. By 1 and 2, a region overloaded at ``n`` stays overloaded at every
       ``n' >= n`` with ``n'_R = n_R``.
    4. Let some run stop at ``m``, where no region is overloaded.  If a step
       of any run starts at ``n <= m`` and squeezes ``R``, then ``R`` is
       overloaded at ``n``, so ``n_R < m_R`` by 3 and the step stays ``<= m``.
       Every run therefore stops below ``m``, and by symmetry at ``m``.
    5. A closed hospital (capacity 0) holds nobody, so a region whose members
       are all closed is never overloaded and never squeezed; this is how
       :func:`solve_222_disjoint` runs the loop around its 2x2 blocks.

    Each squeeze lowers the total capacity, so the loop ends.
    """
    _require_class(instance, "alg5")
    if any(instance.capacities[h] > 2 for h in instance.hospitals):
        raise ValueError("solver requires hospital capacities of at most 2")
    blocks = find_2x2_subinstances(instance)
    if blocks:
        raise ValueError(
            f"region {sorted(blocks[0].region.hospitals)} has two common residents; "
            "extract its 2x2 block first"
        )
    return _capacity_loop(instance, instance.capacities)


def _capacity_loop(instance: Instance, capacities: Mapping[str, int]) -> Assignment:
    """The loop of :func:`solve_2x2_free`, started from ``capacities``.

    ``instance`` and ``capacities`` must meet ``solve_2x2_free``'s conditions,
    except that a 2x2 block may remain if its hospitals are closed.
    """
    index = instance.index
    hospital_index = index.hospital_pos
    regions_of, caps = index.regions_of, index.region_caps
    # The common residents of each size-2 region squeezed so far.
    common: dict[int, list[str]] = {}
    da = DeferredAcceptance(instance, capacities)
    capacities = da.capacities
    load = dict.fromkeys(instance.hospitals, 0)
    region_load = [0] * len(caps)
    # Regions that became overloaded, in any order (see solve_2x2_free); a
    # region a squeeze brought back under its cap is dropped when it surfaces.
    overloaded: list[int] = []

    def refresh(h: str) -> None:
        delta = len(da.held[h]) - load[h]
        load[h] += delta
        for k in regions_of[h]:
            region_load[k] += delta
            if delta > 0 and region_load[k] > caps[k]:
                overloaded.append(k)

    for _ in range(sum(capacities.values()) + 1):
        for h in da.gained:
            refresh(h)
        da.gained.clear()
        while overloaded and region_load[overloaded[-1]] <= caps[overloaded[-1]]:
            overloaded.pop()
        if not overloaded:
            return da.matching()
        k = overloaded[-1]
        members = sorted(instance.regions[k].hospitals, key=hospital_index.__getitem__)
        if len(members) == 2 and k not in common:
            common[k] = _pair_common(instance, members)
        if len(members) == 1:
            squeeze = members[0]
        elif len(common[k]) == 1:
            (r,) = common[k]
            h_plus, h_minus = sorted(members, key=instance.resident_prefs[r].index)
            squeeze = h_minus if capacities[h_minus] > 0 else h_plus
        else:
            squeeze = next((h for h in members if capacities[h] > 0), members[0])
        # An overloaded region holds a resident, so some member has capacity.
        if capacities[squeeze] <= 0:
            raise RuntimeError(
                f"capacity reduction found region {members} overloaded with no capacity left"
            )
        da.squeeze(squeeze)
        refresh(squeeze)
    raise RuntimeError("capacity reduction failed to terminate")


def solve_222_disjoint(instance: Instance) -> SolveOutcome:
    """Decide disjoint (2,2,2) instances.

    Every 2x2 block is closed (see :func:`find_2x2_subinstances`) and so
    independent of the rest: the instance has a strongly stable matching
    exactly when each block has one, and the rest always has one.  One run
    of the exhaustive oracle's walk over every block's residents, on this
    instance's compiled view, yields the union of each block's canonically
    first strongly stable matching, or no leaf when some block has none (see
    :func:`hrrc.exhaustive.first_leaf`); the certificate of the whole
    matching covers every block pair.  The rest is
    solved by :func:`solve_2x2_free`'s loop on this instance itself, each
    capacity capped by its hospital's list length and every block hospital
    closed: block residents then stay unmatched, and the other agents never
    meet them, so they get the matching the loop gives on the block-free
    rest.
    """
    _require_class(instance, "alg5")
    subs = find_2x2_subinstances(instance)
    block_leaf = first_leaf(instance, tuple(r for sub in subs for r in sub.residents))
    if block_leaf is None:
        return SolveOutcome.none_exists()
    capacities = shrunk_capacities(instance)
    for sub in subs:
        for h in sub.hospitals:
            capacities[h] = 0
    core = _capacity_loop(instance, capacities)
    matching = Assignment(block_leaf.pairs | core.pairs)
    return SolveOutcome.found(certified(instance, matching, "solve_222_disjoint"))


def solve(instance: Instance, algorithm: str) -> SolveOutcome:
    """Run the solver that ``algorithm`` names in :data:`ALGORITHMS`.

    A found matching is certified strongly stable.  Raises
    :class:`ValueError` if the instance is outside the solver's class.
    """
    name = ALGORITHMS[algorithm]
    result = globals()[name](instance)
    if isinstance(result, SolveOutcome):  # solve_222_disjoint and the oracle certify their own
        return result
    return SolveOutcome.found(certified(instance, result, name))


def dispatch(instance: Instance, brute_limit: int = DEFAULT_BRUTE_LIMIT) -> SolveOutcome:
    """Route an instance to the first cell of :data:`TRACTABLE` that admits its class.

    A class no cell admits goes to exhaustive search when the instance has at
    most ``brute_limit`` agents in total; otherwise the verdict is unknown,
    naming the :data:`HARD` cell below the class.  A found matching is always
    certified strongly stable.
    """
    cls = classify(instance)
    for cell in TRACTABLE:
        if cell.admits(cls):
            return solve(instance, cell.algorithm)
    agents = len(instance.residents) + len(instance.hospitals)
    if agents <= brute_limit:
        return exists_strongly_stable(instance)
    hard = next(cell for cell in HARD if cell.covers(cls))
    return SolveOutcome.unknown(
        f"no polynomial-time solver covers class {cls}: deciding existence of a "
        f"strongly stable matching is NP-hard already for {hard.witness}; "
        f"instance has {agents} agents, above the brute-force limit of {brute_limit}"
    )
