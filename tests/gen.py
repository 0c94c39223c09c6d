"""Random and exhaustive generators backing the test suite.

The instance generator honours per-side list-length bounds and a region-size
bound so each solver's precondition class can be sampled directly.  The
formula generators produce the two clause shapes the reductions consume.
"""

from __future__ import annotations

import random
from itertools import combinations

from hrrc.model import Instance, make_instance
from hrrc.reductions import CnfFormula, check_ppn


def random_instance(
    rng: random.Random,
    max_residents: int = 6,
    max_hospitals: int = 6,
    alpha: int | None = None,
    beta: int | None = None,
    gamma: int | None = None,
    disjoint: bool = False,
    max_capacity: int = 3,
    max_region_cap: int = 3,
    min_capacity: int = 0,
    min_region_cap: int = 0,
    edge_prob: float = 0.6,
) -> Instance:
    """A valid random instance with the requested parameter bounds.

    ``alpha``/``beta`` cap preference-list lengths (None = side size),
    ``gamma`` caps region size (None = any, 0 = no regions).  ``disjoint``
    draws regions from a partition of the hospitals.
    """
    n_res = rng.randint(1, max_residents)
    n_hosp = rng.randint(1, max_hospitals)
    residents = [f"r{i}" for i in range(1, n_res + 1)]
    hospitals = [f"h{i}" for i in range(1, n_hosp + 1)]
    alpha = n_hosp if alpha is None else alpha
    beta = n_res if beta is None else beta

    pairs = [(r, h) for r in residents for h in hospitals]
    rng.shuffle(pairs)
    deg_r = {r: 0 for r in residents}
    deg_h = {h: 0 for h in hospitals}
    edges: set[tuple[str, str]] = set()
    for r, h in pairs:
        if deg_r[r] < alpha and deg_h[h] < beta and rng.random() < edge_prob:
            edges.add((r, h))
            deg_r[r] += 1
            deg_h[h] += 1

    def shuffled(items: list[str]) -> list[str]:
        out = list(items)
        rng.shuffle(out)
        return out

    res_rows = [
        (r, shuffled([h for h in hospitals if (r, h) in edges])) for r in residents
    ]
    hosp_rows = [
        (h, rng.randint(min_capacity, max_capacity), shuffled([r for r in residents if (r, h) in edges]))
        for h in hospitals
    ]

    regions: list[tuple[frozenset[str], int]] = []
    if gamma is None or gamma > 0:
        size_cap = n_hosp if gamma is None else gamma
        if disjoint:
            pool = shuffled(hospitals)
            while pool and rng.random() < 0.8:
                size = rng.randint(1, min(size_cap, len(pool)))
                members = frozenset(pool[:size])
                del pool[:size]
                regions.append((members, rng.randint(min_region_cap, max_region_cap)))
        else:
            seen: set[frozenset[str]] = set()
            for _ in range(rng.randint(0, n_hosp)):
                size = rng.randint(1, min(size_cap, n_hosp))
                members = frozenset(rng.sample(hospitals, size))
                if members in seen:
                    continue
                seen.add(members)
                regions.append((members, rng.randint(min_region_cap, max_region_cap)))

    return make_instance(res_rows, hosp_rows, regions)


# ``random_instance`` arguments for acceptance criterion 3's tight draws: full
# 2x2 lists with unit capacities and caps, where unsolvable blocks occur.
TIGHT_2X2 = dict(
    max_residents=2, max_hospitals=2, alpha=2, beta=2, gamma=2, disjoint=True,
    edge_prob=1.0, min_capacity=1, max_capacity=1, min_region_cap=1, max_region_cap=1,
)


def random_g2_blocks(rng: random.Random) -> Instance:
    """Disjoint (2,2,2) draws built around ``example_g2``'s shape.

    Each of 1 to 32 blocks has two residents and two hospitals that list each
    other in random orders, with capacities and the cap of the region around
    both hospitals drawn from 0-2.  Up to 3 unrelated pairs, each a resident
    and a hospital that list only each other, in a one-hospital region with a
    cap from 0-2, sit among them in the declaration order.  Only 8 of the 432
    block shapes have no strongly stable matching, and an instance has one
    only when each of its blocks has, so it takes many blocks for about a
    quarter of the draws to have none.
    """
    residents: list[tuple] = []
    hospitals: list[tuple] = []
    regions: list[tuple[frozenset[str], int]] = []
    for b in range(rng.randint(1, 32)):
        rs, hs = [f"r{b}a", f"r{b}b"], [f"h{b}a", f"h{b}b"]
        residents += [(r, rng.sample(hs, 2)) for r in rs]
        hospitals += [(h, rng.randint(0, 2), rng.sample(rs, 2)) for h in hs]
        regions.append((frozenset(hs), rng.randint(0, 2)))
    for p in range(rng.randint(0, 3)):
        residents.append((f"s{p}", [f"k{p}"]))
        hospitals.append((f"k{p}", 1, [f"s{p}"]))
        regions.append((frozenset([f"k{p}"]), rng.randint(0, 2)))
    rng.shuffle(residents)
    rng.shuffle(hospitals)
    return make_instance(residents, hospitals, regions)


def random_matching_pairs(rng: random.Random, instance: Instance) -> list[tuple[str, str]]:
    """A random (not necessarily feasible) matching of ``instance``."""
    load = {h: 0 for h in instance.hospitals}
    out = []
    for r in instance.residents:
        options = [h for h in instance.resident_prefs[r] if load[h] < instance.capacities[h]]
        if options and rng.random() < 0.7:
            h = rng.choice(options)
            load[h] += 1
            out.append((r, h))
    return out


# ---------------------------------------------------------------------------
# Formula generators


def random_cnf(
    rng: random.Random, max_vars: int = 4, max_clauses: int = 5, clause_sizes=(2, 3)
) -> CnfFormula:
    """A random small CNF with distinct variables inside each clause."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        size = min(rng.choice(clause_sizes), n)
        variables = rng.sample(range(1, n + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def _slot_partitions(slots: list[tuple[int, int]], sizes: list[int]):
    """Partitions of occurrence slots into clauses of the given sizes.

    A slot is (variable, sign); blocks may not repeat a (variable, sign)
    pair.  The first remaining slot anchors each block, which suppresses
    order-duplicate partitions.  Equal slots sit next to each other, so two
    blocks with the same slots leave the same sequence behind: only the
    first of them is expanded.
    """
    if not slots:
        yield []
        return
    anchor = slots[0]
    rest = slots[1:]
    expanded: set[tuple[tuple[int, int], ...]] = set()
    for size in sorted(set(sizes)):
        remaining_sizes = list(sizes)
        remaining_sizes.remove(size)
        for combo in combinations(range(len(rest)), size - 1):
            block = [anchor] + [rest[k] for k in combo]
            key = tuple(block)
            if key in expanded or len(set(block)) != len(block):
                continue
            expanded.add(key)
            left = [rest[k] for k in range(len(rest)) if k not in combo]
            for tail in _slot_partitions(left, remaining_sizes):
                yield [block] + tail


def all_ppn_formulas(n: int) -> list[CnfFormula]:
    """Every PPN formula on n variables, up to clause and literal order."""
    slots = []
    for i in range(1, n + 1):
        slots += [(i, 1), (i, 1), (i, -1)]
    total = 3 * n
    out: dict[tuple, CnfFormula] = {}
    for m3 in range(n, -1, -2):
        m2 = (total - 3 * m3) // 2
        sizes = [3] * m3 + [2] * m2
        for blocks in _slot_partitions(slots, sizes):
            clauses = tuple(
                sorted(tuple(sorted(v * s for v, s in block)) for block in blocks)
            )
            if clauses in out:
                continue
            formula = CnfFormula(n, clauses)
            if not check_ppn(formula):
                out[clauses] = formula
    return list(out.values())


def all_oneinthree_formulas(n: int) -> list[CnfFormula]:
    """Every set of 2 to 4 distinct positive 3-clauses that uses all n variables.

    Each is a formula ``reduce_oneinthree`` accepts; clauses and their
    variables come in increasing order.
    """
    triples = list(combinations(range(1, n + 1), 3))
    return [
        CnfFormula(n, clauses)
        for m in (2, 3, 4)
        for clauses in combinations(triples, m)
        if len({v for clause in clauses for v in clause}) == n
    ]


def random_ppn_formula(rng: random.Random, n: int, max_tries: int = 200) -> CnfFormula:
    """Rejection-sample a PPN formula on n variables (n >= 2)."""
    slots = []
    for i in range(1, n + 1):
        slots += [(i, 1), (i, 1), (i, -1)]
    for _ in range(max_tries):
        m3 = rng.choice([m3 for m3 in range(n, -1, -2)])
        m2 = (3 * n - 3 * m3) // 2
        rng.shuffle(slots)
        clauses = []
        pos = 0
        ok = True
        for size in [3] * m3 + [2] * m2:
            block = slots[pos : pos + size]
            pos += size
            if len(set(block)) != len(block):
                ok = False
                break
            clauses.append(tuple(v * s for v, s in block))
        if not ok:
            continue
        formula = CnfFormula(n, tuple(clauses))
        if not check_ppn(formula):
            return formula
    raise RuntimeError(f"could not sample a PPN formula with n={n}")


# ---------------------------------------------------------------------------
# Hypothesis strategy

try:
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    st = None

if st is not None:

    @st.composite
    def instances(draw, max_residents: int = 4, max_hospitals: int = 4):
        """Small random instances, region shapes unconstrained."""
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return random_instance(
            random.Random(seed),
            max_residents=max_residents,
            max_hospitals=max_hospitals,
        )
