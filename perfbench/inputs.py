"""Seeded input files for the hrrc benchmark, with the answer each op must give.

``build(workload, seed, directory)`` writes instance, matching and DIMACS CNF
files into ``directory`` and returns the workload's op list.  Each op names
the CLI arguments (or public API call) to run and the answer expected of it.
Answers are known by construction and checked by the reference code in this
file, which shares nothing with the package under test:

* a gamma <= 1 instance is always solvable, and its solver output is the
  resident-optimal stable matching of the market with each singleton region's
  cap folded into its hospital's capacity (``da_matching``);
* a disjoint (2,2,2) instance has a strongly stable matching exactly when each
  planted 2x2 block has one, decided by enumerating the block's matchings;
* a PPN formula is satisfiable exactly when its reduced instance has a
  strongly stable matching, decided by a truth table over its variables;
* ``check_report`` renders what ``hrrc check`` must print for any feasible
  matching.

Formulas come from the test suite's generators in ``tests/gen.py``.
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

from gen import all_ppn_formulas, random_cnf, random_ppn_formula

WORKLOADS = ("tractable-gamma1", "disjoint-222", "reduction-sweep")
TARGETS = ("ppn-223", "ppn-232", "ppn-322")

# Residents per gamma <= 1 instance and agents per side per disjoint (2,2,2)
# instance.  The largest size sets the pass length: certification grows about
# cubically with instance size at the commit that defined the benchmark.
# Instances come in rounds of every size, so each metric samples the machine
# at several moments of a pass, and a seed's total averages over many
# instances of each size.
GAMMA1_SIZES = (150, 300, 450)
GAMMA1_ROUNDS = 4
DISJOINT_SIZES = (120, 250)
# Per round, whether every planted block is solvable; in the other rounds each
# instance holds an example_g2-shaped block and must report none-exists.
DISJOINT_ROUNDS = (True, True, True, False) * 4
# The n = 4 PPN sample is drawn with its own fixed seed: the oracle's cost
# varies by orders of magnitude between formulas, so a per-seed sample would
# move brute_s by more than any bound between seeds.
N4_SAMPLE_SEED = 4
N4_SAMPLE_SIZE = 3
CNF_COUNT = 12
# Every workload also runs this slice of fixed small inputs, spread through its
# op list, so that every subcommand and every layer is measured on every
# workload.
SMOKE_SEED = 20210707


# ---------------------------------------------------------------------------
# Reference semantics


def _regions_of(doc: dict) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {h["id"]: [] for h in doc["hospitals"]}
    for k, reg in enumerate(doc.get("regions", [])):
        for h in reg["hospitals"]:
            out[h].append(k)
    return out


def check_report(doc: dict, pairs: list[list[str]]) -> tuple[int, str]:
    """Exit code and text that ``hrrc check`` prints for a matching of ``doc``.

    Follows the definitions: (r, h) blocks when r is unassigned or prefers h,
    and h has a free seat or prefers r to an assignee; it blocks strongly when
    h prefers r to an assignee or moving r to h keeps every regional cap.
    """
    rprefs = {r["id"]: r["prefs"] for r in doc["residents"]}
    hprefs = {h["id"]: h["prefs"] for h in doc["hospitals"]}
    cap = {h["id"]: h["capacity"] for h in doc["hospitals"]}
    regions = doc.get("regions", [])
    regions_of = _regions_of(doc)
    hospital_of = {r: h for r, h in pairs}
    held: dict[str, list[str]] = {h: [] for h in hprefs}
    for r, h in sorted(map(tuple, pairs)):
        held[h].append(r)
    load = [len({r for r, h in pairs if h in reg["hospitals"]}) for reg in regions]
    feasible = all(n <= reg["cap"] for n, reg in zip(load, regions))
    hrank = {h: {r: i for i, r in enumerate(p)} for h, p in hprefs.items()}
    hospital_order = [h["id"] for h in doc["hospitals"]]

    bps: list[tuple[str, str]] = []
    for res in doc["residents"]:
        r = res["id"]
        current = hospital_of.get(r)
        prefs = rprefs[r]
        better = set(prefs if current is None else prefs[: prefs.index(current)])
        for h in hospital_order:
            if h in better and (
                len(held[h]) < cap[h] or any(hrank[h][r] < hrank[h][x] for x in held[h])
            ):
                bps.append((r, h))

    lines = [f"feasible: {'yes' if feasible else 'no'}", f"blocking pairs: {len(bps)}"]
    lines += [f"  ({r}, {h})" for r, h in bps]
    strong = []
    if feasible:
        for r, h in bps:
            worse = [x for x in held[h] if hrank[h][r] < hrank[h][x]]
            conditions = []
            if worse:
                conditions.append(
                    f"preferred-over-assignee({max(worse, key=hrank[h].__getitem__)})"
                )
            old = hospital_of.get(r)
            gained = [k for k in regions_of[h] if old is None or k not in regions_of[old]]
            if all(load[k] + 1 <= regions[k]["cap"] for k in gained):
                conditions.append("move-feasible")
            if conditions:
                strong.append(f"  ({r}, {h}) via {', '.join(conditions)}")
        lines.append(f"strong blocking pairs: {len(strong)}")
        lines += strong
    stable = feasible and not strong
    lines.append(f"strongly stable: {'yes' if stable else 'no'}")
    return (0 if stable else 1), "\n".join(lines) + "\n"


def is_strongly_stable_matching(doc: dict, pairs: list[list[str]]) -> bool:
    """Whether ``pairs`` is a matching of ``doc`` that is strongly stable."""
    rprefs = {r["id"]: r["prefs"] for r in doc["residents"]}
    cap = {h["id"]: h["capacity"] for h in doc["hospitals"]}
    residents = [r for r, _ in pairs]
    if len(set(residents)) != len(residents):
        return False
    if any(r not in rprefs or h not in rprefs[r] for r, h in pairs):
        return False
    if any(sum(1 for _, x in pairs if x == h) > q for h, q in cap.items()):
        return False
    return check_report(doc, pairs)[0] == 0


def da_matching(doc: dict) -> list[list[str]]:
    """Resident-proposing deferred acceptance, singleton region caps folded in."""
    cap = {h["id"]: h["capacity"] for h in doc["hospitals"]}
    for reg in doc.get("regions", []):
        (h,) = reg["hospitals"]
        cap[h] = min(cap[h], reg["cap"])
    hrank = {h["id"]: {r: i for i, r in enumerate(h["prefs"])} for h in doc["hospitals"]}
    prefs = {r["id"]: r["prefs"] for r in doc["residents"]}
    nxt = {r: 0 for r in prefs}
    held: dict[str, list[str]] = {h: [] for h in cap}
    free = list(prefs)
    while free:
        r = free.pop()
        while nxt[r] < len(prefs[r]):
            h = prefs[r][nxt[r]]
            nxt[r] += 1
            if cap[h] == 0:
                continue
            held[h].append(r)
            if len(held[h]) <= cap[h]:
                break
            worst = max(held[h], key=hrank[h].__getitem__)
            held[h].remove(worst)
            if worst != r:
                free.append(worst)
                break
    return sorted([r, h] for h, rs in held.items() for r in rs)


def matching_text(pairs: list[list[str]]) -> str:
    """A matching document exactly as ``hrrc.model.save_matching`` renders it."""
    return json.dumps({"pairs": sorted(pairs)}, indent=2) + "\n"


def least_model(num_vars: int, clauses) -> tuple[bool, ...] | None:
    """Truth-table search: the least satisfying assignment, x1 most significant."""
    for values in product((False, True), repeat=num_vars):
        if satisfies(clauses, values):
            return values
    return None


def satisfies(clauses, values) -> bool:
    return all(any(values[abs(l) - 1] == (l > 0) for l in c) for c in clauses)


def is_ppn(num_vars: int, clauses) -> bool:
    """Every clause has 2 or 3 literals; every variable occurs +, + and -."""
    lits = [l for c in clauses for l in c]
    return all(len(c) in (2, 3) for c in clauses) and all(
        lits.count(v) == 2 and lits.count(-v) == 1 for v in range(1, num_vars + 1)
    )


# ---------------------------------------------------------------------------
# Instance generators


def gamma1_doc(rng: random.Random, n: int) -> dict:
    """gamma <= 1: n residents with lists of 5, hospitals of capacity 8, and
    half the hospitals in a singleton region of cap 4.

    Only the preferences and the choice of capped hospitals are random.  The
    checker's cost grows with the number of regions and of blocking pairs, so
    fixing capacities, caps and the region count keeps the work of a size
    nearly the same on every seed.
    """
    hospitals = [f"h{j}" for j in range(1, n // 8 + 1)]
    residents = [f"r{i}" for i in range(1, n + 1)]
    rprefs = {r: rng.sample(hospitals, 5) for r in residents}
    hprefs: dict[str, list[str]] = {h: [] for h in hospitals}
    for r in residents:
        for h in rprefs[r]:
            hprefs[h].append(r)
    for h in hospitals:
        rng.shuffle(hprefs[h])
    capped = set(rng.sample(hospitals, len(hospitals) // 2))
    return {
        "residents": [{"id": r, "prefs": rprefs[r]} for r in residents],
        "hospitals": [{"id": h, "capacity": 8, "prefs": hprefs[h]} for h in hospitals],
        "regions": [{"hospitals": [h], "cap": 4} for h in hospitals if h in capped],
    }


def random_feasible(rng: random.Random, doc: dict) -> list[list[str]]:
    """A random feasible matching: residents in turn take a random hospital
    on their list that still has room under its capacity and region caps."""
    room = {h["id"]: h["capacity"] for h in doc["hospitals"]}
    regions = doc.get("regions", [])
    region_room = [reg["cap"] for reg in regions]
    regions_of = _regions_of(doc)
    pairs = []
    for res in doc["residents"]:
        options = [
            h
            for h in res["prefs"]
            if room[h] > 0 and all(region_room[k] > 0 for k in regions_of[h])
        ]
        if options and rng.random() < 0.8:
            h = rng.choice(options)
            room[h] -= 1
            for k in regions_of[h]:
                region_room[k] -= 1
            pairs.append([res["id"], h])
    return sorted(pairs)


def _block(rng: random.Random, g2: bool) -> tuple[list, list, int]:
    """A 2x2 block: two residents and two hospitals listing only each other,
    tied by one region.  Returns (resident prefs, hospital rows, region cap)
    over local names a1, a2 / b1, b2."""
    if g2:
        return (
            [("a1", ["b1", "b2"]), ("a2", ["b2", "b1"])],
            [("b1", 1, ["a2", "a1"]), ("b2", 1, ["a1", "a2"])],
            1,
        )
    res = [(a, rng.sample(["b1", "b2"], 2)) for a in ("a1", "a2")]
    hosp = [(b, rng.randint(1, 2), rng.sample(["a1", "a2"], 2)) for b in ("b1", "b2")]
    return res, hosp, rng.randint(1, 2)


def block_solvable(res, hosp, region_cap) -> bool:
    """Enumerate the block's matchings and test each for strong stability."""
    doc = {
        "residents": [{"id": a, "prefs": p} for a, p in res],
        "hospitals": [{"id": b, "capacity": q, "prefs": p} for b, q, p in hosp],
        "regions": [{"hospitals": ["b1", "b2"], "cap": region_cap}],
    }
    for h1, h2 in product((None, "b1", "b2"), repeat=2):
        pairs = [[a, h] for a, h in (("a1", h1), ("a2", h2)) if h is not None]
        if is_strongly_stable_matching(doc, pairs):
            return True
    return False


def disjoint_doc(rng: random.Random, n: int, with_g2: bool) -> dict:
    """A disjoint (2,2,2) instance with n agents per side and planted blocks.

    Outside the blocks every resident lists at most two hospitals and every
    hospital at most two residents; size-2 regions are formed only over
    hospitals with at most one common resident, so no further block exists
    and the remainder always has a strongly stable matching.
    """
    blocks = []
    n_blocks = max(2, n // 40)
    g2_at = rng.randrange(n_blocks) if with_g2 else -1
    for k in range(n_blocks):
        while True:
            res, hosp, region_cap = _block(rng, k == g2_at)
            if k == g2_at or block_solvable(res, hosp, region_cap):
                break
        blocks.append((res, hosp, region_cap))

    m = n - 2 * n_blocks
    rest_r = [f"s{i}" for i in range(m)]
    rest_h = [f"t{i}" for i in range(m)]
    lists: dict[str, list[str]] = {r: [] for r in rest_r}
    for perm in (rng.sample(rest_h, m), rng.sample(rest_h, m)):
        for r, h in zip(rest_r, perm):
            if h not in lists[r] and rng.random() < 0.9:
                lists[r].append(h)
    hlists: dict[str, list[str]] = {h: [] for h in rest_h}
    for r in rest_r:
        rng.shuffle(lists[r])
        for h in lists[r]:
            hlists[h].append(r)
    rows_r = [(r, lists[r]) for r in rest_r]
    # Half the hospitals have capacity 1 and half capacity 2, and size-2
    # regions alternate caps 1 and 2: with random capacities and caps, the
    # number of tight regions, and with it the capacity loop's work, varied
    # by a third between seeds at one size.
    capacities = [1 + i % 2 for i in range(m)]
    rng.shuffle(capacities)
    rows_h = []
    for h, q in zip(rest_h, capacities):
        rng.shuffle(hlists[h])
        rows_h.append((h, q, hlists[h]))
    regions = []
    pool = rng.sample(rest_h, m)
    pair_regions = 0
    while len(pool) >= 2:
        a, b = pool.pop(), pool.pop()
        if len(set(hlists[a]) & set(hlists[b])) <= 1:
            pair_regions += 1
            regions.append(([a, b], 1 + pair_regions % 2))
        elif rng.random() < 0.5:
            regions.append(([a], 1))

    for k, (res, hosp, region_cap) in enumerate(blocks):
        local = {x: f"{x}_{k}" for x in ("a1", "a2", "b1", "b2")}
        rows_r += [(local[a], [local[b] for b in p]) for a, p in res]
        rows_h += [(local[b], q, [local[a] for a in p]) for b, q, p in hosp]
        regions.append(([local["b1"], local["b2"]], region_cap))

    # Rename to r1.. / h1.. in a shuffled declaration order, so blocks sit
    # anywhere in the instance.
    rng.shuffle(rows_r)
    rng.shuffle(rows_h)
    rng.shuffle(regions)
    rname = {r: f"r{i}" for i, (r, _) in enumerate(rows_r, start=1)}
    hname = {h: f"h{i}" for i, (h, _, _) in enumerate(rows_h, start=1)}
    return {
        "residents": [{"id": rname[r], "prefs": [hname[h] for h in p]} for r, p in rows_r],
        "hospitals": [
            {"id": hname[h], "capacity": q, "prefs": [rname[r] for r in p]}
            for h, q, p in rows_h
        ],
        "regions": [{"hospitals": [hname[h] for h in hs], "cap": c} for hs, c in regions],
    }


def read_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Variable count and clauses of a DIMACS document written by ``dimacs``."""
    lines = text.split("\n")
    num_vars = int(lines[0].split()[2])
    return num_vars, [[int(t) for t in line.split()[:-1]] for line in lines[1:] if line]


def dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Op lists


class _Writer:
    """Writes input files under one directory and collects the op list.

    Ops name files relative to that directory, so the inputs for a seed are
    the same bytes wherever they are written; the client runs inside it.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.ops: list[dict] = []

    def file(self, name: str, text: str) -> str:
        (self.directory / name).write_text(text, encoding="utf-8")
        return name

    def op(self, **fields) -> None:
        fields["id"] = f"{len(self.ops):04d}-{fields['kind']}"
        self.ops.append(fields)


def _interleave(main: list[dict], extra: list[dict]) -> list[dict]:
    """Spread ``extra`` evenly through ``main``, keeping the order of each."""
    out: list[dict] = []
    taken = 0
    for i, op in enumerate(main, start=1):
        out.append(op)
        upto = round(i * len(extra) / len(main))
        out += extra[taken:upto]
        taken = upto
    return out + extra[taken:]


def _gamma1_ops(w: _Writer, rng: random.Random, tag: str, n: int) -> None:
    doc = gamma1_doc(rng, n)
    stable = da_matching(doc)
    unstable = random_feasible(rng, doc)
    if check_report(doc, unstable)[0] != 1:
        raise RuntimeError("generated matching is strongly stable")
    inst = w.file(f"{tag}.json", json.dumps(doc) + "\n")
    m_stable = w.file(f"{tag}-solved.json", matching_text(stable))
    m_unstable = w.file(f"{tag}-unstable.json", matching_text(unstable))
    w.op(kind="solve", argv=["solve", inst], exit=0, stdout="found\n" + matching_text(stable))
    w.op(kind="check", argv=["check", inst, m_stable], exit=0, verify="check")
    w.op(kind="check_unstable", argv=["check", inst, m_unstable], exit=1, verify="check")


def _disjoint_ops(w: _Writer, rng: random.Random, tag: str, n: int, with_g2: bool) -> None:
    inst = w.file(f"{tag}.json", json.dumps(disjoint_doc(rng, n, with_g2)) + "\n")
    if with_g2:
        w.op(kind="solve", argv=["solve", inst], exit=1, stdout="none-exists\n")
    else:
        w.op(kind="solve", argv=["solve", inst], exit=0, verify="stable", instance=inst)


def _formula_ops(w: _Writer, tag: str, formula) -> None:
    clauses = [list(c) for c in formula.clauses]
    model = least_model(formula.num_vars, clauses)
    cnf = w.file(f"{tag}.cnf", dimacs(formula.num_vars, clauses))
    _sat_ops(w, tag, cnf, model)
    for target in TARGETS:
        inst = f"{tag}-{target}.json"
        found = f"{tag}-{target}-found.json"
        w.op(kind="reduce", argv=["reduce", cnf, "--target", target], exit=0, save=inst)
        w.op(
            kind="brute",
            argv=["brute", inst, "--force"],
            exit=0 if model else 1,
            verify="stable" if model else None,
            stdout=None if model else "none-exists\n",
            instance=inst,
            save=found if model else None,
        )
        if model is None:
            continue
        w.op(
            kind="decode",
            argv=["decode", cnf, found, "--target", target],
            exit=0,
            verify="satisfies",
            cnf=cnf,
        )
        encoded = f"{tag}-{target}-encoded.json"
        w.op(kind="encode", cnf=cnf, target=target, model=model, save=encoded)
        w.op(kind="check", argv=["check", inst, encoded], exit=0, verify="check")


def _sat_ops(w: _Writer, tag: str, cnf: str, model) -> None:
    """sat_brute on the formula, then on its PPN normalization (criterion 8)."""
    w.op(kind="sat", cnf=cnf, model=model)
    normalized = f"{tag}-normalized.cnf"
    w.op(kind="to_ppn", cnf=cnf, save=normalized)
    w.op(kind="sat", cnf=normalized, satisfiable=model is not None)


def _cnf_ops(
    w: _Writer, rng: random.Random, tag: str, count: int, max_clauses: int
) -> None:
    for k in range(count):
        f = random_cnf(rng, max_vars=3, max_clauses=max_clauses, clause_sizes=(2, 3))
        clauses = [list(c) for c in f.clauses]
        model = least_model(f.num_vars, clauses)
        cnf = w.file(f"{tag}-{k}.cnf", dimacs(f.num_vars, clauses))
        _sat_ops(w, f"{tag}-{k}", cnf, model)


def _smoke_ops(w: _Writer) -> None:
    rng = random.Random(SMOKE_SEED)
    first = len(w.ops)
    # Each instance's, formula's or CNF's ops form a group, filed by kind.
    groups: dict[str, list[list[dict]]] = {"g1": [], "d222": [], "ppn": [], "cnf": []}

    def grouped(kind: str, start: int) -> None:
        groups[kind].append(w.ops[start:])

    # Many small instances and formulas rather than a few larger ones, so
    # that each op kind's share of the slice is sampled at many moments of a
    # pass: a share held by a few ops moved with the machine's state at the
    # few moments they ran.
    for k in range(12):
        start = len(w.ops)
        _gamma1_ops(w, rng, f"smoke-g1-{k}", 48)
        grouped("g1", start)
        start = len(w.ops)
        _disjoint_ops(w, rng, f"smoke-d222-{k}", 24, with_g2=False)
        grouped("d222", start)
    for k, formula in enumerate(all_ppn_formulas(2)):
        start = len(w.ops)
        _formula_ops(w, f"smoke-ppn2-{k}", formula)
        grouped("ppn", start)
    for k in range(8):
        start = len(w.ops)
        _formula_ops(w, f"smoke-ppn3-{k}", random_ppn_formula(rng, 3))
        grouped("ppn", start)
    # At most 2 clauses, as in reduction-sweep: one 3-clause draw made
    # sat_brute enumerate 2^12 assignments, most of the slice's sat_s.
    start = len(w.ops)
    _cnf_ops(w, rng, "smoke-cnf", 24, max_clauses=2)
    cnf_ops = w.ops[start:]
    groups["cnf"] = [cnf_ops[i : i + 3] for i in range(0, len(cnf_ops), 3)]
    # Spread each kind's groups evenly over the slice, keeping the order of
    # the ops within a group, which read the files earlier ones write.
    placed = sorted(
        ((i + 0.5) / len(gs), n, group)
        for n, gs in enumerate(groups.values())
        for i, group in enumerate(gs)
    )
    w.ops[first:] = [op for _, _, group in placed for op in group]


def build(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``directory``.

    Returns the manifest also written to ``ops.json``: the op list, with the
    smoke slice spread through it and its ops marked ``smoke`` (the client
    runs them once as a warm-up).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    w = _Writer(directory)
    _smoke_ops(w)
    smoke = w.ops[:]
    for op in smoke:
        op["smoke"] = True
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tractable-gamma1":
        for k in range(GAMMA1_ROUNDS):
            for n in GAMMA1_SIZES:
                _gamma1_ops(w, rng, f"g1-{n}-{k}", n)
    elif workload == "disjoint-222":
        for k, solvable in enumerate(DISJOINT_ROUNDS):
            for n in DISJOINT_SIZES:
                _disjoint_ops(w, rng, f"d222-{n}-{k}", n, with_g2=not solvable)
    else:
        for k, formula in enumerate(all_ppn_formulas(3)):
            _formula_ops(w, f"ppn3-{k}", formula)
        sample = random.Random(N4_SAMPLE_SEED)
        for k in range(N4_SAMPLE_SIZE):
            _formula_ops(w, f"ppn4-{k}", random_ppn_formula(sample, 4))
        # At most 6 literal occurrences, so that sat_brute on a normalized
        # formula tries at most 2^6 assignments: with larger shapes a single
        # unsatisfiable draw outweighed the rest of sat_s.
        _cnf_ops(w, rng, "cnf", CNF_COUNT, max_clauses=2)
    manifest = {"ops": _interleave(w.ops[len(smoke):], smoke)}
    (directory / "ops.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
