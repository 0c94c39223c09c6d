"""One closed-loop client: replays a workload's op list until time is up.

Usage: ``python3 perfbench/worker.py OPS_JSON SECONDS TRACE``

Runs in its own process, one thread, so that its peak memory belongs to this
workload alone.  Every op is timed on its own; outputs are checked at the end
of each pass through the op list, outside the timed region.  With TRACE=0
the op list runs over and over for SECONDS and each end-to-end metric sums its
ops' mean times.  With TRACE=1 each op runs untraced and traced in turn, so
the difference between the two is the tracing overhead.  Prints one JSON
object.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
# A caller's brute-force limit would reroute ``dispatch``.
os.environ.pop("HRRC_BRUTE_LIMIT", None)

import inputs  # noqa: E402
import ops as ops_mod  # noqa: E402
from gen import all_ppn_formulas  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

# Set-up samples per run: fresh interpreters importing hrrc.cli, spread
# evenly over the run, between ops.
SETUP_SAMPLES = 15
SETUP_COMMAND = [sys.executable, "-c", "import hrrc.cli"]

# Seconds between two samples of the pace reference, at the least: samples
# are taken between ops.
PACE_PERIOD_S = 0.1

# Summed per op kind into these end-to-end metrics.
KIND_METRIC = {
    "solve": "solve_s",
    "check": "check_s",
    "check_unstable": "check_unstable_s",
    "brute": "brute_s",
    "reduce": "reduce_s",
    "decode": "decode_s",
    "sat": "sat_s",
}


class Pace:
    """Times fixed reference work between ops, to gauge the machine's speed.

    The work is the benchmark's own reference code, which shares nothing with
    the package: the checker, deferred acceptance and truth tables on fixed
    inputs, a few milliseconds of dict, list and string work like the
    package's.  Samples fall on a fixed time grid, so their mean meets the
    same mix of fast and slow periods as the run's ops.
    """

    def __init__(self) -> None:
        rng = random.Random(inputs.SMOKE_SEED)
        doc = inputs.gamma1_doc(rng, 120)
        self.text = json.dumps(doc)
        self.pairs = inputs.random_feasible(rng, doc)
        self.formulas = [
            (f.num_vars, [list(c) for c in f.clauses]) for f in list(all_ppn_formulas(3))[:24]
        ]
        self.samples: list[float] = []
        self.due = 0.0

    def work(self) -> None:
        doc = json.loads(self.text)
        inputs.check_report(doc, self.pairs)
        inputs.matching_text(inputs.da_matching(doc))
        for num_vars, clauses in self.formulas:
            inputs.least_model(num_vars, clauses)

    def tick(self) -> None:
        """Take a sample if one is due.  Only the second of two runs of the
        work is timed, so that the op before it, which left other code and
        data in the processor's caches, does not change the sample; and the
        collector is off while it runs, so that the op's garbage does not."""
        if perf_counter() >= self.due:
            self.work()
            gc.disable()
            start = perf_counter()
            self.work()
            self.samples.append(perf_counter() - start)
            gc.enable()
            self.due = start + PACE_PERIOD_S


def _check(op: dict, result, exc, verifier: ops_mod.Verifier, failures: list[str]) -> int:
    """1 if the op's output is wrong, else 0; the first failures are kept."""
    problem = f"raised {exc!r}" if exc is not None else verifier.verify(op, result)
    if problem is None:
        return 0
    if len(failures) < 20:
        failures.append(f"{op['id']} {op.get('argv', op.get('cnf'))}: {problem}")
    return 1


def run_passes(
    op_list: list[dict], seconds: float, verifier: ops_mod.Verifier, failures: list[str],
    pace: Pace,
) -> dict:
    """Run the op list over and over until ``seconds`` are up, at least once.

    The last pass may stop part-way, so that the whole run is measured.
    Each metric sums, over its ops, the mean time of the op over the run.  A
    mean rather than a median: the machine alternates between a fast and a
    slow state for seconds at a time, and a median follows whichever state
    held most of the run while a mean weighs both by their share.  Set-up
    samples are taken between ops, spread over the run, so that they meet
    the same mix of machine states as the ops.
    """
    times: list[list[float]] = [[] for _ in op_list]
    setup: list[float] = []
    pending: list[tuple] = []
    failed = 0
    # One untimed start first, so that every sample finds the bytecode cache.
    subprocess.run(SETUP_COMMAND, check=True)
    began = perf_counter()
    ran = 0
    while ran < len(op_list) or perf_counter() - began < seconds:
        due = len(setup) * seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and perf_counter() - began >= due:
            start = perf_counter()
            subprocess.run(SETUP_COMMAND, check=True)
            setup.append(perf_counter() - start)
        k = ran % len(op_list)
        pace.tick()
        # Every op starts with no garbage left by others, as in a fresh hrrc
        # process: the collector's pauses inside it come from its own work.
        gc.collect()
        elapsed, result, exc = ops_mod.run(op_list[k])
        times[k].append(elapsed)
        pending.append((op_list[k], result, exc))
        ran += 1
        # Outputs are checked at the end of a pass, in one go.
        if ran % len(op_list) == 0 or perf_counter() - began >= seconds:
            failed += sum(_check(*item, verifier, failures) for item in pending)
            pending = []
    means = [statistics.fmean(t) for t in times]
    metrics = dict.fromkeys(KIND_METRIC.values(), 0.0)
    for op, mean in zip(op_list, means):
        if op["kind"] in KIND_METRIC:
            metrics[KIND_METRIC[op["kind"]]] += mean
    metrics["wall_s"] = sum(means)
    return {"metrics": metrics, "setup": setup, "attempted": ran, "failed": failed,
            "passes": ran / len(op_list), "measured_s": sum(map(sum, times))}


def main(argv: list[str]) -> int:
    ops_path, seconds, traced = Path(argv[0]), float(argv[1]), argv[2] == "1"
    manifest = json.loads(ops_path.read_text(encoding="utf-8"))
    os.chdir(ops_path.parent)
    op_list = manifest["ops"]
    verifier = ops_mod.Verifier(ops_mod.load_digests())
    # Warm-up: the smoke slice touches every code path once before timing.
    for op in op_list:
        if op.get("smoke"):
            ops_mod.run(op)
    # Long-lived state (modules, op list, digests) leaves the collector's view.
    gc.collect()
    gc.freeze()
    failures: list[str] = []
    out: dict = {"ops": len(op_list), "failures": failures}
    pace = Pace()
    pace.work()
    if traced:
        out.update(run_traced(op_list, seconds, verifier, failures, pace, ops_path))
    else:
        out.update(run_passes(op_list, seconds, verifier, failures, pace))
    out["pace"] = pace.samples
    out["digest_checked"] = verifier.digest_checked
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def run_traced(
    op_list: list[dict], seconds: float, verifier: ops_mod.Verifier, failures: list[str],
    pace: Pace, ops_path: Path,
) -> dict:
    """Traced passes, at least one, while another fits in ``seconds``.

    Each op runs twice in a row, once untraced and once traced, in an order
    that alternates from op to op and from pass to pass.  The two runs of an
    op meet the same machine state, so their difference is the tracing
    overhead.  Spans are written once, at the end.
    """
    tracer = Tracer()
    tracer.install()
    passes = []
    began = perf_counter()
    while not passes or perf_counter() - began + (perf_counter() - began) / len(passes) <= seconds:
        first = len(tracer.spans)
        sample = {"plain_s": 0.0, "traced_s": 0.0}
        results = []
        for k, op in enumerate(op_list):
            for traced in ((False, True) if (k + len(passes)) % 2 else (True, False)):
                pace.tick()
                gc.collect()
                tracer.enabled = traced
                elapsed, result, exc = ops_mod.run(op)
                tracer.enabled = False
                sample["traced_s" if traced else "plain_s"] += elapsed
                results.append((op, result, exc))
        sample["layers"] = layer_totals(tracer.spans, first)
        sample["failed"] = sum(_check(*item, verifier, failures) for item in results)
        passes.append(sample)
    tracer.uninstall()
    tracer.write(ops_path.with_name("spans.jsonl"))
    return {"traced": passes, "attempted": 2 * len(op_list) * len(passes),
            "failed": sum(s["failed"] for s in passes)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
