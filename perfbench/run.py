"""hrrc benchmark: CLI verdict times on three workloads, with per-layer timings.

Usage, from the repository root:

    python3 perfbench/run.py --workload tractable-gamma1 --seed 1 --seconds 36 --trace 0

Writes the workload's seeded inputs under ``.bench_work/``, then runs one
closed-loop client in a fresh process (``worker.py``) for ``--seconds``; the
client also times fresh interpreters importing ``hrrc.cli`` (set-up).  Every
op's output is checked.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Human-readable lines come first; the last line of
stdout is one JSON object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The worker stops after --seconds (or one pass); this only catches a hang.
WORKER_TIMEOUT_S = 170
# Mean time of the worker's pace reference at which times are reported; about
# its time on the 2-vCPU machine the benchmark was tuned on.  See README.md.
PACE_NOMINAL_S = 0.004


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HRRC_BRUTE_LIMIT", None)
    # Set and dict iteration order, and with it the order of some searches,
    # then stays the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _mean(samples: list[dict], key: str) -> float:
    return statistics.fmean(s[key] for s in samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/hrrc/cli.py", "tests/gen.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an hrrc checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs.build(args.workload, args.seed, work)

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "ops.json"),
         str(args.seconds), str(args.trace)],
        env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.splitlines()[-1])

    attempted, failed = out["attempted"], out["failed"]
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        traced = out["traced"]
        for name in traced[0]["layers"]:
            unit = "count" if name.endswith(".count") else "s"
            metrics[name] = (statistics.fmean(s["layers"][name] for s in traced), unit)
        rgs_s = metrics["hr_core.rgs_s"][0]
        metrics["stability.certify_per_da"] = (metrics["stability.is_strongly_stable_s"][0] / rgs_s, "ratio")
        metrics["trace.overhead_s"] = (_mean(traced, "traced_s") - _mean(traced, "plain_s"), "s")
    else:
        metrics["setup_s"] = (statistics.median(out["setup"]), "s")
        for key in ("wall_s", "solve_s", "check_s", "check_unstable_s", "brute_s",
                    "reduce_s", "decode_s", "sat_s"):
            metrics[key] = (out["metrics"][key], "s")
        metrics["peak_rss_mb"] = (out["peak_rss_mb"], "MB")

    # Times are reported at the nominal pace: scaled by how much slower than
    # nominal the reference work ran over this run.  Set-up is not: process
    # start-up did not follow the pace.
    pace = statistics.fmean(out["pace"])
    scale = PACE_NOMINAL_S / pace
    raw = {name: value for name, (value, unit) in metrics.items()
           if unit == "s" and name != "setup_s"}
    for name, value in raw.items():
        metrics[name] = (value * scale, "s")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"{out['ops']} ops per pass")
    print(f"pace: reference work took {pace * 1e3:.4f} ms on average over "
          f"{len(out['pace'])} samples; times below are scaled by {scale:.4f} "
          f"to the nominal {PACE_NOMINAL_S * 1e3:g} ms")
    if args.trace:
        for key in ("plain_s", "traced_s"):
            per_pass = " ".join(f"{s[key]:.3f}" for s in traced)
            print(f"{len(traced)} passes, {key} per pass: {per_pass}")
        print(f"tracing overhead base: untraced pass mean {_mean(traced, 'plain_s'):.4f} s, "
              f"certify_per_da base hr_core.rgs_s {metrics['hr_core.rgs_s'][0]:.6f} s")
    else:
        print(f"{out['passes']:.2f} passes through the op list, {out['measured_s']:.2f} s "
              f"inside ops; setup_s samples: {len(out['setup'])}")
    for name, (value, unit) in metrics.items():
        measured = f" (measured {raw[name]:.6g} s)" if name in raw else ""
        print(f"{name} = {value:.6g} {unit}{measured}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops failed; "
          f"{out['digest_checked']} outputs matched recorded digests)")
    for line in out["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
