"""Record digests of every CLI op's exit code and text stdout.

Usage, from the repository root:

    python3 perfbench/record_digests.py --seeds 0-15

Builds each workload's inputs for the given seeds, runs every op once, and
adds a digest for each CLI op whose output passes the reference checks to
``perfbench/digests.json``.  Digests are keyed by the op's arguments with every
file replaced by its content, so they apply to any seed whose inputs match.
The benchmark then reports any output that differs from the recorded one as a
failed op: the CLI's text output must stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
os.environ.pop("HRRC_BRUTE_LIMIT", None)

import inputs  # noqa: E402
import ops  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-15")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)

    digests = ops.load_digests()
    for workload in inputs.WORKLOADS:
        for seed in seeds:
            verifier = ops.Verifier({})
            work = ROOT / ".bench_work" / f"record-{workload}-{seed}"
            op_list = inputs.build(workload, seed, work)["ops"]
            os.chdir(work)
            for op in op_list:
                _, result, exc = ops.run(op)
                problem = repr(exc) if exc is not None else verifier.verify(op, result)
                if problem is not None:
                    print(f"{workload} seed {seed} {op['id']}: {problem}", file=sys.stderr)
                    return 1
                if "argv" in op:
                    code, text = result
                    digests[ops.digest_key(op)] = [code, ops.sha(text)]
            os.chdir(ROOT)
            print(f"{workload} seed {seed}: {len(op_list)} ops checked")
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
    ops.DIGESTS.write_text("{\n" + rows + "\n}\n", encoding="utf-8")
    print(f"{len(digests)} digests in {ops.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
