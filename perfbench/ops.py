"""Run one benchmark op in process and check its output.

CLI ops go through ``hrrc.cli.main`` with stdout captured, exactly as the
``hrrc`` console script would run them; ``sat``, ``to_ppn`` and ``encode``
ops call the public API.  File names are relative to the workload's input
directory, the working directory of the client.  ``run`` times only the call
itself.  ``verify``
runs afterwards and returns what is wrong with the output, if anything.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs
from hrrc import cli, reductions
from hrrc.model import save_matching

DIGESTS = Path(__file__).with_name("digests.json")


def run(op: dict) -> tuple[float, object, BaseException | None]:
    """Run ``op``; return (seconds, result, exception).  The result of a CLI
    op is (exit code, stdout)."""
    kind = op["kind"]
    try:
        if "argv" in op:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = perf_counter()
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                elapsed = perf_counter() - start
            text = out.getvalue()
            if op.get("save") and code == 0:
                # brute prints its status line before the matching document.
                body = text.split("\n", 1)[1] if kind == "brute" else text
                Path(op["save"]).write_text(body, encoding="utf-8")
            return elapsed, (code, text), None
        formula = reductions.parse_dimacs(Path(op["cnf"]).read_text(encoding="utf-8"))
        if kind == "sat":
            start = perf_counter()
            result = reductions.sat_brute(formula)
            elapsed = perf_counter() - start
            if result is not None:
                result = [result[i] for i in range(1, formula.num_vars + 1)]
            return elapsed, result, None
        if kind == "to_ppn":
            start = perf_counter()
            normalized, _origins = reductions.to_ppn(formula)
            elapsed = perf_counter() - start
            text = inputs.dimacs(normalized.num_vars, normalized.clauses)
            Path(op["save"]).write_text(text, encoding="utf-8")
            return elapsed, text, None
        if kind == "encode":
            variant = reductions.ReductionVariant(op["target"])
            assignment = {i: v for i, v in enumerate(op["model"], start=1)}
            start = perf_counter()
            text = save_matching(reductions.encode_assignment(formula, assignment, variant))
            elapsed = perf_counter() - start
            Path(op["save"]).write_text(text, encoding="utf-8")
            return elapsed, text, None
        raise ValueError(f"unknown op kind {kind!r}")
    except Exception as exc:  # an op that raises counts as failed
        return 0.0, None, exc


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def digest_key(op: dict) -> str:
    """Names a CLI op by its arguments with every file replaced by its content."""
    parts = [sha(_read(a)) if Path(a).is_file() else a for a in op["argv"]]
    return sha("\0".join(parts))


def load_digests() -> dict[str, list]:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


class Verifier:
    """Checks op outputs.

    An op whose output repeats the one already checked for it gets the same
    verdict, so later passes cost one comparison per op; any other output is
    checked in full.
    """

    def __init__(self, digests: dict[str, list]):
        self.digests = digests
        self.digest_checked = 0
        self._reports: dict[str, tuple[int, str]] = {}
        self._seen: dict[str, tuple[object, str | None]] = {}

    def verify(self, op: dict, result) -> str | None:
        seen = self._seen.get(op["id"])
        if seen is not None and seen[0] == result:
            return seen[1]
        problem = self._verify(op, result)
        self._seen[op["id"]] = (result, problem)
        return problem

    def _report(self, instance: str, matching: str) -> tuple[int, str]:
        doc_text, matching_text = _read(instance), _read(matching)
        key = sha(doc_text) + sha(matching_text)
        if key not in self._reports:
            pairs = json.loads(matching_text)["pairs"]
            self._reports[key] = inputs.check_report(json.loads(doc_text), pairs)
        return self._reports[key]

    def _verify(self, op: dict, result) -> str | None:
        if "argv" not in op:
            return self._verify_api(op, result)
        code, text = result
        if code != op["exit"]:
            return f"exit {code}, expected {op['exit']}"
        if op.get("stdout") is not None and text != op["stdout"]:
            return "stdout differs from the expected text"
        how = op.get("verify")
        if how == "check":
            if (code, text) != self._report(op["argv"][1], op["argv"][2]):
                return "check output differs from the reference checker"
        elif how == "stable":
            status, _, body = text.partition("\n")
            pairs = json.loads(body)["pairs"] if status == "found" else None
            if pairs is None or body != inputs.matching_text(pairs):
                return "expected a found matching document"
            if not inputs.is_strongly_stable_matching(json.loads(_read(op["instance"])), pairs):
                return "returned matching is not strongly stable"
        elif how == "satisfies":
            num_vars, clauses = inputs.read_dimacs(_read(op["cnf"]))
            values = [tok.split("=")[1] == "1" for tok in text.split()]
            if len(values) != num_vars or not inputs.satisfies(clauses, values):
                return "decoded assignment does not satisfy the formula"
        recorded = self.digests.get(digest_key(op))
        if recorded is not None:
            self.digest_checked += 1
            if recorded != [code, sha(text)]:
                return "output differs from the digest recorded for these inputs"
        return None

    def _verify_api(self, op: dict, result) -> str | None:
        if op["kind"] == "sat":
            if "model" in op:
                if result != (None if op["model"] is None else list(op["model"])):
                    return "sat_brute did not return the least satisfying assignment"
                return None
            if (result is not None) != op["satisfiable"]:
                return "normalization changed satisfiability"
            if result is not None:
                _, clauses = inputs.read_dimacs(_read(op["cnf"]))
                if not inputs.satisfies(clauses, result):
                    return "sat_brute returned a non-satisfying assignment"
        elif op["kind"] == "to_ppn":
            if not inputs.is_ppn(*inputs.read_dimacs(result)):
                return "to_ppn output is not in PPN shape"
        return None
