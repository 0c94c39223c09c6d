"""Command-line frontend.

Subcommands: classify, solve, check, brute, reduce, decode.  Exit codes are
the machine contract: 0 for a positive verdict, 1 for a negative one (no
matching exists / not strongly stable / unsatisfiable), 2 for usage or input
errors, for instances the solver cannot decide, and for internal failures
(an exception the program did not expect is reported on one ``error:`` line
and never read as a negative verdict).

``main`` builds its argument parser on its first call and reuses it on every
later call in the same process; building the subcommand tree costs far more
than parsing one command line.  A one-shot ``hrrc`` process builds one parser
as before, and importing this module builds none.  Callers that run ``main``
many times in one process (scripts, tests, benchmark clients) build it once.

Two readers share that one definition of the command line.  A plain line is
read by ``_plain_args`` from a table taken off the parser: a subcommand, then
tokens that are each an exact option string of it, the one value after an
option that takes a value, or a positional, where no value or positional
starts with ``-``; every positional present, every required option given, and
every value passing its action's ``type`` and ``choices``.  On such a line the
result equals ``parse_args``'s, at about a tenth of its cost, which on the
small instances of the reductions is a large share of a whole call.  Every
other line goes to argparse, which alone prints help and usage errors and
reads ``--opt=value``, abbreviations, ``--`` and negative numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exhaustive, poly_solvers, reductions, stability
from .model import (
    FOUND,
    NONE_EXISTS,
    Assignment,
    Instance,
    InstanceError,
    SolveOutcome,
    classify,
    instance_to_doc,
    load_instance,
    load_matching,
    matching_to_doc,
    save_instance,
    save_matching,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from exc


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_classify(args: argparse.Namespace) -> int:
    cls = classify(load_instance(_read(args.instance)))
    if args.json:
        _emit_json(
            {"alpha": cls.alpha, "beta": cls.beta, "gamma": cls.gamma, "disjoint": cls.disjoint}
        )
    else:
        print(str(cls))
    return EXIT_OK


def _report_outcome(outcome: SolveOutcome, args: argparse.Namespace) -> int:
    if args.json:
        payload: dict = {"status": outcome.status}
        if outcome.matching is not None:
            payload["matching"] = matching_to_doc(outcome.matching)
        if outcome.reason is not None:
            payload["reason"] = outcome.reason
        _emit_json(payload)
    else:
        text = save_matching(outcome.matching) if outcome.matching is not None else None
        out = getattr(args, "out", None)
        # Write the document first: a failed write must not follow a verdict.
        if text is not None and out:
            _write(out, text)
        print(outcome.status)
        if text is not None and not out:
            print(text, end="")
        elif outcome.reason:
            print(outcome.reason, file=sys.stderr)
    if outcome.is_found:
        return EXIT_OK
    return EXIT_NEGATIVE if outcome.status == NONE_EXISTS else EXIT_ERROR


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.json and args.out:
        raise InstanceError("--json cannot be combined with --out")
    instance = load_instance(_read(args.instance))
    if args.algorithm == "auto":
        outcome = poly_solvers.dispatch(instance, brute_limit=args.brute_limit)
    else:
        outcome = poly_solvers.solve(instance, args.algorithm)
    return _report_outcome(outcome, args)


def _cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(_read(args.instance))
    matching = load_matching(_read(args.matching))
    checked = stability.report(instance, matching)
    if checked.violations:
        raise InstanceError("assignment is not a matching: " + "; ".join(checked.violations))
    feasible, stable = checked.feasible, checked.strongly_stable
    bps, sbps = checked.blocking_pairs, checked.strong_blocking_pairs
    if args.json:
        conditions = stability.witness_conditions
        _emit_json(
            {
                "feasible": feasible,
                "strongly_stable": stable,
                "blocking_pairs": [[r, h] for r, h in bps],
                "strong_blocking_pairs": [
                    {"resident": r, "hospital": h, "conditions": conditions(moves, displaced)}
                    for r, h, moves, displaced in sbps
                ],
            }
        )
    else:
        # One write for the whole report: a report can run to thousands of lines.
        lines = [f"feasible: {'yes' if feasible else 'no'}", f"blocking pairs: {len(bps)}"]
        lines += [f"  ({r}, {h})" for r, h in bps]
        if feasible:
            lines.append(f"strong blocking pairs: {len(sbps)}")
            # witness_conditions joined by ", ", one shape per branch: this
            # loop runs once per strong blocking pair.
            for r, h, moves, displaced in sbps:
                if displaced is None:
                    lines.append(f"  ({r}, {h}) via move-feasible")
                elif moves:
                    lines.append(
                        f"  ({r}, {h}) via preferred-over-assignee({displaced}), move-feasible"
                    )
                else:
                    lines.append(f"  ({r}, {h}) via preferred-over-assignee({displaced})")
        lines.append(f"strongly stable: {'yes' if stable else 'no'}")
        print("\n".join(lines))
    return EXIT_OK if stable else EXIT_NEGATIVE


def _cmd_brute(args: argparse.Namespace) -> int:
    instance = load_instance(_read(args.instance))
    size = len(instance.residents) + len(instance.hospitals)
    if size > args.limit and not args.force:
        print(
            f"instance has {size} agents, above the brute-force cap of {args.limit}; "
            "pass --force to search anyway",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if args.all:
        matchings = sorted(
            exhaustive.strongly_stable_set(instance), key=lambda m: m.sorted_pairs()
        )
        if args.json:
            _emit_json(
                {
                    "status": FOUND if matchings else NONE_EXISTS,
                    "count": len(matchings),
                    "matchings": [matching_to_doc(m) for m in matchings],
                }
            )
        else:
            print(f"strongly stable matchings: {len(matchings)}")
            for m in matchings:
                print(json.dumps(matching_to_doc(m)))
        return EXIT_OK if matchings else EXIT_NEGATIVE
    return _report_outcome(exhaustive.exists_strongly_stable(instance), args)


def _reduced_instance(formula: reductions.CnfFormula, args: argparse.Namespace) -> tuple[
    reductions.CnfFormula,
    dict[int, int] | None,
    Instance,
    reductions.OccurrenceTable | None,
]:
    """The formula the instance encodes, ``to_ppn``'s origins if it normalized
    ``formula``, the instance and its occurrence table."""
    variant = reductions.ReductionVariant(args.target)
    if variant is reductions.ReductionVariant.ONE_IN_THREE_222:
        if args.normalize_ppn:
            raise InstanceError("--normalize-ppn applies only to ppn-* targets")
        return formula, None, reductions.reduce_oneinthree(formula), None
    origins = None
    if args.normalize_ppn:
        formula, origins = reductions.to_ppn(formula)
    instance, table = reductions.reduce_ppn(formula, variant)
    return formula, origins, instance, table


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.json and (args.out or args.occurrences):
        raise InstanceError("--json cannot be combined with --out or --occurrences")
    if args.occurrences and args.target == reductions.ReductionVariant.ONE_IN_THREE_222.value:
        raise InstanceError("--occurrences applies only to ppn-* targets")
    formula = reductions.parse_dimacs(_read(args.cnf))
    _formula, _origins, instance, table = _reduced_instance(formula, args)
    if args.json:
        payload = {"instance": instance_to_doc(instance)}
        if table is not None:
            payload["occurrences"] = table.to_doc()
        _emit_json(payload)
        return EXIT_OK
    text = save_instance(instance)
    # Write the sidecar first: a failed write must not follow a printed instance.
    if args.occurrences:
        _write(args.occurrences, json.dumps(table.to_doc(), indent=2) + "\n")
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    original = reductions.parse_dimacs(_read(args.cnf))
    formula, origins, instance, _table = _reduced_instance(original, args)
    matching = load_matching(_read(args.matching))
    if not stability.is_strongly_stable(instance, matching):
        print("matching is not strongly stable on the reduced instance", file=sys.stderr)
        return EXIT_NEGATIVE
    variant = reductions.ReductionVariant(args.target)
    assignment = reductions.decode_matching(formula, matching, variant)
    if origins is not None:
        assignment = reductions.from_ppn(assignment, origins, original.num_vars)
    if args.json:
        _emit_json({"assignment": {str(i): assignment[i] for i in sorted(assignment)}})
    else:
        print(" ".join(f"x{i}={int(assignment[i])}" for i in sorted(assignment)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrrc",
        description="Strong stability under regional caps: check, solve, reduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the instance's parameter class")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="find a strongly stable matching or report none exists")
    p.add_argument("instance")
    p.add_argument(
        "--algorithm",
        choices=["auto", *poly_solvers.ALGORITHMS],
        default="auto",
    )
    p.add_argument("--brute-limit", type=int, default=poly_solvers.DEFAULT_BRUTE_LIMIT)
    p.add_argument("--out", help="write a found matching document here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="report feasibility and (strong) blocking pairs")
    p.add_argument("instance")
    p.add_argument("matching")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("brute", help="exhaustively decide existence on a small instance")
    p.add_argument("instance")
    p.add_argument("--all", action="store_true", help="list every strongly stable matching")
    p.add_argument("--force", action="store_true", help="ignore the size cap")
    p.add_argument("--limit", type=int, default=poly_solvers.DEFAULT_BRUTE_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_brute)

    targets = [v.value for v in reductions.ReductionVariant]

    p = sub.add_parser("reduce", help="translate a DIMACS CNF into a matching instance")
    p.add_argument("cnf")
    p.add_argument("--target", choices=targets, required=True)
    p.add_argument(
        "--normalize-ppn",
        action="store_true",
        help="rewrite the formula into 2-positive/1-negative shape first",
    )
    p.add_argument("--out", help="write the instance document here instead of stdout")
    p.add_argument("--occurrences", help="write the occurrence-table sidecar here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("decode", help="read a satisfying assignment off a matching")
    p.add_argument("cnf")
    p.add_argument("matching")
    p.add_argument("--target", choices=targets, required=True)
    p.add_argument("--normalize-ppn", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    return parser


def _plain_table(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Per subcommand of ``parser``: its positional actions, its options that
    store a constant or one value by option string, the namespace every line
    of it starts from, and its required options."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in subparsers.choices.items():
        options = {
            string: action
            for action in sub._actions
            if isinstance(action, argparse._StoreConstAction)
            or (isinstance(action, argparse._StoreAction) and action.nargs is None)
            for string in action.option_strings
        }
        defaults = {
            subparsers.dest: name,
            **sub._defaults,
            **{a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS},
        }
        table[name] = (
            [a for a in sub._actions if not a.option_strings],
            options,
            defaults,
            {a for a in options.values() if a.required},
        )
    return table


def _plain_value(action: argparse.Action, token: str) -> object:
    """``token`` as ``action`` stores it; ValueError if it starts with ``-``
    or is not among the action's choices, and whatever its ``type`` raises."""
    if token.startswith("-"):
        raise ValueError(token)
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(token)
    return value


def _plain_args(argv: list[str], table: dict[str, tuple]) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, if ``argv`` is a plain line
    (see the module docstring); None for any other line."""
    entry = table.get(argv[0]) if argv else None
    if entry is None:
        return None
    positionals, options, defaults, required = entry
    values = dict(defaults)
    given: list[str] = []
    seen = set()
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            action = options.get(token)
            if action is None:
                if token.startswith("-"):
                    return None
                given.append(token)
                continue
            seen.add(action)
            # An option that ends the line reads "-" as its value, which fails.
            values[action.dest] = (
                action.const if action.nargs == 0 else _plain_value(action, next(tokens, "-"))
            )
        if len(given) != len(positionals) or not required <= seen:
            return None
        for action, token in zip(positionals, given):
            values[action.dest] = _plain_value(action, token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values)


# The shared parser and the reader's table taken off it, in one slot: a reset
# of the slot resets both.
_shared_parser: tuple[argparse.ArgumentParser, dict[str, tuple]] | None = None


def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The parser ``main`` uses and its plain-line table, built on first call;
    parsing does not mutate either."""
    global _shared_parser
    if _shared_parser is None:
        parser = build_parser()
        _shared_parser = parser, _plain_table(parser)
    return _shared_parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, table = _parser()
    args = _plain_args(argv, table)
    if args is None:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # input errors, InstanceError and DimacsError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # exit 1 is a verdict; a crash must not read as one
        import traceback

        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
