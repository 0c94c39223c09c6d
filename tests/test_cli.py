"""End-to-end runs of the command-line frontend."""

from __future__ import annotations

import importlib.util
import io
import json
import random
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hrrc import cli
from hrrc.cli import main
from hrrc.exhaustive import enumerate_feasible
from hrrc.model import example_g2, load_matching, save_instance, save_matching
from hrrc.model import Assignment
from hrrc.stability import is_strongly_stable

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture()
def g2_file(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(save_instance(example_g2()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys, g2_file):
    code, out, _ = run(capsys, "classify", g2_file)
    assert code == 0
    assert "alpha=2" in out
    code, out, _ = run(capsys, "classify", g2_file, "--json")
    assert json.loads(out) == {"alpha": 2, "beta": 2, "gamma": 2, "disjoint": True}


def test_solve_g2_reports_none_exists(capsys, g2_file):
    code, out, _ = run(capsys, "solve", g2_file)
    assert code == 1
    assert "none-exists" in out


def test_solve_writes_matching_document(capsys, tmp_path):
    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(example_g2(), regions=(Region(frozenset({"h1", "h2"}), 2),))
    inst_path = tmp_path / "cap2.json"
    inst_path.write_text(save_instance(cap2))
    out_path = tmp_path / "matching.json"
    code, out, _ = run(capsys, "solve", str(inst_path), "--out", str(out_path))
    assert code == 0
    matching = load_matching(out_path.read_text())
    assert matching == Assignment.of([("r1", "h1"), ("r2", "h2")])

    code, out, _ = run(capsys, "solve", str(inst_path), "--json")
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["matching"]["pairs"] == [["r1", "h1"], ["r2", "h2"]]


def test_solve_explicit_algorithm_and_precondition_error(capsys, g2_file):
    code, _, err = run(capsys, "solve", g2_file, "--algorithm", "alg1")
    assert code == 2
    assert "gamma" in err
    code, out, _ = run(capsys, "solve", g2_file, "--algorithm", "alg5")
    assert code == 1
    code, out, _ = run(capsys, "solve", g2_file, "--algorithm", "brute")
    assert code == 1


def test_check_exit_codes(capsys, tmp_path, g2_file):
    m_path = tmp_path / "m.json"
    m_path.write_text(save_matching(Assignment.of([("r1", "h1")])))
    code, out, _ = run(capsys, "check", g2_file, str(m_path))
    assert code == 1
    assert "strongly stable: no" in out

    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(example_g2(), regions=(Region(frozenset({"h1", "h2"}), 2),))
    inst_path = tmp_path / "cap2.json"
    inst_path.write_text(save_instance(cap2))
    good = tmp_path / "good.json"
    good.write_text(save_matching(Assignment.of([("r1", "h1"), ("r2", "h2")])))
    code, out, _ = run(capsys, "check", str(inst_path), str(good))
    assert code == 0
    code, out, _ = run(capsys, "check", str(inst_path), str(good), "--json")
    payload = json.loads(out)
    assert payload["strongly_stable"] is True
    assert payload["blocking_pairs"] == []


def test_check_reports_conditions(capsys, tmp_path, g2_file):
    m_path = tmp_path / "m.json"
    m_path.write_text(save_matching(Assignment.of([("r1", "h1")])))
    code, out, _ = run(capsys, "check", g2_file, str(m_path), "--json")
    payload = json.loads(out)
    assert payload["strong_blocking_pairs"] == [
        {
            "resident": "r2",
            "hospital": "h1",
            "conditions": ["preferred-over-assignee(r1)"],
        }
    ]


def test_check_rejects_non_matching(capsys, tmp_path, g2_file):
    m_path = tmp_path / "bad.json"
    m_path.write_text(save_matching(Assignment.of([("r1", "h1"), ("r1", "h2")])))
    code, _, err = run(capsys, "check", g2_file, str(m_path))
    assert code == 2
    assert "not a matching" in err


def test_brute_size_cap_and_force(capsys, g2_file):
    code, _, err = run(capsys, "brute", g2_file, "--limit", "2")
    assert code == 2
    assert "--force" in err
    code, out, _ = run(capsys, "brute", g2_file, "--limit", "2", "--force")
    assert code == 1


def test_brute_all_lists_matchings(capsys, tmp_path):
    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(example_g2(), regions=(Region(frozenset({"h1", "h2"}), 2),))
    inst_path = tmp_path / "cap2.json"
    inst_path.write_text(save_instance(cap2))
    code, out, _ = run(capsys, "brute", str(inst_path), "--all", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] >= 1


def test_reduce_then_brute_roundtrip(capsys, tmp_path):
    cnf = tmp_path / "clause.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "reduce", str(cnf), "--target", "one-in-three-222")
    assert code == 0
    inst_path = tmp_path / "reduced.json"
    inst_path.write_text(out)
    code, out, _ = run(capsys, "brute", str(inst_path), "--force")
    assert code == 0


def test_readme_round_trip_runs_as_shown(capsys, tmp_path, monkeypatch):
    block = README.read_text().split("A round trip through the reductions:\n\n```\n", 1)[1]
    # A "$ " line is a command; the lines up to the next one are what it prints.
    steps: list[tuple[list[str], list[str]]] = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        else:
            steps[-1][1].append(line)
    assert len(steps) > 1
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        expected = "".join(line + "\n" for line in shown)
        if argv[0] == "cat":
            Path(argv[1]).write_text(expected)
            continue
        assert argv[0] == "hrrc"
        assert run(capsys, *argv[1:]) == (0, expected, ""), argv


def test_readme_library_quick_start_runs_as_shown():
    block = README.read_text().split("## Library quick start\n\n```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    # Each "code  # comment" line below the imports states what the code gives.
    shown = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep:
            shown[code.strip()] = comment.strip()
    assert shown["classify(g2)"] == str(eval("classify(g2)", namespace))
    assert shown["dispatch(g2).status"] == repr(eval("dispatch(g2).status", namespace))
    assert shown["strongly_stable_set(g2)"] == "set(): all five feasible matchings are blocked"
    assert eval("strongly_stable_set(g2)", namespace) == set()
    assert len(list(enumerate_feasible(namespace["g2"]))) == 5


def test_reduce_ppn_writes_sidecar(capsys, tmp_path):
    cnf = tmp_path / "ppn.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n")
    out_path = tmp_path / "inst.json"
    occ_path = tmp_path / "occ.json"
    code, _, _ = run(
        capsys,
        "reduce", str(cnf), "--target", "ppn-223",
        "--out", str(out_path), "--occurrences", str(occ_path),
    )
    assert code == 0
    occ = json.loads(occ_path.read_text())
    assert {v["variable"] for v in occ["variables"]} == {1, 2, 3}
    assert out_path.exists()


def test_reduce_normalize_ppn_accepts_plain_3sat(capsys, tmp_path):
    cnf = tmp_path / "raw.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run(capsys, "reduce", str(cnf), "--target", "ppn-223", "--normalize-ppn", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "instance" in payload and "occurrences" in payload
    # Without normalization the same file is rejected.
    code, _, err = run(capsys, "reduce", str(cnf), "--target", "ppn-223")
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["reduce", "ppn.cnf", "--target", "ppn-223", "--json", "--out", "i.json",
          "--occurrences", "o.json"], "--json cannot be combined with --out or --occurrences"),
        (["reduce", "ppn.cnf", "--target", "ppn-223", "--json", "--occurrences", "o.json"],
         "--json cannot be combined with --out or --occurrences"),
        (["reduce", "clause.cnf", "--target", "one-in-three-222", "--json", "--out", "i.json"],
         "--json cannot be combined with --out or --occurrences"),
        (["solve", "cap2.json", "--json", "--out", "m.json"],
         "--json cannot be combined with --out"),
        (["reduce", "clause.cnf", "--target", "one-in-three-222", "--occurrences", "o.json"],
         "--occurrences applies only to ppn-* targets"),
        (["reduce", "clause.cnf", "--target", "one-in-three-222", "--out", "i.json",
          "--occurrences", "o.json"], "--occurrences applies only to ppn-* targets"),
    ],
    ids=[
        "reduce-json-out-occurrences",
        "reduce-json-occurrences",
        "reduce-json-out",
        "solve-json-out",
        "one-in-three-occurrences",
        "one-in-three-out-occurrences",
    ],
)
def test_unwritable_output_combinations_are_rejected_before_any_output(
    capsys, tmp_path, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    Path("ppn.cnf").write_text("p cnf 3 3\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n")
    Path("clause.cnf").write_text("p cnf 3 1\n1 2 3 0\n")
    _cap2_file(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not any(Path(name).exists() for name in ("i.json", "o.json", "m.json"))


def test_reduce_unwritable_sidecar_prints_nothing(capsys, tmp_path):
    cnf = tmp_path / "ppn.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n")
    missing = str(tmp_path / "missing" / "o.json")
    code, out, err = run(capsys, "reduce", str(cnf), "--target", "ppn-223", "--occurrences", missing)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


def test_decode_full_chain(capsys, tmp_path):
    import hrrc.reductions as red
    from hrrc.exhaustive import exists_strongly_stable

    cnf = tmp_path / "ppn.cnf"
    cnf.write_text("p cnf 3 3\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n")
    formula = red.parse_dimacs(cnf.read_text())
    inst, _ = red.reduce_ppn(formula, red.ReductionVariant.PPN_322)
    found = exists_strongly_stable(inst).matching
    m_path = tmp_path / "found.json"
    m_path.write_text(save_matching(found))
    code, out, _ = run(capsys, "decode", str(cnf), str(m_path), "--target", "ppn-322", "--json")
    assert code == 0
    assignment = {int(k): v for k, v in json.loads(out)["assignment"].items()}
    assert red.satisfies(formula, assignment)


def test_decode_normalize_ppn_reads_original_variables(capsys, tmp_path):
    import hrrc.reductions as red

    cnf, inst_path, m_path = tmp_path / "raw.cnf", tmp_path / "inst.json", tmp_path / "m.json"

    def decoded(text, target, matching_text=None):
        cnf.write_text(text)
        argv = ["--target", target, "--normalize-ppn"]
        assert run(capsys, "reduce", str(cnf), *argv, "--out", str(inst_path))[0] == 0
        if matching_text is None:
            code, out, _ = run(capsys, "brute", str(inst_path), "--force")
            assert code == 0 and out.startswith("found\n")
            matching_text = out.split("\n", 1)[1]
        m_path.write_text(matching_text)
        code, out, _ = run(capsys, "decode", str(cnf), str(m_path), *argv)
        assert code == 0
        values = dict(item.split("=") for item in out.split())
        formula = red.parse_dimacs(text)
        assert list(values) == [f"x{i}" for i in range(1, formula.num_vars + 1)]
        assignment = {int(k[1:]): v == "1" for k, v in values.items()}
        assert red.satisfies(formula, assignment)
        return assignment

    assert decoded("p cnf 2 2\n1 2 0\n-1 2 0\n", "ppn-322") == {1: False, 2: True}
    # A unit clause pads the normalized formula; this ppn-223 image ran past
    # 90 s before the oracle learned to backjump.
    assert decoded("p cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n", "ppn-223") == {1: True, 2: True, 3: False}
    # A unit clause adds padding variables and x3 occurs nowhere; the witness
    # is the encoded least model of the normalized formula.
    text = "p cnf 3 2\n-1 0\n1 2 0\n"
    normalized, _origins = red.to_ppn(red.parse_dimacs(text))
    for variant in red.ReductionVariant:
        if variant is red.ReductionVariant.ONE_IN_THREE_222:
            continue
        witness = red.encode_assignment(normalized, red.sat_brute(normalized), variant)
        assignment = decoded(text, variant.value, save_matching(witness))
        assert assignment == {1: False, 2: True, 3: False}


def test_decode_rejects_unstable_matching(capsys, tmp_path):
    cnf = tmp_path / "clause.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    m_path = tmp_path / "empty.json"
    m_path.write_text('{"pairs": []}')
    code, _, err = run(capsys, "decode", str(cnf), str(m_path), "--target", "one-in-three-222")
    assert code == 1
    assert "not strongly stable" in err


def test_usage_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "classify", missing)
    assert code == 2
    assert "error" in err


def test_solve_auto_is_byte_deterministic(capsys, g2_file):
    runs = [run(capsys, "solve", g2_file, "--json") for _ in range(3)]
    assert len({(code, out) for code, out, _ in runs}) == 1


def _cap2_file(tmp_path):
    from dataclasses import replace

    from hrrc.model import Region

    cap2 = replace(example_g2(), regions=(Region(frozenset({"h1", "h2"}), 2),))
    path = tmp_path / "cap2.json"
    path.write_text(save_instance(cap2))
    return str(path)


def test_solve_out_to_missing_directory_is_an_error(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "m.json")
    code, out, err = run(capsys, "solve", _cap2_file(tmp_path), "--out", missing)
    assert code == 2
    assert err.startswith("error: cannot write")
    assert out == ""  # no verdict precedes the failure


def test_failed_certificate_exits_2(capsys, tmp_path, monkeypatch):
    import hrrc.stability as stability

    monkeypatch.setattr(stability, "is_strongly_stable", lambda *a, **k: False)
    code, out, err = run(capsys, "solve", _cap2_file(tmp_path))
    assert code == 2
    assert err.startswith("error: internal error: RuntimeError")
    assert "solve_222_disjoint produced a matching that is not strongly stable" in err
    assert "Traceback" in err  # kept for diagnosis, after the error line
    assert out == ""


@pytest.mark.parametrize(
    ("algorithm", "solver"),
    [
        ("alg1", "solve_regions_size1"),
        ("alg2", "solve_res_len1"),
        ("alg3", "solve_hosp_len1"),
        ("alg4", "solve_2x2_free"),
        ("alg5", "solve_222_disjoint"),
        ("brute", "exists_strongly_stable"),
    ],
)
def test_explicit_algorithms_are_certified(capsys, tmp_path, monkeypatch, algorithm, solver):
    import hrrc.stability as stability
    from hrrc.model import make_instance

    single = make_instance(residents=[("r", ["h"])], hospitals=[("h", 1, ["r"])])
    path = tmp_path / "single.json"
    path.write_text(save_instance(single))
    code, out, _ = run(capsys, "solve", str(path), "--algorithm", algorithm)
    assert (code, out) == (0, "found\n" + save_matching(Assignment.of([("r", "h")])))

    monkeypatch.setattr(stability, "is_strongly_stable", lambda *a, **k: False)
    code, out, err = run(capsys, "solve", str(path), "--algorithm", algorithm)
    assert code == 2
    assert f"{solver} produced a matching that is not strongly stable" in err
    assert out == ""


def test_brute_force_decides_a_deep_instance(capsys, tmp_path):
    from hrrc.model import make_instance

    n = 1500
    deep = make_instance(
        residents=[(f"r{i}", [f"h{i}"]) for i in range(n)],
        hospitals=[(f"h{i}", 1, [f"r{i}"]) for i in range(n)],
    )
    path = tmp_path / "deep.json"
    path.write_text(save_instance(deep))
    code, out, err = run(capsys, "brute", str(path), "--force")
    assert code == 0
    expected = Assignment.of((f"r{i}", f"h{i}") for i in range(n))
    assert out == "found\n" + save_matching(expected)
    assert err == ""


@pytest.fixture()
def parser_builds(monkeypatch):
    """How many parsers ``main`` builds from here on, starting with none shared."""
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "_shared_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


def test_main_builds_one_parser_per_process(capsys, g2_file, parser_builds):
    for argv in (["classify", g2_file], ["solve", g2_file], ["brute", g2_file]):
        run(capsys, *argv)
    assert len(parser_builds) == 1
    fresh = cli.build_parser()
    assert fresh is not cli.build_parser() and fresh is not cli._parser()[0]


def test_reused_parser_leaks_no_option(capsys, tmp_path, g2_file, parser_builds):
    from hrrc.model import make_instance

    cap2 = _cap2_file(tmp_path)
    code, out, _ = run(capsys, "solve", cap2, "--json")
    assert code == 0 and json.loads(out)["status"] == "found"
    code, out, _ = run(capsys, "solve", cap2)
    expected = save_matching(Assignment.of([("r1", "h1"), ("r2", "h2")]))
    assert (code, out) == (0, "found\n" + expected)

    code, out, err = run(capsys, "brute", g2_file, "--limit", "2")
    assert (code, out) == (2, "")
    assert "above the brute-force cap of 2;" in err
    code, out, err = run(capsys, "brute", g2_file)
    assert (code, out, err) == (1, "none-exists\n", "")
    wide = make_instance(
        residents=[(f"r{i}", []) for i in range(7)], hospitals=[(f"h{i}", 1, []) for i in range(6)]
    )
    path = tmp_path / "wide.json"
    path.write_text(save_instance(wide))
    code, _, err = run(capsys, "brute", str(path))
    assert code == 2
    assert "instance has 13 agents, above the brute-force cap of 12;" in err
    assert len(parser_builds) == 1


def test_reused_parser_survives_a_usage_error(capsys, g2_file, parser_builds):
    with pytest.raises(SystemExit) as exc:
        main(["solve", g2_file, "--algorithm", "nope"])
    assert exc.value.code == 2
    first_err = capsys.readouterr().err
    assert first_err.startswith("usage: hrrc solve ")
    code, out, _ = run(capsys, "solve", g2_file)
    assert (code, out) == (1, "none-exists\n")
    with pytest.raises(SystemExit):
        main(["solve", g2_file, "--algorithm", "nope"])
    assert capsys.readouterr().err == first_err
    assert len(parser_builds) == 1


def test_unreadable_paths_name_the_real_fault(capsys, tmp_path, g2_file):
    code, out, err = run(capsys, "check", g2_file, "")
    assert (code, out) == (2, "")
    assert err == "error: cannot read : [Errno 2] No such file or directory: ''\n"
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def _argparse_vars(parser, argv):
    """``vars(parser.parse_args(argv))``, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _assert_plain(argv):
    """The plain reader takes ``argv`` and agrees with argparse on it."""
    parser, table = cli._parser()
    args = cli._plain_args(argv, table)
    assert args is not None, argv
    assert vars(args) == _argparse_vars(parser, argv), argv


# Values, positionals and stray tokens: ints argparse's ``int`` reads or
# refuses, bad choices, and tokens only argparse reads (negative numbers,
# "-", "--", help).
ODD_TOKENS = [
    "7", "0", "0x10", " 7", "1_0", "٣", "-3", "", "-", "--", "-h", "--help",
    "nope", "auto", "ppn-223", "x y", "a=b", "solve", "--nope", "-x",
]


def _random_argv(rng, table):
    """A line built from one subcommand's positionals and options, each option
    before, between or after the positionals, then perhaps disturbed."""
    name = rng.choice(list(table))
    positionals, options, _, _ = table[name]
    groups = [[f"p{k}.json"] for k in range(len(positionals))]
    for string in rng.sample(sorted(options), rng.randint(0, len(options))):
        action = options[string]
        group = [string]
        if action.nargs != 0:
            good = action.choices or (["12", "0", " 7", "1_0"] if action.type else ["o.json"])
            group.append(rng.choice(good if rng.random() < 0.7 else ODD_TOKENS))
        if rng.random() < 0.1:
            group += group  # the option repeated
        groups.insert(rng.randint(0, len(groups)), group)
    argv = [name] + [token for group in groups for token in group]
    every_option = sorted({s for entry in table.values() for s in entry[1]})
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randint(1, len(argv))
        edit = rng.randrange(5)
        if edit == 0 and at < len(argv):
            del argv[at]
        elif edit == 1:
            argv.insert(at, rng.choice(ODD_TOKENS))
        elif edit == 2:
            argv.insert(at, rng.choice(every_option))
        elif edit == 3:
            string = rng.choice(every_option)  # an abbreviation or an "=" form
            argv.insert(at, rng.choice([string[:-1], string[: len(string) // 2 + 1]])
                        if rng.random() < 0.5 else f"{string}={rng.choice(ODD_TOKENS)}")
        else:
            argv[0] = rng.choice(["solv", "nope", "", "-h", "--help", "--json"])
    return argv


def test_plain_reader_agrees_with_argparse_on_random_lines():
    rng = random.Random(26)
    parser, table = cli._parser()
    accepted = refused = 0
    kinds = set()
    for _ in range(6000):
        argv = _random_argv(rng, table)
        args = cli._plain_args(argv, table)
        expected = _argparse_vars(parser, argv)
        if args is None:
            refused += expected is None
            continue
        assert vars(args) == expected, argv
        accepted += 1
        kinds.add(argv[0])
    assert kinds == set(table) and accepted > 1000 and refused > 1000


def test_plain_reader_takes_every_benchmark_and_readme_line(tmp_path):
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    shapes = set()
    for workload in inputs.WORKLOADS:
        for op in inputs.build(workload, 0, tmp_path / workload)["ops"]:
            if "argv" in op:
                _assert_plain(op["argv"])
                shapes.add(tuple(t for t in op["argv"] if not t.endswith((".json", ".cnf"))))
    assert len(shapes) >= 8
    text = README.read_text()
    lines = [line[len("$ hrrc "):] for line in text.splitlines() if line.startswith("$ hrrc ")]
    # The synopsis, every option given: "a|b" reads as a, N as 3, ... as a target.
    synopsis = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    for line in synopsis.replace("\n      ", " ").splitlines():
        words = line.replace("[", "").replace("]", "").split()[1:]
        lines.append(" ".join(
            "3" if w == "N" else "ppn-223" if w == "..." else w.split("|")[0] for w in words
        ))
    assert len(lines) == 9
    for line in lines:
        _assert_plain(shlex.split(line))


def test_main_reads_sys_argv_on_both_paths(capsys, monkeypatch, tmp_path, g2_file):
    cnf = tmp_path / "clause.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    for argv in (
        ["solve", g2_file],
        ["reduce", str(cnf), "--target=one-in-three-222"],
        ["solve", g2_file, "--algorithm", "nope"],
    ):
        results = []
        for explicit in (True, False):
            monkeypatch.setattr(sys, "argv", ["hrrc", *argv])
            try:
                code = main(argv if explicit else None)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1], argv
        assert results[0][0] == (2 if "nope" in argv else 1 if argv[0] == "solve" else 0)
