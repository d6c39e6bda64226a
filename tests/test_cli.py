"""End-to-end tests of the command-line interface."""

import argparse
import io
import json
import re
import shutil
import subprocess
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opineq import checks, cli, fuzz, repro
from test_checks import OVERFLOW_UNDER_VIOLATED
from test_maps import MALFORMED_MAPS, NON_NUMBER_MAPS, STRAY_KEY_MAPS

HOLDS_INST = {"A": [[1.0, 0.0], [0.0, 2.0]],
              "B": [[4.0, 0.0], [0.0, 9.0]], "p": 0.5}
FAILS_INST = {"A": [[2.0, 1.0], [1.0, 1.0]],
              "B": [[3.0, 2.0], [2.0, 2.0]], "p": 2.0}
UNORDERED_INST = {"A": [[1.0, 0.0], [0.0, 2.0]],
                  "B": [[2.0, 0.0], [0.0, 1.0]], "p": 0.5}
MN2012_NEGATIVE_DIFF_INSTS = [
    {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[2.0, 0.0], [0.0, 0.5]], "p": 0.5},
    {"A": [[1.0, 0.0], [0.0, 0.5]], "B": [[1.0 - 5e-10, 0.0], [0.0, 3.0]], "p": 0.5},
]
DIP_INST = {"A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0 - 1e-6, 0.0], [0.0, 1.0 - 1e-6]], "p": 0.5}
# B singular, or indefinite by a rounding-level eigenvalue, relative to A
SINGULAR_WINDOW_INSTS = [
    {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 1.0]], "p": 0.5},
    {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[-1e-17, 0.0], [0.0, 1.0]], "p": 0.5},
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("OPINEQ_TOL", raising=False)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------

def test_list_prints_registry(capsys):
    assert cli.main(["list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 17
    ids = [line.split()[0] for line in lines]
    assert "reverse_monotonicity" in ids
    assert "lh_extension" in ids
    # aligned columns: every description starts at the same offset
    offsets = {line.index("  ") for line in lines if "  " in line}
    assert len({len(line[:line.find("  ")]) for line in lines}) >= 1
    assert all(len(line.split()) >= 2 for line in lines)
    assert offsets  # ids are padded, so the separator exists on each line


def test_console_script_is_wired(fresh_python):
    # Checks the entry point declared in pyproject.toml without needing an
    # install: resolve it, then run it in a fresh interpreter the way the
    # generated script does, against the same source tree this process
    # imported.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["opineq"]
    entry = EntryPoint(name="opineq", value=value, group="console_scripts")
    assert callable(entry.load())
    script = ("import sys\n"
              "from importlib.metadata import EntryPoint\n"
              f"sys.exit(EntryPoint('opineq', {value!r}, 'console_scripts')"
              ".load()())\n")
    proc = fresh_python("-c", script, "list")
    assert proc.returncode == 0, proc.stderr
    assert "info_monotonicity" in proc.stdout


@pytest.mark.skipif(shutil.which("opineq") is None,
                    reason="opineq console script not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(["opineq", "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "info_monotonicity" in proc.stdout


# ----------------------------------------------------------------------
# the parser: built once per process, subcommands looked up per call
# ----------------------------------------------------------------------

def test_main_builds_the_parser_once(monkeypatch, capsys):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    for _ in range(5):
        assert cli.main(["list"]) == cli.EXIT_OK
    assert len(built) == 1
    assert cli._parser is built[0]
    capsys.readouterr()


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_main_runs_the_subcommand_patched_after_a_first_call(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    argv = ["eval", "--check", "lowner_heinz", "--input", path]
    assert cli.main(argv) == cli.EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.check) or 42)
    assert cli.main(argv) == 42
    assert seen == ["lowner_heinz"]
    capsys.readouterr()


def test_repeated_eval_prints_the_bytes_of_a_fresh_process(tmp_path, capsys, fresh_python):
    path = _write(tmp_path, "inst.json", FAILS_INST)
    argv = ["eval", "--check", "lowner_heinz", "--input", path]
    outs = []
    for _ in range(3):
        assert cli.main(argv) == cli.EXIT_FAIL
        outs.append(capsys.readouterr().out)
    proc = fresh_python("-m", "opineq.cli", *argv)
    assert proc.returncode == cli.EXIT_FAIL, proc.stderr
    assert outs == [proc.stdout] * 3


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["eval", "--input", "inst.json"], "the following arguments are required: --check"),
])
def test_argparse_errors_repeat_on_the_cached_parser(argv, message, capsys):
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert message in errs[0]
    assert errs[0] == errs[1]


# ----------------------------------------------------------------------
# plain argv: the Namespace parse_args returns, read without argparse
# ----------------------------------------------------------------------

@pytest.fixture
def parser(monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_parser", parser)
    return parser


def _fields(namespace):
    """A Namespace's values with their types and spellings, so that
    1 != 1.0 != True and nan == nan."""
    return {key: (type(value), repr(value)) for key, value in vars(namespace).items()}


# one sample value for each option that takes one, and each flag alone
REPRO_OPTIONS = [("--example", "E3ii"), ("--json", "repro.json")]
FUZZ_OPTIONS = [("--trials", "7"), ("--dim", "2,4"), ("--p", "0.5,2"), ("--seed", "11"),
                ("--tol", "1e-6"), ("--json", "runs.json"), ("--csv", "runs.csv"),
                ("--stop-on-fail",)]
EVAL_OPTIONS = [("--tol", "0")]
FUZZ_REQUIRED = ["fuzz", "--check", "power_norm"]
EVAL_REQUIRED = ["eval", "--check", "lowner_heinz", "--input", "inst.json"]

PLAIN_ARGV = [
    ["list"], ["repro"], FUZZ_REQUIRED, EVAL_REQUIRED,
    *[["repro", *option] for option in REPRO_OPTIONS],
    *[FUZZ_REQUIRED + list(option) for option in FUZZ_OPTIONS],
    *[EVAL_REQUIRED + list(option) for option in EVAL_OPTIONS],
    ["repro", *[token for option in REPRO_OPTIONS for token in option]],
    FUZZ_REQUIRED + [token for option in FUZZ_OPTIONS for token in option],
    ["fuzz", *[token for option in reversed(FUZZ_OPTIONS) for token in option],
     "--check", "power_norm"],
    ["eval", "--tol", "1e-3", "--input", "inst.json", "--check", "lowner_heinz"],
    # what the benchmark sends
    ["eval", "--check", "lowner_heinz", "--input", "/work/lh-s3-p2-d4-t17.json",
     "--tol", "1e-08"],
    ["fuzz", "--check", "reverse_monotonicity", "--seed", "3", "--dim", "16,32",
     "--csv", "map-s3.csv", "--trials", "24", "--json", "map-s3.json"],
    ["fuzz", "--check", "lowner_heinz", "--seed", "3", "--p", "2", "--trials", "250",
     "--json", "lh-s3.json"],
    ["repro", "--json", "repro.json"],
    # values argparse reads as values: empty, spaced, numeric spellings
    ["repro", "--json", ""], FUZZ_REQUIRED + ["--dim", " 2-6 ", "--tol", "inf"],
    FUZZ_REQUIRED + ["--trials", "0", "--seed", "+3", "--tol", "nan"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=" ".join)
def test_plain_argv_reads_as_parse_args_reads_it(argv, parser, monkeypatch):
    expected = _fields(parser.parse_args(argv))
    assert _fields(cli._plain_args(argv)) == expected
    ran = []
    monkeypatch.setattr(parser, "parse_args", lambda *a: pytest.fail("parse_args ran"))
    monkeypatch.setattr(cli, "cmd_" + argv[0], lambda args: ran.append(_fields(args)) or 0)
    assert cli.main(argv) == 0
    assert ran == [expected]


FALLBACK_ARGV = [
    # an unknown or missing command
    [], ["frobnicate"], ["--check", "x"],
    # help
    ["-h"], ["--help"], ["list", "-h"], ["repro", "--help"], EVAL_REQUIRED + ["-h"],
    # an abbreviation
    ["fuzz", "--che", "power_norm"], FUZZ_REQUIRED + ["--stop"], ["repro", "--ex", "E1"],
    ["eval", "--check", "lowner_heinz", "--in", "inst.json"],
    # --opt=value
    ["eval", "--check=lowner_heinz", "--input", "inst.json"],
    FUZZ_REQUIRED + ["--seed=3"], ["repro", "--example=E1"],
    # a repeated option
    FUZZ_REQUIRED + ["--check", "norm_chain"], FUZZ_REQUIRED + ["--stop-on-fail"] * 2,
    # a value that starts with -
    FUZZ_REQUIRED + ["--seed", "-3"], FUZZ_REQUIRED + ["--p", "-1,2"],
    FUZZ_REQUIRED + ["--tol", "-1"], ["eval", "--check", "lowner_heinz", "--input", "-"],
    FUZZ_REQUIRED + ["--json", "--csv", "runs.csv"], FUZZ_REQUIRED + ["--json", "--"],
    # a type that raises
    FUZZ_REQUIRED + ["--trials", "many"], FUZZ_REQUIRED + ["--seed", ""],
    FUZZ_REQUIRED + ["--trials", "1.5"], EVAL_REQUIRED + ["--tol", "tiny"],
    # a value outside choices
    ["repro", "--example", "E9"], ["repro", "--example", "e1"],
    # a missing required option, or a missing value
    ["fuzz"], ["eval", "--input", "inst.json"], ["eval", "--check", "lowner_heinz"],
    ["fuzz", "--check"], FUZZ_REQUIRED + ["--trials"],
    # an extra token
    ["list", "extra"], ["repro", "E1"], EVAL_REQUIRED + ["stray"],
    ["eval", "lowner_heinz", "--check", "lowner_heinz", "--input", "inst.json"],
    # an option of another command
    ["repro", "--check", "power_norm"], ["list", "--json", "out.json"],
]


@pytest.mark.parametrize("argv", FALLBACK_ARGV, ids=repr)
def test_other_argv_falls_back_to_parse_args(argv, parser, monkeypatch, capsys):
    assert cli._plain_args(argv) is None

    def outcome(call):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, *capsys.readouterr()

    ran = []
    for command in parser.commands:
        monkeypatch.setattr(cli, "cmd_" + command, lambda args: ran.append(_fields(args)) or 0)
    direct, through_main = outcome(parser.parse_args), outcome(cli.main)
    if isinstance(direct[0], argparse.Namespace):      # argparse reads it; main runs it
        assert ran == [_fields(direct[0])] and through_main == (0, "", "")
    else:
        assert through_main == direct and not ran


_COMMANDS = ["repro", "fuzz", "eval", "list", "help", "frobnicate"]
_OPTIONS = ["--example", "--json", "--check", "--trials", "--dim", "--p", "--seed", "--tol",
            "--csv", "--stop-on-fail", "--input", "-h", "--help"]
_OTHER_TOKENS = ["--ex", "--che", "--tr", "--stop", "--in", "--t", "--s", "--j", "--c", "-",
                 "--", "--check=power_norm", "--seed=3", "--p=2", "--example=E1", "--tol=0"]
_VALUES = ["E1", "E9", "power_norm", "3", "-3", "0", "1.5", "1e-8", "nan", "x", "2-6", "2,4",
           "-1,2", "", " 7 ", "inst.json", "--json"]
_TOKENS = _COMMANDS + _OPTIONS + _OTHER_TOKENS + _VALUES


def _edited(argv, edits):
    """argv after each edit (where, token): insert the token at where, or
    put it in place of the token there, or drop that token."""
    argv = list(argv)
    for kind, where, token in edits:
        where %= len(argv) + 1
        if kind == "insert":
            argv.insert(where, token)
        elif where < len(argv):
            argv[where:where + 1] = [token] if kind == "replace" else []
    return argv


# argv of the plain shapes above, and edits of them by a few tokens
_ARGV = st.builds(_edited, st.sampled_from(PLAIN_ARGV), st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "drop"]), st.integers(0, 30),
              st.sampled_from(_TOKENS)), max_size=3))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGV)
def test_plain_argv_never_reads_otherwise_than_parse_args(parser, argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"plain path took argv that parse_args refuses: {argv}")
        assert _fields(plain) == _fields(expected)


def test_every_declared_option_is_one_the_plain_path_models(monkeypatch):
    # every action that build_parser declares: an option (no positional),
    # nargs None or 0, action store, store_true or help, and no string
    # default that argparse would convert through its type
    declared, add = [], argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        action = add(self, *args, **kwargs)
        declared.append((self, action, kwargs.get("action", "store")))
        return action

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    parser = cli.build_parser()
    monkeypatch.undo()
    commands = set(parser.commands.values())
    assert declared
    for container, action, kind in declared:
        where = (container.prog, action.option_strings, action.dest)
        assert kind in ("store", "store_true", "help"), where
        assert action.option_strings and action.nargs in (None, 0), where
        assert not (isinstance(action.default, str) and action.type is not None), where
        # the top-level parser declares only its -h, which plain argv never gives
        assert container in commands or action.default is argparse.SUPPRESS, where
    # what add_argument does not declare (set_defaults, an argument group)
    # shows in a namespace: with its required options given, every command
    # reads as parse_args reads it
    monkeypatch.setattr(cli, "_parser", parser)
    for name, command in parser.commands.items():
        argv = [name, *[token for action in command.required
                        for token in (action.option_strings[0], "x")]]
        assert _fields(cli._plain_args(argv)) == _fields(parser.parse_args(argv)), name


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_holds(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["check_id"] == "lowner_heinz"
    assert report["verdict"] == "HOLDS"
    assert report["gap_min_eig"] == pytest.approx(1.0)


def test_eval_fails(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", FAILS_INST)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["verdict"] == "FAILS"


def test_eval_hypothesis_violated(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", UNORDERED_INST)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_HYPOTHESIS
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "HYPOTHESIS_VIOLATED"
    assert report["hypothesis_note"]


@pytest.mark.parametrize("inst", MN2012_NEGATIVE_DIFF_INSTS)
def test_eval_mn2012_negative_difference_is_hypothesis_violated(inst, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", "mn2012", "--input", path]) == \
        cli.EXIT_HYPOTHESIS
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "HYPOTHESIS_VIOLATED"
    assert report["hypothesis_note"].endswith("; sides not evaluated")


@pytest.mark.parametrize("check_id", ["reverse_monotonicity", "ando_converse"])
@pytest.mark.parametrize("inst", SINGULAR_WINDOW_INSTS)
def test_eval_singular_window_is_hypothesis_violated(check_id, inst, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", check_id, "--input", path]) == \
        cli.EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["verdict"] == "HYPOTHESIS_VIOLATED"
    assert report["hypothesis_note"].endswith("; sides not evaluated")
    assert err == ""


def test_eval_overflowing_sides_is_an_error(tmp_path, capsys):
    # a valid instance whose B^2 overflows: one error line, no traceback
    inst = {"A": [[2.0, 0.0], [0.0, 2.0]], "B": [[1e200, 0.0], [0.0, 1e200]], "p": 2.0}
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("check_id, inst", [
    ("norm_chain", {"A": [[1e200, 0.0], [0.0, 1e200]], "p": 3}),
    ("radius_chain", {"A": [[1e200, 0.0], [0.0, 1e200]], "p": 3}),
    ("power_norm", {"A": [[1e160, 0.0], [0.0, 1e160]],
                    "B": [[1e160, 0.0], [0.0, 1e160]], "p": 0.5}),
    ("norm_refinement", {"A": [[1e160, 0.0], [0.0, 1e160]],
                         "B": [[1e160, 0.0], [0.0, 1e160]], "p": 0.5}),
    # the window's m^2 underflows: (m^2)^(1-p) divides by zero or overflows
    ("norm_refinement", {"A": [[2e-200, 3e-201], [3e-201, 1e-200]],
                         "B": [[1.4e-200, 2.1e-201], [2.1e-201, 7e-201]], "p": 0.5}),
    ("norm_refinement", {"A": [[2e-200, 3e-201], [3e-201, 1e-200]],
                         "B": [[1.4e-200, 2.1e-201], [2.1e-201, 7e-201]], "p": 2.0}),
    ("norm_refinement", {"A": [[2e-160, 3e-161], [3e-161, 1e-160]],
                         "B": [[1.4e-160, 2.1e-161], [2.1e-161, 7e-161]], "p": 2.0}),
    # the window coefficients m^(1-p) and m^(p-1) overflow
    ("holder_mccarthy", {"A": [[1e-200, 0.0], [0.0, 1.0]], "p": 3}),
    ("reverse_monotonicity", {"A": [[1.0, 0.0], [0.0, 1.0]],
                              "B": [[2.0, 0.0], [0.0, 2.0]], "p": -1, "m": 1e-200}),
    ("ando_converse", {"A": [[1.0, 0.0], [0.0, 1.0]],
                       "B": [[2.0, 0.0], [0.0, 2.0]], "p": -1, "m": 1e-200}),
    ("power_corollary", {"A": [[2.0, 0.0], [0.0, 3.0]], "p": -1, "m": 1e-200}),
    # f(A) and the derivative bound on the window overflow
    ("mond_pecaric", {"A": [[800.0, 0.0], [0.0, 900.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
                      "p": 0.5, "f": "exp"}),
    ("mond_pecaric", {"A": [[1e200, 0.0], [0.0, 2e200]], "B": [[1.0, 0.0], [0.0, 2.0]],
                      "p": 3}),
])
def test_eval_overflowing_scalars_and_products_are_errors(tmp_path, capsys, check_id, inst):
    # norm powers, window coefficients, f(A) and the A B product overflow:
    # one error line, exit 5, no traceback, no NaN report and no numpy warning
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", check_id, "--input", path]) == cli.EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_overflow_under_a_violated_hypothesis_leaves_the_sides(tmp_path, capsys):
    # W = diag(0.5, 2) dips below the unit floor, and m^(p-1) overflows:
    # the sides are left unevaluated instead of raising
    inst = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.5, 0.0], [0.0, 2.0]],
            "p": -1, "m": 1e-200}
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", "reverse_monotonicity", "--input", path]) == \
        cli.EXIT_HYPOTHESIS
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "HYPOTHESIS_VIOLATED"
    assert report["hypothesis_note"].endswith("; sides not evaluated")
    assert report["parts"] == [] and report["gap_min_eig"] is None


@pytest.mark.parametrize("check_id, inst", OVERFLOW_UNDER_VIOLATED)
def test_eval_overflowing_sides_under_a_violated_hypothesis_exit_4(check_id, inst,
                                                                   tmp_path, capsys):
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", check_id, "--input", path]) == cli.EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    assert json.loads(out)["hypothesis_note"].endswith("; sides not evaluated")
    assert err == ""


def test_eval_nan_entry_is_an_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"A": [[1.0, 0.0], [0.0, NaN]], "B": [[1.0, 0.0], [0.0, 1.0]], '
                    '"p": 0.5}', encoding="utf-8")
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", str(path)]) == \
        cli.EXIT_SCHEMA
    assert capsys.readouterr().err == "error: matrix entries must be finite\n"


def test_eval_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", missing]) == \
        cli.EXIT_IO
    assert "cannot read" in capsys.readouterr().err


def test_eval_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["eval", "--check", "lowner_heinz",
                     "--input", str(path)]) == cli.EXIT_SCHEMA
    assert "not valid JSON" in capsys.readouterr().err


def test_eval_non_utf8_file_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(HOLDS_INST).encode("utf-16-le"))
    assert cli.main(["eval", "--check", "lowner_heinz",
                     "--input", str(path)]) == cli.EXIT_SCHEMA
    assert "is not valid UTF-8" in capsys.readouterr().err


def _text_mode_open(path, mode="r", **kwargs):
    """open for eval's reference read: the bytes of what a text-mode read
    of path gives, or the error that read raises."""
    assert mode == "rb"
    with open(path, encoding="utf-8") as fh:
        return io.BytesIO(fh.read().encode("utf-8"))


_HOLDS_TEXT = json.dumps(HOLDS_INST, indent=2)
_LATER_LINE_ERROR = _HOLDS_TEXT.replace('"p": 0.5', '"p": 0.5,')   # a trailing comma


@pytest.mark.parametrize("payload", [
    _LATER_LINE_ERROR.replace("\n", "\r\n").encode(),
    _LATER_LINE_ERROR.replace("\n", "\r").encode(),
    _LATER_LINE_ERROR.replace("\n", "\r", 3).replace("\n", "\r\n", 2).encode(),
    b'{"A": [[1.0]], "p": 0.5, "f": "exp\r\n"}',         # a raw newline in a string
    b"\xef\xbb\xbf" + _HOLDS_TEXT.encode(),                # a UTF-8 BOM
    b'{"A": [[1.0]], "p": 0.5' + b" " * 10_000 + b"\xff}",   # past the first 8,192 bytes
    b'{"A": [[1.0]], "p": 0.5' + b"\r\n" * 5_000 + b"\xe2\x89}",   # and a truncated one
    b"\r\n".join([b'{"A": [[1.0, 0.0], [0.0, 2.0]],', b'"B": [[4.0, 0.0], [0.0, 9.0]],',
                   b'"p": 0.5}']),
    _HOLDS_TEXT.replace("\n", "\r").encode(),
], ids=["crlf", "cr", "mixed", "cr in string", "bom", "invalid byte", "truncated",
        "valid crlf", "valid cr"])
def test_eval_reads_the_file_as_a_text_mode_read_does(payload, tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(payload)
    argv = ["eval", "--check", "lowner_heinz", "--input", str(path)]
    got = (cli.main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "open", _text_mode_open, raising=False)
    assert (cli.main(argv), *capsys.readouterr()) == got


def test_eval_error_positions_read_through_translated_newlines(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(_LATER_LINE_ERROR.replace("\n", "\r\n").encode())
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", str(path)]) == cli.EXIT_SCHEMA
    line = _LATER_LINE_ERROR.count("\n") + 1
    assert f"line {line} column 1 (char {len(_LATER_LINE_ERROR) - 1})" in capsys.readouterr().err
    path.write_bytes(b'{"A": [[1.0]], "p": 0.5' + b" " * 10_000 + b"\xff}")
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", str(path)]) == cli.EXIT_SCHEMA
    assert "in position 10023: invalid start byte" in capsys.readouterr().err


def test_eval_directory_input_is_an_io_error(tmp_path, monkeypatch, capsys):
    argv = ["eval", "--check", "lowner_heinz", "--input", str(tmp_path)]
    got = (cli.main(argv), *capsys.readouterr())
    assert got[0] == cli.EXIT_IO and got[1] == "" and "cannot read" in got[2]
    monkeypatch.setattr(cli, "open", _text_mode_open, raising=False)
    assert (cli.main(argv), *capsys.readouterr()) == got


def test_eval_crlf_instance_prints_the_report_of_its_lf_twin(tmp_path, capsys):
    outs = []
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "inst.json"
        path.write_bytes(json.dumps(FAILS_INST, indent=2).replace("\n", newline).encode())
        assert cli.main(["eval", "--check", "lowner_heinz", "--input", str(path)]) == \
            cli.EXIT_FAIL
        outs.append(capsys.readouterr())
    assert outs[0].err == "" and outs == [outs[0]] * 3


# json.loads gives up near 990 brackets with a RecursionError; shallower
# nesting reaches numpy, which allows at most 64 dimensions
@pytest.mark.parametrize("depth", [100, 975, 990, 5000])
def test_eval_deeply_nested_instance_is_malformed_input(depth, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"A": ' + "[" * depth + "1.0" + "]" * depth + ', "p": 1.0}',
                    encoding="utf-8")
    assert cli.main(["eval", "--check", "lowner_heinz",
                     "--input", str(path)]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


_BIG_INT = 10 ** 400    # a JSON integer that no float can hold


@pytest.mark.parametrize("inst", [
    {"A": [[_BIG_INT]], "p": 1.0}, {"A": [[1.0]], "p": _BIG_INT},
    {"A": [[1.0]], "p": 1.0, "m": _BIG_INT}, {"A": [[1.0]], "p": 1.0, "x": [_BIG_INT]},
    {"A": [[1.0]], "p": 1.0, "map": {"kind": "mixed_unitary", "weights": [_BIG_INT],
                                     "unitaries": [[[1.0]]]}},
], ids=["A", "p", "m", "x", "map"])
def test_eval_integer_past_the_float_range_is_malformed_input(inst, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == cli.EXIT_SCHEMA
    assert "int too large to convert to float" in capsys.readouterr().err


def test_eval_unknown_check(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    assert cli.main(["eval", "--check", "nope", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert "error" in capsys.readouterr().err


def test_eval_schema_violation(tmp_path, capsys):
    bad = dict(HOLDS_INST, stray=1)
    path = _write(tmp_path, "inst.json", bad)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA


def test_eval_rejects_strings_and_booleans_for_numbers(tmp_path, capsys):
    bad = {"A": [["2", "0"], ["0", "3"]], "p": "0.5", "m": True}
    path = _write(tmp_path, "inst.json", bad)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert capsys.readouterr().err == "error: A: expected a number, got '2'\n"


@pytest.mark.parametrize("x, shape", [([[0.6, 0.8]], (1, 2)), ([[0.6], [0.8]], (2, 1)),
                                      (0.6, ()), ([0.6], (1,))])
def test_eval_rejects_an_x_that_is_not_a_vector_of_length_n(x, shape, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", dict(HOLDS_INST, x=x))
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert capsys.readouterr().err == \
        f"error: x must be a vector of length 2, got shape {shape}\n"


def test_eval_env_tolerance(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "dip.json", DIP_INST)
    args = ["eval", "--check", "lowner_heinz", "--input", path]
    assert cli.main(args) == cli.EXIT_HYPOTHESIS
    capsys.readouterr()
    monkeypatch.setenv("OPINEQ_TOL", "1e-3")
    assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()
    # an explicit flag beats the environment
    assert cli.main(args + ["--tol", "1e-12"]) == cli.EXIT_HYPOTHESIS


def test_eval_rejects_garbage_env_tolerance(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    monkeypatch.setenv("OPINEQ_TOL", "tiny")
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_eval_rejects_bad_tolerance_flag(tol, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path,
                     "--tol", tol]) == cli.EXIT_SCHEMA
    assert "tolerance must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
def test_eval_rejects_bad_env_tolerance(tol, tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    monkeypatch.setenv("OPINEQ_TOL", tol)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert "tolerance must be finite and nonnegative" in capsys.readouterr().err


def test_eval_accepts_zero_tolerance(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", HOLDS_INST)
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", path,
                     "--tol", "0"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["tol_used"] == 0.0


@pytest.mark.parametrize("bad_map", [
    "x",
    [1, 2],
    {"kind": "compression", "isometry": [[1.0, 0.0], [0.0, float("nan")]]},
    {"kind": "mixed_unitary", "weights": [float("nan"), 0.5],
     "unitaries": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]},
    {"kind": "mixed_unitary", "weights": [0.5, 0.5],
     "unitaries": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, float("nan")]]]},
    {"kind": "mixed_unitary", "weights": [1.0], "unitaries": [5]},
    {"kind": "normalized_trace", "dim": 2.9},
    {"kind": "pinching", "dim": 2, "partition": [[0.7], [1.2]]},
] + [obj for _, obj in STRAY_KEY_MAPS] + [param.values[1] for param in MALFORMED_MAPS])
def test_eval_rejects_malformed_map(bad_map, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", dict(HOLDS_INST, map=bad_map))
    assert cli.main(["eval", "--check", "info_monotonicity", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key, bad, bad_map", NON_NUMBER_MAPS)
def test_eval_rejects_strings_and_booleans_in_a_map(key, bad, bad_map, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", dict(HOLDS_INST, map=bad_map))
    assert cli.main(["eval", "--check", "info_monotonicity", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {key}: expected a number, got {bad!r}\n"


def test_eval_info_monotonicity_rejects_nonsymmetric_a_at_p1(tmp_path, capsys):
    # p = 1 short-cuts to B - A; A must still be symmetric
    inst = {"A": [[2.0, 0.5], [0.0, 2.0]], "B": [[5.0, 0.0], [0.0, 5.0]], "p": 1.0}
    path = _write(tmp_path, "inst.json", inst)
    assert cli.main(["eval", "--check", "info_monotonicity", "--input", path]) == \
        cli.EXIT_SCHEMA
    assert "A is not symmetric" in capsys.readouterr().err


# ----------------------------------------------------------------------
# fuzz
# ----------------------------------------------------------------------

def test_fuzz_summary_line(capsys):
    code = cli.main(["fuzz", "--check", "power_norm", "--trials", "12",
                     "--seed", "3"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert re.match(
        r"fuzz power_norm: 12 trials -> 12 HOLDS, 0 FAILS, "
        r"0 HYPOTHESIS_VIOLATED \(seed 3, tol_rel 1e-08, \d+\.\d{2}s\)\n",
        out)


def test_fuzz_json_runs_are_byte_identical(tmp_path, capsys, fresh_python):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    fresh = tmp_path / "run3.json"
    base = ["fuzz", "--check", "info_monotonicity", "--trials", "20",
            "--seed", "5"]
    assert cli.main(base + ["--json", str(first)]) == cli.EXIT_OK
    assert cli.main(base + ["--json", str(second)]) == cli.EXIT_OK
    proc = fresh_python("-m", "opineq.cli", *base, "--json", str(fresh))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == fresh.read_bytes()
    reports = json.loads(first.read_text())
    assert len(reports) == 20
    assert all(r["verdict"] == "HOLDS" for r in reports)


def test_fuzz_csv_header_and_rows(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    assert cli.main(["fuzz", "--check", "mn2012", "--trials", "9",
                     "--seed", "2", "--csv", str(path)]) == cli.EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "check_id,dim,p,m,M,gap_min_eig,verdict,seed,trial"
    assert len(lines) == 10
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == "mn2012"
        assert cells[6] == "HOLDS"
        assert cells[8] == str(i)


def test_fuzz_failure_writes_witness_sidecar(tmp_path, capsys):
    json_path = tmp_path / "lh.json"
    code = cli.main(["fuzz", "--check", "lowner_heinz", "--trials", "60",
                     "--seed", "0", "--p", "2.0", "--json", str(json_path)])
    assert code == cli.EXIT_FAIL
    out = capsys.readouterr().out
    sidecar = tmp_path / "lh.witness.json"
    assert f"witnesses written to {sidecar}" in out
    witnesses = json.loads(sidecar.read_text())
    assert witnesses
    assert all(w["check_id"] == "lowner_heinz" for w in witnesses)
    # a recorded witness replays to the same verdict through eval
    inst_path = _write(tmp_path, "witness_inst.json", witnesses[0]["instance"])
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", inst_path,
                     "--tol", "1e-8"]) == cli.EXIT_FAIL


def test_fuzz_default_witness_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["fuzz", "--check", "lowner_heinz", "--trials", "60",
                     "--seed", "0", "--p", "2.0", "--stop-on-fail"])
    assert code == cli.EXIT_FAIL
    assert (tmp_path / "opineq.witness.json").exists()
    assert "witnesses written to opineq.witness.json" in capsys.readouterr().out


def test_fuzz_unknown_check(capsys):
    assert cli.main(["fuzz", "--check", "nope", "--trials", "1"]) == \
        cli.EXIT_SCHEMA
    assert "unknown check" in capsys.readouterr().err


def test_fuzz_bad_dim_spec(capsys):
    assert cli.main(["fuzz", "--check", "power_norm", "--trials", "1",
                     "--dim", "6-2"]) == cli.EXIT_SCHEMA
    assert "error" in capsys.readouterr().err


def test_fuzz_bad_dim_that_no_trial_reaches(capsys):
    assert cli.main(["fuzz", "--check", "norm_chain", "--p", "0.5", "--dim", "2,100",
                     "--trials", "1"]) == cli.EXIT_SCHEMA
    assert "dim must lie in [1, 64], got 100" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0.5,nan", "0.5,inf", "0.5,-inf"])
def test_fuzz_non_finite_exponent_that_no_trial_reaches(p, capsys):
    assert cli.main(["fuzz", "--check", "power_norm", "--p", p, "--trials", "1"]) == \
        cli.EXIT_SCHEMA
    assert "p_values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_fuzz_rejects_bad_tolerance(tol, capsys):
    assert cli.main(["fuzz", "--check", "lowner_heinz", "--p", "2", "--trials", "20",
                     "--tol", tol]) == cli.EXIT_SCHEMA
    assert "tolerance must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--p", "--dim"])
def test_fuzz_empty_list_spec_is_an_error(flag, capsys):
    assert cli.main(["fuzz", "--check", "lowner_heinz", "--trials", "4",
                     flag, ","]) == cli.EXIT_SCHEMA
    assert "need at least one" in capsys.readouterr().err


def test_fuzz_dim_list_spec(capsys):
    assert cli.main(["fuzz", "--check", "power_norm", "--trials", "4",
                     "--dim", "2,4"]) == cli.EXIT_OK
    capsys.readouterr()


# ----------------------------------------------------------------------
# repro
# ----------------------------------------------------------------------

def test_repro_all_passes(capsys):
    assert cli.main(["repro"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for example_id in ("E1", "E2", "E3i", "E3ii", "E3iii"):
        assert f"{example_id}: PASS" in out
    assert "MISMATCH" not in out


def test_repro_single_example_json(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["repro", "--example", "E1"]
    assert cli.main(argv + ["--json", str(first)]) == cli.EXIT_OK
    assert cli.main(argv + ["--json", str(second)]) == cli.EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert len(payload) == 1
    assert payload[0]["example_id"] == "E1"
    assert payload[0]["passed"] is True


def test_repro_rejects_unknown_example(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["repro", "--example", "E9"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# JSON writer
# ----------------------------------------------------------------------

def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _documents():
    """Every kind of document the command line writes."""
    for check_id, info in sorted(checks.REGISTRY.items()):
        n_p = len(info.default_p)
        for dims, cycles in (((2, 3, 4, 5, 6), 5), ((16, 32), 2)):
            result = fuzz.run_fuzz(check_id, trials=n_p * cycles, dims=dims, seed=11)
            yield [report.to_json_dict() for report in result.reports]
    result = fuzz.run_fuzz("lowner_heinz", trials=120, p_values=(2.0,), seed=7)
    assert result.witnesses
    yield result.witnesses
    yield [res.to_json_dict() for res in repro.run_all()]
    inst = checks.InstanceSpec.from_json_dict(FAILS_INST)
    yield checks.run_check("lowner_heinz", inst).to_json_dict()


def test_writer_matches_json_on_every_document():
    for doc in _documents():
        assert cli._dump_json(doc) == _reference(doc)


_EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-7, np.float64(0.1),
    [1.0, float("nan")], [[1.0, 2.0], [float("inf"), 0.0]], [-0.0, 5e-324, 1e16],
    [np.float64(1.5), 2.0], [[np.float64(1.5)], [2.0]], (1.0, 2.0), ((1.0,), (2.0,)),
    [], {}, [[]], [[1.0], []], [[], [1.0]], {"a": []}, {"a": {}},
    [1.0, True], [1.0, None], [1.0, 2], [[1.0, False]], [[1.0], [None]], [[1.0], [3]],
    [[[1.0, 2.0]], [[3.0]]], True, False, None, 0, -3, 2**70,
    "", 'say "hi"\\', "tab\tnew\nline\x00\x1f", "caf\u00e9 \u2265 \U0001d400",
    {'k"ey\n': 1.0, "\u00e9": [1.0], "a": None, "b": {"c": (3.0, "d")}},
    {"a": {1: [1.0, 2.0], 2: {"b": None}}}, {1.5: "x", 2.5: [1.0]}, {True: 1, False: 2},
    {None: [1.0]},
]


def _symmetric(n, entries=()):
    """An n x n symmetric list of floats, then changed at entries, pairs
    ((i, j), value)."""
    m = np.random.default_rng(n).standard_normal((n, n))
    rows = (m + m.T).tolist()
    for (i, j), value in entries:
        rows[i][j] = value
    return rows


_NAN, _INF = float("nan"), float("inf")
# matrices around the writer's mirroring of square symmetric ones
_EDGE_VALUES += [pytest.param(value, id=name) for name, value in [
    ("symmetric 7x7", _symmetric(7)),
    ("symmetric 8x8", _symmetric(8)),
    ("symmetric 12x12", _symmetric(12)),
    ("-0.0 above 0.0 below", _symmetric(8, [((1, 2), -0.0), ((2, 1), 0.0)])),
    ("0.0 above -0.0 below", _symmetric(8, [((1, 2), 0.0), ((2, 1), -0.0)])),
    ("-0.0 on the diagonal", _symmetric(8, [((3, 3), -0.0)])),
    ("one nan mirrored", _symmetric(8, [((0, 3), _NAN), ((3, 0), _NAN)])),
    ("two nans mirrored", _symmetric(8, [((0, 3), float("nan")), ((3, 0), float("nan"))])),
    ("one inf mirrored", _symmetric(8, [((4, 6), _INF), ((6, 4), _INF)])),
    ("two infs mirrored", _symmetric(8, [((4, 6), float("inf")), ((6, 4), float("inf"))])),
    ("one ulp off symmetric",
     _symmetric(8, [((2, 5), float(np.nextafter(_symmetric(8)[5][2], np.inf)))])),
    ("8 rows of 9", [row + [1.0] for row in _symmetric(8)]),
    ("9 rows of 8", _symmetric(8) + [[1.0] * 8]),
    ("ragged", _symmetric(8)[:7] + [[1.0] * 7]),
]]


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
def test_writer_matches_json_on_edge_values(value):
    assert cli._dump_json(value) == _reference(value)
    assert cli._dump_json([value, {"v": value}]) == _reference([value, {"v": value}])


def _mirror(upper):
    """The symmetric matrix with these rows on and above its diagonal."""
    n = len(upper)
    return [[upper[min(i, j)][abs(j - i)] for j in range(n)] for i in range(n)]


_SYMMETRIC = st.integers(1, 12).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(), min_size=n - i, max_size=n - i) for i in range(n)])).map(_mirror)
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.floats(), min_size=1)
    | st.lists(st.lists(st.floats(), min_size=1), min_size=1) | _SYMMETRIC,
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON_LIKE)
def test_writer_matches_json_on_json_like_values(value):
    assert cli._dump_json(value) == _reference(value)


def _error(fn, value):
    with pytest.raises(Exception) as exc:
        fn(value)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("value", [
    np.int64(1), [1.0, np.array([1.0])], {1: 1.0, "a": 2.0}, {"a": [object()]},
], ids=["np.int64", "ndarray", "mixed keys", "object"])
def test_writer_raises_what_json_raises(value):
    assert _error(cli._dump_json, value) == _error(_reference, value)
