"""Command-line front end.

Four subcommands:

  repro   run the pinned reference instances and compare against the
          tabulated values (exit 0 all pass, 1 any mismatch, 2 on an
          internal numerical failure)
  fuzz    sample random valid instances for one check (exit 0 when no
          instance FAILS, 1 otherwise, 3 on file I/O trouble, 5 for an
          unknown check, a bad --dim, --p or tolerance value, or a
          trial whose check raises)
  eval    run one check on an instance file (exit 0 HOLDS, 1 FAILS,
          4 HYPOTHESIS_VIOLATED, 3 unreadable file, 5 malformed input,
          including a file that is not UTF-8 or nests too deeply for
          json.loads, or a value that leaves the float range)
  list    print the check registry

Usage errors exit 2 with argparse's message: an unknown subcommand, a
missing --check or --input, a non-integer --trials or --seed, a
non-numeric --tol and an unknown --example.  main reads plain argv, a
subcommand and its options each given once in full, from the Actions its
parser declares (_plain_args), and hands anything else, every usage error
among it, to argparse; both give the same Namespace.  eval reads its
instance file as bytes and decodes it as a text-mode read would: UTF-8,
with \r\n and \r read as \n.

The environment variable OPINEQ_TOL overrides the relative tolerance for
fuzz and eval; an explicit --tol beats the environment.  Every JSON
document (eval stdout, fuzz --json, the witness sidecar, repro --json)
goes through _dump_json, which reproduces json.dumps(obj, indent=2,
sort_keys=True) + "\n" byte for byte, so identical runs produce
identical bytes.  It spells each float with float.__repr__, as json
does, and spells the entries of a mirrored matrix once: a square list
of at least 8 rows of exact floats that equals its transpose and holds
no zero, such as most Loewner sides a report carries.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import checks, inputs, linalg
from . import fuzz as fuzz_mod
from . import repro as repro_mod
from .errors import InvalidSpec, OpineqError

__all__ = ["main", "build_parser",
           "EXIT_OK", "EXIT_FAIL", "EXIT_ERROR", "EXIT_IO",
           "EXIT_HYPOTHESIS", "EXIT_SCHEMA"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_IO = 3
EXIT_HYPOTHESIS = 4
EXIT_SCHEMA = 5

_VERDICT_EXITS = {
    checks.HOLDS: EXIT_OK,
    checks.FAILS: EXIT_FAIL,
    checks.HYPOTHESIS_VIOLATED: EXIT_HYPOTHESIS,
}


def _resolve_tol(explicit, default: float) -> float:
    if explicit is not None:
        return inputs.tolerance(explicit)
    env = os.environ.get("OPINEQ_TOL")
    if env is not None and env.strip():
        return inputs.tolerance(env)
    return default


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo_s, hi_s = text.split("-", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty dimension range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_p(text: str | None):
    if text is None:
        return None
    return tuple(float(part) for part in text.split(",") if part.strip())


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_REPR = float.__repr__
_FLOATS = frozenset((float,))


def _dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", byte for byte.

    json's indented encoder is pure Python; this writer costs little more
    than float.__repr__ on every number."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, nl: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, with
    nl (a newline and the current indent) starting each inner line.

    A row of exact floats is one join over float.__repr__, json's float
    spelling, and a matrix of such rows one comprehension, which spells
    a mirrored entry once (see _float_reprs).  A text that contains "n"
    holds an inf or a nan; it, and every value not written here (empty
    containers, dicts with non-string keys, other types), goes to
    json.dumps, so json's spelling and errors stay."""
    kind = type(obj)
    if kind is float:
        text = _FLOAT_REPR(obj)
        if "n" not in text:
            return text
    elif kind is str:
        return _ESCAPE(obj)
    elif kind is dict:
        if obj and all(type(key) is str for key in obj):
            inner = nl + "  "
            return ("{" + inner
                    + ("," + inner).join([_ESCAPE(key) + ": " + _json_text(obj[key], inner)
                                          for key in sorted(obj)])
                    + nl + "}")
    elif kind is list or kind is tuple:
        if obj:
            inner = nl + "  "
            sep = "," + inner
            if _FLOATS.issuperset(map(type, obj)):
                text = "[" + inner + sep.join(map(_FLOAT_REPR, obj)) + nl + "]"
            elif all(type(row) is list and row and _FLOATS.issuperset(map(type, row))
                     for row in obj):
                deeper = inner + "  "
                row_sep = "," + deeper
                text = ("[" + inner
                        + sep.join(["[" + deeper + row_sep.join(row) + inner + "]"
                                    for row in _float_reprs(obj)])
                        + nl + "]")
            else:
                return "[" + inner + sep.join([_json_text(item, inner) for item in obj]) + nl + "]"
            if "n" not in text:
                return text
    elif kind is int:
        return int.__repr__(obj)
    elif kind is bool:
        return "true" if obj else "false"
    elif obj is None:
        return "null"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


# the fewest rows of a matrix that is mirrored: at 4 rows the transpose
# costs more than the conversions it saves, at 5 to 7 it saves a few
# microseconds, from 8 on a fifth or more
_MIRROR_ROWS = 8


def _float_reprs(rows) -> list:
    """The float.__repr__ strings of a list of rows of exact floats, row
    by row.  A square matrix of at least _MIRROR_ROWS rows that equals its
    transpose and holds no zero (-0.0 == 0.0, but the two are spelled
    differently) is mirrored: only its entries on and above the diagonal
    are converted, and a zip transpose of those rows, padded on the left,
    copies them below it."""
    if (len(rows) < _MIRROR_ROWS or [*zip(*rows)] != [*map(tuple, rows)]
            or any(0.0 in row for row in rows)):
        return [map(_FLOAT_REPR, row) for row in rows]
    pad = [""] * len(rows)
    upper = [pad[:i] + list(map(_FLOAT_REPR, row[i:])) for i, row in enumerate(rows)]
    for i, column in enumerate(list(zip(*upper))):
        upper[i][:i] = column[:i]
    return upper


def _write_file(path: str, text: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return True
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False


def _witness_path(json_path: str | None) -> str:
    if json_path is None:
        return "opineq.witness.json"
    if json_path.endswith(".json"):
        return json_path[:-len(".json")] + ".witness.json"
    return json_path + ".witness.json"


# the summary CSV's header and row order: a report's own check_id,
# gap_min_eig and verdict, its params' other values; csv writes None as ""
_CSV_COLUMNS = ("check_id", "dim", "p", "m", "M", "gap_min_eig", "verdict", "seed", "trial")


def _csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows([getattr(report, column, report.params.get(column))
                      for column in _CSV_COLUMNS] for report in reports)
    return buf.getvalue()


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_repro(args) -> int:
    try:
        if args.example:
            results = [repro_mod.run_repro(args.example)]
        else:
            results = repro_mod.run_all()
    except (OpineqError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for result in results:
        print(f"{result.example_id}: {'PASS' if result.passed else 'FAIL'}")
        for item in result.items:
            status = "ok" if item.passed else "MISMATCH"
            print(f"  {item.quantity:24s} computed {item.computed:.10g} "
                  f"expected {item.expected:.10g} "
                  f"({item.mode}, tol {item.tol:g}) {status}")
    if args.json is not None:
        text = _dump_json([result.to_json_dict() for result in results])
        if not _write_file(args.json, text):
            return EXIT_IO
    return EXIT_OK if all(result.passed for result in results) else EXIT_FAIL


def cmd_fuzz(args) -> int:
    tol = _resolve_tol(args.tol, fuzz_mod.FUZZ_TOL_REL)
    try:
        dims, p_values = _parse_dims(args.dim), _parse_p(args.p)
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from exc
    result = fuzz_mod.run_fuzz(
        args.check, trials=args.trials, dims=dims, p_values=p_values,
        seed=args.seed, tol_rel=tol, stop_on_fail=args.stop_on_fail)
    counts = result.counts
    print(f"fuzz {result.check_id}: {result.trials} trials -> "
          f"{counts[checks.HOLDS]} HOLDS, {counts[checks.FAILS]} FAILS, "
          f"{counts[checks.HYPOTHESIS_VIOLATED]} HYPOTHESIS_VIOLATED "
          f"(seed {result.seed}, tol_rel {result.tol_rel:g}, "
          f"{result.elapsed_s:.2f}s)")
    io_ok = True
    if args.json is not None:
        text = _dump_json([report.to_json_dict() for report in result.reports])
        io_ok = _write_file(args.json, text) and io_ok
    if args.csv is not None:
        io_ok = _write_file(args.csv, _csv_text(result.reports)) and io_ok
    if result.witnesses:
        path = _witness_path(args.json)
        io_ok = _write_file(path, _dump_json(result.witnesses)) and io_ok
        print(f"witnesses written to {path}")
    if not io_ok:
        return EXIT_IO
    return EXIT_OK if result.failures == 0 else EXIT_FAIL


def cmd_eval(args) -> int:
    tol = _resolve_tol(args.tol, linalg.DEFAULT_TOL_REL)
    try:
        with open(args.input, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if "\r" in text:   # text mode's universal newlines; a scan is cheaper than two replaces
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deeply
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    inst = checks.InstanceSpec.from_json_dict(data)
    report = checks.run_check(args.check, inst, tol_rel=tol)
    print(_dump_json(report.to_json_dict()), end="")
    return _VERDICT_EXITS[report.verdict]


def cmd_list(_args) -> int:
    width = max(len(check_id) for check_id in checks.REGISTRY)
    for info in checks.REGISTRY.values():
        print(f"{info.check_id:<{width}}  {info.description}")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps, from the Action each add_argument call
    returns, what _plain_args reads: each option by its full strings, the
    default of each dest, and the required options.  An option whose default
    is SUPPRESS, such as -h, is left out, so argv that gives it falls back to
    parse_args."""

    def __init__(self, **kwargs):
        self.options, self.defaults, self.required = {}, {}, []
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.options.update(dict.fromkeys(action.option_strings, action))
            self.defaults.setdefault(action.dest, action.default)
            if action.required:
                self.required.append(action)
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opineq",
        description="numerical verification of operator entropy and "
                    "power inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("repro", help="reproduce the pinned reference instances")
    rp.add_argument("--example", choices=list(repro_mod.EXAMPLE_IDS),
                    help="run a single instance instead of all five")
    rp.add_argument("--json", metavar="PATH", help="write results as JSON")

    fz = sub.add_parser("fuzz", help="random search for counterexamples")
    fz.add_argument("--check", required=True, metavar="ID")
    fz.add_argument("--trials", type=int, default=1000)
    fz.add_argument("--dim", default="2-6", metavar="SPEC",
                    help="dimensions as '2-6' or '2,4,8' (default 2-6)")
    fz.add_argument("--p", metavar="CSV",
                    help="comma-separated exponents (default: the check's "
                         "registry values)")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--tol", type=float, default=None,
                    help=f"relative tolerance (default {fuzz_mod.FUZZ_TOL_REL:g}, "
                         "or OPINEQ_TOL)")
    fz.add_argument("--json", metavar="PATH", help="write all reports as JSON")
    fz.add_argument("--csv", metavar="PATH", help="write a summary CSV")
    fz.add_argument("--stop-on-fail", action="store_true",
                    help="stop at the first FAILS")

    ev = sub.add_parser("eval", help="evaluate one check on an instance file")
    ev.add_argument("--check", required=True, metavar="ID")
    optional = [key for key in checks._INSTANCE_KEYS if key not in checks._REQUIRED_KEYS]
    ev.add_argument("--input", required=True, metavar="PATH",
                    help=f"JSON file with keys {', '.join(checks._REQUIRED_KEYS)} and "
                         f"optionally {', '.join(optional)}")
    ev.add_argument("--tol", type=float, default=None,
                    help=f"relative tolerance (default {linalg.DEFAULT_TOL_REL:g}, "
                         "or OPINEQ_TOL)")

    sub.add_parser("list", help="print the check registry")
    parser.commands = sub.choices      # name -> its _Parser, for _plain_args
    return parser


_parser = None


def _plain_args(argv):
    """The Namespace that _parser.parse_args(argv) returns, for argv of the
    form [command, --option value | --flag, ...] in which each option of
    that command's parser is given at most once, by a full option string,
    with a value that does not start with "-", that its type accepts and
    that lies in its choices, and every required option is given.  For
    any other argv, None: parse_args then reads it, and owns every usage
    message, help text and exit 2.  It models store and store_true options
    only; tests/test_cli.py holds build_parser to them."""
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return None
    values = dict(command.defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = command.options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if type(value) is not str or value[:1] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not seen.issuperset(command.required):
        return None
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    """Run one subcommand.  The parser is built on the first call and kept
    for the process; cmd_<command> is looked up when called.  Plain argv
    (see _plain_args) is read from the options each subcommand's parser
    declares, without argparse's general parse; anything else goes through
    parse_args.  Either way the Namespace is the same.  An OpineqError that
    a subcommand raises is reported on stderr and exits EXIT_SCHEMA (repro
    handles its own, and exits EXIT_ERROR)."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = _parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except OpineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
