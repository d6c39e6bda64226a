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
          4 HYPOTHESIS_VIOLATED, 3 unreadable file, 5 malformed input or
          a value that leaves the float range)
  list    print the check registry

Usage errors exit 2 with argparse's message: an unknown subcommand, a
missing --check or --input, a non-integer --trials or --seed, a
non-numeric --tol and an unknown --example.

The environment variable OPINEQ_TOL overrides the relative tolerance for
fuzz and eval; an explicit --tol beats the environment.  All JSON output
is sorted and indented so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import checks, linalg
from . import fuzz as fuzz_mod
from . import repro as repro_mod
from .errors import OpineqError, UnknownCheck

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
        return checks._require_tol(explicit)
    env = os.environ.get("OPINEQ_TOL")
    if env is not None and env.strip():
        return checks._require_tol(float(env))
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


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "dim", "p", "m", "M",
                     "gap_min_eig", "verdict", "seed", "trial"])
    for report in reports:
        params = report.params

        def cell(value):
            return "" if value is None else value

        writer.writerow([
            report.check_id,
            cell(params.get("dim")),
            cell(params.get("p")),
            cell(params.get("m")),
            cell(params.get("M")),
            cell(report.gap_min_eig),
            report.verdict,
            cell(params.get("seed")),
            cell(params.get("trial")),
        ])
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
    try:
        tol = _resolve_tol(args.tol, fuzz_mod.FUZZ_TOL_REL)
        dims = _parse_dims(args.dim)
        p_values = _parse_p(args.p)
    except (ValueError, OpineqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        result = fuzz_mod.run_fuzz(
            args.check, trials=args.trials, dims=dims, p_values=p_values,
            seed=args.seed, tol_rel=tol, stop_on_fail=args.stop_on_fail)
    except OpineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
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
    try:
        tol = _resolve_tol(args.tol, linalg.DEFAULT_TOL_REL)
    except (ValueError, OpineqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        inst = checks.InstanceSpec.from_json_dict(data)
        report = checks.run_check(args.check, inst, tol_rel=tol)
    except OpineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    ev.add_argument("--input", required=True, metavar="PATH",
                    help="JSON file with keys A, p and optionally "
                         "B, map, m, M, x, f")
    ev.add_argument("--tol", type=float, default=None,
                    help=f"relative tolerance (default {linalg.DEFAULT_TOL_REL:g}, "
                         "or OPINEQ_TOL)")

    sub.add_parser("list", help="print the check registry")
    return parser


_parser = None


def main(argv=None) -> int:
    """Run one subcommand.  The parser is built on the first call and kept
    for the process; cmd_<command> is looked up when called."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return globals()["cmd_" + args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
