"""The report-level diff of tests/fuzz_digests.py, on a few configurations.

`python tests/fuzz_digests.py --diff OTHER_SRC` runs every digest
configuration on two source trees and prints what moved, table by
table.  Here the same function runs on every table, keeping only
lowner_heinz's configurations where a table has one per check: against
this tree itself it prints nothing, and against a copy whose
FUZZ_TOL_REL is doubled it prints exactly the records that carry that
tolerance.
"""

import shutil
from pathlib import Path

import fuzz_digests
import opineq

SRC = Path(opineq.__file__).resolve().parent.parent

# the tables whose records do not carry run_fuzz's tolerance: eval runs at
# the checks' own, repro at its examples', and the CSV has no tol_used
UNMOVED = ("`repro --json` (`run_all`)", "`repro --json` file", "`eval` stdout")


PER_CHECK = ("fuzz_records", "bench_shape_records", "eval_records")


def _configurations() -> list:
    return [(table, label, fn, args) for table, label, fn, args in fuzz_digests.configurations()
            if fn not in PER_CHECK or label.split()[0] == "lowner_heinz"]


def test_a_tree_diffed_against_itself_reports_nothing():
    assert fuzz_digests.diff_lines(SRC, _configurations()) == []


def test_a_doubled_fuzz_tolerance_moves_exactly_the_records_that_carry_it(tmp_path):
    shutil.copytree(SRC / "opineq", tmp_path / "opineq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    policy = tmp_path / "opineq" / "linalg.py"
    text = policy.read_text()
    planted = text.replace("\nFUZZ_TOL_REL = 1e-8 ", "\nFUZZ_TOL_REL = 2e-8 ")
    assert planted != text
    policy.write_text(planted)
    configs = _configurations()
    tables: dict[str, list] = {}
    for (table, label, *_), records in zip(configs, fuzz_digests.summaries(configs)):
        keys = [key for key, _ in records]
        moves = table not in UNMOVED and label != "--csv"
        tables.setdefault(table, []).append((label, keys if moves else [], len(keys)))
    expected = []
    for table, rows in tables.items():
        moved = sum(len(keys) for _, keys, _ in rows)
        if moved:
            expected += [f"{table}: {moved} of {sum(n for *_, n in rows)} records changed"]
            expected += [f"  {label}: {n} of {n}: {fuzz_digests._spans(keys)}"
                         for label, keys, n in rows if keys]
            expected += ["  verdict flips: none", "  largest |gap change| / tol_used: 0",
                         "  params changed: none", "  FAILS witnesses appeared: none",
                         "  FAILS witnesses vanished: none"]
    # the five fuzz columns, the benchmark's two shapes, the sidecar and the files
    assert len(tables) == 12 and sum(not line.startswith(" ") for line in expected) == 9
    assert fuzz_digests.diff_lines(tmp_path, configs) == expected
