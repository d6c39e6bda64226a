"""Digests of the fuzz JSON, the reference for byte-identity checks.

Each digest is the first 16 hex digits of the sha256 of
json.dumps([report.to_json_dict() ...], indent=2, sort_keys=True) for
one run_fuzz call with seed 7 and FUZZ_TOL_REL.  Every check is run five
ways: its registry exponents and a boundary set that reaches every
branch, each at dims 2-6 x 120 trials and at dim 16 x 12 trials, and its
registry exponents at dims 32 and 64 x 12 trials.  Twelve trials is the
least that reaches dim 64 for the checks with six registry exponents
(the dim advances once per cycle through the exponents).  The
`repro --json` output of run_all is digested the same way.

More digests cover the command line's own output, the sha256 of the
bytes it writes: the witness sidecar of `opineq fuzz --check
lowner_heinz --p 2` (seed 7, 120 trials), whose instances go through
InstanceSpec.to_json_dict; the --json and --csv files of `opineq fuzz
--check reverse_monotonicity --dim 16,32` (seed 7, 24 trials); the file
of `opineq repro --json`; and, for every check, the `opineq eval`
stdout of its seed-7 fuzz instance at dim EVAL_DIM, trial 0 and the
first registry exponent.

Two digests pin the benchmark's fuzz shape (bench/workloads.py): each
check but radius_chain over one full schedule of its registry exponents
times BENCH_DIMS[k], in one run_fuzz call with run_fuzz's default
tolerance, for each of the seeds 0-3, so that every group holds 2-6
instances, as the benchmark times them.

The bytes depend on numpy and on the BLAS/LAPACK build (and the CPU
kernel it picks), so a digest is only comparable on the platform it was
recorded on; see PLATFORM.  Run with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fuzz_digests.py

prints the digest table in the layout CHANGES.md uses, and then, for the
benchmark's fuzz shape at each of BENCH_DIMS, the check-group calls and
the stacked eigh and eigvalsh calls (and the matrices they solve) per
trial, counted by wrapping CheckInfo.group and numpy's two solvers.

A digest shows that bytes moved, not which reports moved.  With

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fuzz_digests.py --diff OTHER_SRC

the script runs every digest configuration twice, each time in a fresh
interpreter: once on OTHER_SRC (the directory that holds the other
tree's opineq package) and once on this tree's src.  It then prints,
per digest table, the records (reports, witnesses, CSV rows, repro
results) whose JSON changed, the verdict flips by direction, the largest
|gap change| / tol_used, the params that changed and each FAILS witness
that appeared or vanished, or "no record changed".
"""

from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from opineq import checks, cli, fuzz, repro

SEED = 7
EVAL_DIM = 3

# exponent sets that reach every branch of each check
BOUNDARY_P = {
    "ando_converse": (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
    "density_trace": (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
    "power_corollary": (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
    "info_monotonicity": (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0),
    "reverse_monotonicity": (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0),
    "furuta_bounds": (0.1, 0.5, 1.0),
    "seo_bound": (0.1, 0.5, 0.9),
    "lowner_heinz": (0.0, 0.5, 1.0, 1.5, 2.0),
    "norm_power_lemma": (-1.0, 0.0, 0.5, 1.0, 2.0),
    "lh_extension": (-1.0, 0.0, 0.5, 1.0, 2.0),
    "mond_pecaric": (-1.0, 0.0, 0.5, 1.0, 2.0),
    "mn2012": (0.0, 0.5, 1.0),
    "holder_mccarthy": (-1.0, 0.5, 1.0, 2.0),
    "norm_chain": (-1.0, 0.5, 1.0, 3.0),
    "radius_chain": (-1.0, 0.5, 1.0, 3.0),
    "power_norm": (0.0, 0.5, 1.0, 2.0),
    "norm_refinement": (0.5, 1.0, 2.0),
}

# (column label, exponent set, dims, trials)
COLUMNS = (
    ("registry p, dims 2-6", "registry", (2, 3, 4, 5, 6), 120),
    ("registry p, dim 16", "registry", (16,), 12),
    ("boundary p, dims 2-6", "boundary", (2, 3, 4, 5, 6), 120),
    ("boundary p, dim 16", "boundary", (16,), 12),
    ("registry p, dims 32-64", "registry", (32, 64), 12),
)


# the benchmark's fuzz shape: small and large dims, and its fuzz seeds
BENCH_DIMS = ((2, 3, 4, 5, 6), (16, 32, 64))
BENCH_SEEDS = (0, 1, 2, 3)


def platform() -> dict:
    """The numpy version and BLAS/LAPACK builds the bytes depend on."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "blas": (deps["blas"]["name"], deps["blas"].get("version")),
        "lapack": (deps["lapack"]["name"], deps["lapack"].get("version")),
    }


def _sha16(obj) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fuzz_reports(check_id: str, p_set: str, dims, trials: int) -> list:
    """The JSON of one run's reports, in trial order."""
    p_values = None if p_set == "registry" else BOUNDARY_P[check_id]
    result = fuzz.run_fuzz(check_id, trials=trials, dims=dims, p_values=p_values,
                           seed=SEED, tol_rel=fuzz.FUZZ_TOL_REL)
    return [report.to_json_dict() for report in result.reports]


def fuzz_digest(check_id: str, p_set: str, dims, trials: int) -> str:
    return _sha16(fuzz_reports(check_id, p_set, dims, trials))


def _bench_shape_checks() -> list:
    return [check_id for check_id in sorted(checks.REGISTRY) if check_id != "radius_chain"]


def _bench_shape_run(check_id: str, dims, seed: int) -> list:
    """The reports of one check's full schedule on the benchmark's shape."""
    p_values = checks.REGISTRY[check_id].default_p
    return fuzz.run_fuzz(check_id, trials=len(p_values) * len(dims), dims=dims,
                         p_values=p_values, seed=seed).reports


def _bench_shape_reports(dims) -> list:
    """The reports of every non-radius check on the benchmark's shape."""
    return [report for check_id in _bench_shape_checks() for seed in BENCH_SEEDS
            for report in _bench_shape_run(check_id, dims, seed)]


def bench_shape_digest(dims) -> str:
    """Digest of the reports of every non-radius check on the benchmark's shape."""
    return _sha16([report.to_json_dict() for report in _bench_shape_reports(dims)])


def bench_shape_counts(dims) -> dict:
    """Per trial of the benchmark's shape at dims: CheckInfo.group calls,
    and numpy's eigh and eigvalsh calls with the matrices they solve."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[f"{name} calls"] += 1
            if name != "group":
                counts[f"{name} matrices"] += args[0].size // args[0].shape[-1] ** 2
            return fn(*args, **kwargs)
        return wrapper

    registry, solvers = dict(checks.REGISTRY), (np.linalg.eigh, np.linalg.eigvalsh)
    try:
        for check_id, info in registry.items():
            checks.REGISTRY[check_id] = dataclasses.replace(
                info, group=counting("group", info.group))
        np.linalg.eigh, np.linalg.eigvalsh = (counting(fn.__name__, fn) for fn in solvers)
        trials = len(_bench_shape_reports(dims))
    finally:
        checks.REGISTRY.update(registry)
        np.linalg.eigh, np.linalg.eigvalsh = solvers
    names = ("group calls", "eigh calls", "eigh matrices", "eigvalsh calls", "eigvalsh matrices")
    return {name: counts[name] / trials for name in names}


def repro_digest() -> str:
    return _sha16([result.to_json_dict() for result in repro.run_all()])


def _sha16_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_files(argv, *names) -> tuple[bytes, ...]:
    """The files names after cli.main(argv) has written them: argv writes
    into a fresh temporary directory, which its {tmp} fields name."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([arg.format(tmp=tmp) for arg in argv])
        return tuple(pathlib.Path(tmp, name).read_bytes() for name in names)


def witness_file() -> bytes:
    return _cli_files(["fuzz", "--check", "lowner_heinz", "--p", "2", "--trials", "120",
                       "--seed", str(SEED), "--json", "{tmp}/lh.json"], "lh.witness.json")[0]


def witness_digest() -> str:
    return _sha16_bytes(witness_file())


def cli_fuzz_files() -> tuple[bytes, bytes]:
    """The --json and --csv files of a reverse_monotonicity fuzz."""
    return _cli_files(["fuzz", "--check", "reverse_monotonicity", "--dim", "16,32",
                       "--trials", "24", "--seed", str(SEED),
                       "--json", "{tmp}/rm.json", "--csv", "{tmp}/rm.csv"], "rm.json", "rm.csv")


def cli_fuzz_digests() -> tuple[str, str]:
    return tuple(_sha16_bytes(data) for data in cli_fuzz_files())


def cli_repro_file() -> bytes:
    return _cli_files(["repro", "--json", "{tmp}/repro.json"], "repro.json")[0]


def cli_repro_digest() -> str:
    return _sha16_bytes(cli_repro_file())


def eval_stdout(check_id: str) -> str:
    """What `opineq eval` prints for the check's seed-7 fuzz instance."""
    p = checks.REGISTRY[check_id].default_p[0]
    inst = fuzz.sample_instance(check_id, dim=EVAL_DIM, seed=SEED, p=p, trial=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst.to_json_dict(), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["eval", "--check", check_id, "--input", path])
    return out.getvalue()


def eval_digest(check_id: str) -> str:
    return _sha16_bytes(eval_stdout(check_id).encode())


def table() -> str:
    lines = ["| check | " + " | ".join(label for label, *_ in COLUMNS) + " |",
             "|---|" + "---|" * len(COLUMNS)]
    for check_id in sorted(checks.REGISTRY):
        cells = [f"`{fuzz_digest(check_id, p_set, dims, trials)}`"
                 for _, p_set, dims, trials in COLUMNS]
        lines.append(f"| `{check_id}` | " + " | ".join(cells) + " |")
    lines.append(f"| `repro --json` (`run_all`) | `{repro_digest()}` |"
                 + " |" * (len(COLUMNS) - 1))
    lines.append(f"| `fuzz --check lowner_heinz --p 2` witnesses | `{witness_digest()}` |"
                 + " |" * (len(COLUMNS) - 1))
    json_digest, csv_digest = cli_fuzz_digests()
    lines.append(f"| `fuzz --check reverse_monotonicity --dim 16,32` --json, --csv files "
                 f"| `{json_digest}` | `{csv_digest}` |" + " |" * (len(COLUMNS) - 2))
    lines.append(f"| `repro --json` file | `{cli_repro_digest()}` |"
                 + " |" * (len(COLUMNS) - 1))
    lines.append("| benchmark fuzz shape, dims 2-6 and 16-64 | "
                 + " | ".join(f"`{bench_shape_digest(dims)}`" for dims in BENCH_DIMS)
                 + " |" * (len(COLUMNS) - len(BENCH_DIMS)))
    lines += ["", "| check | `eval` stdout |", "|---|---|"]
    lines += [f"| `{check_id}` | `{eval_digest(check_id)}` |"
              for check_id in sorted(checks.REGISTRY)]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# report-level diff between two source trees
# ----------------------------------------------------------------------

def fuzz_records(check_id: str, p_set: str, dims, trials: int) -> list:
    return [(rep["params"]["trial"], rep) for rep in fuzz_reports(check_id, p_set, dims, trials)]


def bench_shape_records(check_id: str, dims, seed: int) -> list:
    return [(rep.params["trial"], rep.to_json_dict())
            for rep in _bench_shape_run(check_id, dims, seed)]


def repro_records() -> list:
    return [(res["example_id"], res) for res in (r.to_json_dict() for r in repro.run_all())]


def witness_records() -> list:
    return [(w["trial"], w) for w in json.loads(witness_file())]


def cli_json_records() -> list:
    return [(rep["params"]["trial"], rep) for rep in json.loads(cli_fuzz_files()[0])]


def cli_csv_records() -> list:
    rows = csv.DictReader(io.StringIO(cli_fuzz_files()[1].decode()))
    return [(int(row["trial"]), row) for row in rows]


def cli_repro_records() -> list:
    return [(res["example_id"], res) for res in json.loads(cli_repro_file())]


def eval_records(check_id: str) -> list:
    return [(check_id, json.loads(eval_stdout(check_id)))]


def configurations() -> list:
    """Every digest configuration as (table, label, records, args): the
    function of this module named records, called with args, gives its
    records as (key, JSON value) pairs, keyed by trial or by example."""
    configs = [(label, check_id, "fuzz_records", [check_id, p_set, list(dims), trials])
               for label, p_set, dims, trials in COLUMNS for check_id in sorted(checks.REGISTRY)]
    configs += [(f"benchmark fuzz shape, dims {dims[0]}-{dims[-1]}", f"{check_id} seed {seed}",
                 "bench_shape_records", [check_id, list(dims), seed])
                for dims in BENCH_DIMS for check_id in _bench_shape_checks()
                for seed in BENCH_SEEDS]
    configs += [("`repro --json` (`run_all`)", "run_all", "repro_records", []),
                ("`fuzz --check lowner_heinz --p 2` witnesses", "sidecar", "witness_records", []),
                ("`fuzz --check reverse_monotonicity --dim 16,32` files", "--json",
                 "cli_json_records", []),
                ("`fuzz --check reverse_monotonicity --dim 16,32` files", "--csv",
                 "cli_csv_records", []),
                ("`repro --json` file", "file", "cli_repro_records", [])]
    configs += [("`eval` stdout", check_id, "eval_records", [check_id])
                for check_id in sorted(checks.REGISTRY)]
    return configs


def _summary(value) -> dict:
    """What the diff reads of one record: its JSON's digest, and its
    verdict, gap, tolerance and params when it has them."""
    return {"json": _sha16(value), "verdict": value.get("verdict"),
            "gap": value.get("gap_min_eig"), "tol": value.get("tol_used"),
            "params": value.get("params", {}),
            # a FAILS report, or a sidecar witness, which holds its instance
            "witness": value.get("verdict") == checks.FAILS or "instance" in value}


def summaries(configs) -> list:
    """Each configuration's records, summarized, computed in this process."""
    return [[(key, _summary(value)) for key, value in globals()[fn](*args)]
            for _, _, fn, args in configs]


def _summaries_in(src, configs) -> list:
    """summaries(configs) computed by a fresh interpreter that imports the
    opineq of the source tree src (the directory holding opineq)."""
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    script = ("import json, sys, opineq, fuzz_digests\n"
              "json.dump([opineq.__file__, fuzz_digests.summaries(json.load(sys.stdin))],"
              " sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(configs),
                          capture_output=True, text=True, env=env, cwd=tests)
    if proc.returncode:
        raise RuntimeError(f"the configurations failed under {src}:\n{proc.stderr}")
    source, out = json.loads(proc.stdout)
    if not pathlib.Path(source).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise RuntimeError(f"{src} holds no opineq package: {source} was imported")
    return out


def _spans(keys) -> str:
    """Keys as text; integer keys (trials) as runs first-last."""
    if not all(isinstance(key, int) for key in keys):
        return ", ".join(map(str, keys))
    runs = [[key for _, key in run]
            for _, run in itertools.groupby(enumerate(keys), lambda e: e[1] - e[0])]
    return ", ".join(f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}" for run in runs)


def _table_diff(table, configs) -> list:
    """The diff lines of one table from (label, old, new) per
    configuration, old and new its records as {key: summary}."""
    lines, total, moved = [], 0, []
    for label, old, new in configs:
        keys = list(dict.fromkeys([*old, *new]))
        total += len(keys)
        changed = [k for k in keys if old.get(k, {}).get("json") != new.get(k, {}).get("json")]
        if changed:
            lines.append(f"  {label}: {len(changed)} of {len(keys)}: {_spans(changed)}")
        moved += [(f"{label} {k}", old.get(k, {}), new.get(k, {})) for k in changed]
    if not moved:
        return []
    flips, shifts, params, appeared, vanished = collections.Counter(), [], set(), [], []
    for name, a, b in moved:
        if a.get("verdict") and b.get("verdict") and a["verdict"] != b["verdict"]:
            flips[f"{a['verdict']} -> {b['verdict']}"] += 1
        if all(isinstance(x.get(f), float) for x in (a, b) for f in ("gap", "tol")):
            shifts.append((abs(b["gap"] - a["gap"]) / b["tol"], name))
        pa, pb = a.get("params", {}), b.get("params", {})
        params.update(key for key in {*pa, *pb} if pa.get(key) != pb.get(key))
        if b.get("witness") and not a.get("witness"):
            appeared.append(name)
        if a.get("witness") and not b.get("witness"):
            vanished.append(name)
    largest = max(shifts, default=None)
    return [f"{table}: {len(moved)} of {total} records changed", *lines,
            "  verdict flips: " + (", ".join(f"{flip} {n}" for flip, n in sorted(flips.items()))
                                   or "none"),
            "  largest |gap change| / tol_used: "
            + (f"{largest[0]:.3g} ({largest[1]})" if largest and largest[0] else
               f"{largest[0]:.3g}" if largest else "none"),
            "  params changed: " + (", ".join(sorted(params)) or "none"),
            "  FAILS witnesses appeared: " + (", ".join(appeared) or "none"),
            "  FAILS witnesses vanished: " + (", ".join(vanished) or "none")]


def diff_lines(other_src, configs=None) -> list:
    """The report-level diff of configs (every digest configuration when
    None) from other_src, the old tree, to this tree, table by table: the
    records whose JSON changed, verdict flips by direction, the largest
    |gap change| / tol_used, the params that changed and each FAILS
    witness that appeared or vanished.  No lines when nothing changed."""
    configs = configurations() if configs is None else configs
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    tables: dict[str, list] = {}
    for (table, label, _, _), old, new in zip(configs, _summaries_in(other_src, configs),
                                              _summaries_in(src, configs)):
        tables.setdefault(table, []).append((label, dict(old), dict(new)))
    return [line for table, rows in tables.items() for line in _table_diff(table, rows)]


def counts_table() -> str:
    counts = [bench_shape_counts(dims) for dims in BENCH_DIMS]
    lines = ["| per trial, benchmark fuzz shape | "
             + " | ".join(f"dims {dims[0]}-{dims[-1]}" for dims in BENCH_DIMS) + " |",
             "|---|" + "---|" * len(BENCH_DIMS)]
    lines += [f"| {name} | " + " | ".join(f"{c[name]:.3f}" for c in counts) + " |"
              for name in counts[0]]
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"] and len(sys.argv) == 3:
        print("\n".join(diff_lines(sys.argv[2]) or ["no record changed"]))
    elif len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} [--diff OTHER_SRC]")
    else:
        print(f"platform: {platform()}")
        print(table())
        print()
        print(counts_table())
