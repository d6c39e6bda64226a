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
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
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


def fuzz_digest(check_id: str, p_set: str, dims, trials: int) -> str:
    p_values = None if p_set == "registry" else BOUNDARY_P[check_id]
    result = fuzz.run_fuzz(check_id, trials=trials, dims=dims, p_values=p_values,
                           seed=SEED, tol_rel=fuzz.FUZZ_TOL_REL)
    return _sha16([report.to_json_dict() for report in result.reports])


def _bench_shape_reports(dims) -> list:
    """The reports of every non-radius check on the benchmark's shape."""
    reports = []
    for check_id in sorted(checks.REGISTRY):
        if check_id == "radius_chain":
            continue
        p_values = checks.REGISTRY[check_id].default_p
        for seed in BENCH_SEEDS:
            reports += fuzz.run_fuzz(check_id, trials=len(p_values) * len(dims), dims=dims,
                                     p_values=p_values, seed=seed).reports
    return reports


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


def _cli_stdout(argv) -> str:
    """Digest of what cli.main(argv) prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return _sha16_bytes(out.getvalue().encode())


def _cli_files(argv, *paths) -> tuple[str, ...]:
    """Digests of the files at paths after cli.main(argv) has written them."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return tuple(_sha16_bytes(pathlib.Path(path).read_bytes()) for path in paths)


def witness_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "lh.json")
        return _cli_files(["fuzz", "--check", "lowner_heinz", "--p", "2", "--trials", "120",
                           "--seed", str(SEED), "--json", report],
                          os.path.join(tmp, "lh.witness.json"))[0]


def cli_fuzz_digests() -> tuple[str, str]:
    """Digests of the --json and --csv files of a reverse_monotonicity fuzz."""
    with tempfile.TemporaryDirectory() as tmp:
        report, summary = os.path.join(tmp, "rm.json"), os.path.join(tmp, "rm.csv")
        return _cli_files(["fuzz", "--check", "reverse_monotonicity", "--dim", "16,32",
                           "--trials", "24", "--seed", str(SEED),
                           "--json", report, "--csv", summary],
                          report, summary)


def cli_repro_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "repro.json")
        return _cli_files(["repro", "--json", path], path)[0]


def eval_digest(check_id: str) -> str:
    p = checks.REGISTRY[check_id].default_p[0]
    inst = fuzz.sample_instance(check_id, dim=EVAL_DIM, seed=SEED, p=p, trial=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst.to_json_dict(), fh)
        return _cli_stdout(["eval", "--check", check_id, "--input", path])


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


def counts_table() -> str:
    counts = [bench_shape_counts(dims) for dims in BENCH_DIMS]
    lines = ["| per trial, benchmark fuzz shape | "
             + " | ".join(f"dims {dims[0]}-{dims[-1]}" for dims in BENCH_DIMS) + " |",
             "|---|" + "---|" * len(BENCH_DIMS)]
    lines += [f"| {name} | " + " | ".join(f"{c[name]:.3f}" for c in counts) + " |"
              for name in counts[0]]
    return "\n".join(lines)


if __name__ == "__main__":
    print(f"platform: {platform()}")
    print(table())
    print()
    print(counts_table())
