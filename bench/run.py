"""Outside-in benchmark for opineq.

Run from the repository root:

    python3 bench/run.py --workload fuzz_small --seed 1 --seconds 20 --trace 0

It imports the package from `src/` and drives it through its public API
and through `opineq.cli.main`, in this one process, with BLAS pinned to
one thread.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` reports the per-layer metrics from a run
whose rounds alternate untraced and traced.  `--smoke` runs a single
timed cycle and one set-up sample, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it
record the environment, the sample counts, the gate's outcome and the
sha256 of every fuzz output, so two commits can be compared byte for
byte.  The exit code is 0 when a result was printed, whatever the gate
found, and not 0 when the benchmark could not run at all.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread in this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11


def setup_seconds(clock, check: str, dim: int, seed: int, reps: int) -> float:
    """Median time, in reference-host seconds from `clock`, of a fresh
    interpreter that imports the package and completes its first check.
    One extra run first writes the bytecode cache and is not counted."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"from opineq import cli, fuzz; "
            f"fuzz.run_fuzz({check!r}, trials=1, dims=({dim},), seed={seed})")
    samples = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        clock.record(samples, time.perf_counter() - t0)
    clock.calibrate()
    clock.finish()
    return statistics.median(samples[1:])


def _blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int, load_before) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "commit": _commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one timed cycle and one set-up sample")
    args = parser.parse_args(argv)

    if not (SRC / "opineq" / "__init__.py").is_file():
        print(f"error: no opineq package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    load_before = list(os.getloadavg())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    metrics = {}
    if not args.trace:
        check, dim = workloads.WORKLOADS[args.workload]().setup_op
        metrics["setup_s"] = setup_seconds(workloads.Clock(), check, dim, args.seed,
                                           1 if args.smoke else SETUP_REPS)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        gate, found, tracer, info = workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics.update(found)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(args.seed, load_before)
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans, env)
        info["spans"] = len(tracer.name)
        info["spans_file"] = str(spans.relative_to(ROOT))

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(names)}",
              file=sys.stderr)
        return 1
    fuzz_digests = sorted((key, h) for key, (h, _) in gate.digests.items() if key[0] == "fuzz")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(info, sort_keys=True))
    for key, h in fuzz_digests:
        print(f"digest {' '.join(str(k) for k in key[1:])} {h}")
    combined = hashlib.sha256("".join(h for _, h in fuzz_digests).encode()).hexdigest()
    print(f"digest all {combined}")
    print(f"gate attempted={gate.attempted} failed={gate.failed} "
          f"error_frac={gate.failed / gate.attempted:.6g}")
    for problem in gate.problems:
        print(f"gate problem: {problem}")
    for m in declared:
        print(f"metric {m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
