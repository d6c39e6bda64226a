"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/summarize.py --trace 0 --seeds 1-10 --out results.json
    python3 bench/summarize.py --trace 1 --seeds 1,1 --workloads radius

For every workload and metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread: the distance between
the quartiles as a share of the median.  An end-to-end metric other than
`setup_s` is steady when its spread is below its bound in BENCHMARK.json
(the target is a third of the bound).  For traced runs it also checks
that the exact counts agree between runs made with the same seed.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("linalg.validate_calls_per_trial", "linalg.eig_calls_per_trial",
         "linalg.numerical_radius_eig_calls_per_call", "maps.apply_calls_per_trial",
         "cli.json_bytes_per_trial", "linalg.eig_unique_frac")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    digest = next(line.split()[-1] for line in lines if line.startswith("digest all "))
    return {"seed": seed, "env": env, "digest_all": digest, **result}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": m["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        if "bound" in m:
            entry["bound"] = m["bound"]
        out[m["name"]] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this path")
    args = parser.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    report = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        metrics = summarize(runs, declared)
        entry = {"metrics": metrics,
                 "correct": all(r["correct"] for r in runs),
                 "error_frac": [r["failed"] / r["attempted"] for r in runs],
                 "digest_all": {str(r["seed"]): r["digest_all"] for r in runs},
                 "env": [r["env"] for r in runs]}
        if args.trace:
            same = {}
            for r in runs:
                same.setdefault(r["seed"], []).append(r)
            entry["exact_counts_repeat"] = all(
                len({json.dumps([r["metrics"][n]["value"] for n in EXACT]) for r in group}) == 1
                for group in same.values())
        report["workloads"][workload] = entry
        for name, m in metrics.items():
            spread = m.get("spread")
            flag = ""
            if spread is not None and "bound" in m and name != "setup_s":
                flag = "ok" if spread < m["bound"] / 3 else (
                    "within bound" if spread < m["bound"] else "TOO WIDE")
            print(f"  {name:45s} median {m['median']:.6g} {m['unit']:6s}"
                  + (f" spread {spread:.3f} {flag}" if spread is not None else ""), flush=True)
        if args.trace:
            print(f"  exact counts repeat for equal seeds: {entry['exact_counts_repeat']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
