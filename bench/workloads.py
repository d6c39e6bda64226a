"""The benchmark's workloads and its correctness gate.

Every workload is a closed loop with one caller: the next operation
starts when the previous one returned.  A workload is a sequence of
rounds; a round is a fixed list of operations (fuzz calls, `opineq eval`
calls, one `opineq repro` on `cli_roundtrip`), so every round of a
workload does the same mix of work and only the sampled matrices change
with the seed.  See README.md for why each workload exists.

Each run draws a workload's `fuzz_seeds` fuzz seeds from `--seed` and
takes them in turn; one round per fuzz seed is a cycle.  More fuzz seeds
mean more distinct instances behind each figure, so the figures depend
less on the seed.  The first cycle is warm-up: it is checked but not
timed, and it records the reference digest of every fuzz output.  Each
later round must reproduce those bytes.

Times are in reference-host seconds (see Clock): the host this was
written on is shared, and its speed swings by half within seconds as
neighbours come and go, for minutes at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from opineq import checks, cli, fuzz

from tracer import OP_EVAL, OP_FUZZ, OP_REPRO, Tracer, layer_metrics

# bound before a traced round patches the json module and numpy.linalg
_dumps = json.dumps
_loads = json.loads
_eigh = np.linalg.eigh

FUZZ_TOL = repr(fuzz.FUZZ_TOL_REL)
EXIT_FOR = {checks.HOLDS: cli.EXIT_OK, checks.FAILS: cli.EXIT_FAIL,
            checks.HYPOTHESIS_VIOLATED: cli.EXIT_HYPOTHESIS}

SMALL_DIMS = (2, 3, 4, 5, 6)
LARGE_DIMS = (16, 32, 64)
FUZZ_CHECKS = tuple(c for c in checks.REGISTRY if c != "radius_chain")


def fuzz_json(reports) -> bytes:
    """The bytes `opineq fuzz --json` writes for these reports."""
    return (_dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)
            + "\n").encode()


def _read(path: Path) -> bytes:
    """A file the command should have written; missing reads as empty."""
    try:
        return path.read_bytes()
    except OSError:
        return b""


class Gate:
    """Operations attempted and those whose outcome was not the expected one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple, list] = {}     # key -> [sha256, times seen]

    def outcome(self, total: int, bad: int, what: str):
        self.attempted += total
        bad = min(bad, total)
        self.failed += bad
        if bad and len(self.problems) < 20:
            self.problems.append(what)

    def digest(self, key: tuple, data: bytes):
        h = hashlib.sha256(data).hexdigest()
        seen = self.digests.get(key)
        if seen is None:
            self.digests[key] = [h, 1]
            return
        seen[1] += 1
        self.outcome(1, seen[0] != h, f"output bytes changed on repeat: {key}")

    def require_repeats(self):
        for key, (_, times) in self.digests.items():
            if key[0] == "fuzz":
                self.outcome(1, times < 2, f"fuzz output never repeated: {key}")


# The calibration kernel: a fixed mix of the kinds of work opineq does, a
# Python loop and small and 64x64 symmetric eigensolves.  It depends on
# nothing in the package, so only the host's speed moves its time.
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = [m + m.T for m in _CAL_RNG.standard_normal((20, 5, 5))]
_CAL_LARGE = (lambda m: m + m.T)(_CAL_RNG.standard_normal((64, 64)))
CAL_EVERY_S = 0.05   # calibrate at the first operation boundary after this long
CAL_REF_S = 1e-3     # the kernel's time on the reference host
CAL_WINDOW = 3       # calibrations on each side of an operation that set its scale


def _kernel_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i
    for m in _CAL_SMALL:
        _eigh(m)
    _eigh(_CAL_LARGE)
    return time.perf_counter() - t0


class Clock:
    """Turns operation times into reference-host seconds.

    Every CAL_EVERY_S or so, between two operations, it times the
    calibration kernel (fastest of three).  `finish` divides each recorded
    operation time by the median kernel time of the CAL_WINDOW
    calibrations on either side of it and multiplies it by CAL_REF_S.  The
    median of a few neighbours follows the host's speed, which holds for a
    second or more, but not the jitter of single kernel runs.
    """

    def __init__(self):
        self._open: list[tuple[list, int, int]] = []
        self.kernel_s: list[float] = []
        self._t = 0.0
        self.calibrate()

    def calibrate(self):
        self.kernel_s.append(min(_kernel_s() for _ in range(3)))
        self._t = time.perf_counter()

    def record(self, times: list, dt: float):
        times.append(dt)
        self._open.append((times, len(times) - 1, len(self.kernel_s)))
        if time.perf_counter() - self._t > CAL_EVERY_S:
            self.calibrate()

    def finish(self):
        """Put every time recorded so far into reference-host seconds."""
        for times, i, n in self._open:
            near = self.kernel_s[max(0, n - CAL_WINDOW):n + CAL_WINDOW]
            times[i] *= CAL_REF_S / statistics.median(near)
        self._open.clear()


@dataclasses.dataclass
class Tally:
    """Timed figures from one kind of round (untraced or traced)."""

    trials: int = 0
    fuzz_s: float = 0.0
    op_s: float = 0.0
    json_bytes: int = 0
    # reference-host seconds of each fuzz call and of each eval call
    fuzz_ref: list = dataclasses.field(default_factory=list)
    eval_ref: list = dataclasses.field(default_factory=list)

    def trials_per_s(self) -> float:
        return self.trials / sum(self.fuzz_ref)

    def eval_ms(self) -> list:
        return sorted(1e3 * t for t in self.eval_ref)


class Runner:
    """Performs operations, times them and feeds the gate."""

    def __init__(self, workdir: Path, gate: Gate):
        self.workdir = workdir
        self.gate = gate
        self.tally = Tally()
        self.clock = Clock()
        self.tracer: Tracer | None = None
        self._files: dict[tuple, Path] = {}

    def _op(self, kind):
        return self.tracer.op(kind) if self.tracer else contextlib.nullcontext()

    def cli(self, kind: str, argv: list) -> tuple:
        """One `opineq` command through cli.main: (exit code, stdout, seconds)."""
        buf = io.StringIO()
        with self._op(kind), contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = cli.main([str(a) for a in argv])
            except (Exception, SystemExit) as exc:  # an outcome, counted by the caller
                code = repr(exc)
            dt = time.perf_counter() - t0
        self.tally.op_s += dt
        return code, buf.getvalue(), dt

    def record_fuzz(self, trials: int, dt: float):
        self.tally.trials += trials
        self.tally.fuzz_s += dt
        self.clock.record(self.tally.fuzz_ref, dt)

    def library_fuzz(self, check: str, seed: int, p_values: tuple, dims: tuple,
                     key: tuple) -> list:
        """fuzz.run_fuzz over one full (p, dim) schedule; every trial must HOLD."""
        trials = len(p_values) * len(dims)
        error = ""
        with self._op(OP_FUZZ):
            t0 = time.perf_counter()
            try:
                reports = fuzz.run_fuzz(check, trials=trials, dims=dims, p_values=p_values,
                                        seed=seed).reports
            except Exception as exc:
                reports, error = [], repr(exc)
            dt = time.perf_counter() - t0
        self.tally.op_s += dt
        self.record_fuzz(trials, dt)
        bad = trials - sum(r.verdict == checks.HOLDS for r in reports)
        self.gate.outcome(trials, bad, f"fuzz {check} seed {seed}: "
                          + (error if not reports else f"{bad} trials not HOLDS"))
        data = fuzz_json(reports)
        self.tally.json_bytes += len(data)
        self.gate.digest(("fuzz", *key), data)
        return reports

    def instance_file(self, check: str, seed: int, params: dict) -> Path:
        """Re-sample a fuzz trial's instance into an `eval --input` file."""
        p, dim, trial = params["p"], params["dim"], params["trial"]
        key = (check, seed, p, dim, trial)
        if key not in self._files:
            inst = fuzz.sample_instance(check, dim, seed, p, trial)
            self._files[key] = self.write(f"{check}-s{seed}-p{p:g}-d{dim}-t{trial}.json",
                                          inst.to_json_dict())
        return self._files[key]

    def write(self, name: str, obj) -> Path:
        path = self.workdir / name
        path.write_text(_dumps(obj))
        return path

    def eval(self, check: str, path: Path, verdict: str, gap: float):
        """`opineq eval` must reproduce the fuzz verdict and gap exactly."""
        code, out, dt = self.cli(OP_EVAL, ["eval", "--check", check, "--input", path,
                                           "--tol", FUZZ_TOL])
        self.clock.record(self.tally.eval_ref, dt)
        try:
            got = _loads(out)
        except ValueError:
            got = {}
        ok = (code == EXIT_FOR[verdict] and got.get("verdict") == verdict
              and got.get("gap_min_eig") == gap)
        self.gate.outcome(1, not ok, f"eval {path.name}: exit {code}, "
                          f"verdict {got.get('verdict')}, expected {verdict}")
        self.gate.digest(("eval", path.name), out.encode())


class LibraryFuzz:
    """Fuzz campaigns through fuzz.run_fuzz, each followed by eval replays.

    A round runs each check over its full (p, dim) schedule once, in one
    run_fuzz call, or with `per_trial` in one call per (p, dim), so that
    no single timed operation lasts long.  After each call it replays,
    through `opineq eval`, every trial at a dim in `eval_dims`, `passes`
    times.  Every round replays the same trials, so the latency samples of
    a run are the same mix of checks and dims whatever the seed and the
    number of rounds; replaying every trial, not a few, keeps the random
    map choice of single instances from moving the percentiles.
    """

    def __init__(self, check_ids, dims, eval_dims, fuzz_seeds, passes=1, per_trial=False):
        self.check_ids = tuple(check_ids)
        self.fuzz_seeds = fuzz_seeds
        self.dims = tuple(dims)
        self.eval_dims = tuple(eval_dims)
        self.passes = passes
        self.per_trial = per_trial
        self.setup_op = (self.check_ids[0], self.dims[0])

    def round(self, run: Runner, seed: int):
        for check in self.check_ids:
            p_values = checks.REGISTRY[check].default_p
            if self.per_trial:
                calls = [((p,), (dim,), (check, seed, p, dim))
                         for dim in self.dims for p in p_values]
            else:
                calls = [(p_values, self.dims, (check, seed))]
            for call in calls:
                reports = run.library_fuzz(check, seed, *call)
                picked = [rep for rep in reports if rep.params["dim"] in self.eval_dims]
                for _ in range(self.passes):
                    for rep in picked:
                        run.eval(check, run.instance_file(check, seed, rep.params),
                                 rep.verdict, rep.gap_min_eig)

    def finish(self, run: Runner):
        pass


class CliRoundtrip:
    """The user's command-line flow through cli.main, writing and reading files.

    A round runs `fuzz --json --csv` on a map check at dims 16 and 32,
    `fuzz --check lowner_heinz --p 2` (which finds FAILS by design and
    writes the witness sidecar), `eval --input` on witness instances and
    on instance files re-sampled from both fuzz runs, and `repro --json`.
    """

    MAP_CHECK = "reverse_monotonicity"
    MAP_TRIALS = 24            # two passes over 6 exponents x 2 dims
    # about 2% of lowner_heinz trials at p=2, dims 2-6, FAIL; with 250
    # trials a fuzz seed finds none about once in 100, and all the fuzz
    # seeds of a run about once in 1e8
    LH_TRIALS = 250
    # eval replays per round: all 24 map trials (dims 16 and 32) and 80
    # lowner_heinz trials at dims 2-6.  p50 falls among the small ones and
    # p90 near the middle of the map ones, where their times lie densest.
    LH_EVALS = 80
    WITNESS_EVALS = 8

    setup_op = (MAP_CHECK, 16)
    fuzz_seeds = 8

    def __init__(self):
        self.witnesses: dict[int, list] = {}      # seed -> [(path, gap)]
        self.fails_found = 0

    def _fuzz(self, run: Runner, check: str, seed: int, argv: list, trials: int,
              json_path: Path):
        code, _, dt = run.cli(OP_FUZZ, ["fuzz", "--check", check, "--seed", seed, *argv,
                                        "--trials", trials, "--json", json_path])
        run.record_fuzz(trials, dt)
        data = _read(json_path)
        try:
            reports = _loads(data)
        except ValueError:
            reports = []
        run.tally.json_bytes += len(data)
        return code, data, reports

    def round(self, run: Runner, seed: int):
        gate, d = run.gate, run.workdir
        mj, mc = d / f"map-s{seed}.json", d / f"map-s{seed}.csv"
        code, data, reports = self._fuzz(
            run, self.MAP_CHECK, seed, ["--dim", "16,32", "--csv", mc], self.MAP_TRIALS, mj)
        holds = [rep for rep in reports if rep["verdict"] == checks.HOLDS]
        gate.outcome(self.MAP_TRIALS, self.MAP_TRIALS - len(holds) + (code != cli.EXIT_OK),
                     f"fuzz {self.MAP_CHECK} seed {seed}: exit {code}")
        gate.digest(("fuzz", self.MAP_CHECK, seed), data + _read(mc))

        lj, lw = d / f"lh-s{seed}.json", d / f"lh-s{seed}.witness.json"
        lw.unlink(missing_ok=True)
        code, data, lh = self._fuzz(run, "lowner_heinz", seed, ["--p", "2"], self.LH_TRIALS, lj)
        fails = [rep for rep in lh if rep["verdict"] == checks.FAILS]
        lh_holds = [rep for rep in lh if rep["verdict"] == checks.HOLDS]
        sidecar = _read(lw)
        try:
            witnesses = _loads(sidecar) if sidecar else []
        except ValueError:
            witnesses = []
        bad = (self.LH_TRIALS - len(fails) - len(lh_holds)
               + (code != (cli.EXIT_FAIL if fails else cli.EXIT_OK))
               + (len(witnesses) != len(fails)))
        gate.outcome(self.LH_TRIALS, bad, f"fuzz lowner_heinz seed {seed}: exit {code}, "
                     f"{len(fails)} FAILS, {len(witnesses)} witnesses")
        gate.digest(("fuzz", "lowner_heinz", seed), data + sidecar)
        self.fails_found += len(fails)
        if seed not in self.witnesses:
            self.witnesses[seed] = [
                (run.write(f"witness-s{seed}-t{w['trial']}.json", w["instance"]), w["gap_min_eig"])
                for w in witnesses]

        # this seed's first witnesses, or any seed's when it found none
        pool = self.witnesses[seed] or [w for ws in self.witnesses.values() for w in ws]
        evals = [("lowner_heinz", path, checks.FAILS, gap)
                 for path, gap in (pool * self.WITNESS_EVALS)[:self.WITNESS_EVALS]]
        for check, found in ((self.MAP_CHECK, reports),
                             ("lowner_heinz", lh_holds[:self.LH_EVALS])):
            for rep in found:
                evals.append((check, run.instance_file(check, seed, rep["params"]),
                              rep["verdict"], rep["gap_min_eig"]))
        for check, path, verdict, gap in evals:
            run.eval(check, path, verdict, gap)

        rj = d / "repro.json"
        code, out, _ = run.cli(OP_REPRO, ["repro", "--json", rj])
        gate.outcome(1, code != cli.EXIT_OK, f"repro: exit {code}")
        gate.digest(("repro",), out.encode() + _read(rj))

    def finish(self, run: Runner):
        run.gate.outcome(1, self.fails_found == 0,
                         "lowner_heinz at p=2 found no FAILS in the whole run")


WORKLOADS = {
    "fuzz_small": lambda: LibraryFuzz(FUZZ_CHECKS, SMALL_DIMS, SMALL_DIMS, fuzz_seeds=4),
    # replays at dim 16 only: at dim 64 one eval's cost swings with the
    # sampled matrices by a factor of two, so its percentiles follow the seed
    "fuzz_large": lambda: LibraryFuzz(FUZZ_CHECKS, LARGE_DIMS, LARGE_DIMS[:1], fuzz_seeds=6),
    # replays stay at dims 2-6, where one eval takes milliseconds, not seconds
    "radius": lambda: LibraryFuzz(("radius_chain",), SMALL_DIMS + LARGE_DIMS, SMALL_DIMS,
                                  fuzz_seeds=5, passes=2, per_trial=True),
    "cli_roundtrip": CliRoundtrip,
}


def _percentile(samples: list, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path) -> tuple:
    """Run one workload; returns (gate, metrics, tracer or None, info)."""
    workload = WORKLOADS[name]()
    gate = Gate()
    run = Runner(workdir, gate)
    seeds = tuple(workload.fuzz_seeds * seed + i for i in range(workload.fuzz_seeds))
    for s in seeds:
        workload.round(run, s)

    plain, traced = Tally(), Tally()
    tracer = Tracer() if trace else None
    rounds = 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for s in seeds:
            run.tally = plain
            workload.round(run, s)
            if tracer is not None:
                run.tally, run.tracer = traced, tracer
                tracer.install()
                try:
                    workload.round(run, s)
                finally:
                    tracer.uninstall()
                    run.tracer = None
            rounds += 1
        now = time.perf_counter()
        # stop rather than start a cycle as long as this one that would overrun
        if smoke or now - t_start + (now - t_cycle) > seconds:
            break
    run.clock.calibrate()
    run.clock.finish()
    workload.finish(run)
    gate.require_repeats()

    info = {"rounds": rounds, "trials": plain.trials, "evals": len(plain.eval_ref),
            "fuzz_calls": len(plain.fuzz_ref),
            "measured_s": time.perf_counter() - t_start,
            "wall_trials_per_s": plain.trials / plain.fuzz_s,
            "kernel_ms_p50": 1e3 * statistics.median(run.clock.kernel_s)}
    if tracer is not None:
        metrics = layer_metrics(tracer, traced.trials, len(traced.eval_ref))
        metrics["cli.json_bytes_per_trial"] = plain.json_bytes / plain.trials
        metrics["trace.overhead_frac"] = traced.op_s / plain.op_s - 1.0
    else:
        eval_ms = plain.eval_ms()
        metrics = {
            "trials_per_s": plain.trials_per_s(),
            "eval_ms_p50": statistics.median(eval_ms),
            "eval_ms_p90": _percentile(eval_ms, 90),
        }
    return gate, metrics, tracer, info
