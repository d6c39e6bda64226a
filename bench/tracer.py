"""Outside-in tracer: spans around the package's public functions.

The package itself is not changed.  `Tracer.install` replaces functions
on the package's modules (and numpy's eigensolvers, and `json.loads` /
`json.dumps`, which the CLI calls) with wrappers that record one span per
call: name, start, end and the span that was open when it started.
`uninstall` puts every original back, so untraced rounds run the
package's own code with no wrapper in the way.

Spans are kept in flat arrays in memory and written out once at the end
of the run.  A span is only recorded inside an operation the benchmark
opened with `Tracer.op` (one fuzz call, one eval call, one repro call),
so the benchmark's own bookkeeping between operations never shows up.

Only process-local timers (`time.perf_counter`) are used.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import time
from array import array

import numpy as np

OP_FUZZ = "op.fuzz"
OP_EVAL = "op.eval"
OP_REPRO = "op.repro"

EIG_NAMES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.eigvals")
VALIDATE_NAMES = ("linalg.as_square", "linalg.is_symmetric",
                  "linalg.require_symmetric", "checks.InstanceSpec.__post_init__")
SERIALIZE_NAMES = ("cli._dump_json", "cli._csv_text", "cli._write_file",
                   "checks.CheckReport.to_json_dict", "checks.InstanceSpec.to_json_dict")
PARSE_NAMES = ("json.loads", "checks.InstanceSpec.from_json_dict")
SAMPLER_PREFIX = "fuzz._sample_"

_SAMPLING_FNS = ("rng_for", "random_orthogonal", "spd_from_spectrum", "random_spd",
                 "random_square", "random_sandwich_pair", "random_norm_dominated_pair",
                 "random_density", "random_unit_vector", "random_isometry")
_LINALG_FNS = ("as_square", "is_symmetric", "require_symmetric", "symmetrize",
               "spectral_decompose", "eigvals_sym", "power", "sqrt_factors",
               "conjugate_by_sqrt", "loewner_compare", "singular_values", "norm_op",
               "norm_hs", "norm_tr", "spectral_radius", "numerical_radius")
_MEANS_FNS = ("weighted_mean", "tsallis_entropy", "tsallis_from_mean", "compute_sandwich")
_CLI_FNS = ("build_parser", "cmd_fuzz", "cmd_eval", "cmd_repro",
            "_dump_json", "_csv_text", "_write_file")


class Tracer:
    """Span recorder plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cur = -1
        # eigensolver inputs seen per trial, for the unique fraction
        self.trial = -1
        self.in_fuzz = False
        self.eig_keys: set = set()
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.cur)
        self.end.append(0.0)
        self.cur = i
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.cur = self.parent[i]

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span for one operation the benchmark performs."""
        i = self._open(self._id(kind))
        self.in_fuzz = kind == OP_FUZZ
        try:
            yield
        finally:
            self._close(i)
            self.in_fuzz = False

    def wrap(self, fn, name: str, on_enter=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.cur < 0:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    # -- hooks ---------------------------------------------------------

    def _new_trial(self, _args):
        if self.in_fuzz:
            self.trial += 1

    def _hash_eig_input(self, args):
        # the traced run pays for this hashing; see trace.overhead_frac
        if self.in_fuzz and args:
            a = np.ascontiguousarray(args[0])
            key = hashlib.blake2b(a, digest_size=16)
            key.update(repr(a.shape).encode())
            self.eig_keys.add((self.trial, key.digest()))

    # -- install / uninstall ------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_enter=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, on_enter))
        else:
            new = self.wrap(raw, name, on_enter)
        setattr(owner, attr, new)

    def install(self):
        from opineq import checks, cli, fuzz, linalg, maps, means, repro, sampling

        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod, fns in ((sampling, _SAMPLING_FNS), (linalg, _LINALG_FNS),
                         (means, _MEANS_FNS), (maps, ("apply_map", "verify_map")),
                         (checks, ("_finish",)),
                         (fuzz, ("run_fuzz", "sample_instance")),
                         (cli, _CLI_FNS), (repro, ("run_all", "run_repro"))):
            short = mod.__name__.rsplit(".", 1)[-1]
            for fn in fns:
                self._patch(mod, fn, f"{short}.{fn}")
        for attr in ("__post_init__", "from_json_dict", "to_json_dict"):
            self._patch(checks.InstanceSpec, attr, f"checks.InstanceSpec.{attr}")
        self._patch(checks.CheckReport, "to_json_dict", "checks.CheckReport.to_json_dict")
        for attr in ("normalized_trace", "compression", "pinching", "mixed_unitary",
                     "from_json_dict"):
            self._patch(maps.MapSpec, attr, f"maps.MapSpec.{attr}")
        for name in EIG_NAMES:
            self._patch(np.linalg, name.rsplit(".", 1)[-1], name, self._hash_eig_input)
        for fn in ("loads", "dumps"):
            self._patch(json, fn, f"json.{fn}")
        # registry entries and samplers hold their functions directly
        for check_id, sampler in list(fuzz.FUZZ_SAMPLERS.items()):
            self._saved.append((fuzz.FUZZ_SAMPLERS, check_id, sampler))
            fuzz.FUZZ_SAMPLERS[check_id] = self.wrap(
                sampler, f"fuzz.{sampler.__name__}", self._new_trial)
        for check_id, info in list(checks.REGISTRY.items()):
            self._saved.append((checks.REGISTRY, check_id, info))
            checks.REGISTRY[check_id] = dataclasses.replace(
                info, runner=self.wrap(info.runner, f"checks.{info.runner.__name__}"))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._saved.clear()

    # -- output ----------------------------------------------------------

    def arrays(self):
        return (np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start), np.array(self.end))

    def save(self, path, env: dict):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, env=np.array(json.dumps(env, sort_keys=True)))


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True where some strict ancestor of the span has `flag` set."""
    n = flag.size
    par = np.where(parent < 0, n, parent)          # n is a sentinel root
    flag_ext = np.append(flag, False)
    below = np.zeros(n + 1, dtype=bool)
    while True:
        nxt = np.append(flag_ext[par] | below[par], False)
        if np.array_equal(nxt, below):
            return below[:n]
        below = nxt


def layer_metrics(tracer: Tracer, trials: int, evals: int) -> dict:
    """Per-layer figures from the recorded spans.

    Per-trial figures count only spans inside fuzz operations and divide
    by the fuzz trials those operations ran; per-eval figures count only
    spans inside eval operations.  A layer's time is the time of its
    outermost spans (a span inside another of the same set is not counted
    twice); self time is a span's duration minus its children's.
    """
    name, parent, start, end = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    self_time = dur - child

    def is_(names):
        return np.isin(name, [ids[n] for n in names if n in ids])

    def prefixed(prefix, exclude=()):
        return is_([n for n in tracer.names if n.startswith(prefix) and n not in exclude])

    in_fuzz = _under(is_([OP_FUZZ]), parent)
    in_eval = _under(is_([OP_EVAL]), parent)

    def outer_ms(mask, scope=in_fuzz):
        mask = mask & scope
        return 1e3 * float(dur[mask & ~_under(mask, parent)].sum())

    def count(mask):
        return int((mask & in_fuzz).sum())

    def per_trial(value):
        # a division, so a count over whole cycles reads the same in every run
        return value / trials if trials else 0.0

    eig = is_(EIG_NAMES) & in_fuzz
    nr = is_(["linalg.numerical_radius"]) & in_fuzz
    nr_calls = count(nr)
    nr_ms = outer_ms(nr)
    fuzz_ms = 1e3 * float(dur[is_([OP_FUZZ])].sum())
    checks_layer = prefixed("checks.", exclude=SERIALIZE_NAMES) & in_fuzz
    return {
        "sampling.ms_per_trial": per_trial(outer_ms(prefixed(SAMPLER_PREFIX))),
        "linalg.validate_calls_per_trial": per_trial(count(is_(VALIDATE_NAMES))),
        "linalg.validate_ms_per_trial": per_trial(outer_ms(is_(VALIDATE_NAMES))),
        "linalg.eig_calls_per_trial": per_trial(count(eig)),
        "linalg.eig_ms_per_trial": per_trial(1e3 * float(dur[eig].sum())),
        "linalg.eig_unique_frac": len(tracer.eig_keys) / max(count(eig), 1),
        "linalg.numerical_radius_ms_per_call": nr_ms / nr_calls if nr_calls else 0.0,
        "linalg.numerical_radius_eig_calls_per_call":
            count(is_(EIG_NAMES) & _under(nr, parent)) / nr_calls if nr_calls else 0.0,
        "linalg.numerical_radius_time_frac": nr_ms / fuzz_ms if fuzz_ms else 0.0,
        "means.ms_per_trial": per_trial(outer_ms(prefixed("means."))),
        "maps.apply_calls_per_trial": per_trial(count(is_(["maps.apply_map"]))),
        "maps.apply_ms_per_trial": per_trial(outer_ms(is_(["maps.apply_map"]))),
        "checks.finish_ms_per_trial": per_trial(outer_ms(is_(["checks._finish"]))),
        "checks.self_ms_per_trial": per_trial(1e3 * float(self_time[checks_layer].sum())),
        "fuzz.driver_self_ms_per_trial":
            per_trial(1e3 * float(self_time[is_(["fuzz.run_fuzz"]) & in_fuzz].sum())),
        "cli.serialize_ms_per_trial": per_trial(outer_ms(is_(SERIALIZE_NAMES))),
        "cli.parse_ms_per_eval": outer_ms(is_(PARSE_NAMES), in_eval) / evals if evals else 0.0,
    }
