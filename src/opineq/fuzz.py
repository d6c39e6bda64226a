"""Randomized search for counterexamples to the registered checks.

Each check gets a dedicated instance sampler that satisfies the check's
hypotheses by construction, so a FAILS verdict points at the inequality
(or the engine), never at a sloppy instance.  Sampling is counter-based:
trial t of a run with seed s draws from Philox streams keyed by (s, t)
plus fixed sub-stream offsets, so any trial can be regenerated in
isolation and the full run is reproducible byte for byte.

A sampler takes a seed and a plan, a list of (trial, dim, p), and returns
the plan's instances in order.  Each is a recipe under _planned, which
registers it in FUZZ_SAMPLERS for the checks it names: it names its
sub-streams and returns fields that make their hypotheses hold, and
_planned keys the streams, resolves the batch and builds the instances,
unchecked.  Every trial's numbers are drawn first, then the plan's linear
algebra runs stacked (sampling._Batch); a trial's instance is the same
bits whatever plan it is part of.  sample_instance is a plan of one;
run_fuzz samples its schedule in chunks sized by the run's largest dim.

Each chunk is then checked in groups, one per dim: the check runs its
matrix work stacked over the group (see checks.CheckInfo.group), and a
stacked call gives every trial the bits it would get alone, so a
trial's report does not depend on its group either.  A group that
raises is checked again one trial at a time, and run_fuzz reads the
outcomes in trial order.  A chunk's sampler and its groups run on one
linalg.Spectra, which keeps every eigensolve for the chunk: the
decomposition of A behind a sandwich sample is the one the check of
that dim's group takes, since it is the same trials in the same order.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from . import checks, inputs, linalg, maps, sampling
from .errors import InvalidSpec, UnknownCheck
from .linalg import FUZZ_TOL_REL   # named in linalg's tolerance policy

__all__ = ["FUZZ_TOL_REL", "FuzzResult", "run_fuzz", "sample_instance"]

FUZZ_SAMPLERS: dict = {}   # check id -> sampler; each recipe registers itself (_planned)

# Sub-stream offsets added to the trial index so the second matrix, the
# map, the vector and the scalar choices never replay the draws used for
# the first matrix.
_S_B = 1 << 50
_S_MAP = 1 << 48
_S_AUX = 1 << 49

# trials per chunk at MAX_DIM, where their matrices take about 10 MB; a
# chunk at a smaller dim holds as many trials as fit in the same memory,
# up to _CHUNK_CAP, as each trial's Python objects cost memory too (a
# 3,000-trial run at dims 2-6 took about a third less time in chunks of
# 512 than in chunks of 64, for 2 MB more peak RSS; in one chunk, a
# further quarter less for another 11 MB)
_CHUNK_AT_MAX_DIM = 64
_CHUNK_CAP = 512


def _window(rng) -> tuple[float, float]:
    """Random spectrum window inside [0.05, 20] with bounded conditioning."""
    lo = float(10.0 ** rng.uniform(-1.3, 0.3))
    hi = lo * float(10.0 ** rng.uniform(0.1, 1.0))
    return lo, hi


def _random_map(batch, rng, dim: int):
    """One of the four map families, drawn from rng: a MapSpec or a cell of the batch."""
    kind = maps.KINDS[int(rng.integers(len(maps.KINDS)))]
    if kind == maps.NORMALIZED_TRACE:
        return maps.MapSpec(kind, dim, 1)
    if kind == maps.COMPRESSION:
        k = 1 + int(rng.integers(dim))
        v = batch.isometry(rng, dim, k)
        return batch.derive(lambda: maps.MapSpec(kind, dim, k, isometry=v.value))
    if kind == maps.PINCHING:   # a block per label drawn, in label order
        labels = rng.integers(1 + int(rng.integers(dim)), size=dim).tolist()
        return maps.MapSpec(kind, dim, dim, partition=tuple(
            tuple(i for i, label in enumerate(labels) if label == b) for b in sorted(set(labels))))
    count = 2 + int(rng.integers(2))
    weights = rng.uniform(0.5, 1.5, size=count)
    weights = weights / weights.sum()
    unitaries = [batch.isometry(rng, dim, dim) for _ in range(count)]
    return batch.derive(lambda: maps.MapSpec(
        kind, dim, dim, weights=weights, unitaries=tuple(u.value for u in unitaries)))


# ----------------------------------------------------------------------
# per-check samplers: (seed, plan of (trial, dim, p)) -> [InstanceSpec]
# ----------------------------------------------------------------------

def _planned(*offsets, check_ids):
    """Decorate a recipe into the sampler over plans of (trial, dim, p), and
    register it in FUZZ_SAMPLERS under each of check_ids (ValueError, and
    nothing registered, if one of them has a sampler already).

    The recipe, draw(batch, dim, p, *streams), declares its streams by
    their offsets: trial t gets rng_for(seed, t + k) for each k, in
    order, so its instance does not depend on the rest of the plan.  It
    draws the trial's numbers from them and returns the instance's
    fields other than p, each a batch cell or a plain value; once the
    batch resolves, the sampler builds each instance in plan order, on
    spectra (a linalg.Spectra, or a fresh one when None), with no check:
    it is InstanceSpec._trusted's one caller.  run_fuzz or sample_instance
    validated the plan's trials, dims and p, and the recipes build valid
    values (windows in [0.05, 20], sign-fixed QR isometries, plain
    MapSpecs); the check entry still tests symmetry and declared signs,
    and linalg.Spectra refuses non-finite input.
    """
    def decorate(draw):
        @functools.wraps(draw)
        def sampler(seed: int, plan, spectra=None) -> list:
            batch = sampling._Batch(seed, spectra)
            fields = [draw(batch, dim, p, *batch.streams(*(trial + k for k in offsets)))
                      for trial, dim, p in plan]
            batch.resolve()
            return [checks.InstanceSpec._trusted(p=p, **{
                        key: value.value if isinstance(value, sampling._Cell) else value
                        for key, value in row.items()})
                    for (_, _, p), row in zip(plan, fields)]
        if not FUZZ_SAMPLERS.keys().isdisjoint(check_ids):
            raise ValueError(f"{draw.__name__}: one of {check_ids} already has a sampler")
        FUZZ_SAMPLERS.update(dict.fromkeys(check_ids, sampler))
        return sampler
    return decorate


@_planned(_S_AUX, 0, _S_B, _S_MAP,
          check_ids=("info_monotonicity", "furuta_bounds", "seo_bound"))
def _sample_spd_pair_map(batch, dim, p, aux, first, second, mrng):
    return {"A": batch.spd(first, dim, *_window(aux)),
            "B": batch.spd(second, dim, *_window(aux)),
            "map": _random_map(batch, mrng, dim)}


@_planned(_S_AUX, 0, _S_MAP, check_ids=("reverse_monotonicity", "ando_converse"))
def _sample_sandwich_map(batch, dim, p, aux, first, mrng):
    m_target = 1.0 + float(10.0 ** aux.uniform(-2.0, 0.8))
    a, b = batch.sandwich_pair(first, dim, *_window(aux), m_target)
    return {"A": a, "B": b, "map": _random_map(batch, mrng, dim)}


@_planned(0, check_ids=("density_trace",))
def _sample_density(batch, dim, p, first):
    # unit trace plus the unit window forces B = A, so the only valid
    # instances sit at the equality point; gate behavior is unit-tested
    a = batch.density(first, dim, 0.5, 2.0)
    return {"A": a, "B": batch.derive(lambda: a.value.copy())}


@_planned(_S_AUX, 0, _S_MAP, check_ids=("power_corollary",))
def _sample_power_corollary(batch, dim, p, aux, first, mrng):
    hi = 1.0 + float(10.0 ** aux.uniform(-1.5, 0.9))
    return {"A": batch.spd(first, dim, 1.0 + 1e-6, hi), "map": _random_map(batch, mrng, dim)}


@_planned(0, _S_B, check_ids=("lowner_heinz",))
def _sample_lowner_heinz(batch, dim, p, first, second):
    # the bump spans three orders of magnitude on purpose: a nearly
    # isotropic bump commutes too well with A to ever break A^2 <= B^2,
    # and the p > 1 counterexample hunt needs that anisotropy
    a = batch.spd(first, dim, 0.5, 2.0)
    bump = batch.spd(second, dim, 1e-3, 1.0)
    return {"A": a, "B": batch.derive(lambda: a.value + bump.value)}


@_planned(_S_AUX, 0, check_ids=("norm_power_lemma",))
def _sample_single_spd(batch, dim, p, aux, first):
    return {"A": batch.spd(first, dim, *_window(aux))}


@_planned(_S_AUX, 0, check_ids=("lh_extension",))
def _sample_norm_dominated(batch, dim, p, aux, first):
    a, b = batch.norm_dominated_pair(first, dim, *_window(aux), 0.0)
    return {"A": a, "B": b}


@_planned(_S_AUX, 0, check_ids=("mn2012",))
def _sample_norm_dominated_gap(batch, dim, p, aux, first):
    gap = float(10.0 ** aux.uniform(-3.0, 0.0))
    a, b = batch.norm_dominated_pair(first, dim, *_window(aux), gap)
    return {"A": a, "B": b}


@_planned(_S_AUX, 0, _S_B, check_ids=("mond_pecaric",))
def _sample_mond_pecaric(batch, dim, p, aux, first, second):
    # spectra separated around a split point: B <= split I <= A makes the
    # order hypothesis and the vector-expectation gate hold automatically
    split = float(10.0 ** aux.uniform(-0.3, 0.5))
    b_lo = split / float(10.0 ** aux.uniform(0.2, 1.0))
    a_hi = split * float(10.0 ** aux.uniform(0.2, 0.8))
    b = batch.spd(second, dim, b_lo, split)
    a = batch.spd(first, dim, split, a_hi)
    return {"A": a, "B": b, "f": checks._F_KINDS[int(aux.integers(len(checks._F_KINDS)))],
            "x": sampling._unit_vector(aux, dim)}


@_planned(_S_AUX, 0, check_ids=("holder_mccarthy",))
def _sample_holder_mccarthy(batch, dim, p, aux, first):
    return {"A": batch.spd(first, dim, *_window(aux)), "x": sampling._unit_vector(aux, dim)}


@_planned(0, check_ids=("norm_chain",))
def _sample_square(batch, dim, p, first):
    return {"A": sampling._square(first, dim)}


@_planned(0, check_ids=("radius_chain",))
def _sample_radius_chain(batch, dim, p, first):
    a = sampling._square(first, dim)
    if p < 0.0:
        # negative powers need a positive spectral radius; shifting by
        # 1.5 ||A|| puts every eigenvalue's real part above 0.5 ||A||
        a = a + 1.5 * linalg.norm_op(a) * np.eye(dim)
    return {"A": a}


@_planned(_S_AUX, 0, _S_B, check_ids=("power_norm", "norm_refinement"))
def _sample_spd_pair(batch, dim, p, aux, first, second):
    return {"A": batch.spd(first, dim, *_window(aux)), "B": batch.spd(second, dim, *_window(aux))}


def sample_instance(check_id: str, dim: int, seed: int, p: float,
                    trial: int) -> checks.InstanceSpec:
    """Regenerate the exact instance a fuzz trial would use.

    trial, dim and seed must be integers, not bools, and dim lie in [1,
    MAX_DIM] (InvalidSpec); p must be a number, not a bool or a string
    (SchemaError), and finite (InvalidSpec), as InstanceSpec requires.
    """
    sampler = FUZZ_SAMPLERS.get(check_id)
    if sampler is None:
        raise UnknownCheck(f"no sampler for check {check_id!r}")
    trial, dim = inputs.integer(trial, "trial"), inputs.dim(dim)
    seed = inputs.integer(seed, "seed")
    return sampler(seed, [(trial, dim, inputs.finite("p", p))])[0]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

@dataclasses.dataclass
class FuzzResult:
    """Everything one fuzz run produced, reports ordered by trial index."""

    check_id: str
    trials: int
    seed: int
    tol_rel: float
    counts: dict
    reports: list
    witnesses: list
    elapsed_s: float

    @property
    def failures(self) -> int:
        return self.counts.get(checks.FAILS, 0)


def _chunk_size(dims) -> int:
    """Trials per chunk for a run at these dims, each in [1, MAX_DIM]:
    _CHUNK_AT_MAX_DIM at MAX_DIM, more below it, at most _CHUNK_CAP."""
    return min(_CHUNK_CAP, _CHUNK_AT_MAX_DIM * inputs.MAX_DIM ** 2 // max(dims) ** 2)


def _chunks(trials: int, size: int, stop_on_fail: bool):
    """(start, stop) of each chunk of a run's trials: chunks of `size`
    trials, or with stop_on_fail of _CHUNK_AT_MAX_DIM trials doubling up
    to `size`; the last chunk may be shorter."""
    start, n = 0, min(_CHUNK_AT_MAX_DIM, size) if stop_on_fail else size
    while start < trials:
        yield start, min(start + n, trials)
        start, n = start + n, min(2 * n, size)


def _outcomes(info, plan, instances, tol_rel, spectra=None) -> list:
    """Each planned trial's report, or the exception its check raised, in
    plan order; the trials of one dim run through the check as one group,
    every group on spectra (see CheckInfo.group)."""
    by_dim: dict[int, list] = {}
    for j, (_, dim, _) in enumerate(plan):
        by_dim.setdefault(dim, []).append(j)
    out = [None] * len(plan)
    for rows in by_dim.values():
        group = [instances[j] for j in rows]
        for j, outcome in zip(rows, _run(info, group, tol_rel, spectra)):
            out[j] = outcome
    return out


def _run(info, group, tol_rel, spectra=None) -> list:
    """The check's reports on a group; when the group raises, each
    instance's report or exception, run alone."""
    try:
        return info.group(group, tol_rel, spectra)
    except Exception as exc:  # an outcome: run_fuzz raises it in trial order
        if len(group) == 1:
            return [exc]
        return [_run(info, [inst], tol_rel, spectra)[0] for inst in group]


def _checked(info, sampler, seed, plans, tol_rel):
    """(plan row, instance, outcome) of every trial, plan by plan.  Each
    plan is one chunk, sampled and checked on one linalg.Spectra: the
    sampler's decompositions and the checks' are made once for both."""
    for plan in plans:
        spectra = linalg.Spectra()
        instances = sampler(seed, plan, spectra)
        yield from zip(plan, instances, _outcomes(info, plan, instances, tol_rel, spectra))


def run_fuzz(check_id: str, *, trials: int, dims=(2, 3, 4, 5, 6),
             p_values=None, seed: int = 0, tol_rel: float = FUZZ_TOL_REL,
             stop_on_fail: bool = False) -> FuzzResult:
    """Run one check against `trials` sampled instances.

    Trial t uses p = p_values[t mod len(p_values)] (the check's default_p
    when p_values is None) and cycles dims with period len(p_values) *
    len(dims).  Every exponent must be a finite number, not a bool, and
    every dim an integer in [1, MAX_DIM], even one that no trial
    reaches, or the run raises InvalidSpec before it samples; so does an
    empty p_values.  Reports come back ordered by t and
    carry seed/trial/dim in their params.  Every FAILS yields a witness
    holding the instance that failed.

    The trials are checked in chunks of a size set by the largest dim:
    64 trials at MAX_DIM, proportionally more at smaller dims, at most
    512 (a default 1,000-trial run at dims 2-6 takes two chunks), each
    sampled and checked on one linalg.Spectra.  With stop_on_fail the
    chunks start at 64 trials and double up to that size.  Each chunk
    is checked in groups, one per dim, before its outcomes are read in
    trial order: the first trial whose check raised re-raises that
    exception, unless stop_on_fail has ended the run at an earlier
    FAILS.  The outcomes after that FAILS, in its chunk, are computed
    and dropped: fewer than 64 when it falls among the first 64 trials,
    as with chunks of 64, and fewer than its chunk's size after that, so
    the run checks at most twice the trials chunks of 64 would.
    """
    info = checks.resolve_check(check_id)
    trials, seed = inputs.integer(trials, "trials"), inputs.integer(seed, "seed")
    if trials < 0:
        raise InvalidSpec(f"trials must be >= 0, got {trials}")
    tol_rel = inputs.tolerance(tol_rel)
    try:   # every dim is checked here, whether or not a trial reaches it
        dims = tuple(inputs.dim(d) for d in dims)
    except TypeError:
        raise InvalidSpec(f"dims must be a sequence of integers, got {dims!r}") from None
    if not dims:
        raise InvalidSpec("need at least one dimension")
    try:
        if isinstance(p_values, str):   # a sequence of characters
            raise TypeError(p_values)
        p_values = (info.default_p if p_values is None
                    else tuple(inputs.real(p) for p in p_values))
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpec(f"p_values must be a sequence of numbers, got {p_values!r}") from None
    if not p_values:
        raise InvalidSpec("need at least one exponent")
    if not np.isfinite(p_values).all():
        raise InvalidSpec(f"p_values must be finite, got {p_values!r}")
    sampler = FUZZ_SAMPLERS[check_id]
    start = time.perf_counter()

    counts = {checks.HOLDS: 0, checks.FAILS: 0, checks.HYPOTHESIS_VIOLATED: 0}
    reports: list[checks.CheckReport] = []
    witnesses = []
    plans = ([(t, dims[(t // len(p_values)) % len(dims)], p_values[t % len(p_values)])
              for t in range(lo, hi)]
             for lo, hi in _chunks(trials, _chunk_size(dims), stop_on_fail))
    for (trial, dim, p), inst, report in _checked(info, sampler, seed, plans, tol_rel):
        if isinstance(report, Exception):
            raise report
        # a fresh report, so its params are the run's to extend
        report.params.update(seed=int(seed), trial=int(trial), dim=int(dim))
        reports.append(report)
        counts[report.verdict] += 1
        if report.verdict == checks.FAILS:
            witnesses.append({
                "check_id": check_id,
                "seed": int(seed),
                "trial": int(trial),
                "dim": int(dim),
                "p": float(p),
                "gap_min_eig": report.gap_min_eig,
                "tol_used": report.tol_used,
                "instance": inst.to_json_dict(),
            })
            if stop_on_fail:
                break
    return FuzzResult(
        check_id=check_id,
        trials=len(reports),
        seed=int(seed),
        tol_rel=float(tol_rel),
        counts=counts,
        reports=reports,
        witnesses=witnesses,
        elapsed_s=time.perf_counter() - start,
    )
