"""Randomized search for counterexamples to the registered checks.

Each check gets a dedicated instance sampler that satisfies the check's
hypotheses by construction, so a FAILS verdict points at the inequality
(or the engine), never at a sloppy instance.  Sampling is counter-based:
trial t of a run with seed s draws from Philox streams keyed by (s, t)
plus fixed sub-stream offsets, so any trial can be regenerated in
isolation and the full run is reproducible byte for byte.

A sampler takes a seed and a plan, a list of (trial, dim, p), and returns
the plan's instances in order.  It draws every trial's numbers first and
then runs the plan's linear algebra stacked (sampling._Batch); a trial's
instance is the same bits whatever plan it is part of.  run_fuzz samples
its schedule in plans of _CHUNK trials; sample_instance is a plan of one.

Each chunk is then checked in groups, one per dim: the check runs its
matrix work stacked over the group (see checks.CheckInfo.group), and a
stacked call gives every trial the bits it would get alone, so a
trial's report does not depend on its group either.  A group that
raises is checked again one trial at a time, and run_fuzz reads the
outcomes in trial order.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from . import checks, linalg, maps, sampling
from .errors import InvalidSpec, UnknownCheck

__all__ = ["FUZZ_TOL_REL", "FuzzResult", "run_fuzz", "sample_instance"]

# Looser than the per-check default: random instances routinely stack
# several conjugations and fractional powers, and the probes put the
# worst honest rounding noise a little above 1e-13 on gaps of unit scale.
FUZZ_TOL_REL = 1e-8

# Sub-stream offsets added to the trial index so the second matrix, the
# map, the vector and the scalar choices never replay the draws used for
# the first matrix.
_S_B = 1 << 50
_S_MAP = 1 << 48
_S_AUX = 1 << 49

# trials run_fuzz samples per batch; at MAX_DIM a chunk's matrices take
# about 10 MB
_CHUNK = 64


def _window(rng) -> tuple[float, float]:
    """Random spectrum window inside [0.05, 20] with bounded conditioning."""
    lo = float(10.0 ** rng.uniform(-1.3, 0.3))
    hi = lo * float(10.0 ** rng.uniform(0.1, 1.0))
    return lo, hi


def _cfg(dim, window=(0.5, 2.0)) -> sampling.SamplerConfig:
    return sampling.SamplerConfig(dim=dim, spectrum_lo=window[0], spectrum_hi=window[1])


def _random_map(batch, rng, dim: int):
    """One of the four map families, drawn from rng; a cell of the batch."""
    kind = maps.KINDS[int(rng.integers(len(maps.KINDS)))]
    if kind == maps.NORMALIZED_TRACE:
        return batch.derive(lambda: maps.MapSpec.normalized_trace(dim))
    if kind == maps.COMPRESSION:
        k = 1 + int(rng.integers(dim))
        v = batch.isometry(rng, dim, k)
        return batch.derive(lambda: maps.MapSpec.compression(v.value))
    if kind == maps.PINCHING:
        nblocks = 1 + int(rng.integers(dim))
        labels = rng.integers(nblocks, size=dim)
        blocks = [tuple(int(i) for i in np.flatnonzero(labels == b))
                  for b in range(nblocks)]
        return batch.derive(lambda: maps.MapSpec.pinching([b for b in blocks if b], dim))
    count = 2 + int(rng.integers(2))
    weights = rng.uniform(0.5, 1.5, size=count)
    weights = weights / weights.sum()
    unitaries = [batch.isometry(rng, dim, dim) for _ in range(count)]
    return batch.derive(
        lambda: maps.MapSpec.mixed_unitary(weights, [u.value for u in unitaries]))


# ----------------------------------------------------------------------
# per-check samplers: (seed, plan of (trial, dim, p)) -> [InstanceSpec]
# ----------------------------------------------------------------------

def _planned(draw):
    """The sampler over plans for one trial's `draw(batch, trial, dim, p)`.

    draw takes all of the trial's numbers from the batch's streams and
    returns the cell that holds its InstanceSpec once the batch resolves.
    Trial t's streams are keyed (seed, t + offset) with the offsets
    below, so its instance does not depend on the rest of the plan.
    """
    @functools.wraps(draw)
    def sampler(seed: int, plan) -> list:
        batch = sampling._Batch(seed)
        cells = [draw(batch, trial, dim, p) for trial, dim, p in plan]
        batch.resolve()
        return [cell.value for cell in cells]
    return sampler


@_planned
def _sample_spd_pair_map(batch, trial, dim, p):
    aux, first, second, mrng = batch.streams(trial + _S_AUX, trial, trial + _S_B,
                                             trial + _S_MAP)
    a = batch.spd(first, _cfg(dim, _window(aux)))
    b = batch.spd(second, _cfg(dim, _window(aux)))
    m = _random_map(batch, mrng, dim)
    return batch.derive(
        lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p, map=m.value))


@_planned
def _sample_sandwich_map(batch, trial, dim, p):
    aux, first, mrng = batch.streams(trial + _S_AUX, trial, trial + _S_MAP)
    m_target = 1.0 + float(10.0 ** aux.uniform(-2.0, 0.8))
    a, b = batch.sandwich_pair(first, _cfg(dim, _window(aux)), m_target)
    m = _random_map(batch, mrng, dim)
    return batch.derive(
        lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p, map=m.value))


@_planned
def _sample_density(batch, trial, dim, p):
    # unit trace plus the unit window forces B = A, so the only valid
    # instances sit at the equality point; gate behavior is unit-tested
    (first,) = batch.streams(trial)
    a = batch.density(first, _cfg(dim))
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, B=a.value.copy(), p=p))


@_planned
def _sample_power_corollary(batch, trial, dim, p):
    aux, first, mrng = batch.streams(trial + _S_AUX, trial, trial + _S_MAP)
    hi = 1.0 + float(10.0 ** aux.uniform(-1.5, 0.9))
    a = batch.spd(first, _cfg(dim, (1.0 + 1e-6, hi)))
    m = _random_map(batch, mrng, dim)
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, p=p, map=m.value))


@_planned
def _sample_lowner_heinz(batch, trial, dim, p):
    # the bump spans three orders of magnitude on purpose: a nearly
    # isotropic bump commutes too well with A to ever break A^2 <= B^2,
    # and the p > 1 counterexample hunt needs that anisotropy
    first, second = batch.streams(trial, trial + _S_B)
    a = batch.spd(first, _cfg(dim, (0.5, 2.0)))
    bump = batch.spd(second, _cfg(dim, (1e-3, 1.0)))
    return batch.derive(
        lambda: checks.InstanceSpec(A=a.value, B=a.value + bump.value, p=p))


@_planned
def _sample_single_spd(batch, trial, dim, p):
    aux, first = batch.streams(trial + _S_AUX, trial)
    a = batch.spd(first, _cfg(dim, _window(aux)))
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, p=p))


@_planned
def _sample_norm_dominated(batch, trial, dim, p):
    aux, first = batch.streams(trial + _S_AUX, trial)
    a, b = batch.norm_dominated_pair(first, _cfg(dim, _window(aux)), 0.0)
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p))


@_planned
def _sample_norm_dominated_gap(batch, trial, dim, p):
    aux, first = batch.streams(trial + _S_AUX, trial)
    gap = float(10.0 ** aux.uniform(-3.0, 0.0))
    a, b = batch.norm_dominated_pair(first, _cfg(dim, _window(aux)), gap)
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p))


@_planned
def _sample_mond_pecaric(batch, trial, dim, p):
    # spectra separated around a split point: B <= split I <= A makes the
    # order hypothesis and the vector-expectation gate hold automatically
    aux, first, second = batch.streams(trial + _S_AUX, trial, trial + _S_B)
    split = float(10.0 ** aux.uniform(-0.3, 0.5))
    b_lo = split / float(10.0 ** aux.uniform(0.2, 1.0))
    a_hi = split * float(10.0 ** aux.uniform(0.2, 0.8))
    b = batch.spd(second, _cfg(dim, (b_lo, split)))
    a = batch.spd(first, _cfg(dim, (split, a_hi)))
    f = checks._F_KINDS[int(aux.integers(len(checks._F_KINDS)))]
    x = sampling._unit_vector(aux, dim)
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p, x=x, f=f))


@_planned
def _sample_holder_mccarthy(batch, trial, dim, p):
    aux, first = batch.streams(trial + _S_AUX, trial)
    a = batch.spd(first, _cfg(dim, _window(aux)))
    x = sampling._unit_vector(aux, dim)
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, p=p, x=x))


@_planned
def _sample_square(batch, trial, dim, p):
    (first,) = batch.streams(trial)
    a = sampling._square(first, _cfg(dim))
    return batch.derive(lambda: checks.InstanceSpec(A=a, p=p))


@_planned
def _sample_radius_chain(batch, trial, dim, p):
    (first,) = batch.streams(trial)
    a = sampling._square(first, _cfg(dim))
    if p < 0.0:
        # negative powers need a positive spectral radius; shifting by
        # 1.5 ||A|| puts every eigenvalue's real part above 0.5 ||A||
        a = a + 1.5 * linalg.norm_op(a) * np.eye(dim)
    return batch.derive(lambda: checks.InstanceSpec(A=a, p=p))


@_planned
def _sample_spd_pair(batch, trial, dim, p):
    aux, first, second = batch.streams(trial + _S_AUX, trial, trial + _S_B)
    a = batch.spd(first, _cfg(dim, _window(aux)))
    b = batch.spd(second, _cfg(dim, _window(aux)))
    return batch.derive(lambda: checks.InstanceSpec(A=a.value, B=b.value, p=p))


FUZZ_SAMPLERS = {
    "info_monotonicity": _sample_spd_pair_map,
    "reverse_monotonicity": _sample_sandwich_map,
    "ando_converse": _sample_sandwich_map,
    "density_trace": _sample_density,
    "furuta_bounds": _sample_spd_pair_map,
    "seo_bound": _sample_spd_pair_map,
    "lowner_heinz": _sample_lowner_heinz,
    "norm_power_lemma": _sample_single_spd,
    "lh_extension": _sample_norm_dominated,
    "mn2012": _sample_norm_dominated_gap,
    "mond_pecaric": _sample_mond_pecaric,
    "holder_mccarthy": _sample_holder_mccarthy,
    "norm_chain": _sample_square,
    "radius_chain": _sample_radius_chain,
    "power_norm": _sample_spd_pair,
    "norm_refinement": _sample_spd_pair,
    "power_corollary": _sample_power_corollary,
}


def sample_instance(check_id: str, dim: int, seed: int, p: float,
                    trial: int) -> checks.InstanceSpec:
    """Regenerate the exact instance a fuzz trial would use."""
    sampler = FUZZ_SAMPLERS.get(check_id)
    if sampler is None:
        raise UnknownCheck(f"no sampler for check {check_id!r}")
    return sampler(seed, [(trial, dim, p)])[0]


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


def _outcomes(info, plan, instances, tol_rel) -> list:
    """Each planned trial's report, or the exception its check raised, in
    plan order; the trials of one dim run through the check as one group."""
    by_dim: dict[int, list] = {}
    for j, (_, dim, _) in enumerate(plan):
        by_dim.setdefault(dim, []).append(j)
    out = [None] * len(plan)
    for rows in by_dim.values():
        for j, outcome in zip(rows, _run(info, [instances[j] for j in rows], tol_rel)):
            out[j] = outcome
    return out


def _run(info, group, tol_rel) -> list:
    """The check's reports on a group; when the group raises, each
    instance's report or exception, run alone."""
    try:
        return info.group(group, tol_rel)
    except Exception as exc:  # an outcome: run_fuzz raises it in trial order
        if len(group) == 1:
            return [exc]
        return [_run(info, [inst], tol_rel)[0] for inst in group]


def run_fuzz(check_id: str, *, trials: int, dims=(2, 3, 4, 5, 6),
             p_values=None, seed: int = 0, tol_rel: float = FUZZ_TOL_REL,
             stop_on_fail: bool = False) -> FuzzResult:
    """Run one check against `trials` sampled instances.

    Trial t uses p = p_values[t mod len(p_values)] and cycles dims with
    period len(p_values) * len(dims); reports come back ordered by t and
    carry seed/trial/dim in their params.  Every FAILS yields a witness
    holding the instance that failed.  Each chunk of trials is checked in
    groups, one per dim, before its outcomes are read in trial order:
    the first trial whose check raised re-raises that exception, unless
    stop_on_fail has ended the run at an earlier FAILS.  The outcomes
    after that FAILS, in its chunk, are computed and dropped.
    """
    info = checks.resolve_check(check_id)
    if trials < 0:
        raise InvalidSpec(f"trials must be >= 0, got {trials}")
    if not dims:
        raise InvalidSpec("need at least one dimension")
    tol_rel = checks._require_tol(tol_rel)
    dims = tuple(int(d) for d in dims)
    if p_values is None or not len(p_values):
        p_values = info.default_p
    p_values = tuple(float(p) for p in p_values)
    sampler = FUZZ_SAMPLERS[check_id]
    start = time.perf_counter()

    counts = {checks.HOLDS: 0, checks.FAILS: 0, checks.HYPOTHESIS_VIOLATED: 0}
    reports: list[checks.CheckReport] = []
    witnesses = []
    plans = ([(t, dims[(t // len(p_values)) % len(dims)], p_values[t % len(p_values)])
              for t in range(c, min(c + _CHUNK, trials))]
             for c in range(0, trials, _CHUNK))
    chunks = ((plan, sampler(seed, plan)) for plan in plans)
    checked = (row for plan, instances in chunks
               for row in zip(plan, instances, _outcomes(info, plan, instances, tol_rel)))
    for (trial, dim, p), inst, report in checked:
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
