"""Randomized search for counterexamples to the registered checks.

Each check gets a dedicated instance sampler that satisfies the check's
hypotheses by construction, so a FAILS verdict points at the inequality
(or the engine), never at a sloppy instance.  Sampling is counter-based:
trial t of a run with seed s draws from Philox streams keyed by (s, t)
plus fixed sub-stream offsets, so any trial can be regenerated in
isolation and the full run is reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
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


def _aux_rng(seed: int, trial: int) -> np.random.Generator:
    return sampling.rng_for(seed, trial + _S_AUX)


def _window(rng) -> tuple[float, float]:
    """Random spectrum window inside [0.05, 20] with bounded conditioning."""
    lo = float(10.0 ** rng.uniform(-1.3, 0.3))
    hi = lo * float(10.0 ** rng.uniform(0.1, 1.0))
    return lo, hi


def _cfg(dim, seed, window) -> sampling.SamplerConfig:
    return sampling.SamplerConfig(
        dim=dim, seed=seed, spectrum_lo=window[0], spectrum_hi=window[1]
    )


def _random_map(seed: int, trial: int, dim: int) -> maps.MapSpec:
    """One of the four map families, chosen and built deterministically."""
    rng = sampling.rng_for(seed, trial + _S_MAP)
    kind = maps.KINDS[int(rng.integers(len(maps.KINDS)))]
    if kind == maps.NORMALIZED_TRACE:
        return maps.MapSpec.normalized_trace(dim)
    if kind == maps.COMPRESSION:
        k = 1 + int(rng.integers(dim))
        return maps.MapSpec.compression(sampling._isometry(rng, dim, k))
    if kind == maps.PINCHING:
        nblocks = 1 + int(rng.integers(dim))
        labels = rng.integers(nblocks, size=dim)
        blocks = [tuple(int(i) for i in np.flatnonzero(labels == b))
                  for b in range(nblocks)]
        return maps.MapSpec.pinching([b for b in blocks if b], dim)
    count = 2 + int(rng.integers(2))
    weights = rng.uniform(0.5, 1.5, size=count)
    weights = weights / weights.sum()
    unitaries = [sampling.random_orthogonal(dim, rng) for _ in range(count)]
    return maps.MapSpec.mixed_unitary(weights, unitaries)


# ----------------------------------------------------------------------
# per-check samplers: (dim, seed, p, trial) -> InstanceSpec
# ----------------------------------------------------------------------

def _sample_spd_pair_map(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    a = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial)
    b = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial + _S_B)
    return checks.InstanceSpec(A=a, B=b, p=p, map=_random_map(seed, trial, dim))


def _sample_sandwich_map(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    m_target = 1.0 + float(10.0 ** rng.uniform(-2.0, 0.8))
    a, b = sampling.random_sandwich_pair(_cfg(dim, seed, _window(rng)), m_target, trial)
    return checks.InstanceSpec(A=a, B=b, p=p, map=_random_map(seed, trial, dim))


def _sample_density(dim, seed, p, trial):
    # unit trace plus the unit window forces B = A, so the only valid
    # instances sit at the equality point; gate behavior is unit-tested
    a = sampling.random_density(sampling.SamplerConfig(dim=dim, seed=seed), trial)
    return checks.InstanceSpec(A=a, B=a.copy(), p=p)


def _sample_power_corollary(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    hi = 1.0 + float(10.0 ** rng.uniform(-1.5, 0.9))
    cfg = sampling.SamplerConfig(dim=dim, seed=seed,
                                 spectrum_lo=1.0 + 1e-6, spectrum_hi=hi)
    a = sampling.random_spd(cfg, trial)
    return checks.InstanceSpec(A=a, p=p, map=_random_map(seed, trial, dim))


def _sample_lowner_heinz(dim, seed, p, trial):
    # the bump spans three orders of magnitude on purpose: a nearly
    # isotropic bump commutes too well with A to ever break A^2 <= B^2,
    # and the p > 1 counterexample hunt needs that anisotropy
    a = sampling.random_spd(_cfg(dim, seed, (0.5, 2.0)), trial)
    bump = sampling.random_spd(_cfg(dim, seed, (1e-3, 1.0)), trial + _S_B)
    return checks.InstanceSpec(A=a, B=a + bump, p=p)


def _sample_single_spd(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    a = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial)
    return checks.InstanceSpec(A=a, p=p)


def _sample_norm_dominated(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    a, b = sampling.random_norm_dominated_pair(_cfg(dim, seed, _window(rng)), trial)
    return checks.InstanceSpec(A=a, B=b, p=p)


def _sample_norm_dominated_gap(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    gap = float(10.0 ** rng.uniform(-3.0, 0.0))
    a, b = sampling.random_norm_dominated_pair(
        _cfg(dim, seed, _window(rng)), trial, gap=gap)
    return checks.InstanceSpec(A=a, B=b, p=p)


def _sample_mond_pecaric(dim, seed, p, trial):
    # spectra separated around a split point: B <= split I <= A makes the
    # order hypothesis and the vector-expectation gate hold automatically
    rng = _aux_rng(seed, trial)
    split = float(10.0 ** rng.uniform(-0.3, 0.5))
    b_lo = split / float(10.0 ** rng.uniform(0.2, 1.0))
    a_hi = split * float(10.0 ** rng.uniform(0.2, 0.8))
    b = sampling.random_spd(
        sampling.SamplerConfig(dim=dim, seed=seed, spectrum_lo=b_lo, spectrum_hi=split),
        trial + _S_B)
    a = sampling.random_spd(
        sampling.SamplerConfig(dim=dim, seed=seed, spectrum_lo=split, spectrum_hi=a_hi),
        trial)
    f = checks._F_KINDS[int(rng.integers(len(checks._F_KINDS)))]
    x = sampling._unit_vector(rng, dim)
    return checks.InstanceSpec(A=a, B=b, p=p, x=x, f=f)


def _sample_holder_mccarthy(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    a = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial)
    return checks.InstanceSpec(A=a, p=p, x=sampling._unit_vector(rng, dim))


def _sample_square(dim, seed, p, trial):
    a = sampling.random_square(sampling.SamplerConfig(dim=dim, seed=seed), trial)
    return checks.InstanceSpec(A=a, p=p)


def _sample_radius_chain(dim, seed, p, trial):
    a = sampling.random_square(sampling.SamplerConfig(dim=dim, seed=seed), trial)
    if p < 0.0:
        # negative powers need a positive spectral radius; shifting by
        # 1.5 ||A|| puts every eigenvalue's real part above 0.5 ||A||
        a = a + 1.5 * linalg.norm_op(a) * np.eye(dim)
    return checks.InstanceSpec(A=a, p=p)


def _sample_spd_pair(dim, seed, p, trial):
    rng = _aux_rng(seed, trial)
    a = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial)
    b = sampling.random_spd(_cfg(dim, seed, _window(rng)), trial + _S_B)
    return checks.InstanceSpec(A=a, B=b, p=p)


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
    return sampler(dim, seed, p, trial)


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


def run_fuzz(check_id: str, *, trials: int, dims=(2, 3, 4, 5, 6),
             p_values=None, seed: int = 0, tol_rel: float = FUZZ_TOL_REL,
             stop_on_fail: bool = False) -> FuzzResult:
    """Run one check against `trials` sampled instances.

    Trial t uses p = p_values[t mod len(p_values)] and cycles dims with
    period len(p_values) * len(dims); reports come back ordered by t and
    carry seed/trial/dim in their params.  Every FAILS yields a witness
    holding the instance that failed; stop_on_fail ends the run there.
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
    for trial in range(trials):
        p = p_values[trial % len(p_values)]
        dim = dims[(trial // len(p_values)) % len(dims)]
        inst = sampler(dim, seed, p, trial)
        report = info.runner(inst, tol_rel=tol_rel)
        report = dataclasses.replace(
            report,
            params={**report.params, "seed": int(seed), "trial": int(trial),
                    "dim": int(dim)},
        )
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
