"""Tests for the randomized counterexample search."""

import dataclasses
import json

import numpy as np
import pytest

from opineq import checks, fuzz
from opineq.errors import InvalidSpec, NotPositiveDefinite, UnknownCheck


def _dump(result):
    """Stable serialization of a run's reports for byte comparison."""
    return json.dumps([r.to_json_dict() for r in result.reports],
                      sort_keys=True)


def test_samplers_cover_registry():
    assert set(fuzz.FUZZ_SAMPLERS) == set(checks.REGISTRY)


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_sampled_instances_satisfy_hypotheses(check_id):
    # every sampler must construct valid instances: no verdict may be
    # HYPOTHESIS_VIOLATED, and at the default exponents nothing fails
    result = fuzz.run_fuzz(check_id, trials=36, seed=7)
    assert result.trials == 36
    assert result.counts[checks.HYPOTHESIS_VIOLATED] == 0
    assert result.counts[checks.FAILS] == 0
    assert result.counts[checks.HOLDS] == 36
    assert result.witnesses == []
    for trial, report in enumerate(result.reports):
        assert report.params["seed"] == 7
        assert report.params["trial"] == trial
        assert report.params["dim"] in (2, 3, 4, 5, 6)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_run_fuzz_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("lowner_heinz", trials=4, p_values=(2.0,), tol_rel=tol)


def test_rerun_is_deterministic():
    a = fuzz.run_fuzz("info_monotonicity", trials=24, seed=3)
    b = fuzz.run_fuzz("info_monotonicity", trials=24, seed=3)
    assert _dump(a) == _dump(b)


def test_seeds_change_instances():
    a = fuzz.run_fuzz("power_norm", trials=6, seed=1)
    b = fuzz.run_fuzz("power_norm", trials=6, seed=2)
    assert _dump(a) != _dump(b)


def test_schedule_cycles_p_then_dim():
    result = fuzz.run_fuzz("power_norm", trials=8, seed=5,
                           p_values=(0.5, 2.0), dims=(2, 3))
    ps = [r.params["p"] for r in result.reports]
    dims = [r.params["dim"] for r in result.reports]
    assert ps == [0.5, 2.0] * 4
    assert dims == [2, 2, 3, 3, 2, 2, 3, 3]


def test_monotonicity_failure_hunt_finds_witnesses():
    result = fuzz.run_fuzz("lowner_heinz", trials=400, seed=0,
                           p_values=(2.0,), stop_on_fail=True)
    assert result.failures >= 1
    assert result.trials < 400  # stop_on_fail truncates at the first hit
    assert result.reports[-1].verdict == checks.FAILS
    assert len(result.witnesses) == result.failures


def test_witness_replays_to_the_same_failure():
    result = fuzz.run_fuzz("lowner_heinz", trials=400, seed=0,
                           p_values=(2.0,), stop_on_fail=True)
    witness = result.witnesses[0]
    # round-trip through text like the CLI sidecar file would
    payload = json.loads(json.dumps(witness))
    inst = checks.InstanceSpec.from_json_dict(payload["instance"])
    rep = checks.run_check("lowner_heinz", inst, tol_rel=fuzz.FUZZ_TOL_REL)
    assert rep.verdict == checks.FAILS
    assert abs(rep.gap_min_eig - payload["gap_min_eig"]) <= \
        1e-9 * max(1.0, abs(payload["gap_min_eig"]))


def test_witness_regeneration_matches_sample_instance():
    result = fuzz.run_fuzz("lowner_heinz", trials=400, seed=0,
                           p_values=(2.0,), stop_on_fail=True)
    witness = result.witnesses[0]
    regen = fuzz.sample_instance("lowner_heinz", witness["dim"],
                                 witness["seed"], witness["p"],
                                 witness["trial"])
    stored = checks.InstanceSpec.from_json_dict(witness["instance"])
    assert np.array_equal(regen.A, stored.A)
    assert np.array_equal(regen.B, stored.B)


def test_full_run_counts_every_failure():
    truncated = fuzz.run_fuzz("lowner_heinz", trials=120, seed=0,
                              p_values=(2.0,), stop_on_fail=True)
    full = fuzz.run_fuzz("lowner_heinz", trials=120, seed=0,
                         p_values=(2.0,))
    assert full.trials == 120
    assert full.failures >= truncated.failures
    assert full.counts[checks.HOLDS] + full.failures == 120


def test_sample_instance_is_pure():
    for check_id in ("info_monotonicity", "mond_pecaric", "radius_chain"):
        p = checks.REGISTRY[check_id].default_p[0]
        first = fuzz.sample_instance(check_id, 4, 9, p, 5)
        second = fuzz.sample_instance(check_id, 4, 9, p, 5)
        other = fuzz.sample_instance(check_id, 4, 9, p, 6)
        assert np.array_equal(first.A, second.A)
        assert not np.array_equal(first.A, other.A)


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheck):
        fuzz.run_fuzz("not_a_check", trials=1)
    with pytest.raises(UnknownCheck):
        fuzz.sample_instance("not_a_check", 2, 0, 0.5, 0)


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("power_norm", trials=-1)
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("power_norm", trials=4, dims=())


def test_zero_trials_is_a_valid_empty_run():
    result = fuzz.run_fuzz("power_norm", trials=0, seed=1)
    assert result.trials == 0
    assert result.counts == {checks.HOLDS: 0, checks.FAILS: 0,
                             checks.HYPOTHESIS_VIOLATED: 0}


# ----------------------------------------------------------------------
# chunked sampling never shows in the output
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dims, trials", [((2, 3, 4, 5, 6), 2 * fuzz._CHUNK + 5),
                                          ((16, 64), fuzz._CHUNK + 3)])
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_run_fuzz_checks_the_instances_sample_instance_builds(monkeypatch, check_id,
                                                              dims, trials):
    # record what run_fuzz hands the check, across chunk boundaries, and
    # compare each trial's with the trial sampled on its own; the check
    # itself is replaced by a canned report, which carries the instance it
    # was given, to keep the large dims cheap
    info = checks.REGISTRY[check_id]
    seed = 11
    canned = info.runner(fuzz.sample_instance(check_id, 2, seed, info.default_p[0], 0),
                         tol_rel=fuzz.FUZZ_TOL_REL)
    seen = []

    def record(insts, tol_rel):
        assert len({inst.A.shape for inst in insts}) == 1
        seen.extend(insts)
        return [dataclasses.replace(canned, params={"instance": inst.to_json_dict()})
                for inst in insts]

    monkeypatch.setitem(checks.REGISTRY, check_id,
                        dataclasses.replace(info, group=record))
    result = fuzz.run_fuzz(check_id, trials=trials, dims=dims, seed=seed)
    assert len(seen) == result.trials == trials
    ps = info.default_p
    for trial, report in enumerate(result.reports):
        dim = dims[(trial // len(ps)) % len(dims)]
        alone = fuzz.sample_instance(check_id, dim, seed, ps[trial % len(ps)], trial)
        assert report.params["instance"] == alone.to_json_dict()


@pytest.mark.parametrize("seed, p", [(8, 2.0), (3, 1.5)])
def test_stop_on_fail_run_is_a_prefix_of_the_full_run(seed, p):
    # seed 8 first fails at trial 7, inside the first chunk; seed 3 at
    # trial 74, in the second, and fails again at 102 in the same chunk
    full = fuzz.run_fuzz("lowner_heinz", trials=200, seed=seed, p_values=(p,))
    stopped = fuzz.run_fuzz("lowner_heinz", trials=200, seed=seed, p_values=(p,),
                            stop_on_fail=True)
    first = next(r.params["trial"] for r in full.reports if r.verdict == checks.FAILS)
    assert stopped.trials == first + 1
    assert [r.to_json_dict() for r in stopped.reports] == \
        [r.to_json_dict() for r in full.reports[:first + 1]]
    assert stopped.witnesses == full.witnesses[:1]
    assert full.failures > 1


# ----------------------------------------------------------------------
# outcomes of grouped checks are read in trial order
# ----------------------------------------------------------------------

def _failing_group(monkeypatch, check_id, failing):
    """Make the check raise RuntimeError(label) for the instances of the
    trials in failing, {trial: label}, sampled as run_fuzz samples them
    with seed 8, p = 2 and the default dims."""
    info = checks.REGISTRY[check_id]
    dims = (2, 3, 4, 5, 6)
    bad = {fuzz.sample_instance(check_id, dims[t % len(dims)], 8, 2.0, t).A.tobytes(): label
           for t, label in failing.items()}

    def group(insts, tol_rel):
        for inst in insts:
            if inst.A.tobytes() in bad:
                raise RuntimeError(bad[inst.A.tobytes()])
        return info.group(insts, tol_rel)

    monkeypatch.setitem(checks.REGISTRY, check_id, dataclasses.replace(info, group=group))


def test_the_first_exception_in_trial_order_is_raised(monkeypatch):
    # trial 5 (dim 2) is checked in the first group, trial 3 (dim 5) in a
    # later one; the run raises trial 3's error, the first in trial order
    _failing_group(monkeypatch, "lowner_heinz", {5: "five", 3: "three"})
    with pytest.raises(RuntimeError, match="three"):
        fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,))


def test_stop_on_fail_before_an_error_returns(monkeypatch):
    # seed 8 at p = 2 first fails at trial 7; trial 9, in the same chunk,
    # raises, which the run reaches only without stop_on_fail
    _failing_group(monkeypatch, "lowner_heinz", {9: "nine"})
    stopped = fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,),
                            stop_on_fail=True)
    assert stopped.trials == 8 and stopped.reports[-1].verdict == checks.FAILS
    with pytest.raises(RuntimeError, match="nine"):
        fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,))


def test_an_erroring_trial_leaves_the_others_reports(monkeypatch):
    plan = [(t, (2, 3)[t % 2], 2.0) for t in range(10)]
    instances = fuzz.FUZZ_SAMPLERS["lowner_heinz"](8, plan)
    info = checks.REGISTRY["lowner_heinz"]
    clean = fuzz._outcomes(info, plan, instances, fuzz.FUZZ_TOL_REL)
    broken = dataclasses.replace(instances[4], B=-instances[4].B)   # B not PSD
    got = fuzz._outcomes(info, plan, instances[:4] + [broken] + instances[5:],
                         fuzz.FUZZ_TOL_REL)
    assert isinstance(got[4], NotPositiveDefinite)
    assert [r.to_json_dict() for r in got[:4] + got[5:]] == \
        [r.to_json_dict() for r in clean[:4] + clean[5:]]
