"""Tests for the randomized counterexample search."""

import json

import numpy as np
import pytest

from opineq import checks, fuzz
from opineq.errors import InvalidSpec, UnknownCheck


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
