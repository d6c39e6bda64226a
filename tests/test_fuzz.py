"""Tests for the randomized counterexample search."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import opineq
from opineq import checks, cli, fuzz, inputs, linalg, maps, means
from opineq.errors import InvalidSpec, NotPositiveDefinite, SchemaError, UnknownCheck


def _dump(result):
    """Stable serialization of a run's reports for byte comparison."""
    return json.dumps([r.to_json_dict() for r in result.reports],
                      sort_keys=True)


def test_samplers_cover_registry():
    assert set(fuzz.FUZZ_SAMPLERS) == set(checks.REGISTRY)
    # bench/tracer.py times sampling as the spans named fuzz._sample_*; a
    # sampler that lost its recipe's name would time as no sampling at all
    assert all(s.__name__.startswith("_sample_") for s in fuzz.FUZZ_SAMPLERS.values())


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


@pytest.mark.parametrize("p_values", [(), [], "0.5"])
def test_run_fuzz_rejects_empty_or_string_exponents(p_values):
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("lowner_heinz", trials=4, p_values=p_values)


@pytest.mark.parametrize("kwargs", [
    {"p_values": ["a"]}, {"p_values": [None]}, {"p_values": 0.5}, {"p_values": [True]},
    {"p_values": (0.5, np.False_)},
    pytest.param({"p_values": [10**400]}, id="{'p_values': [10**400]}"),
    {"dims": 5}, {"tol_rel": "abc"}, {"tol_rel": None},
    {"dims": None}, {"dims": (0,)}, {"dims": (-3,)}, {"dims": (65,)}, {"dims": (10**6,)},
    {"trials": 0, "dims": (0,)}, {"trials": 1, "dims": (2, 100), "p_values": (0.5,)},
    {"trials": True}, {"seed": True}, {"dims": (True,)}, {"dims": (3, np.True_)},
    {"tol_rel": True}, {"tol_rel": np.False_},
    {"trials": 1, "p_values": (0.5, float("nan"))}, {"p_values": [float("inf")]},
    {"p_values": ["-inf"]},
], ids=repr)
def test_run_fuzz_rejects_non_numbers_and_out_of_range_dims(kwargs):
    # the first seven used to escape as a bare ValueError, TypeError or
    # OverflowError; the dims outside [1, MAX_DIM] must not size a chunk
    # of no trials, which would never end, or divide by zero, and are
    # rejected also where no trial reaches them (the next two); a bool,
    # which int() and float() read as 1 or 0, is not a count, a seed, a
    # dim or a tolerance; nor is an infinite or nan exponent, even where no
    # trial reaches it
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("lowner_heinz", **{"trials": 4, **kwargs})


def test_run_fuzz_reads_numeric_strings():
    got = fuzz.run_fuzz("lowner_heinz", trials=4, p_values=("0.5",), tol_rel="1e-9")
    want = fuzz.run_fuzz("lowner_heinz", trials=4, p_values=(0.5,), tol_rel=1e-9)
    assert _dump(got) == _dump(want)


def test_run_fuzz_without_exponents_runs_the_defaults():
    result = fuzz.run_fuzz("lowner_heinz", trials=6, p_values=None)
    info = checks.REGISTRY["lowner_heinz"]
    assert [r.params["p"] for r in result.reports] == [
        info.default_p[t % len(info.default_p)] for t in range(6)]


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


@pytest.mark.parametrize("kwargs", [{"trials": 2.5}, {"dims": (2.5,)}, {"dims": ("2",)},
                                    {"seed": 1.5}, {"seed": None}])
def test_run_fuzz_rejects_non_integral_arguments(kwargs):
    # they used to be truncated (dim 2.5 ran as 2, seed 1.5 as 1) or to
    # raise a bare TypeError
    with pytest.raises(InvalidSpec):
        fuzz.run_fuzz("power_norm", **{"trials": 2, **kwargs})


def test_run_fuzz_accepts_integral_floats():
    got = fuzz.run_fuzz("power_norm", trials=3.0, dims=(3.0,), seed=2.0)
    want = fuzz.run_fuzz("power_norm", trials=3, dims=(3,), seed=2)
    assert _dump(got) == _dump(want)
    assert type(got.seed) is int


@pytest.mark.parametrize("dim, seed, trial", [(2.5, 0, 0), (3, 1.5, 0), (3, 0, 1.5),
                                              (True, 0, 0), (3, True, 0), (3, 0, True)])
def test_sample_instance_rejects_non_integral_arguments(dim, seed, trial):
    with pytest.raises(InvalidSpec):
        fuzz.sample_instance("power_norm", dim, seed, 0.5, trial)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("check_id", ["power_norm", "radius_chain"])
def test_sample_instance_rejects_non_finite_exponents(check_id, p):
    # the instance is built unchecked, so sample_instance refuses what
    # InstanceSpec would
    with pytest.raises(InvalidSpec, match="p must be finite"):
        fuzz.sample_instance(check_id, 3, 0, p, 0)


def test_sample_instance_accepts_integral_floats():
    got = fuzz.sample_instance("power_norm", 3.0, 4.0, 0.5, 5.0)
    want = fuzz.sample_instance("power_norm", 3, 4, 0.5, 5)
    assert got.to_json_dict() == want.to_json_dict()


def test_zero_trials_is_a_valid_empty_run():
    result = fuzz.run_fuzz("power_norm", trials=0, seed=1)
    assert result.trials == 0
    assert result.counts == {checks.HOLDS: 0, checks.FAILS: 0,
                             checks.HYPOTHESIS_VIOLATED: 0}


# ----------------------------------------------------------------------
# chunked sampling never shows in the output
# ----------------------------------------------------------------------

def _recording(monkeypatch, check_id, seen, canned=None):
    """Make the check append each group it is handed to seen; its
    reports are canned ones carrying the instance, when canned is given."""
    info = checks.REGISTRY[check_id]

    def group(insts, tol_rel, spectra=None):
        assert len({inst.A.shape for inst in insts}) == 1
        seen.append(list(insts))
        if canned is None:
            return info.group(insts, tol_rel, spectra)
        return [dataclasses.replace(canned, params={"instance": inst.to_json_dict()})
                for inst in insts]

    monkeypatch.setitem(checks.REGISTRY, check_id, dataclasses.replace(info, group=group))


# chunks shrunk to 16 trials at MAX_DIM and at most 64, which makes them 64
# trials at dims 2-6 and 16 at dims (16, 64): the runs below cross two and
# four chunk boundaries in few trials, with stop_on_fail three and four
@pytest.mark.parametrize("dims, trials", [((2, 3, 4, 5, 6), 2 * 64 + 5),
                                          ((16, 64), 4 * 16 + 3)])
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_run_fuzz_checks_the_instances_sample_instance_builds(monkeypatch, check_id,
                                                              dims, trials):
    # record what run_fuzz hands the check, across chunk boundaries, and
    # compare each trial's with the trial sampled on its own; the check
    # itself is replaced by a canned report, which carries the instance it
    # was given, to keep the large dims cheap
    monkeypatch.setattr(fuzz, "_CHUNK_AT_MAX_DIM", 16)
    monkeypatch.setattr(fuzz, "_CHUNK_CAP", 64)
    assert trials > 2 * fuzz._chunk_size(dims)
    info = checks.REGISTRY[check_id]
    seed = 11
    canned = info.runner(fuzz.sample_instance(check_id, 2, seed, info.default_p[0], 0),
                         tol_rel=fuzz.FUZZ_TOL_REL)
    seen = []
    _recording(monkeypatch, check_id, seen, canned)
    ps = info.default_p
    for stop_on_fail in (False, True):
        seen.clear()
        result = fuzz.run_fuzz(check_id, trials=trials, dims=dims, seed=seed,
                               stop_on_fail=stop_on_fail)
        assert sum(map(len, seen)) == result.trials == trials
        for trial, report in enumerate(result.reports):
            dim = dims[(trial // len(ps)) % len(dims)]
            alone = fuzz.sample_instance(check_id, dim, seed, ps[trial % len(ps)], trial)
            assert report.params["instance"] == alone.to_json_dict()


def test_a_chunk_at_max_dim_is_64_trials(monkeypatch):
    # trials alternate dims 2 and MAX_DIM: the first chunk holds 64 trials,
    # two groups of 32, and the second the last trial alone
    seen = []
    _recording(monkeypatch, "norm_chain", seen,
               checks.run_check("norm_chain", fuzz.sample_instance("norm_chain", 2, 0, 1.0, 0)))
    fuzz.run_fuzz("norm_chain", trials=65, dims=(2, inputs.MAX_DIM), p_values=(1.0,))
    assert [len(group) for group in seen] == [32, 32, 1]
    assert fuzz._chunk_size((inputs.MAX_DIM,)) == 64
    assert fuzz._chunk_size((16, 32)) == 256
    assert fuzz._chunk_size((2, 3, 4, 5, 6)) == 512


@pytest.mark.parametrize("seed, p, first, checked", [(8, 2.0, 7, 64), (3, 1.5, 74, 192),
                                                     (1, 1.5, 343, 448)])
def test_stop_on_fail_checks_up_to_the_end_of_the_first_failing_chunk(
        monkeypatch, seed, p, first, checked):
    # at dims 2-6 a stop_on_fail run's chunks hold 64, 128, 256 and then
    # 512 trials, so they end after trials 63, 191, 447 and 959; chunks of
    # 64 would have checked 64, 128 and 384 trials
    seen = []
    _recording(monkeypatch, "lowner_heinz", seen)
    result = fuzz.run_fuzz("lowner_heinz", trials=2000, seed=seed, p_values=(p,),
                           stop_on_fail=True)
    assert result.trials == first + 1 and result.reports[-1].verdict == checks.FAILS
    assert sum(map(len, seen)) == checked


@pytest.mark.parametrize("seed, p", [(8, 2.0), (3, 1.5)])
def test_stop_on_fail_run_is_a_prefix_of_the_full_run(seed, p):
    # seed 8 first fails at trial 7, inside the first chunk of 64 trials;
    # seed 3 at trial 74, in the second, of 128 trials, and fails again at
    # 102 in the same chunk
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

    def group(insts, tol_rel, spectra=None):
        for inst in insts:
            if inst.A.tobytes() in bad:
                raise RuntimeError(bad[inst.A.tobytes()])
        return info.group(insts, tol_rel, spectra)

    monkeypatch.setitem(checks.REGISTRY, check_id, dataclasses.replace(info, group=group))


def test_the_first_exception_in_trial_order_is_raised(monkeypatch):
    # trial 5 (dim 2) is checked in the first group, trial 3 (dim 5) in a
    # later one; the run raises trial 3's error, the first in trial order
    _failing_group(monkeypatch, "lowner_heinz", {5: "five", 3: "three"})
    with pytest.raises(RuntimeError, match="three"):
        fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,))


def test_stop_on_fail_before_an_error_returns(monkeypatch):
    # seed 8 at p = 2 first fails at trial 7; trial 9, in the same chunk
    # of 64 trials, raises, which the run reaches only without stop_on_fail
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


# ----------------------------------------------------------------------
# a chunk's sampler and check groups share one linalg.Spectra
# ----------------------------------------------------------------------

def _spy(monkeypatch, owner, name, record):
    """Replace owner.name by a wrapper that hands each call's (args, result)
    to record."""
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(args, out)
        return out

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("check_id", ["reverse_monotonicity", "ando_converse"])
def test_a_chunk_eighs_each_stack_once_and_forms_each_w_once(monkeypatch, check_id):
    # the sandwich sampler decomposes the chunk's A stack, which is the
    # check's A stack; the check takes W's spectrum and then the mean of
    # the same (A, B), and gets the W it formed first
    solved = []
    _spy(monkeypatch, np.linalg, "eigh", lambda args, out: solved.append(args[0].tobytes()))
    formed = {}     # (A bits, B bits) -> every W handed out, held so no id is reused
    _spy(monkeypatch, means, "_inner_operator", lambda args, out: formed.setdefault(
        (args[0].tobytes(), args[1].tobytes()), []).append(out[1]))
    result = fuzz.run_fuzz(check_id, trials=12, dims=(16,), seed=3)
    assert result.trials == 12
    ps = checks.REGISTRY[check_id].default_p
    a = np.stack([fuzz.sample_instance(check_id, 16, 3, ps[t % len(ps)], t).A
                  for t in range(12)])
    assert linalg.symmetrize(a).tobytes() in solved
    assert len(solved) == len(set(solved))
    assert sum(map(len, formed.values())) > len(formed)     # W is asked for again ...
    assert all(len({id(w) for w in ws}) == 1 for ws in formed.values())   # ... and kept


def test_furuta_bounds_forms_each_mapped_mean_once(monkeypatch):
    # the entropy of the images takes their mean, and the Kantorovich term
    # takes it again
    made = {}       # (A bits, B bits, p) -> every mean handed out
    _spy(monkeypatch, means, "weighted_mean", lambda args, out: made.setdefault(
        (args[0].tobytes(), args[1].tobytes(), tuple(args[2])), []).append(out))
    result = fuzz.run_fuzz("furuta_bounds", trials=16, dims=(16,), seed=3)
    assert result.trials == 16
    assert sum(map(len, made.values())) > len(made)
    assert all(len({id(mean) for mean in results}) == 1 for results in made.values())


# ----------------------------------------------------------------------
# the samplers' trusted construction
# ----------------------------------------------------------------------

def _validated(inst):
    """inst rebuilt from its fields through the checking entries:
    InstanceSpec(...) and its map's MapSpec classmethod."""
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    m = fields["map"]
    if m is not None:
        fields["map"] = {
            maps.NORMALIZED_TRACE: lambda: maps.MapSpec.normalized_trace(m.in_dim),
            maps.COMPRESSION: lambda: maps.MapSpec.compression(m.isometry),
            maps.PINCHING: lambda: maps.MapSpec.pinching(m.partition, m.in_dim),
            maps.MIXED_UNITARY: lambda: maps.MapSpec.mixed_unitary(m.weights, m.unitaries),
        }[m.kind]()
    return checks.InstanceSpec(**fields)


def _assert_same(got, want):
    """got and want hold values of the same types, dtypes and bits."""
    assert type(got) is type(want)
    if isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want


@pytest.mark.parametrize("check_id", sorted(fuzz.FUZZ_SAMPLERS))
def test_sampled_instances_pass_the_checking_entries_unchanged(check_id):
    # the samplers build their instances and maps with no check; each one
    # must be what InstanceSpec and the MapSpec classmethods would build
    # from the same values, every type, dtype and bit, and the same JSON
    ps = checks.REGISTRY[check_id].default_p
    for dim in (2, 3, 4, 5, 6, 16):
        plan = [(t, dim, ps[t % len(ps)]) for t in range(60)]
        for inst in fuzz.FUZZ_SAMPLERS[check_id](4, plan):
            again = _validated(inst)
            _assert_same(inst, again)
            assert json.dumps(inst.to_json_dict()) == json.dumps(again.to_json_dict())


def test_the_fuzz_path_runs_no_input_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an input check ran on the fuzz path")

    monkeypatch.setattr(inputs, "numbers", refuse)
    monkeypatch.setattr(inputs, "floats", refuse)
    monkeypatch.setattr(linalg, "as_square", refuse)
    monkeypatch.setattr(checks.InstanceSpec, "__post_init__", refuse)
    for kind in maps.KINDS:
        monkeypatch.setattr(maps.MapSpec, kind, refuse)
    for check_id in ("info_monotonicity", "norm_power_lemma"):
        result = fuzz.run_fuzz(check_id, trials=40, seed=5)
        assert result.trials == 40
        assert result.counts[checks.HOLDS] == 40


def test_a_witness_edited_into_a_non_number_is_refused_by_eval(tmp_path):
    json_path = tmp_path / "lh.json"
    assert cli.main(["fuzz", "--check", "lowner_heinz", "--trials", "60", "--seed", "0",
                     "--p", "2.0", "--json", str(json_path)]) == cli.EXIT_FAIL
    instance = json.loads((tmp_path / "lh.witness.json").read_text())[0]["instance"]
    instance["A"][0][1] = "1"
    inst_path = tmp_path / "edited.json"
    inst_path.write_text(json.dumps(instance))
    assert cli.main(["eval", "--check", "lowner_heinz", "--input", str(inst_path)]) == \
        cli.EXIT_SCHEMA
    with pytest.raises(SchemaError):
        checks.InstanceSpec(A=[[1, True], [True, 1]])


def test_the_samplers_leave_numpy_ma_unimported(fresh_python):
    # numpy.ma takes 8 ms and 1.2 MB to import, on the first np.unique call
    # among others; the fuzz path needs none of it
    script = ("import sys; from opineq import fuzz\n"
              "for check_id in fuzz.FUZZ_SAMPLERS:\n"
              "    fuzz.run_fuzz(check_id, trials=20, dims=(2, 3, 4, 5, 6))\n"
              "print('numpy.ma' in sys.modules)")
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_only_the_samplers_build_unchecked_instances_and_maps():
    # InstanceSpec._trusted and the plain MapSpec(...) constructor check
    # nothing, so only fuzz, whose values run_fuzz and sample_instance
    # validated, may call them (and maps, whose classmethods check first);
    # an entry that reads outside values goes through the checks
    found = []
    for path in sorted(Path(opineq.__file__).resolve().parent.glob("*.py")):
        name = path.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "_trusted"
                    and name != "fuzz.py"):
                found.append((name, node.lineno, "InstanceSpec._trusted"))
            elif (isinstance(node, ast.Call) and name not in ("fuzz.py", "maps.py")
                  and (getattr(node.func, "id", None) == "MapSpec"
                       or getattr(node.func, "attr", None) == "MapSpec")):
                found.append((name, node.lineno, "MapSpec("))
    assert not found, f"unchecked construction outside the samplers: {found}"
