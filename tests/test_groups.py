"""A check run on a stacked group gives each instance the report it gets alone.

Every check has one implementation, which takes a group of instances of
any dimensions.  The runner and run_check are that group of one; run_fuzz
hands each chunk to the check as one group.  These tests build groups
that mix every registry and boundary exponent, every map kind,
compressions to different sizes, instances whose hypotheses fail and
dims from 1 to 16, and require the group's reports to equal, float for
float, the reports of its instances checked one at a time.  A raising
chunk's trials are checked one at a time (fuzz._outcomes), so each
trial's outcome, report or OpineqError, is its outcome alone.
"""

import dataclasses

import numpy as np
import pytest

import fuzz_digests
from opineq import checks, fuzz, linalg, maps, sampling
from opineq.errors import NotFinite, NotPositiveDefinite, NotSymmetric, OpineqError

TOL = fuzz.FUZZ_TOL_REL
DIM = 4
MIXED_DIMS = (1, 2, 3, 5, 6, 16)    # the other dims of a mixed group
MAP_CHECKS = ("info_monotonicity", "reverse_monotonicity", "ando_converse",
              "furuta_bounds", "seo_bound", "power_corollary")


def _maps(n):
    """Every map kind at dim n: compressions to 1, 2, n - 1 and n as far as
    n allows, so that images of one size come from several dims."""
    cfg = sampling.SamplerConfig(dim=n, seed=31)
    perm = np.eye(n)[::-1]
    sizes = sorted({k for k in (1, 2, n - 1, n) if 1 <= k <= n})
    return [
        maps.MapSpec.normalized_trace(n),
        *(maps.MapSpec.compression(sampling.random_isometry(cfg, k, trial=t))
          for t, k in enumerate(sizes)),
        maps.MapSpec.pinching((tuple(range(0, n, 2)), *((i,) for i in range(1, n, 2))), n),
        maps.MapSpec.mixed_unitary([0.3, 0.7], [np.eye(n), perm]),
    ]


def _violated(check_id, inst):
    """A variant of a sampled instance whose hypotheses fail, or None for a
    check without hypotheses to break."""
    a, b = inst.A, inst.B
    if check_id in ("reverse_monotonicity", "ando_converse", "lowner_heinz",
                    "mond_pecaric"):
        return dataclasses.replace(inst, A=b, B=a)     # the order flips
    if check_id in ("lh_extension", "mn2012"):
        # ||A|| = 2 lies above B = A + I/2, whose B - A stays positive
        q = sampling.random_orthogonal(len(a), np.random.default_rng(3))
        a = (q * [2.0, 1.0, 1.0, 1.0]) @ q.T
        return dataclasses.replace(inst, A=a, B=a + 0.5 * np.eye(len(a)))
    if check_id == "power_corollary":
        return dataclasses.replace(inst, A=a * (0.5 / np.linalg.eigvalsh(a)[0]))  # below one
    if check_id == "density_trace":
        other = fuzz.sample_instance(check_id, len(a), 5, inst.p, 99).A
        return dataclasses.replace(inst, B=other)      # two distinct states
    if check_id == "radius_chain" and inst.p < 0.0:
        return dataclasses.replace(inst, A=np.diag(np.ones(len(a) - 1), 1))  # nilpotent
    return None


def _group(check_id):
    """(instances, how many at the end have violated hypotheses)."""
    info = checks.REGISTRY[check_id]
    ps = sorted(set(info.default_p) | set(fuzz_digests.BOUNDARY_P[check_id]))
    insts = [fuzz.sample_instance(check_id, DIM, 13, p, trial)
             for trial in range(2) for p in ps]
    if check_id in MAP_CHECKS:
        insts = [dataclasses.replace(inst, map=phi)
                 for inst in insts[:len(ps)] for phi in _maps(DIM)] + insts[len(ps):]
    violated = [v for v in (_violated(check_id, inst) for inst in insts[:len(ps)]) if v]
    return insts + violated, len(violated)


def _mixed(check_id, insts):
    """insts interleaved with instances at MIXED_DIMS: each registry and
    boundary exponent at each dim, under each map of _maps there for a
    check that takes a map."""
    info = checks.REGISTRY[check_id]
    ps = sorted(set(info.default_p) | set(fuzz_digests.BOUNDARY_P[check_id]))
    others = [fuzz.sample_instance(check_id, dim, 17, p, 0) for dim in MIXED_DIMS for p in ps]
    if check_id in MAP_CHECKS:
        others = [dataclasses.replace(inst, map=phi)
                  for inst in others for phi in _maps(len(inst.A))]
    step = -(-len(others) // len(insts))
    return [inst for j, own in enumerate(insts)
            for inst in (own, *others[j * step:(j + 1) * step])]


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_group_reports_equal_reports_alone(check_id):
    info = checks.REGISTRY[check_id]
    insts, violated = _group(check_id)
    mixed = _mixed(check_id, insts)
    alone = {id(inst): info.runner(inst, tol_rel=TOL).to_json_dict() for inst in mixed}
    # a group of one dim, a group mixing dims, and either of them reversed
    for group in (insts, insts[::-1], mixed, mixed[::-1]):
        assert [rep.to_json_dict() for rep in info.group(group, TOL)] == \
            [alone[id(inst)] for inst in group]
    # the violated rows are reached and stay evaluated reports
    assert all(alone[id(inst)]["verdict"] == checks.HYPOTHESIS_VIOLATED
               for inst in insts[len(insts) - violated:])
    assert violated or check_id in ("info_monotonicity", "furuta_bounds", "seo_bound",
                                    "norm_power_lemma", "holder_mccarthy", "norm_chain",
                                    "power_norm", "norm_refinement")


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_a_mixed_chunk_on_one_spectra_reports_as_fresh_groups_per_dim(check_id):
    # as in a fuzz chunk: one Spectra samples a plan over dims 1-6 and 16
    # and then checks it as one group, here twice over; every report is
    # the one a fresh sampler and a fresh group per dim give
    info, sampler = checks.REGISTRY[check_id], fuzz.FUZZ_SAMPLERS[check_id]
    dims = (*MIXED_DIMS[:3], DIM, *MIXED_DIMS[3:])
    plan = [(t, dims[t % len(dims)], info.default_p[t % len(info.default_p)])
            for t in range(6 * len(dims))]
    fresh = sampler(13, plan)
    want = [None] * len(plan)
    for dim in dims:
        rows = [j for j, (_, d, _) in enumerate(plan) if d == dim]
        for j, rep in zip(rows, info.group([fresh[j] for j in rows], TOL)):
            want[j] = rep.to_json_dict()
    if check_id in MAP_CHECKS:
        assert {inst.map.kind for inst in fresh} == set(maps.KINDS)
    sp = linalg.Spectra()
    shared = sampler(13, plan, sp)
    assert [inst.to_json_dict() for inst in shared] == [inst.to_json_dict() for inst in fresh]
    for _ in range(2):
        assert [r.to_json_dict() for r in info.group(shared, TOL, sp)] == want


def test_groups_reach_every_image_size():
    sizes = {maps.apply_map(phi, np.eye(DIM)).shape for phi in _maps(DIM)}
    assert sizes == {(1, 1), (2, 2), (DIM - 1, DIM - 1), (DIM, DIM)}
    kinds = {phi.kind for phi in _maps(DIM)}
    assert kinds == set(maps.KINDS)


@pytest.mark.parametrize("check_id", MAP_CHECKS)
def test_a_mixed_group_stacks_the_images_of_one_size_across_dims(monkeypatch, check_id):
    # each part that _finish gets holds one side per row; a part over rows
    # of several dims is a stack of their images
    info = checks.REGISTRY[check_id]
    insts = _mixed(check_id, _group(check_id)[0])
    finished = []
    finish = checks._finish

    def spy(check_id, spectra, tol_rel, part_specs, params, note=None):
        finished.extend(part_specs)
        return finish(check_id, spectra, tol_rel, part_specs, params, note)

    monkeypatch.setattr(checks, "_finish", spy)
    info.group(insts, TOL)
    shared = {}     # image size -> the dims whose images share a part
    for _, lhs, _, rows in finished:
        size = 1 if isinstance(lhs, list) else lhs.shape[-1]
        dims = {len(insts[i].A) for i in rows}
        if len(dims) > 1:
            shared.setdefault(size, set()).update(dims)
    assert {1, 2, 3, DIM} <= set(shared)
    assert all(len(dims) > 1 for dims in shared.values())
    assert 16 in shared[1] and 16 in shared[2]


def test_a_group_of_one_is_the_runner():
    info = checks.REGISTRY["ando_converse"]
    inst = _group("ando_converse")[0][0]
    assert [r.to_json_dict() for r in info.group([inst], TOL)] == \
        [checks.run_check("ando_converse", inst, tol_rel=TOL).to_json_dict()]
    assert info.runner is checks.check_ando_converse


def _entropy_pair():
    """Two info_monotonicity instances at DIM whose group raises
    NotPositiveDefinite: the entropy of a group takes A^{1/2} of every
    instance, while p = 1 alone short-cuts to B - A and never needs A
    positive definite."""
    spd = fuzz.sample_instance("info_monotonicity", DIM, 13, 0.5, 0)
    flat = fuzz.sample_instance("info_monotonicity", DIM, 13, 1.0, 1)
    return spd, dataclasses.replace(flat, A=np.diag([-1.0, 1.0, 2.0, 3.0]))


def _overflow_pair():
    """Two lowner_heinz instances at dim 2 whose group raises NotFinite:
    alone, the first one's A^2 overflows under a violated A <= B and is
    left unevaluated."""
    return (checks.InstanceSpec(A=np.diag([2e200, 1.0]), B=np.diag([1.0, 2e200]), p=2.0),
            checks.InstanceSpec(A=np.diag([1.0, 2.0]), B=np.diag([2.0, 3.0]), p=0.5))


RAISING_PAIRS = {"info_monotonicity": (_entropy_pair, NotPositiveDefinite),
                 "lowner_heinz": (_overflow_pair, NotFinite)}


def test_a_group_may_raise_where_no_instance_alone_does():
    info = checks.REGISTRY["info_monotonicity"]
    spd, flat = _entropy_pair()
    with pytest.raises(NotPositiveDefinite):
        info.group([spd, flat], TOL)
    got = fuzz._outcomes(info, [spd, flat], TOL)
    assert [rep.to_json_dict() for rep in got] == \
        [info.runner(inst, tol_rel=TOL).to_json_dict() for inst in (spd, flat)]
    assert [rep.verdict for rep in got] == [checks.HOLDS, checks.HOLDS]


def test_a_group_raises_where_a_violated_instance_alone_leaves_its_sides():
    # a group holding the violated instance raises, and is rerun alone
    info = checks.REGISTRY["lowner_heinz"]
    violated, valid = _overflow_pair()
    with pytest.raises(NotFinite):
        info.group([violated, valid], TOL)
    got = fuzz._outcomes(info, [violated, valid], TOL)
    assert [rep.verdict for rep in got] == [checks.HYPOTHESIS_VIOLATED, checks.HOLDS]
    assert got[0].hypothesis_note.endswith("; sides not evaluated")


@pytest.mark.parametrize("check_id", ["norm_chain", "lowner_heinz"])
def test_a_group_of_mixed_dims_gives_every_instance_its_report_alone(check_id):
    info = checks.REGISTRY[check_id]
    insts = [fuzz.sample_instance(check_id, dim, 3, info.default_p[0], 0) for dim in (2, 3)]
    assert [rep.to_json_dict() for rep in info.group(insts, TOL)] == \
        [info.runner(inst, tol_rel=TOL).to_json_dict() for inst in insts]


def _alone_outcomes(info, instances, tol_rel, spectra=None):
    """Each instance's outcome checked alone, in order: its report or the
    OpineqError it raises.  One group per dim gives the same outcomes: a
    group raises whenever one of its instances would raise alone, and
    otherwise gives each instance the report it gets alone."""
    out = []
    for inst in instances:
        try:
            out += info.group([inst], tol_rel, spectra)
        except OpineqError as exc:
            out.append(exc)
    return out


def _read(outcomes):
    """Each outcome as JSON values: a report's, or an exception's type and message."""
    return [(type(x), str(x)) if isinstance(x, Exception) else x.to_json_dict()
            for x in outcomes]


def _nonsymmetric(inst):
    return dataclasses.replace(inst, A=inst.A + np.triu(np.ones_like(inst.A), 1))


@pytest.mark.parametrize("check_id", sorted(RAISING_PAIRS))
def test_a_raising_pair_in_a_mixed_chunk_gives_the_outcomes_of_groups_per_dim(check_id):
    # the pair sits among sampled trials at dims 2, 3 and DIM, with a trial
    # of another dim that raises alone; the chunk's group raises, and the
    # outcomes, exceptions included, are those of each trial alone
    info, sampler = checks.REGISTRY[check_id], fuzz.FUZZ_SAMPLERS[check_id]
    pair, error = RAISING_PAIRS[check_id]
    first, second = pair()
    ps = info.default_p
    plan = [(t, (2, 3, DIM)[t % 3], ps[t % len(ps)]) for t in range(15)]
    instances = sampler(13, plan)
    at = [j for j, (_, dim, _) in enumerate(plan) if dim == len(first.A)]
    other = next(j for j, (_, dim, _) in enumerate(plan) if dim != len(first.A))
    instances[at[1]], instances[at[3]] = first, second
    instances[other] = _nonsymmetric(instances[other])
    with pytest.raises(error):      # the pair raises without the other trial too
        info.group([inst for j, inst in enumerate(instances) if j != other], TOL)
    got = fuzz._outcomes(info, instances, TOL)
    assert _read(got) == _read(_alone_outcomes(info, instances, TOL))
    assert isinstance(got[other], NotSymmetric)
    assert [x.to_json_dict() for x in (got[at[1]], got[at[3]])] == \
        [info.runner(inst, tol_rel=TOL).to_json_dict() for inst in (first, second)]


def test_a_stop_on_fail_run_over_a_raising_chunk_reads_the_reports_of_groups_per_dim(
        monkeypatch):
    # lowner_heinz at p = 2, seed 8, first fails at trial 7 (dim 4); the
    # overflow pair takes trials 0 and 5 (dim 2) and trial 9 raises alone
    first, second = _overflow_pair()
    sampler = fuzz.FUZZ_SAMPLERS["lowner_heinz"]

    def injected(seed, plan, spectra=None):
        insts = sampler(seed, plan, spectra)
        swap = {0: first, 5: second, 9: _nonsymmetric(insts[9]) if len(insts) > 9 else None}
        return [swap.get(t) or inst for (t, _, _), inst in zip(plan, insts)]

    monkeypatch.setitem(fuzz.FUZZ_SAMPLERS, "lowner_heinz", injected)
    runs = []
    for outcomes in (fuzz._outcomes, _alone_outcomes):
        monkeypatch.setattr(fuzz, "_outcomes", outcomes)
        result = fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,),
                               stop_on_fail=True)
        runs.append(([r.to_json_dict() for r in result.reports], result.witnesses))
        with pytest.raises(NotSymmetric):
            fuzz.run_fuzz("lowner_heinz", trials=12, seed=8, p_values=(2.0,))
    assert runs[0] == runs[1]
    reports = runs[0][0]
    assert len(reports) == 8 and reports[-1]["verdict"] == checks.FAILS
    assert [rep["verdict"] for rep in reports[:6:5]] == [checks.HYPOTHESIS_VIOLATED, checks.HOLDS]
