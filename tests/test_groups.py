"""A check run on a stacked group gives each instance the report it gets alone.

Every check has one implementation, which takes a group of instances of
one dimension.  The runner and run_check are that group of one; run_fuzz
hands each dim of a chunk to the check as one group.  These tests build
groups that mix every registry and boundary exponent, every map kind,
compressions to different sizes and instances whose hypotheses fail, and
require the group's reports to equal, float for float, the reports of
its instances checked one at a time.
"""

import dataclasses

import numpy as np
import pytest

import fuzz_digests
from opineq import checks, fuzz, linalg, maps, sampling
from opineq.errors import NotFinite, NotPositiveDefinite

TOL = fuzz.FUZZ_TOL_REL
DIM = 4
MAP_CHECKS = ("info_monotonicity", "reverse_monotonicity", "ando_converse",
              "furuta_bounds", "seo_bound", "power_corollary")


def _maps(n):
    cfg = sampling.SamplerConfig(dim=n, seed=31)
    perm = np.eye(n)[::-1]
    return [
        maps.MapSpec.normalized_trace(n),
        maps.MapSpec.compression(sampling.random_isometry(cfg, 1)),
        maps.MapSpec.compression(sampling.random_isometry(cfg, 2, trial=1)),
        maps.MapSpec.compression(sampling.random_isometry(cfg, n, trial=2)),
        maps.MapSpec.pinching(((0, 2), (1,), (3,)), n),
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


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_group_reports_equal_reports_alone(check_id):
    info = checks.REGISTRY[check_id]
    insts, violated = _group(check_id)
    alone = [info.runner(inst, tol_rel=TOL).to_json_dict() for inst in insts]
    assert [rep.to_json_dict() for rep in info.group(insts, TOL)] == alone
    # and a group's reports do not depend on its order
    assert [rep.to_json_dict() for rep in info.group(insts[::-1], TOL)] == alone[::-1]
    # the violated rows are reached and stay evaluated reports
    assert all(rep["verdict"] == checks.HYPOTHESIS_VIOLATED
               for rep in alone[len(alone) - violated:])
    assert violated or check_id in ("info_monotonicity", "furuta_bounds", "seo_bound",
                                    "norm_power_lemma", "holder_mccarthy", "norm_chain",
                                    "power_norm", "norm_refinement")


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_groups_of_two_dims_on_one_spectra_report_as_on_fresh_ones(check_id):
    # as in a fuzz chunk: one Spectra samples the plan and then checks
    # its two dims, each as one group, here twice over; every report is
    # the one a fresh sampler and fresh groups give
    info, sampler = checks.REGISTRY[check_id], fuzz.FUZZ_SAMPLERS[check_id]
    plan = [(t, (3, DIM)[t % 2], info.default_p[t % len(info.default_p)]) for t in range(12)]
    by_dim = (slice(0, None, 2), slice(1, None, 2))
    fresh = sampler(13, plan)
    want = [[r.to_json_dict() for r in info.group(fresh[rows], TOL)] for rows in by_dim]
    sp = linalg.Spectra()
    shared = sampler(13, plan, sp)
    assert [inst.to_json_dict() for inst in shared] == [inst.to_json_dict() for inst in fresh]
    for _ in range(2):
        assert [[r.to_json_dict() for r in info.group(shared[rows], TOL, sp)]
                for rows in by_dim] == want


def test_groups_reach_every_image_size():
    sizes = {maps.apply_map(phi, np.eye(DIM)).shape for phi in _maps(DIM)}
    assert sizes == {(1, 1), (2, 2), (DIM, DIM)}
    kinds = {phi.kind for phi in _maps(DIM)}
    assert kinds == set(maps.KINDS)


def test_a_group_of_one_is_the_runner():
    info = checks.REGISTRY["ando_converse"]
    inst = _group("ando_converse")[0][0]
    assert [r.to_json_dict() for r in info.group([inst], TOL)] == \
        [checks.run_check("ando_converse", inst, tol_rel=TOL).to_json_dict()]
    assert info.runner is checks.check_ando_converse


def test_a_group_may_raise_where_no_instance_alone_does():
    # the entropy of a group takes A^{1/2} of every instance, while p = 1
    # alone short-cuts to B - A and never needs A positive definite
    info = checks.REGISTRY["info_monotonicity"]
    spd = fuzz.sample_instance("info_monotonicity", DIM, 13, 0.5, 0)
    flat = fuzz.sample_instance("info_monotonicity", DIM, 13, 1.0, 1)
    flat = dataclasses.replace(flat, A=np.diag([-1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(NotPositiveDefinite):
        info.group([spd, flat], TOL)
    got = fuzz._run(info, [spd, flat], TOL)
    assert [rep.to_json_dict() for rep in got] == \
        [info.runner(inst, tol_rel=TOL).to_json_dict() for inst in (spd, flat)]
    assert [rep.verdict for rep in got] == [checks.HOLDS, checks.HOLDS]


def test_a_group_raises_where_a_violated_instance_alone_leaves_its_sides():
    # alone, the first instance's A^2 overflows under a violated A <= B and
    # is left unevaluated; a group holding it raises, and is rerun alone
    info = checks.REGISTRY["lowner_heinz"]
    violated = checks.InstanceSpec(A=np.diag([2e200, 1.0]), B=np.diag([1.0, 2e200]), p=2.0)
    valid = checks.InstanceSpec(A=np.diag([1.0, 2.0]), B=np.diag([2.0, 3.0]), p=0.5)
    with pytest.raises(NotFinite):
        info.group([violated, valid], TOL)
    got = fuzz._run(info, [violated, valid], TOL)
    assert [rep.verdict for rep in got] == [checks.HYPOTHESIS_VIOLATED, checks.HOLDS]
    assert got[0].hypothesis_note.endswith("; sides not evaluated")


@pytest.mark.parametrize("check_id", ["norm_chain", "lowner_heinz"])
def test_a_group_of_mixed_dims_raises_value_error(check_id):
    insts = [fuzz.sample_instance(check_id, dim, 3, checks.REGISTRY[check_id].default_p[0], 0)
             for dim in (2, 3)]
    with pytest.raises(ValueError):
        checks.REGISTRY[check_id].group(insts, TOL)
