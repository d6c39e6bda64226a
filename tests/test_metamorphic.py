"""Metamorphic relations: transformations of an instance that leave each
statement's hypotheses and conclusion unchanged, so a verdict that moves
under one of them is a bug whatever the exact values.

Basis permutation maps (A, B, x) to (P A P^T, P B P^T, P x) and carries
the map along: an isometry V becomes P V, each unitary U becomes
P U P^T, a pinching's partition is relabeled, and the normalized trace
is unchanged.  Then Phi'(P X P^T) is P Phi(X) P^T (or Phi(X) itself for
the trace and a compression), so every side is permuted or kept, and
only the order of rounding moves the gap.
"""

import dataclasses

import numpy as np
import pytest

from opineq import checks, fuzz, maps

SEEDS = (0, 1, 2)
DIMS = (2, 3, 4, 5, 6, 16)
# the gap may move by rounding only, far below the tolerance it is judged by
GAP_SLACK = 1e-3


def _permutation(rng, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    return perm[::-1] if (perm == np.arange(n)).all() else perm


def _permuted(inst: checks.InstanceSpec, perm: np.ndarray) -> checks.InstanceSpec:
    """The instance in the basis reordered by perm: row i is e_perm[i]."""
    cells = np.ix_(perm, perm)
    phi = inst.map
    if phi is not None and phi.kind == maps.COMPRESSION:
        phi = maps.MapSpec.compression(phi.isometry[perm])
    elif phi is not None and phi.kind == maps.MIXED_UNITARY:
        phi = maps.MapSpec.mixed_unitary(phi.weights, [u[cells] for u in phi.unitaries])
    elif phi is not None and phi.kind == maps.PINCHING:
        inv = np.argsort(perm)
        phi = maps.MapSpec.pinching([sorted(inv[list(blk)]) for blk in phi.partition],
                                    phi.in_dim)
    return dataclasses.replace(
        inst, A=inst.A[cells], B=None if inst.B is None else inst.B[cells],
        x=None if inst.x is None else inst.x[perm], map=phi)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_basis_permutation_keeps_every_verdict(check_id, dim):
    info = checks.REGISTRY[check_id]
    insts = [fuzz.sample_instance(check_id, dim, seed, p, trial)
             for seed in SEEDS for trial, p in enumerate(info.default_p)]
    rng = np.random.default_rng([len(check_id), dim])
    moved = [_permuted(inst, _permutation(rng, dim)) for inst in insts]
    for before, after in zip(info.group(insts, fuzz.FUZZ_TOL_REL),
                             info.group(moved, fuzz.FUZZ_TOL_REL)):
        assert (after.verdict, after.hypotheses_ok) == (before.verdict, before.hypotheses_ok)
        if before.gap_min_eig is None:
            assert after.gap_min_eig is None
        else:
            assert abs(after.gap_min_eig - before.gap_min_eig) <= GAP_SLACK * before.tol_used


def test_basis_permutation_keeps_a_lowner_heinz_witness():
    result = fuzz.run_fuzz("lowner_heinz", trials=200, p_values=(2.0,), seed=7,
                           stop_on_fail=True)
    witness = checks.InstanceSpec.from_json_dict(result.witnesses[0]["instance"])
    rng = np.random.default_rng(7)
    for _ in range(3):
        moved = _permuted(witness, _permutation(rng, witness.A.shape[0]))
        report = checks.run_check("lowner_heinz", moved, tol_rel=result.tol_rel)
        assert report.verdict == checks.FAILS
