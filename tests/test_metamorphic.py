"""Metamorphic relations: transformations of an instance that leave each
statement's hypotheses and conclusion unchanged, so a verdict that moves
under one of them is a bug whatever the exact values.

Basis permutation maps (A, B, x) to (P A P^T, P B P^T, P x) and carries
the map along: an isometry V becomes P V, each unitary U becomes
P U P^T, a pinching's partition is relabeled, and the normalized trace
is unchanged.  Then Phi'(P X P^T) is P Phi(X) P^T (or Phi(X) itself for
the trace and a compression), so every side is permuted or kept, and
only the order of rounding moves the gap.

Orthogonal similarity maps (A, B, x) to (Q A Q^T, Q B Q^T, Q x) for a
seeded Haar-random Q and carries the map along the same way: V becomes
Q V, U becomes Q U Q^T and the trace is unchanged.  A pinching becomes
the mixed unitary of the Q D_s Q^T with equal weights, where D_s =
diag(H[s, label(i)]) runs over the rows s of a Sylvester-Hadamard
matrix H with at least as many columns as the pinching has blocks:
the average of D_s X D_s keeps entry (i, j) exactly when i and j share
a block, since the columns of H are orthogonal.  Every side is then
similar to the original one, or equal to it, and the gap moves by
rounding only, though now by more than a permutation's.
"""

import dataclasses
import functools

import numpy as np
import pytest

from opineq import checks, fuzz, linalg, maps, sampling

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


def _hadamard(k: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix of order 2^ceil(log2 k)."""
    h = np.ones((1, 1))
    while len(h) < k:
        h = np.block([[h, h], [h, -h]])
    return h


def _rotated(inst: checks.InstanceSpec, q: np.ndarray) -> checks.InstanceSpec:
    """The instance in the orthonormal basis given by the columns of q^T."""
    def similar(m):
        out = q @ m @ q.T
        return linalg.symmetrize(out) if (m == m.T).all() else out

    phi = inst.map
    if phi is not None and phi.kind == maps.COMPRESSION:
        phi = maps.MapSpec.compression(q @ phi.isometry)
    elif phi is not None and phi.kind == maps.MIXED_UNITARY:
        phi = maps.MapSpec.mixed_unitary(phi.weights, [q @ u @ q.T for u in phi.unitaries])
    elif phi is not None and phi.kind == maps.PINCHING:
        label = np.empty(phi.in_dim, dtype=int)
        for b, blk in enumerate(phi.partition):
            label[list(blk)] = b
        h = _hadamard(len(phi.partition))
        phi = maps.MapSpec.mixed_unitary(np.full(len(h), 1.0 / len(h)),
                                         [(q * row[label]) @ q.T for row in h])
    return dataclasses.replace(
        inst, A=similar(inst.A), B=None if inst.B is None else similar(inst.B),
        x=None if inst.x is None else q @ inst.x, map=phi)


def _by_permutation(rng, inst):
    return _permuted(inst, _permutation(rng, inst.A.shape[0]))


def _by_rotation(rng, inst):
    return _rotated(inst, sampling.random_orthogonal(inst.A.shape[0], rng))


RELATIONS = {"basis_permutation": _by_permutation, "orthogonal_similarity": _by_rotation}


def _assert_same_verdicts(relation, check_id, dim):
    info = checks.REGISTRY[check_id]
    insts = [fuzz.sample_instance(check_id, dim, seed, p, trial)
             for seed in SEEDS for trial, p in enumerate(info.default_p)]
    rng = np.random.default_rng([len(check_id), dim])
    moved = [RELATIONS[relation](rng, inst) for inst in insts]
    for before, after in zip(info.group(insts, fuzz.FUZZ_TOL_REL),
                             info.group(moved, fuzz.FUZZ_TOL_REL)):
        assert (after.verdict, after.hypotheses_ok) == (before.verdict, before.hypotheses_ok)
        if before.gap_min_eig is None:
            assert after.gap_min_eig is None
        else:
            assert abs(after.gap_min_eig - before.gap_min_eig) <= GAP_SLACK * before.tol_used


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_basis_permutation_keeps_every_verdict(check_id, dim):
    _assert_same_verdicts("basis_permutation", check_id, dim)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_orthogonal_similarity_keeps_every_verdict(check_id, dim):
    _assert_same_verdicts("orthogonal_similarity", check_id, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_a_pinching_is_the_mixed_unitary_of_hadamard_signs(dim):
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(dim, dim))
    for k in range(1, dim + 1):
        labels = np.concatenate([np.arange(k), rng.integers(k, size=dim - k)])
        pinching = maps.MapSpec.pinching(
            [np.flatnonzero(labels == b).tolist() for b in range(k)], dim)
        inst = checks.InstanceSpec(A=np.eye(dim), map=pinching)
        phi = _rotated(inst, np.eye(dim)).map
        assert len(phi.unitaries) < 2 * k
        assert np.allclose(maps.apply_map(phi, x), maps.apply_map(pinching, x), atol=1e-15)


@functools.cache
def _lowner_heinz_witness():
    result = fuzz.run_fuzz("lowner_heinz", trials=200, p_values=(2.0,), seed=7,
                           stop_on_fail=True)
    return checks.InstanceSpec.from_json_dict(result.witnesses[0]["instance"]), result.tol_rel


def _assert_witness_still_fails(relation):
    witness, tol_rel = _lowner_heinz_witness()
    rng = np.random.default_rng(7)
    for _ in range(3):
        report = checks.run_check("lowner_heinz", RELATIONS[relation](rng, witness),
                                  tol_rel=tol_rel)
        assert report.verdict == checks.FAILS


def test_basis_permutation_keeps_a_lowner_heinz_witness():
    _assert_witness_still_fails("basis_permutation")


def test_orthogonal_similarity_keeps_a_lowner_heinz_witness():
    _assert_witness_still_fails("orthogonal_similarity")
