"""Tests for the weighted operator mean and the deformed entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opineq import linalg, means, sampling
from opineq.errors import InvalidSpec, NotPositiveDefinite, SchemaError, ZeroParameter

A_REF = np.array([[2.0, 3.0], [3.0, 5.0]])
B_REF = np.array([[3.0, 4.0], [4.0, 6.0]])

trials = st.integers(min_value=0, max_value=10 ** 6)


def _pair(dim, trial):
    cfg = sampling.SamplerConfig(dim=dim, seed=13)
    return sampling.random_spd(cfg, trial), sampling.random_spd(cfg, trial + 10 ** 7)


# ----------------------------------------------------------------------
# sandwich constants
# ----------------------------------------------------------------------

def test_compute_sandwich_reference_pair():
    # det(lam A - B) = lam^2 - 3 lam + 2, so the inner spectrum is {1, 2}
    sb = means.compute_sandwich(A_REF, B_REF)
    assert abs(sb.lam_min - 1.0) < 1e-10
    assert abs(sb.lam_max - 2.0) < 1e-10
    assert abs(sb.m - 1.0) < 1e-10
    assert abs(sb.M - 2.0) < 1e-10
    assert sb.hypothesis_ok


def test_compute_sandwich_clips_below_one():
    a = np.diag([1.0, 1.0])
    sb = means.compute_sandwich(a, 0.5 * a)
    assert abs(sb.lam_min - 0.5) < 1e-12
    assert sb.m == 0.5
    assert sb.M == 1.0
    assert not sb.hypothesis_ok


def test_compute_sandwich_rejects_singular_b():
    with pytest.raises(NotPositiveDefinite):
        means.compute_sandwich(np.eye(2), np.diag([1.0, 0.0]))


# ----------------------------------------------------------------------
# weighted mean
# ----------------------------------------------------------------------

def test_weighted_mean_diagonal_scalar_formula():
    a = np.diag([1.0, 4.0])
    b = np.diag([9.0, 2.0])
    got = means.weighted_mean(a, b, 0.5).value
    want = np.diag([3.0, math.sqrt(8.0)])
    assert np.allclose(got, want, atol=1e-12)


def test_weighted_mean_endpoint_exponents():
    a, b = _pair(3, 0)
    assert np.allclose(means.weighted_mean(a, b, 0.0).value, a, atol=1e-12)
    assert np.allclose(means.weighted_mean(a, b, 1.0).value, b, atol=1e-11)


def test_weighted_mean_idempotent():
    a, _ = _pair(4, 1)
    for p in (-1.0, 0.5, 2.0):
        assert np.allclose(means.weighted_mean(a, a, p).value, a, atol=1e-10)


def test_weighted_mean_inner_spectrum_reported():
    sb = means.compute_sandwich(A_REF, B_REF)
    res = means.weighted_mean(A_REF, B_REF, 0.5)
    assert abs(res.inner_spectrum[0] - sb.lam_min) < 1e-12
    assert abs(res.inner_spectrum[1] - sb.lam_max) < 1e-12


def test_weighted_mean_negative_weight_needs_pd():
    with pytest.raises(NotPositiveDefinite):
        means.weighted_mean(np.eye(2), np.diag([1.0, 0.0]), -0.5)
    # stacked: only the second instance, at p = -0.5, has a singular W
    a = np.stack([np.eye(2), np.eye(2)])
    b = np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(NotPositiveDefinite, match="-0.5"):
        means.weighted_mean(a, b, [0.5, -0.5], spectra=linalg.Spectra())


@settings(max_examples=40, deadline=None)
@given(trials, st.sampled_from([-1.0, -0.5, 0.5, 1.5, 2.0]),
       st.floats(min_value=0.1, max_value=10.0))
def test_weighted_mean_scaling_covariance(trial, p, c):
    a, b = _pair(3, trial)
    scaled = means.weighted_mean(c * a, c * b, p).value
    assert np.allclose(scaled, c * means.weighted_mean(a, b, p).value,
                       atol=1e-9 * max(1.0, c))


@settings(max_examples=40, deadline=None)
@given(trials)
def test_weighted_mean_between_operands(trial):
    # for A <= B and p in [0, 1] the mean interpolates in Loewner order
    p = 0.5
    cfg = sampling.SamplerConfig(dim=3, seed=17)
    a, b = sampling.random_sandwich_pair(cfg, M_target=3.0, trial=trial)
    mid = means.weighted_mean(a, b, p).value
    assert linalg.loewner_compare(a, mid, tol_rel=1e-8).is_le
    assert linalg.loewner_compare(mid, b, tol_rel=1e-8).is_le


# ----------------------------------------------------------------------
# deformed entropy
# ----------------------------------------------------------------------

def test_tsallis_p1_is_exact_difference():
    t = means.tsallis_entropy(A_REF, B_REF, 1.0)
    assert np.array_equal(t, B_REF - A_REF)


def test_tsallis_stack_with_mixed_p_gives_each_row_its_bits_alone():
    ps = [0.5, 1.0, -1.0, 1.0, 2.0]
    cfg = sampling.SamplerConfig(dim=3, seed=5)
    a = np.stack([sampling.random_spd(cfg, trial) for trial in range(5)])
    b = np.stack([sampling.random_spd(cfg, 10 + trial) for trial in range(5)])
    t = means.tsallis_entropy(a, b, ps, spectra=linalg.Spectra())
    for ti, ai, bi, p in zip(t, a, b, ps):
        alone = means.tsallis_entropy(ai[None], bi[None], [p], spectra=linalg.Spectra())
        assert np.array_equal(ti, alone[0])
        assert np.array_equal(ti, means.tsallis_entropy(ai, bi, p))
        if p == 1.0:
            assert np.array_equal(ti, bi - ai)


def test_tsallis_rejects_p0():
    with pytest.raises(ZeroParameter):
        means.tsallis_entropy(A_REF, B_REF, 0.0)


@pytest.mark.parametrize("call", [means.weighted_mean, means.tsallis_entropy],
                         ids=["weighted_mean", "tsallis_entropy"])
def test_an_exponent_that_is_not_finite_is_refused(call):
    # inf, nan and None raised a bare OverflowError, ValueError and
    # TypeError, and -inf NotFinite from the power it overflowed
    for p in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidSpec, match="^p must be finite$"):
            call(A_REF, B_REF, p)
    with pytest.raises(SchemaError, match="^malformed instance: "):
        call(A_REF, B_REF, None)


def test_tsallis_small_p_approaches_log():
    # scalar limit: (a^{1-p} b^p - a)/p -> a log(b/a)
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 5.0])
    t = means.tsallis_entropy(a, b, 1e-7)
    want = np.diag([math.log(3.0), 2.0 * math.log(2.5)])
    assert np.allclose(t, want, atol=1e-5)


def test_tsallis_diagonal_scalar_formula():
    a = np.diag([1.0, 4.0])
    b = np.diag([9.0, 2.0])
    p = 0.5
    want = np.diag([(3.0 - 1.0) / p, (math.sqrt(8.0) - 4.0) / p])
    assert np.allclose(means.tsallis_entropy(a, b, p), want, atol=1e-12)


def test_tsallis_from_mean_matches_direct():
    for p in (-0.5, 0.5, 1.0, 2.0):
        mean = means.weighted_mean(A_REF, B_REF, p)
        direct = means.tsallis_entropy(A_REF, B_REF, p)
        assert np.allclose(means.tsallis_from_mean(A_REF, mean), direct,
                           atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(trials, st.sampled_from([-1.0, 0.5, 1.0, 2.0]))
def test_tsallis_vanishes_on_equal_operands(trial, p):
    a, _ = _pair(3, trial)
    t = means.tsallis_entropy(a, a, p)
    assert linalg.norm_op(t) < 1e-10 * max(1.0, linalg.norm_op(a))
