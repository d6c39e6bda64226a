"""Tests for the scalar bound constants against 50-digit oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opineq import constants
from opineq.errors import DomainError, ZeroParameter

mp.mp.dps = 50


# ----------------------------------------------------------------------
# extended-precision oracles (same formulas, independent arithmetic)
# ----------------------------------------------------------------------

def _k_oracle(h, p):
    h, p = mp.mpf(h), mp.mpf(p)
    hp = h ** p
    front = (hp - h) / ((p - 1) * (h - 1))
    inner = (p - 1) * (hp - 1) / (p * (hp - h))
    return front * inner ** p


def _f_oracle(m, h, p):
    m, h, p = mp.mpf(m), mp.mpf(h), mp.mpf(p)
    k = _k_oracle(h, p)
    return (m ** p / p) * ((h ** p - h) / (h - 1)) * (1 - k ** (1 / (p - 1)))


def _c_oracle(m, M, p):
    m, M, p = mp.mpf(m), mp.mpf(M), mp.mpf(p)
    slope = (M ** p - m ** p) / (p * (M - m))
    return (p - 1) * slope ** (p / (p - 1)) + (M * m ** p - m * M ** p) / (M - m)


_H_GRID = (1.0 + 1e-6, 1.01, 1.5, 2.0, 10.0, 100.0, 1800.0)
_P_GRID = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("h", _H_GRID)
@pytest.mark.parametrize("p", _P_GRID)
def test_kantorovich_matches_oracle(h, p):
    got = constants.kantorovich_K(h, p)
    want = float(_k_oracle(h, p))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("h", _H_GRID[1:])
@pytest.mark.parametrize("p", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("m", (0.05, 0.335, 1.0))
def test_furuta_matches_oracle(m, h, p):
    got = constants.furuta_F(m, h, p)
    want = float(_f_oracle(m, h, p))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("window", ((0.5, 2.0), (0.999, 1.07), (0.01, 50.0)))
@pytest.mark.parametrize("p", (0.1, 0.5, 0.9))
def test_seo_matches_oracle(window, p):
    m, M = window
    got = constants.seo_C(m, M, p)
    want = float(_c_oracle(m, M, p))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_seo_is_negative_on_typical_windows():
    # -C is the reverse-bound coefficient, so C itself sits below zero
    assert constants.seo_C(0.5, 2.0, 0.5) < 0.0
    assert constants.seo_C(0.999, 1.07, 0.5) < 0.0


# ----------------------------------------------------------------------
# degenerate edges and domains
# ----------------------------------------------------------------------

def test_kantorovich_degenerate_edges():
    assert constants.kantorovich_K(1.0, 0.5) == 1.0
    assert constants.kantorovich_K(7.0, 1.0) == 1.0


def test_kantorovich_below_one_for_interior_points():
    assert constants.kantorovich_K(4.0, 0.5) < 1.0


def test_furuta_degenerate_edge():
    assert constants.furuta_F(0.5, 1.0, 0.5) == 0.0


def test_seo_degenerate_edge():
    assert constants.seo_C(0.7, 0.7, 0.3) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        constants.kantorovich_K(0.5, 0.5)
    with pytest.raises(DomainError):
        constants.kantorovich_K(2.0, 1.5)
    with pytest.raises(DomainError):
        constants.furuta_F(-1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        constants.furuta_F(0.5, 2.0, 1.0)
    with pytest.raises(DomainError):
        constants.seo_C(0.5, 0.4, 0.5)
    with pytest.raises(DomainError):
        constants.seo_C(0.5, 2.0, 1.0)
    # a NaN or an infinity: nan returned nan (furuta_F's inf returned inf),
    # and kantorovich_K's and seo_C's inf warned of an invalid value
    nan, inf = math.nan, math.inf
    for call, args in ((constants.kantorovich_K, (nan, 0.5)),
                       (constants.kantorovich_K, (inf, 0.5)),
                       (constants.kantorovich_K, (2.0, nan)),
                       (constants.furuta_F, (nan, 2.0, 0.5)),
                       (constants.furuta_F, (inf, 2.0, 0.5)),
                       (constants.furuta_F, (1.0, inf, 0.5)),
                       (constants.furuta_F, (1.0, nan, 0.5)),
                       (constants.seo_C, (1.0, inf, 0.5)),
                       (constants.seo_C, (nan, 2.0, 0.5)),
                       (constants.seo_C, (1.0, 2.0, nan))):
        with pytest.raises(DomainError):
            call(*args)


# ----------------------------------------------------------------------
# secant bounds and the dimensionless floor gap
# ----------------------------------------------------------------------

def test_lemma_bounds_mid_value():
    lower, mid, upper = constants.lemma_bounds(1.5, 0.5, 2.0, 0.5)
    want = float((mp.mpf(1.5) ** mp.mpf(0.5) - 1) / mp.mpf(0.5))
    assert abs(mid - want) < 1e-14
    assert lower <= mid <= upper


def test_lemma_bounds_coefficients_swap_above_one():
    t, m, M = 1.5, 0.5, 3.0
    lo_half, _, hi_half = constants.lemma_bounds(t, m, M, 0.5)
    assert abs(lo_half - M ** (-0.5) * (t - 1.0)) < 1e-14
    assert abs(hi_half - m ** (-0.5) * (t - 1.0)) < 1e-14
    lo_two, _, hi_two = constants.lemma_bounds(t, m, M, 2.0)
    assert abs(lo_two - m * (t - 1.0)) < 1e-14
    assert abs(hi_two - M * (t - 1.0)) < 1e-14


def test_lemma_bounds_domain():
    with pytest.raises(ZeroParameter):
        constants.lemma_bounds(1.5, 0.5, 2.0, 0.0)
    with pytest.raises(DomainError):
        constants.lemma_bounds(0.9, 0.5, 2.0, 0.5)  # t below one
    with pytest.raises(DomainError):
        constants.lemma_bounds(3.0, 0.5, 2.0, 0.5)  # t above M
    with pytest.raises(DomainError):
        constants.lemma_bounds(math.inf, 0.5, math.inf, 0.5)  # returned (nan, inf, inf)
    with pytest.raises(DomainError):
        constants.lemma_bounds(1.5, math.nan, 2.0, 0.5)
    for p in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^lemma_bounds needs a finite p"):
            constants.lemma_bounds(1.5, 0.5, 2.0, p)
    # the window is still judged first, as before
    with pytest.raises(DomainError, match="^lemma_bounds needs 0 < m"):
        constants.lemma_bounds(3.0, 0.5, 2.0, math.nan)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=50.0),
       st.sampled_from([-1.0, -0.5, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]))
def test_lemma_bounds_ordering(m, t_frac, M, p):
    t = 1.0 + t_frac * (M - 1.0)
    lower, mid, upper = constants.lemma_bounds(t, m, M, p)
    assert lower <= mid + 1e-12
    assert mid <= upper + 1e-12


def test_mn2012_gap_closed_form_edges():
    # p = 1: s - (s - 1) - 1 = 0; p = 0: 1 - 1 - 0 = 0
    for s in (1.0, 2.5, 40.0):
        assert abs(constants.mn2012_gap(s, 1.0)) < 1e-12
        assert abs(constants.mn2012_gap(s, 0.0)) < 1e-12


def test_mn2012_gap_matches_oracle():
    for s in (1.0, 1.5, 7.0, 100.0):
        for p in (0.1, 0.5, 0.9):
            want = float(mp.mpf(s) ** p - (mp.mpf(s) - 1) ** p
                         - p * mp.mpf(s) ** (p - 1))
            assert abs(constants.mn2012_gap(s, p) - want) < 1e-13


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_mn2012_gap_nonnegative(s, p):
    assert constants.mn2012_gap(s, p) >= -1e-12


def test_mn2012_gap_domain():
    with pytest.raises(DomainError):
        constants.mn2012_gap(0.5, 0.5)
    with pytest.raises(DomainError):
        constants.mn2012_gap(2.0, 1.5)
    for s, p in ((math.nan, 0.5), (math.inf, 0.5), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(DomainError):   # s = nan returned nan, s = inf warned
            constants.mn2012_gap(s, p)
