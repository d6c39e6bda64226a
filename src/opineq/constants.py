"""Scalar constants appearing in the additive and ratio bounds.

These formulas mix terms of very different magnitude when the
condition number h = M/m gets large (the worked examples reach
h ~ 1800), so everything is evaluated in extended precision
(np.longdouble) and only converted to float on return.

Conventions for the degenerate edges, all continuous limits:
    kantorovich_K(1, p) = kantorovich_K(h, 1) = 1
    furuta_F(m, 1, p) = 0
    seo_C(m, m, p) = 0

Each domain guard also refuses a NaN or an infinity (DomainError).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ZeroParameter

_LD = np.longdouble


def kantorovich_K(h: float, p: float) -> float:
    """Generalized Kantorovich constant K(h, p) for h >= 1, 0 < p <= 1.

    K(h, p) = (h^p - h)/((p - 1)(h - 1)) *
              ((p - 1)(h^p - 1)/(p (h^p - h)))^p
    """
    h = float(h)
    p = float(p)
    if not 1.0 <= h < np.inf:
        raise DomainError(f"kantorovich_K needs h >= 1, got {h}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"kantorovich_K needs 0 < p <= 1, got {p}")
    if h == 1.0 or p == 1.0:
        return 1.0
    hx = _LD(h)
    px = _LD(p)
    hp = hx**px
    front = (hp - hx) / ((px - 1.0) * (hx - 1.0))
    inner = (px - 1.0) * (hp - 1.0) / (px * (hp - hx))
    return float(front * inner**px)


def furuta_F(m: float, h: float, p: float) -> float:
    """Difference constant F(m, h, p) for m > 0, h >= 1, 0 < p < 1.

    F = (m^p / p) * ((h^p - h)/(h - 1)) * (1 - K(h, p)^{1/(p - 1)})
    """
    m = float(m)
    h = float(h)
    p = float(p)
    if not 0.0 < m < np.inf:
        raise DomainError(f"furuta_F needs m > 0, got {m}")
    if not 1.0 <= h < np.inf:
        raise DomainError(f"furuta_F needs h >= 1, got {h}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"furuta_F needs 0 < p < 1, got {p}")
    if h == 1.0:
        return 0.0
    mx = _LD(m)
    hx = _LD(h)
    px = _LD(p)
    k = _LD(kantorovich_K(h, p))
    front = mx**px / px
    mid = (hx**px - hx) / (hx - 1.0)
    tail = 1.0 - k ** (1.0 / (px - 1.0))
    return float(front * mid * tail)


def seo_C(m: float, M: float, p: float) -> float:
    """Reverse-mean constant C(m, M, p) for 0 < m <= M, 0 < p < 1.

    C = (p - 1) ((M^p - m^p)/(p (M - m)))^{p/(p - 1)}
        + (M m^p - m M^p)/(M - m)
    """
    m = float(m)
    M = float(M)
    p = float(p)
    if not 0.0 < m <= M < np.inf:
        raise DomainError(f"seo_C needs 0 < m <= M, got m={m}, M={M}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"seo_C needs 0 < p < 1, got {p}")
    if m == M:
        return 0.0
    mx = _LD(m)
    Mx = _LD(M)
    px = _LD(p)
    slope = (Mx**px - mx**px) / (px * (Mx - mx))
    first = (px - 1.0) * slope ** (px / (px - 1.0))
    second = (Mx * mx**px - mx * Mx**px) / (Mx - mx)
    return float(first + second)


def lemma_bounds(t: float, m: float, M: float, p: float) -> tuple[float, float, float]:
    """Two-sided secant bounds on (t^p - 1)/p over the window [1, M].

    For 0 < m <= 1 <= t <= M and p != 0 the chord slope of x^p between
    1 and t lies between M^(p-1) and m^(p-1) when p <= 1, with the two
    ends swapped when p >= 1.  Returns (lower, mid, upper) where
    mid = (t^p - 1)/p and lower <= mid <= upper.
    """
    t = float(t)
    m = float(m)
    M = float(M)
    p = float(p)
    if p == 0.0:
        raise ZeroParameter("lemma_bounds requires p != 0")
    if not (0.0 < m <= 1.0 <= t <= M < np.inf):
        raise DomainError(
            f"lemma_bounds needs 0 < m <= 1 <= t <= M, got m={m}, t={t}, M={M}"
        )
    if not abs(p) < np.inf:
        raise DomainError(f"lemma_bounds needs a finite p, got {p}")
    tx = _LD(t)
    px = _LD(p)
    mid = float((tx**px - 1.0) / px)
    lo_coef = float(_LD(M) ** (px - 1.0))
    hi_coef = float(_LD(m) ** (px - 1.0))
    if p > 1.0:
        lo_coef, hi_coef = hi_coef, lo_coef
    return (lo_coef * (t - 1.0), mid, hi_coef * (t - 1.0))


def mn2012_gap(s: float, p: float) -> float:
    """Gap s^p - (s - 1)^p - p s^(p-1), nonnegative for s >= 1, 0 <= p <= 1."""
    s = float(s)
    p = float(p)
    if not 1.0 <= s < np.inf:
        raise DomainError(f"mn2012_gap needs s >= 1, got {s}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mn2012_gap needs 0 <= p <= 1, got {p}")
    sx = _LD(s)
    px = _LD(p)
    return float(sx**px - (sx - 1.0) ** px - px * sx ** (px - 1.0))
