"""Weighted operator means and the Tsallis relative operator entropy.

The central object is

    A natural_p B = A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2}

for SPD A and positive B and any real p (written #_p when restricted
to p in [0, 1], where it is the operator-monotone weighted geometric
mean).  The Tsallis relative operator entropy is its normalized chord,

    T_p(A|B) = (A natural_p B - A) / p,   p != 0,

which converges to the relative operator entropy as p -> 0.

Every mean evaluation decomposes W = A^{-1/2} B A^{-1/2} once and
reports the extreme eigenvalues of that eigh alongside the result.  The
checks and compute_sandwich do not read them: they take the spectrum of
W by its one eigvalsh, _inner_spectrum, whose eigenvalues can differ
from eigh's in the last bits, and decide the paper's unit window
m <= 1 <= W <= M on it by one rule, _unit_window.

Inside a check (spectra= given) A and B may be stacks of instances,
(g, n, n), each with its own p: the decompositions, powers and products
run stacked, through linalg.Spectra, and give every instance the bits it
gets alone.  W is formed in one place, _inner_operator, for the means,
the entropy and the checks' inner spectra.  The Spectra keeps W once per
pair of operand objects, and each mean once per pair and exponents
(Spectra.keep), so a check that takes W's spectrum and then the mean of
the same stacks, or an entropy and then the mean, forms each once.
Negative exponents are gated in one place too, Spectra.power, which
needs W's eigenvalues bounded away from zero for them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import inputs, linalg
from .errors import NotPositiveDefinite, ZeroParameter


class MeanResult(NamedTuple):
    """A natural_p B together with the spectrum edge of A^{-1/2} B A^{-1/2}."""

    value: np.ndarray
    p: float
    inner_spectrum: tuple[float, float]


class SandwichBounds(NamedTuple):
    """Canonical constants for the hypothesis m <= 1 <= W <= M.

    lam_min and lam_max are the extreme eigenvalues of
    W = A^{-1/2} B A^{-1/2}; m and M clip them into the admissible
    pattern (m <= 1 <= M).  hypothesis_ok records whether the
    unclipped spectrum satisfies 1 <= lam_min, i.e. A <= B, within the
    checks' linalg.HYP_TOL (_unit_window).
    """

    m: float
    M: float
    lam_min: float
    lam_max: float
    hypothesis_ok: bool


def _inner_operator(a, b, spectra) -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2} B A^{-1/2}) from one decomposition of A, formed
    once per pair of operand objects in spectra."""
    def make():
        half, inv_half = spectra.sqrt_factors(a)
        return half, linalg.symmetrize(inv_half @ b @ inv_half)
    return spectra.keep(("inner",), (a, b), make)


def _inner_spectrum(a, b, spectra) -> np.ndarray:
    """Eigenvalues of W = A^{-1/2} B A^{-1/2}, ascending (eigvalsh)."""
    return spectra.eigvals(_inner_operator(a, b, spectra)[1])


def _unit_window(lo, hi, m=None, M=None) -> tuple[float, float, str]:
    """(m, M, note): the paper's unit window m <= 1 <= W <= M, decided
    here only, for a spectrum of W with edges (lo, hi).

    m and M default to the clip min(lo, 1) and max(hi, 1).  note is ""
    when the window holds, else why not: lo below one or m above one,
    each by more than linalg.HYP_TOL (absolute: W is dimensionless).
    """
    m = min(lo, 1.0) if m is None else m
    M = max(hi, 1.0) if M is None else M
    if lo < 1.0 - linalg.HYP_TOL:
        return m, M, f"spectrum reaches {lo:.6g}, below the required unit floor"
    if m > 1.0 + linalg.HYP_TOL:
        return m, M, f"lower bound m={m:.6g} exceeds one"
    return m, M, ""


def weighted_mean(a, b, p, *, spectra=None) -> MeanResult:
    """A natural_p B by functional calculus on W = A^{-1/2} B A^{-1/2}.

    A must be SPD.  B must be positive semidefinite for p >= 0 and
    strictly positive definite for p < 0 (otherwise W^p blows up):
    Spectra.power gates a negative p, raising NotPositiveDefinite when
    W's eigenvalues are not bounded away from zero.

    Without `spectra` the operands are validated, and p by inputs.finite.
    A check passes the linalg.Spectra of its call instead: then A and B
    are trusted, as the check has validated them, and each stack of A or
    W is decomposed once across the whole call; the mean itself is formed
    once per pair of operand objects and p.  They may then be stacks of
    instances, (g, n, n), with one exponent per instance in p; the
    result's value, p and inner_spectrum hold one entry per instance.
    The result is shared, so its value must not be changed in place.
    """
    if spectra is None:
        p = inputs.finite("p", p)
        a, b = linalg._symmetric_pair(a, b)
        spectra = linalg.Spectra()

    def make():
        half, w = _inner_operator(a, b, spectra)
        lam = spectra.decompose(w).eigenvalues
        wp = spectra.power(w, linalg._per_matrix(p, w))
        value = linalg.symmetrize(half @ wp @ half)
        return MeanResult(value=value, p=p, inner_spectrum=(lam[..., 0][()], lam[..., -1][()]))
    return spectra.keep(("mean", tuple(p) if hasattr(p, "__len__") else p), (a, b), make)


def tsallis_entropy(a, b, p, *, spectra=None) -> np.ndarray:
    """T_p(A|B) = (A natural_p B - A) / p for p != 0.

    p = 1 short-circuits to B - A, which is the exact value there.
    `spectra` works as in weighted_mean.  A stack takes one mean over all
    of its rows, unless every p is 1, and its p = 1 rows are then set to
    B - A; so every A of a stack must be positive definite.
    """
    p = inputs.finite("p", p) if spectra is None else p
    stacked = hasattr(p, "__len__")
    ps = [float(q) for q in p] if stacked else [float(p)]
    if 0.0 in ps:
        raise ZeroParameter("tsallis_entropy requires p != 0")
    if spectra is None:
        a, b = linalg._symmetric_pair(a, b)
        spectra = linalg.Spectra()
    one = np.array([q == 1.0 for q in ps])
    if one.all():
        return b - a
    mean = weighted_mean(a, b, p, spectra=spectra).value
    out = (mean - a) / (np.array(ps).reshape(-1, 1, 1) if stacked else ps[0])
    if one.any():
        out[one] = (b - a)[one]
    return out


def tsallis_from_mean(a: np.ndarray, mean: MeanResult) -> np.ndarray:
    """T_p(A|B) reusing an already computed mean (checks call this)."""
    if mean.p == 0.0:
        raise ZeroParameter("tsallis entropy requires p != 0")
    if mean.p == 1.0:
        # value is B up to rounding; the difference is what matters
        return mean.value - a
    return (mean.value - a) / mean.p


def compute_sandwich(a, b) -> SandwichBounds:
    """Extreme eigenvalues of A^{-1/2} B A^{-1/2} and clipped (m, M).

    The returned m = min(lam_min, 1) and M = max(lam_max, 1) always
    satisfy the pattern 0 < m <= 1 <= M required by the additive
    bounds; hypothesis_ok is True exactly when lam_min >= 1 -
    linalg.HYP_TOL, the order hypothesis A <= B as the checks decide it
    (_unit_window).
    """
    am, bm = linalg._symmetric_pair(a, b)
    lam_min, lam_max = linalg._edges(_inner_spectrum(am, bm, linalg.Spectra()))[0]
    if lam_min <= 0.0:
        raise NotPositiveDefinite(
            f"sandwich constants need B positive definite relative to A, "
            f"inner spectrum reaches {lam_min:.3e}"
        )
    m, M, note = _unit_window(lam_min, lam_max)
    return SandwichBounds(m=m, M=M, lam_min=lam_min, lam_max=lam_max, hypothesis_ok=not note)
