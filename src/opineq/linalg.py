"""Dense symmetric linear algebra used by every check.

All public operations work on real float64 arrays.  Symmetry is
enforced up front (relative tolerance SYM_RTOL) and eigensystems come
from one place, spectral_decompose, so every matrix function in the
package shares a single numerical contract: eigenvalues ascending,
orthonormal eigenvectors, reconstruction residual at rounding level.

Loewner comparisons never return a bare bool.  loewner_compare reports
the signed gap (the smallest eigenvalue of R - L) together with the
absolute tolerance that was applied, so callers can log how close a
verdict was to flipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NotSymmetric,
)

SYM_RTOL = 1e-12
POS_EIG_RTOL = 1e-10
DEFAULT_TOL_REL = 1e-9

LE = "LE"
GE = "GE"
EQ = "EQ"
INCOMPARABLE = "INCOMPARABLE"


def as_square(a) -> np.ndarray:
    """Coerce to a float64 square matrix, validating shape and finiteness."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatch("matrix must have dimension at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def is_symmetric(a, rtol: float = SYM_RTOL) -> bool:
    """True when max |a_ij - a_ji| <= rtol * max(1, max |a_ij|)."""
    m = as_square(a)
    scale = max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(m - m.T))) <= rtol * scale


def require_symmetric(a, what: str = "matrix") -> np.ndarray:
    m = as_square(a)
    if not is_symmetric(m):
        raise NotSymmetric(f"{what} is not symmetric within tolerance")
    return m


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2.  Used to strip rounding-level asymmetry after products."""
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a symmetric matrix.

    eigenvalues are ascending; eigenvectors[:, i] belongs to
    eigenvalues[i] and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Functional calculus: Q diag(fn(lambda)) Q^T, symmetrized."""
        q = self.eigenvectors
        vals = np.asarray(fn(self.eigenvalues), dtype=float)
        return symmetrize((q * vals) @ q.T)


def spectral_decompose(a) -> SpectralDecomposition:
    """Full eigensystem of a symmetric matrix via the QR-type LAPACK path."""
    m = require_symmetric(a)
    try:
        w, q = np.linalg.eigh(symmetrize(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover, eigh is robust
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=q)


def eigvals_sym(a) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (no vectors)."""
    m = require_symmetric(a)
    try:
        return np.linalg.eigvalsh(symmetrize(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(f"eigensolver failed: {exc}") from exc


def _positivity_floor(eigenvalues: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 1.0)
    return POS_EIG_RTOL * scale


def power(a, p: float) -> np.ndarray:
    """Matrix power A^p by functional calculus.

    Eigenvalues within POS_EIG_RTOL * max(1, spectral radius) of zero
    count as zero.  Fractional powers clamp those to exactly zero;
    negative or fractional powers of a matrix with a genuinely negative
    or (for p < 0) vanishing eigenvalue raise NotPositiveDefinite.
    """
    p = float(p)
    dec = spectral_decompose(a)
    if p == 1.0:
        return np.array(as_square(a), dtype=float)
    if p == 0.0:
        return np.eye(dec.eigenvalues.size)
    w = dec.eigenvalues.copy()
    floor = _positivity_floor(w)
    fractional = p != int(p)
    if p < 0.0:
        if np.any(w <= floor):
            raise NotPositiveDefinite(
                f"negative power {p} needs eigenvalues bounded away from zero, "
                f"min is {w.min():.3e}"
            )
    elif fractional:
        if np.any(w < -floor):
            raise NotPositiveDefinite(
                f"fractional power {p} needs a PSD matrix, min eigenvalue {w.min():.3e}"
            )
        w = np.clip(w, 0.0, None)
    return SpectralDecomposition(w, dec.eigenvectors).apply(lambda lam: np.power(lam, p))


def sqrt_factors(a) -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}) from one decomposition.  A must be SPD."""
    dec = spectral_decompose(a)
    w = dec.eigenvalues
    floor = _positivity_floor(w)
    if np.any(w <= floor):
        raise NotPositiveDefinite(
            f"square-root factors need an SPD matrix, min eigenvalue {w.min():.3e}"
        )
    half = SpectralDecomposition(w, dec.eigenvectors).apply(np.sqrt)
    inv_half = SpectralDecomposition(w, dec.eigenvectors).apply(
        lambda lam: 1.0 / np.sqrt(lam)
    )
    return half, inv_half


def conjugate_by_sqrt(a, x) -> np.ndarray:
    """A^{1/2} X A^{1/2} for SPD A and symmetric X."""
    am = as_square(a)
    xm = require_symmetric(x, "conjugated matrix")
    if am.shape != xm.shape:
        raise DimensionMismatch(
            f"conjugation needs matching shapes, got {am.shape} and {xm.shape}"
        )
    half, _ = sqrt_factors(am)
    return symmetrize(half @ xm @ half)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a Loewner-order comparison of L and R.

    relation is one of LE, GE, EQ, INCOMPARABLE.  gap_min_eig is the
    smallest eigenvalue of R - L: nonnegative (up to tol_used) exactly
    when L <= R in the Loewner order.
    """

    relation: str
    gap_min_eig: float
    tol_used: float

    @property
    def is_le(self) -> bool:
        return self.relation in (LE, EQ)

    @property
    def is_ge(self) -> bool:
        return self.relation in (GE, EQ)


def loewner_compare(l, r, tol_rel: float = DEFAULT_TOL_REL) -> LoewnerVerdict:
    """Compare symmetric L and R in the Loewner order.

    The absolute tolerance is tol_rel * max(1, ||L||, ||R||) with the
    operator norm, so verdicts are scale invariant above unit norm.
    """
    lm = require_symmetric(l, "left operand")
    rm = require_symmetric(r, "right operand")
    if lm.shape != rm.shape:
        raise DimensionMismatch(
            f"cannot compare shapes {lm.shape} and {rm.shape}"
        )
    diff = eigvals_sym(rm - lm)
    tol = tol_rel * max(1.0, norm_op(lm), norm_op(rm))
    le = diff[0] >= -tol
    ge = diff[-1] <= tol
    if le and ge:
        relation = EQ
    elif le:
        relation = LE
    elif ge:
        relation = GE
    else:
        relation = INCOMPARABLE
    return LoewnerVerdict(relation=relation, gap_min_eig=float(diff[0]), tol_used=tol)


def singular_values(a) -> np.ndarray:
    """Singular values, descending, via the eigenvalues of A^T A."""
    m = as_square(a)
    w = np.linalg.eigvalsh(symmetrize(m.T @ m))
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def norm_op(a) -> float:
    """Operator (spectral) norm, the largest singular value."""
    return float(singular_values(a)[0])


def norm_hs(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    s = singular_values(a)
    return float(np.sqrt(np.sum(s * s)))


def norm_tr(a) -> float:
    """Trace norm, the sum of singular values."""
    return float(np.sum(singular_values(a)))


def spectral_radius(a) -> float:
    """max |lambda| over the (possibly complex) eigenvalues of A."""
    m = as_square(a)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return float(np.max(np.abs(vals)))


def numerical_radius(a, grid: int = 720, refine_iters: int = 40) -> float:
    """Numerical radius w(A) = max_x |<Ax, x>| over unit vectors.

    For real A, w(A) = max over theta in [0, pi) of the top eigenvalue
    of H(theta) = cos(theta) S + sin(theta) J, where S and K are the
    symmetric and antisymmetric parts of A and J is the Hermitian
    matrix i K, represented here by the real 2n x 2n embedding
    [[X, -Y], [Y, X]] of X + iY.  The profile g(theta) is sampled on a
    uniform grid and the best bracket is polished by golden-section
    ascent; with the default 720-point grid and 40 refinement steps
    the result is accurate to well below 1e-9 for the sizes used here.
    """
    m = as_square(a)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    k = 0.5 * (m - m.T)

    # Real embedding of cos(t) S + i sin(t) K: X = cos(t) S, Y = sin(t) K.
    def embed(theta: float) -> np.ndarray:
        x = np.cos(theta) * s
        y = np.sin(theta) * k
        return np.block([[x, -y], [y, x]])

    thetas = np.linspace(0.0, np.pi, grid, endpoint=False)
    stack = np.empty((grid, 2 * n, 2 * n))
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    stack[:, :n, :n] = cos_t[:, None, None] * s
    stack[:, n:, n:] = stack[:, :n, :n]
    stack[:, :n, n:] = -sin_t[:, None, None] * k
    stack[:, n:, :n] = -stack[:, :n, n:]
    tops = np.linalg.eigvalsh(stack)[:, -1]

    def g(theta: float) -> float:
        return float(np.linalg.eigvalsh(embed(theta))[-1])

    best = int(np.argmax(tops))
    step = np.pi / grid
    lo = thetas[best] - step
    hi = thetas[best] + step

    # Golden-section ascent on [lo, hi]; g extends smoothly past the
    # grid endpoints so the bracket never needs clipping.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(refine_iters):
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = g(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = g(x1)
    return max(float(tops[best]), f1, f2)
