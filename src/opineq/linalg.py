"""Dense symmetric linear algebra used by every check.

All operations work on real float64 arrays, and every eigensystem is
taken of the symmetrized matrix: eigenvalues ascending, orthonormal
eigenvectors, reconstruction residual at rounding level.

Two layers share that contract:

* The public functions (as_square, require_symmetric, spectral_decompose,
  eigvals_sym, power, sqrt_factors, conjugate_by_sqrt, loewner_compare,
  the norms and radii) validate their arguments on every call: shape,
  finiteness and, where the operation needs it, symmetry within SYM_RTOL.
  They are for callers outside the package.
* Spectra is the trusted core behind them.  It checks nothing but the
  finiteness of what it is about to decompose, and it solves each
  (eigensolver routine, input bits) pair once for as long as it lives.
  A check validates its operands once, on entry (InstanceSpec checks
  shape and finiteness, the check itself the symmetry of its symmetric
  operands), and then runs every decomposition, power, square root and
  norm of that call through one Spectra.  means.weighted_mean and
  means.tsallis_entropy take it as `spectra=`; maps.apply_map and
  checks._finish never re-validate.

Loewner comparisons never return a bare bool.  loewner_compare reports
the signed gap (the smallest eigenvalue of R - L) together with the
absolute tolerance that was applied, so callers can log how close a
verdict was to flipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotFinite,
    NotPositiveDefinite,
    NotSymmetric,
)

SYM_RTOL = 1e-12
POS_EIG_RTOL = 1e-10
DEFAULT_TOL_REL = 1e-9

# _gram_spectrum rescales A when max |a_ij| leaves this range
_SV_SAFE_LO, _SV_SAFE_HI = 2.0 ** -480, 2.0 ** 480
# numerical_radius: grid intervals on [0, pi], rounding slack relative to
# max g, the cap on polish steps per start, the cap on level-set tests, and
# the largest |Re sigma| / (1 + |sigma|) a level-set root may have to count
# as imaginary
_RADIUS_GRID = 8
_RADIUS_RTOL = 1e-12
_RADIUS_STEPS = 50
_RADIUS_ROUNDS = 8
_RADIUS_IMAG = 1e-4

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
        raise NotFinite("matrix entries must be finite")
    return m


def _is_symmetric(m: np.ndarray, rtol: float = SYM_RTOL) -> bool:
    """is_symmetric for a trusted (square, finite) matrix."""
    if (m == m.T).all():
        return True
    scale = max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(m - m.T))) <= rtol * scale


def is_symmetric(a, rtol: float = SYM_RTOL) -> bool:
    """True when max |a_ij - a_ji| <= rtol * max(1, max |a_ij|)."""
    return _is_symmetric(as_square(a), rtol)


def require_symmetric(a, what: str = "matrix") -> np.ndarray:
    m = as_square(a)
    if not _is_symmetric(m):
        raise NotSymmetric(f"{what} is not symmetric within tolerance")
    return m


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, matrix by matrix over any leading stack axes.

    Used to strip rounding-level asymmetry after products.
    """
    return 0.5 * (a + a.swapaxes(-1, -2))


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


def _positivity_floor(eigenvalues: np.ndarray) -> float:
    """POS_EIG_RTOL * max(1, max |lambda|) for ascending eigenvalues."""
    return POS_EIG_RTOL * max(1.0, abs(float(eigenvalues[0])), abs(float(eigenvalues[-1])))


class Spectra:
    """Per-call spectral context: the trusted core of this module.

    Every eigensolve made through one Spectra is kept, keyed by routine
    and by the bits of the symmetrized input, so within its lifetime no
    matrix is decomposed twice by the same routine.  eigh and eigvalsh
    results are never substituted for each other: their eigenvalues
    differ in the last bits.  Powers, square-root factors and norms are
    derived from the kept solves.

    Arguments are trusted: square and symmetric within SYM_RTOL, as the
    caller has checked.  Only finiteness is checked, once per new solve,
    because LAPACK decomposes a matrix holding inf or nan into finite
    garbage.  Make one per check call and share it with nothing else.
    """

    def __init__(self):
        self._solved = {}

    def _solve(self, routine: str, a: np.ndarray):
        s = symmetrize(a)
        key = (routine, s.shape, s.tobytes())
        out = self._solved.get(key)
        if out is None:
            if not np.isfinite(s).all():
                raise NotFinite("matrix entries must be finite")
            try:
                if routine == "eigh":
                    out = SpectralDecomposition(*np.linalg.eigh(s))
                else:
                    out = np.linalg.eigvalsh(s)
            except np.linalg.LinAlgError as exc:  # pragma: no cover, eigh is robust
                raise NoConvergence(f"eigensolver failed: {exc}") from exc
            self._solved[key] = out
        return out

    def decompose(self, a: np.ndarray) -> SpectralDecomposition:
        """Full eigensystem (eigh)."""
        return self._solve("eigh", a)

    def eigvals(self, a: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues (eigvalsh)."""
        return self._solve("eigvalsh", a)

    def power(self, a: np.ndarray, p: float) -> np.ndarray:
        """A^p; see power.  p = 0 and p = 1 need no decomposition."""
        p = float(p)
        if p == 1.0:
            return np.array(a, dtype=float)
        if p == 0.0:
            return np.eye(a.shape[0])
        dec = self.decompose(a)
        w = dec.eigenvalues
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
        with np.errstate(over="ignore"):
            vals = np.power(w, p)
        if not np.isfinite(vals).all():
            raise NotFinite(f"power {p:g} of eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}] overflows")
        q = dec.eigenvectors
        return symmetrize((q * vals) @ q.T)

    def sqrt_factors(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A^{1/2}, A^{-1/2}); A must be SPD."""
        dec = self.decompose(a)
        w = dec.eigenvalues
        floor = _positivity_floor(w)
        if np.any(w <= floor):
            raise NotPositiveDefinite(
                f"square-root factors need an SPD matrix, min eigenvalue {w.min():.3e}"
            )
        half = dec.apply(np.sqrt)
        inv_half = dec.apply(lambda lam: 1.0 / np.sqrt(lam))
        return half, inv_half

    def compare(self, l: np.ndarray, r: np.ndarray, tol_rel: float) -> LoewnerVerdict:
        """loewner_compare for trusted operands of one shape."""
        d = r - l
        # two operands accepted one by one can still differ by a matrix
        # that is not symmetric relative to its own, smaller, scale
        if not _is_symmetric(d):
            raise NotSymmetric("matrix is not symmetric within tolerance")
        diff = self.eigvals(d)
        tol = tol_rel * max(1.0, self.norm_op(l), self.norm_op(r))
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

    def gram_spectrum(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        """Ascending eigenvalues of B^T B for B = A / 2**e, and e.

        A^T A squares the entries, so A is divided by an exact power of two
        when max |a_ij| lies outside [2^-480, 2^480], where the squares would
        overflow or underflow.  In-range inputs get e = 0 and keep every bit.
        The input may be any square matrix; it is read as float64, as
        as_square reads it.
        """
        a = np.asarray(a, dtype=float)
        peak = np.abs(a).max()
        e = 0
        if peak > 0.0 and not _SV_SAFE_LO <= peak <= _SV_SAFE_HI:
            e = math.frexp(peak)[1]
            a = np.ldexp(a, -e)
        return self.eigvals(a.T @ a), e

    def scaled_singular_values(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        """Singular values of B = A / 2**e, descending, and e (see gram_spectrum)."""
        w, e = self.gram_spectrum(a)
        return np.sqrt(np.clip(w, 0.0, None))[::-1], e

    def norms(self, a: np.ndarray) -> tuple[float, float, float]:
        """(operator, Hilbert-Schmidt, trace) norms of any square matrix."""
        s, e = self.scaled_singular_values(a)
        return (math.ldexp(float(s[0]), e),
                math.ldexp(float(np.sqrt(np.sum(s * s))), e),
                math.ldexp(float(np.sum(s)), e))

    def norm_op(self, a: np.ndarray) -> float:
        """Operator norm of any square matrix, the largest singular value."""
        w, e = self.gram_spectrum(a)
        return math.ldexp(math.sqrt(max(float(w[-1]), 0.0)), e)


def spectral_decompose(a) -> SpectralDecomposition:
    """Full eigensystem of a symmetric matrix via the QR-type LAPACK path."""
    return Spectra().decompose(require_symmetric(a))


def eigvals_sym(a) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (no vectors)."""
    return Spectra().eigvals(require_symmetric(a))


def power(a, p: float) -> np.ndarray:
    """Matrix power A^p by functional calculus.

    Eigenvalues within POS_EIG_RTOL * max(1, spectral radius) of zero
    count as zero.  Fractional powers clamp those to exactly zero;
    negative or fractional powers of a matrix with a genuinely negative
    or (for p < 0) vanishing eigenvalue raise NotPositiveDefinite.
    p = 0 and p = 1 return I and a copy of A without an eigensolve.  A power
    that overflows raises NotFinite.
    """
    return Spectra().power(require_symmetric(a), p)


def sqrt_factors(a) -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}) from one decomposition.  A must be SPD."""
    return Spectra().sqrt_factors(require_symmetric(a))


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
    return Spectra().compare(lm, rm, tol_rel)


def singular_values(a) -> np.ndarray:
    """Singular values, descending, via the eigenvalues of A^T A."""
    s, e = Spectra().scaled_singular_values(as_square(a))
    return np.ldexp(s, e)


def norms(a) -> tuple[float, float, float]:
    """(operator, Hilbert-Schmidt, trace) norms from one set of singular values."""
    return Spectra().norms(as_square(a))


def norm_op(a) -> float:
    """Operator (spectral) norm, the largest singular value."""
    return Spectra().norm_op(as_square(a))


def norm_hs(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return norms(a)[1]


def norm_tr(a) -> float:
    """Trace norm, the sum of singular values."""
    return norms(a)[2]


def spectral_radius(a) -> float:
    """max |lambda| over the (possibly complex) eigenvalues of A."""
    m = as_square(a)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return float(np.max(np.abs(vals)))


def _radius_tops(s, k, thetas) -> np.ndarray:
    """g(theta) = lambda_max(cos(theta) S + i sin(theta) K) at each angle."""
    return np.linalg.eigvalsh(np.cos(thetas)[:, None, None] * s
                              + np.sin(thetas)[:, None, None] * k)[:, -1]


def _radius_polish(s, k, t: float, h: float, slack: float) -> float:
    """Largest g(theta) seen on a safeguarded Newton ascent from t inside
    [t - 2h, t + 2h]."""
    edge = (t - 2.0 * h, t + 2.0 * h)
    (lo, hi), best = edge, -np.inf
    for _ in range(_RADIUS_STEPS):
        lam, vec = np.linalg.eigh(np.cos(t) * s + np.sin(t) * k)
        g = lam[-1]
        best = max(best, float(g))
        top = np.count_nonzero(lam >= g - slack)  # size of the top cluster
        c = vec.conj().T @ ((np.cos(t) * k - np.sin(t) * s) @ vec[:, -top:])
        if top > 1:  # crossing branches: one-sided slopes g'(t+), g'(t-)
            right, left = np.linalg.eigvalsh(c[-top:])[[-1, 0]]
            d2 = np.inf
        else:
            right = left = c[-1, 0].real
            cj = np.abs(c[:-1, 0])
            d2 = -g + 2.0 * np.sum(cj * (cj / (g - lam[:-1])))
        level = right <= slack and left >= -slack
        if level and (top > 1 or d2 <= slack):  # a peak, or flat
            break
        lo, hi = (t, hi) if right > slack or level else (lo, t)  # a dip moves right
        nt = t - right / d2 if d2 < 0.0 else 0.5 * (lo + hi)
        nt = min(max(nt, edge[0]), edge[1])  # an ascent out of the bracket stops at its end
        if not lo <= nt <= hi:
            nt = 0.5 * (lo + hi)
        if nt == t:
            break
        t = nt
    return best


def _radius_arcs(m, s, k, level: float, c: float) -> np.ndarray:
    """One angle inside each arc where g(theta) > level; none when g < level
    at every angle.  c = cos(t0) = +-1 for t0 = 0 or pi with g(t0) < level.

    H(t0) = c S is real.  With theta = t0 + pi + 2 arctan(tau) and
    tau = i sigma, (1 + tau^2)(level - H(theta)) is the real quadratic
    (level + c S) - 2 c sigma K_a - sigma^2 (level - c S), K_a = (A - A^T)/2,
    whose leading coefficient is positive definite.  The angles where level
    is an eigenvalue of H(theta) are its imaginary eigenvalues sigma, the
    eigenvalues of a real 2n x 2n companion matrix (Mengi & Overton, IMA J.
    Numer. Anal. 25, 2005).  Roots near the imaginary axis count too: they
    only add cuts, and g at the midpoints between the cuts decides.
    """
    n = m.shape[0]
    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:] = np.linalg.solve(level * np.eye(n) - c * s,
                               np.hstack((level * np.eye(n) + c * s, -c * (m - m.T))))
    sigma = np.linalg.eigvals(comp)
    tau = -sigma[np.abs(sigma.real) <= _RADIUS_IMAG * (1.0 + np.abs(sigma))].imag
    if not tau.size:
        return tau
    cuts = np.sort((1.0 - c) * np.pi / 2.0 + np.pi + 2.0 * np.arctan(tau))
    mids = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2.0 * np.pi))
    return mids[_radius_tops(s, k, mids) > level]


def numerical_radius(a) -> float:
    """Numerical radius w(A) = max_x |<Ax, x>| over unit vectors.

    w(A) = max over theta of g(theta), the top eigenvalue of the Hermitian
    n x n matrix H(theta) = Re(e^{i theta} A) = cos(theta) S + i sin(theta) K,
    S and K the symmetric and antisymmetric parts of A (C. R. Johnson,
    SIAM J. Numer. Anal. 15, 1978).  A is real, so g is even and one stacked
    eigensolve samples it at G + 1 angles on [0, pi], both ends included,
    spacing h = pi / G.  The best grid angle is polished by Newton steps on
    g' = v^H H' v with g'' = -g + 2 sum_j |v_j^H H' v|^2 / (g - lambda_j)
    from the same eigh, within +-2h of the start, bisecting on the sign of
    g' where g'' >= 0 (eigenvalue crossings) or a step leaves the bracket.
    Then a level-set test (_radius_arcs) looks for angles where g exceeds
    the largest value seen by more than a rounding slack of 1e-12 relative;
    each one found is polished in turn and the test repeats.  So the result
    is w(A) to within that slack, whatever the grid saw: peaks closer than
    a grid step, or a bump between two angles where other branches peak.
    """
    m = as_square(a)
    s, k = 0.5 * (m + m.T), 0.5j * (m - m.T)
    thetas = np.linspace(0.0, np.pi, _RADIUS_GRID + 1)
    tops = _radius_tops(s, k, thetas)
    best = float(tops.max())
    slack = _RADIUS_RTOL * best
    starts = thetas[[np.argmax(tops)]]
    for _ in range(_RADIUS_ROUNDS):
        for t in starts:
            best = max(best, _radius_polish(s, k, t, np.pi / _RADIUS_GRID, slack))
        if best == 0.0:  # A = 0, where level - c S would be singular
            break
        starts = _radius_arcs(m, s, k, best + slack, 1.0 if tops[0] <= tops[-1] else -1.0)
        if not starts.size:
            break
    return best
