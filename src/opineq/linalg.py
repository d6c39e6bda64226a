"""Dense symmetric linear algebra used by every check.

All operations work on real float64 arrays, and every eigensystem is
taken of the symmetrized matrix: eigenvalues ascending, orthonormal
eigenvectors, reconstruction residual at rounding level.

Two layers share that contract:

* The public functions (as_square, require_symmetric, spectral_decompose,
  eigvals_sym, power, sqrt_factors, conjugate_by_sqrt, loewner_compare,
  the norms and radii) validate their arguments on every call: type
  (inputs.numbers), shape, finiteness and, where the operation needs it,
  symmetry within SYM_RTOL.
  They are for callers outside the package and take one matrix.
* Spectra is the trusted core behind them.  It takes a stack of matrices
  of one shape, (..., n, n), and works matrix by matrix: one stacked
  LAPACK or BLAS call gives each matrix the same bits as a call on that
  matrix alone, so a stack of instances gets the result every instance
  would get by itself.  Results that are one number per matrix come back
  with the stack's leading shape; exponents are given one per matrix.
  It checks nothing but the finiteness of what it is about to decompose,
  converts nothing (InstanceSpec and the public functions give it
  float64), and it solves each stack once per eigensolver routine for
  as long as it lives.  InstanceSpec checks type, shape and finiteness;
  a check's entry (checks._pair, checks._symmetric) checks the symmetry
  of its symmetric operands before anything is computed, and its
  registry wrapper gives it the one Spectra that every decomposition,
  power, square root and norm of its group of instances runs through;
  fuzz.run_fuzz shares one Spectra between a chunk's sampler and its
  check groups.  means.weighted_mean and means.tsallis_entropy take it
  as `spectra=`; maps.apply_map, given float64, and checks._finish
  never re-validate.

Loewner comparisons never return a bare bool.  loewner_compare reports
the signed gap (the smallest eigenvalue of R - L) together with the
absolute tolerance that was applied, so callers can log how close a
verdict was to flipping.  An order gate that needs only L <= R
(checks._order) applies the same rule, _is_le, and takes the norms of
L and R only where the gap is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotFinite,
    NotPositiveDefinite,
    NotSymmetric,
)

# Tolerance policy: every threshold the engine compares against, named
# once, by what it scales with; picked, not yet fitted (ROADMAP item 3).
#   (a) against the largest of the operand magnitudes it compares:
#       _scaled(rel, *mags) = rel * max(mags), homogeneous, and 0 at an exact
#       zero scale.  tol_rel takes it in Spectra.compare and mond_pecaric's gate.
#       checks._finish's tol_used and repro's E3 gap alone keep a unit floor,
#       _unit_scaled(rel, *mags) = rel * max(1, *mags), which below magnitude 1
#       is rel itself and not scale invariant (ROADMAP item 8b).
#   (b) homogeneous relative, rel * magnitude.  (c) absolute, dimensionless.
DEFAULT_TOL_REL = 1e-9      # tol_rel of the checks, eval and loewner_compare
FUZZ_TOL_REL = 1e-8         # of run_fuzz: its instances stack more rounding
SYM_RTOL = 1e-12            # (a) max |a_ij - a_ji| against max |a_ij|
POS_EIG_RTOL = 1e-10        # (a) eigenvalues that count as zero, against max |lambda|
_SINGULAR_RTOL = 1e-12      # (a) mn2012: min |eig(B - A)| against its edges
_MAP_LINEAR_RTOL = 1e-10    # (a) verify_map: Phi(aX + bY) - a Phi(X) - b Phi(Y)
_MAP_POSITIVE_RTOL = 1e-9   # (a) verify_map: -lambda_min(Phi(P)) against ||P||
_RADIUS_RTOL = 1e-12        # (b) numerical_radius: rounding slack against max g
_NILPOTENT_RTOL = 1e-12     # (b) radius_chain: a vanishing spectral radius, against ||A||
_BOUND_RTOL = 1e-9          # (b) a user's m/M: slack against max |lambda| of what it bounds
HYP_TOL = 1e-9              # (c) the unit window m <= 1 <= W, decided in means._unit_window
_P_EPS = 1e-12              # (c) closed ends of an exponent domain (p only, no window)
_ORTHO_TOL = 1e-10          # (c) maps: V^T V, U^T U, Phi(I) against I; sum of weights
_TRACE_TOL = 1e-10          # (c) density_trace: |Tr A - 1|
_UNIT_TOL = 1e-8            # (c) a given unit vector x: | ||x|| - 1 |
_SUPPORT_TOL = 1e-12        # (c) mond_pecaric: squared overlaps that carry weight
_RADIUS_IMAG = 1e-4         # (c) numerical_radius: |Re sigma| / (1 + |sigma|) of a root


def _unit_scaled(rel: float, *magnitudes: float) -> float:
    """Rule (a) with its unit floor, for tol_used and repro's E3 alone."""
    return rel * max((1.0, *magnitudes))


def _scaled(rel: float, *magnitudes: float) -> float:
    """Rule (a) of the tolerance policy."""
    return rel * max(magnitudes)


def _is_le(gap: float, rel: float, norm_l: float, norm_r: float) -> bool:
    """L <= R from gap = lambda_min(R - L): gap >= -_scaled(rel, ||L||, ||R||),
    which a gap >= 0 meets whatever the norms."""
    return gap >= -_scaled(rel, norm_l, norm_r)


# _gram rescales A when max |a_ij| leaves this range
_SV_SAFE_LO, _SV_SAFE_HI = 2.0 ** -480, 2.0 ** 480
# numerical_radius: grid intervals on [0, pi] (even: _radius_grid reflects
# them), the cap on polish steps per start and the cap on level-set tests
_RADIUS_GRID = 8
_RADIUS_STEPS = 50
_RADIUS_ROUNDS = 8

LE = "LE"
GE = "GE"
EQ = "EQ"
INCOMPARABLE = "INCOMPARABLE"


def as_square(a, field: str = "matrix") -> np.ndarray:
    """Coerce to a float64 square matrix, validating type (inputs.floats),
    shape and finiteness."""
    m = inputs.floats(field, a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatch("matrix must have dimension at least 1")
    if not np.all(np.isfinite(m)):
        raise NotFinite("matrix entries must be finite")
    return m


def _is_symmetric(m: np.ndarray) -> np.ndarray:
    """is_symmetric for each matrix of a trusted (square, finite) stack;
    a single True when every matrix is exactly symmetric (rule (a))."""
    mt = m.swapaxes(-1, -2)
    exact = m == mt
    if exact.all():
        return np.True_
    scale = np.abs(m).max(axis=(-2, -1))
    return exact.all(axis=(-2, -1)) | (np.abs(m - mt).max(axis=(-2, -1)) <= SYM_RTOL * scale)


def _require_symmetric(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """m, once every matrix of the trusted stack is symmetric; else NotSymmetric."""
    if not _is_symmetric(m).all():
        raise NotSymmetric(f"{what} is not symmetric within tolerance")
    return m


def is_symmetric(a) -> bool:
    """True when max |a_ij - a_ji| <= _scaled(SYM_RTOL, max |a_ij|)."""
    return bool(_is_symmetric(as_square(a)))


def require_symmetric(a, what: str = "matrix") -> np.ndarray:
    return _require_symmetric(as_square(a, what), what)


def _symmetric_pair(a, b, names=("A", "B")) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) as float64 matrices, once each is symmetric (else NotSymmetric
    naming it by names, A first) and they share one shape (else DimensionMismatch)."""
    am, bm = require_symmetric(a, names[0]), require_symmetric(b, names[1])
    if am.shape != bm.shape:
        raise DimensionMismatch(f"{names[0]} and {names[1]} must share a shape, "
                                f"got {am.shape} and {bm.shape}")
    return am, bm


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2, matrix by matrix over any leading stack axes.

    Used to strip rounding-level asymmetry after products.  a is a float
    array; the sum is formed once and halved in place.
    """
    s = a + a.swapaxes(-1, -2)
    s *= 0.5
    return s


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a symmetric matrix, or of each matrix of a stack.

    eigenvalues are ascending; eigenvectors[..., :, i] belongs to
    eigenvalues[..., i] and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Functional calculus: Q diag(fn(lambda)) Q^T, symmetrized; fn
        returns a float array of the eigenvalues' shape."""
        return _reconstruct(self.eigenvectors, fn(self.eigenvalues))


def _reconstruct(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(v) Q^T, symmetrized, matrix by matrix over a stack."""
    return symmetrize((q * vals[..., None, :]) @ q.swapaxes(-1, -2))


def _require_floor(lam: np.ndarray, strict: bool, message: str) -> np.ndarray:
    """lam, a stack of ascending spectra, once each is positive up to its
    floor _scaled(POS_EIG_RTOL, |lambda_min|, |lambda_max|): semidefinite
    (lambda_min >= -floor), or with strict definite (lambda_min > floor).
    Otherwise NotPositiveDefinite, with message.format(lo=lambda_min) of
    the first spectrum that is not."""
    for lo, hi in _edges(lam):
        floor = _scaled(POS_EIG_RTOL, abs(lo), abs(hi))
        if (lo <= floor) if strict else (lo < -floor):
            raise NotPositiveDefinite(message.format(lo=lo))
    return lam


def _edges(w: np.ndarray) -> list:
    """[(lambda_min, lambda_max)] per spectrum of a stack of ascending spectra."""
    w = w.reshape(-1, w.shape[-1])
    return list(zip(w[:, 0].tolist(), w[:, -1].tolist()))


def _gram(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """B^T B for B = A / 2**e, and e, matrix by matrix over a stack.

    A^T A squares the entries, so A is divided by an exact power of two
    when max |a_ij| lies outside [2^-480, 2^480], where the squares would
    overflow or underflow.  In-range inputs get e = 0 and keep every bit;
    e is None when every matrix is in range.
    """
    peak = np.abs(a).max(axis=(-2, -1))
    e = None
    if any(x > 0.0 and not _SV_SAFE_LO <= x <= _SV_SAFE_HI for x in peak.ravel().tolist()):
        out = (peak > 0.0) & ((peak < _SV_SAFE_LO) | (peak > _SV_SAFE_HI))
        e = np.where(out, np.frexp(peak)[1], 0)
        a = np.ldexp(a, -e[..., None, None])
    return a.swapaxes(-1, -2) @ a, e


def _top_norm(w: np.ndarray, e: np.ndarray | None) -> np.ndarray:
    """The operator norms 2**e sqrt(lambda_max) from the spectra w of _gram's matrices."""
    top = np.sqrt(np.maximum(w[..., -1], 0.0))
    return top if e is None else np.ldexp(top, e)


def _per_matrix(p, a: np.ndarray) -> list:
    """p as one float per matrix of the stack a: a scalar p is shared."""
    if hasattr(p, "__len__"):
        return [float(q) for q in p]
    return [float(p)] * (a.size // a.shape[-1] ** 2)


class Spectra:
    """Per-call spectral context: the trusted core of this module.

    Every argument is one matrix or a stack of them, (..., n, n); results
    per matrix (norms, comparisons) follow the leading shape, and so do
    exponents: power takes one p, or one per matrix.  Stacked LAPACK and
    BLAS calls work matrix by matrix, so each matrix of a stack gets the
    bits it would get alone.

    Every eigensolve made through one Spectra is kept, stack by stack,
    keyed by routine, n and the bits of the symmetrized stack, so within
    its lifetime no stack is decomposed twice by the same routine, in
    whatever leading shape it comes; a stack that shares only some of
    its matrices with an earlier one is solved whole.  eigh and eigvalsh
    results are never substituted for each other: their eigenvalues
    differ in the last bits.  Powers, square-root factors and norms are
    derived from the kept solves.  keep() holds the operators that
    callers derive from operand stacks (means keeps W and the weighted
    means there), keyed by the identity of the operands.

    Arguments are trusted: square and symmetric within SYM_RTOL, as the
    caller has checked.  Only finiteness is checked, once per new solve,
    because LAPACK decomposes a matrix holding inf or nan into finite
    garbage.  Make one per check call or per fuzz chunk, whose sampler
    and check groups then share every solve, and share it with nothing
    else.  A check that raises for one matrix of a stack raises for the
    stack; its message describes the first such matrix.
    """

    def __init__(self):
        # (routine, n, bits of the symmetrized stack) -> results over its (k, n, n) form
        self._solved = {}
        # (key, ids of the operands) -> (result, operands)
        self._kept = {}

    def keep(self, key: tuple, operands: tuple, make):
        """make(), made once per key and operand objects while this Spectra lives.

        The operands, arrays that make() reads, are matched by identity,
        not by their bits, and held with the result, so that no other
        object can take their ids meanwhile; they must not be changed in
        place once used here.  key holds what else make() reads.
        """
        full = (*key, *map(id, operands))
        hit = self._kept.get(full)
        if hit is None:
            hit = self._kept[full] = (make(), operands)
        return hit[0]

    def _solve(self, routine: str, a: np.ndarray):
        s = symmetrize(a)
        n = s.shape[-1]
        key = (routine, n, s.tobytes())
        parts = self._solved.get(key)
        if parts is None:
            if not np.isfinite(s).all():
                raise NotFinite("matrix entries must be finite")
            flat = s.reshape(-1, n, n)
            try:
                parts = np.linalg.eigh(flat) if routine == "eigh" else (np.linalg.eigvalsh(flat),)
            except np.linalg.LinAlgError as exc:  # pragma: no cover, eigh is robust
                raise NoConvergence(f"eigensolver failed: {exc}") from exc
            self._solved[key] = parts
        parts = [x.reshape(s.shape[:-2] + x.shape[1:]) for x in parts]
        return SpectralDecomposition(*parts) if routine == "eigh" else parts[0]

    def decompose(self, a: np.ndarray) -> SpectralDecomposition:
        """Full eigensystem (eigh)."""
        return self._solve("eigh", a)

    def eigvals(self, a: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues (eigvalsh)."""
        return self._solve("eigvalsh", a)

    def power(self, a: np.ndarray, p) -> np.ndarray:
        """A^p; see power.  p = 0 and p = 1 need no decomposition.

        p is one exponent or one per matrix.  np.power runs once per
        distinct exponent, given as a Python float: numpy takes fast paths
        for some scalar exponents (0.5, -1, 2) that an array of exponents
        does not, and the bits differ.
        """
        n = a.shape[-1]
        ps = _per_matrix(p, a)
        trivial = [i for i, q in enumerate(ps) if q == 0.0 or q == 1.0]
        if trivial:
            out = np.array(a).reshape(-1, n, n)    # right for p = 1
            for i in trivial:
                if ps[i] == 0.0:
                    out[i] = np.eye(n)
            if len(trivial) == len(ps):
                return out.reshape(a.shape)
        dec = self.decompose(a)
        w = dec.eigenvalues.reshape(-1, n)
        groups: dict[float, list] = {}
        for i, q in enumerate(ps):
            groups.setdefault(q, []).append(i)
        vals = np.ones_like(w) if trivial or len(groups) > 1 else None
        clipped = set()
        with np.errstate(over="ignore"):
            for q, rows in groups.items():
                if q == 0.0 or q == 1.0:
                    continue
                rows = slice(rows[0], rows[-1] + 1) if len(rows) == rows[-1] - rows[0] + 1 else rows
                wq = w[rows]
                if q < 0.0:
                    _require_floor(wq, True, f"negative power {q} needs eigenvalues bounded "
                                             f"away from zero, min is {{lo:.3e}}")
                elif q != int(q):
                    _require_floor(wq, False, f"fractional power {q} needs a PSD matrix, "
                                              f"min eigenvalue {{lo:.3e}}")
                    if not min(wq[:, 0].tolist()) > 0.0:
                        wq = np.clip(wq, 0.0, None)     # the zero eigenvalues within the floor
                        clipped.add(q)
                vq = np.power(wq, q)
                if vals is None:    # one exponent for every matrix
                    vals = vq
                else:
                    vals[rows] = vq
        if not np.isfinite(vals).all():
            i = int(np.argmin(np.isfinite(vals).all(axis=-1)))
            wi = np.clip(w[i], 0.0, None) if ps[i] in clipped else w[i]
            raise NotFinite(
                f"power {ps[i]:g} of eigenvalues in [{wi[0]:.3e}, {wi[-1]:.3e}] overflows")
        full = _reconstruct(dec.eigenvectors.reshape(-1, n, n), vals)
        if not trivial:
            return full.reshape(a.shape)
        solve = [q != 0.0 and q != 1.0 for q in ps]
        out[solve] = full[solve]
        return out.reshape(a.shape)

    def _spd(self, a: np.ndarray) -> SpectralDecomposition:
        """decompose(a), once every matrix of the stack is SPD."""
        dec = self.decompose(a)
        _require_floor(dec.eigenvalues, True,
                       "square-root factors need an SPD matrix, min eigenvalue {lo:.3e}")
        return dec

    def sqrt(self, a: np.ndarray) -> np.ndarray:
        """A^{1/2}, the first of sqrt_factors; A must be SPD."""
        return self._spd(a).apply(np.sqrt)

    def sqrt_factors(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A^{1/2}, A^{-1/2}); A must be SPD."""
        dec = self._spd(a)
        return dec.apply(np.sqrt), dec.apply(lambda lam: 1.0 / np.sqrt(lam))

    def compare(self, l: np.ndarray, r: np.ndarray, tol_rel: float) -> list:
        """loewner_compare for trusted operands of one shape: one
        LoewnerVerdict per matrix, in order, each with its tolerance, so
        the norms are taken for every matrix (checks._order needs fewer)."""
        d = r - l
        # two operands accepted one by one can still differ by a matrix
        # that is not symmetric relative to its own, smaller, scale
        _require_symmetric(d)
        n = d.shape[-1]
        diff = self.eigvals(d).reshape(-1, n)
        verdicts = []
        norms = self.norm_op(np.array((l, r))).reshape(2, -1).tolist()
        for lo, hi, nl, nr in zip(diff[:, 0].tolist(), diff[:, -1].tolist(), *norms):
            tol = _scaled(tol_rel, nl, nr)
            le = _is_le(lo, tol_rel, nl, nr)
            ge = hi <= tol
            if le and ge:
                relation = EQ
            elif le:
                relation = LE
            elif ge:
                relation = GE
            else:
                relation = INCOMPARABLE
            verdicts.append(LoewnerVerdict(relation=relation, gap_min_eig=lo, tol_used=tol))
        return verdicts

    def gram_spectrum(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Ascending eigenvalues of B^T B for B = A / 2**e, and e (_gram).
        The input may be any square float matrix, or stack of them, with
        one e per matrix."""
        g, e = _gram(a)
        return self.eigvals(g), e

    def scaled_singular_values(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Singular values of B = A / 2**e, descending, and e (see gram_spectrum)."""
        w, e = self.gram_spectrum(a)
        return np.sqrt(np.clip(w, 0.0, None))[..., ::-1], e

    def norms(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(operator, Hilbert-Schmidt, trace) norms of any square matrix."""
        s, e = self.scaled_singular_values(a)
        out = s[..., 0], np.sqrt(np.sum(s * s, axis=-1)), np.sum(s, axis=-1)
        return out if e is None else tuple(np.ldexp(x, e) for x in out)

    def norm_op(self, a: np.ndarray) -> np.ndarray:
        """Operator norm of any square matrix, the largest singular value."""
        return _top_norm(*self.gram_spectrum(a))


def spectral_decompose(a) -> SpectralDecomposition:
    """Full eigensystem of a symmetric matrix via the QR-type LAPACK path."""
    return Spectra().decompose(require_symmetric(a))


def eigvals_sym(a) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (no vectors)."""
    return Spectra().eigvals(require_symmetric(a))


def power(a, p: float) -> np.ndarray:
    """Matrix power A^p by functional calculus.

    Eigenvalues within the positivity floor (_require_floor) of zero
    count as zero.  Fractional powers clamp those to exactly zero;
    negative or fractional powers of a matrix with a genuinely negative
    or (for p < 0) vanishing eigenvalue raise NotPositiveDefinite.
    p = 0 and p = 1 return I and a copy of A without an eigensolve.  A power
    that overflows raises NotFinite.  p is read by inputs.finite: a str or
    bool raises SchemaError, an infinity or a NaN InvalidSpec.
    """
    return Spectra().power(require_symmetric(a), inputs.finite("p", p))


def sqrt_factors(a) -> tuple[np.ndarray, np.ndarray]:
    """(A^{1/2}, A^{-1/2}) from one decomposition.  A must be SPD."""
    return Spectra().sqrt_factors(require_symmetric(a))


def conjugate_by_sqrt(a, x) -> np.ndarray:
    """A^{1/2} X A^{1/2} for SPD A and symmetric X."""
    am, xm = _symmetric_pair(a, x, ("A", "X"))
    half = Spectra().sqrt(am)
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
    """Compare symmetric L and R in the Loewner order, within the tolerance
    _scaled(tol_rel, ||L||, ||R||) of their norms (tol_rel: inputs.tolerance)."""
    return Spectra().compare(*_symmetric_pair(l, r, ("left operand", "right operand")),
                             inputs.tolerance(tol_rel))[0]


def singular_values(a) -> np.ndarray:
    """Singular values, descending, via the eigenvalues of A^T A."""
    s, e = Spectra().scaled_singular_values(as_square(a))
    return s.copy() if e is None else np.ldexp(s, e)


def norms(a) -> tuple[float, float, float]:
    """(operator, Hilbert-Schmidt, trace) norms from one set of singular values."""
    op, hs, tr = Spectra().norms(as_square(a))
    return float(op), float(hs), float(tr)


def norm_op(a) -> float:
    """Operator (spectral) norm, the largest singular value."""
    return float(Spectra().norm_op(as_square(a)))


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


_THETAS = np.linspace(0.0, np.pi, _RADIUS_GRID + 1)
_SOLVED = [*range(_RADIUS_GRID // 2 + 1), _RADIUS_GRID]
_COS, _SIN = np.cos(_THETAS)[_SOLVED, None, None], np.sin(_THETAS)[_SOLVED, None, None]
_THETAS.flags.writeable = _COS.flags.writeable = _SIN.flags.writeable = False   # made once


def _radius_grid(s, k) -> tuple[np.ndarray, np.ndarray]:
    """g at the G + 1 angles j pi / G from G/2 + 2 solves, at j <= G/2 and pi:
    A is real, so H(pi - theta) = -conj(H(theta)) and g(pi - theta) = -lambda_min(H(theta))."""
    half = _RADIUS_GRID // 2
    lam = np.linalg.eigvalsh(_COS * s + _SIN * k)
    return _THETAS, np.concatenate((lam[:-1, -1], -lam[half - 1:0:-1, 0], lam[-1:, -1]))


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
    SIAM J. Numer. Anal. 15, 1978).  A is real, so g is even; one stacked
    eigensolve of G/2 + 2 Hermitian matrices (_radius_grid) samples it at
    G + 1 angles on [0, pi], both ends included, spacing h = pi / G.  The
    best grid angle is polished by Newton steps on
    g' = v^H H' v with g'' = -g + 2 sum_j |v_j^H H' v|^2 / (g - lambda_j)
    from the same eigh, within +-2h of the start, bisecting on the sign of
    g' where g'' >= 0 (eigenvalue crossings) or a step leaves the bracket.
    Then a level-set test (_radius_arcs) looks for angles where g exceeds
    the largest value seen by more than a rounding slack, _RADIUS_RTOL of it;
    each one found is polished in turn and the test repeats.  So the result
    is w(A) to within that slack, whatever the grid saw: peaks closer than
    a grid step, or a bump between two angles where other branches peak.
    """
    m = as_square(a)
    s, k = 0.5 * (m + m.T), 0.5j * (m - m.T)
    thetas, tops = _radius_grid(s, k)
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
