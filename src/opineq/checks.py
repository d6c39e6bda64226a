"""Executable inequality checks.

Every check takes an :class:`InstanceSpec`, verifies the hypotheses of the
inequality it encodes, evaluates both sides, and returns a
:class:`CheckReport` with a Loewner (or scalar) verdict.  A check never
raises because an inequality fails; it raises only when the input is
malformed (wrong shapes, exponents outside the supported range, matrices
that are not positive where positivity is required).

Verdict semantics:

* ``HOLDS``              hypotheses are satisfied and every evaluated part
                         has min eig(rhs - lhs) >= -tol_used;
* ``FAILS``              hypotheses are satisfied but some part has a gap
                         below -tol_used;
* ``HYPOTHESIS_VIOLATED`` the hypotheses do not hold, so no claim is made
                         either way.  A violated hypothesis never produces
                         FAILS.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import constants, linalg, maps, means
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    NotDensity,
    NotPositiveDefinite,
    OpineqError,
    SchemaError,
    SingularDifference,
    UnknownCheck,
    UnnormalizedVector,
    ZeroMatrix,
    ZeroParameter,
)

__all__ = [
    "HOLDS",
    "FAILS",
    "HYPOTHESIS_VIOLATED",
    "CheckPart",
    "CheckReport",
    "InstanceSpec",
    "CheckInfo",
    "REGISTRY",
    "resolve_check",
    "run_check",
    "compute_sandwich",
    "check_info_monotonicity",
    "check_reverse_monotonicity",
    "check_ando_converse",
    "check_density_trace",
    "check_furuta_bounds",
    "check_seo_bound",
    "check_lowner_heinz",
    "check_norm_power_lemma",
    "check_lh_extension",
    "check_mn2012",
    "check_mond_pecaric",
    "check_holder_mccarthy",
    "check_norm_chain",
    "check_radius_chain",
    "check_power_norm",
    "check_norm_refinement",
    "check_power_corollary",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"

# Absolute slack used for hypothesis gates on the inner spectrum (the
# spectrum of A^{-1/2} B A^{-1/2} is dimensionless, so an absolute
# tolerance is appropriate there).
HYP_TOL = 1e-9

# Range guard slack for exponents; p is user input and often written in
# decimal, so exact boundary values must pass.
_P_EPS = 1e-12

compute_sandwich = means.compute_sandwich


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckPart:
    """One named sub-inequality lhs <= rhs inside a check."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    gap_min_eig: float


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of a single check on a single instance.

    ``lhs``/``rhs`` are the sides of the part with the smallest gap
    (scalars are reported as 1x1 matrices).  ``gap_min_eig`` is the
    minimum over all parts of the smallest eigenvalue of rhs - lhs and is
    None when the sides could not be evaluated (only possible under a
    violated hypothesis).
    """

    check_id: str
    hypotheses_ok: bool
    hypothesis_note: str
    lhs: np.ndarray | None
    rhs: np.ndarray | None
    gap_min_eig: float | None
    verdict: str
    tol_used: float
    params: dict
    parts: tuple[CheckPart, ...]

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "hypotheses_ok": bool(self.hypotheses_ok),
            "hypothesis_note": self.hypothesis_note,
            "lhs": _matrix_to_json(self.lhs),
            "rhs": _matrix_to_json(self.rhs),
            "gap_min_eig": None if self.gap_min_eig is None else float(self.gap_min_eig),
            "verdict": self.verdict,
            "tol_used": float(self.tol_used),
            "params": _json_sanitize(self.params),
            "parts": [
                {"name": part.name, "gap_min_eig": float(part.gap_min_eig)}
                for part in self.parts
            ],
        }


def _matrix_to_json(m):
    if m is None:
        return None
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def _json_sanitize(value):
    if isinstance(value, dict):
        return {str(k): _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_sanitize(value.tolist())
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _scal(value) -> np.ndarray:
    return np.array([[float(value)]])


def _finish(check_id, part_specs, *, hypotheses_ok, note, params, tol_rel, spectra):
    """Assemble a CheckReport from (name, lhs, rhs) part triples.

    The shared tolerance is tol_rel times the largest operand scale across
    all parts (never below tol_rel itself), so one loose part does not get
    judged with a tighter yardstick than another.  spectra is the check's
    linalg.Spectra, so a side that several parts share, or that the check
    already took the norm of, is not decomposed again.
    """
    parts = []
    scale = 1.0
    for name, lhs, rhs in part_specs:
        l2 = np.atleast_2d(np.asarray(lhs, dtype=np.float64))
        r2 = np.atleast_2d(np.asarray(rhs, dtype=np.float64))
        if l2.shape == r2.shape == (1, 1):
            lv, rv = float(l2[0, 0]), float(r2[0, 0])
            gap = rv - lv
            scale = max(scale, abs(lv), abs(rv))
        else:
            gap = float(spectra.eigvals(r2 - l2)[0])
            scale = max(scale, spectra.norm_op(l2), spectra.norm_op(r2))
        parts.append(CheckPart(name, l2, r2, gap))
    tol_used = tol_rel * scale
    if parts:
        worst = min(parts, key=lambda part: part.gap_min_eig)
        gap_min_eig = worst.gap_min_eig
        lhs, rhs = worst.lhs, worst.rhs
    else:
        gap_min_eig, lhs, rhs = None, None, None
    if not hypotheses_ok:
        verdict = HYPOTHESIS_VIOLATED
    elif gap_min_eig is not None and gap_min_eig >= -tol_used:
        verdict = HOLDS
    else:
        verdict = FAILS
    return CheckReport(
        check_id=check_id,
        hypotheses_ok=bool(hypotheses_ok),
        hypothesis_note=note,
        lhs=lhs,
        rhs=rhs,
        gap_min_eig=gap_min_eig,
        verdict=verdict,
        tol_used=float(tol_used),
        params=params,
        parts=tuple(parts),
    )


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

_INSTANCE_KEYS = ("A", "B", "p", "map", "m", "M", "x", "f")
_F_KINDS = ("power", "exp", "log")


@dataclasses.dataclass(frozen=True)
class InstanceSpec:
    """One problem instance: the matrices, the exponent and the options.

    ``B`` is optional because several checks are single-matrix statements.
    ``m``/``M`` are optional outer bounds for the relevant spectral window;
    when absent each check derives sharp bounds from the spectrum itself.
    ``x`` is the unit vector used by the vector-expectation checks and
    ``f`` selects the scalar function for the derivative-bound check
    (``power`` uses ``p`` as the exponent).
    """

    A: np.ndarray
    B: np.ndarray | None = None
    p: float = 1.0
    map: maps.MapSpec | None = None
    m: float | None = None
    M: float | None = None
    x: np.ndarray | None = None
    f: str = "power"

    def __post_init__(self):
        a = linalg.as_square(self.A)
        object.__setattr__(self, "A", a)
        if self.B is not None:
            b = linalg.as_square(self.B)
            if b.shape != a.shape:
                raise DimensionMismatch(
                    f"A is {a.shape[0]}x{a.shape[0]} but B is {b.shape[0]}x{b.shape[0]}"
                )
            object.__setattr__(self, "B", b)
        p = float(self.p)
        if not np.isfinite(p):
            raise InvalidSpec("p must be finite")
        object.__setattr__(self, "p", p)
        for label in ("m", "M"):
            value = getattr(self, label)
            if value is not None:
                value = float(value)
                if not np.isfinite(value):
                    raise InvalidSpec(f"{label} must be finite")
                object.__setattr__(self, label, value)
        if self.m is not None and self.M is not None and self.m > self.M:
            raise InvalidSpec(f"m={self.m} exceeds M={self.M}")
        if self.x is not None:
            x = np.asarray(self.x, dtype=np.float64).reshape(-1)
            if x.shape[0] != a.shape[0]:
                raise DimensionMismatch(
                    f"x has length {x.shape[0]} but A is {a.shape[0]}x{a.shape[0]}"
                )
            if not np.all(np.isfinite(x)):
                raise InvalidSpec("x must be finite")
            object.__setattr__(self, "x", x)
        if self.f not in _F_KINDS:
            raise InvalidSpec(f"unknown function kind {self.f!r}; expected one of {_F_KINDS}")

    @classmethod
    def from_json_dict(cls, data) -> "InstanceSpec":
        if not isinstance(data, dict):
            raise SchemaError("instance must be a JSON object")
        unknown = sorted(set(data) - set(_INSTANCE_KEYS))
        if unknown:
            raise SchemaError(f"unknown instance keys: {', '.join(unknown)}")
        if "A" not in data:
            raise SchemaError("instance is missing the required key 'A'")
        if "p" not in data:
            raise SchemaError("instance is missing the required key 'p'")
        map_spec = None
        if data.get("map") is not None:
            map_spec = maps.MapSpec.from_json_dict(data["map"])
        try:
            return cls(
                A=np.asarray(data["A"], dtype=np.float64),
                B=None if data.get("B") is None else np.asarray(data["B"], dtype=np.float64),
                p=float(data["p"]),
                map=map_spec,
                m=None if data.get("m") is None else float(data["m"]),
                M=None if data.get("M") is None else float(data["M"]),
                x=None if data.get("x") is None else np.asarray(data["x"], dtype=np.float64),
                f=data.get("f", "power"),
            )
        except OpineqError:
            raise
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed instance: {exc}") from exc

    def to_json_dict(self) -> dict:
        out = {"A": _matrix_to_json(self.A), "p": float(self.p)}
        if self.B is not None:
            out["B"] = _matrix_to_json(self.B)
        if self.map is not None:
            out["map"] = self.map.to_json_dict()
        if self.m is not None:
            out["m"] = float(self.m)
        if self.M is not None:
            out["M"] = float(self.M)
        if self.x is not None:
            out["x"] = [float(v) for v in self.x]
        if self.f != "power":
            out["f"] = self.f
        return out


# ----------------------------------------------------------------------
# shared resolution helpers
# ----------------------------------------------------------------------

def _require_b(inst: InstanceSpec) -> np.ndarray:
    if inst.B is None:
        raise InvalidSpec("this check needs a second matrix B")
    return inst.B


def _resolve_map(inst: InstanceSpec, n: int) -> maps.MapSpec:
    if inst.map is None:
        return maps.MapSpec.normalized_trace(n)
    if inst.map.in_dim != n:
        raise DimensionMismatch(
            f"map expects input dimension {inst.map.in_dim}, matrices are {n}x{n}"
        )
    return inst.map


def _require_p_range(p: float, lo: float, hi: float, what: str):
    if p < lo - _P_EPS or p > hi + _P_EPS:
        raise DomainError(f"{what} requires p in [{lo}, {hi}], got p={p}")


def _resolve_unit_window(lam_lo, lam_hi, m_user, M_user):
    """Outer bounds (m, M) for a spectrum pinned below by one.

    Returns (m, M, hyp_ok, note).  Derived bounds are m = min(lam_lo, 1)
    and M = max(lam_hi, 1); user bounds must enclose the spectrum.  The
    hypothesis fails when the spectrum dips below one or when the user
    forces m above one.
    """
    m, M = _resolve_outer_window(lam_lo, lam_hi, m_user, M_user)
    if m_user is None:
        m = min(m, 1.0)
    if M_user is None:
        M = max(M, 1.0)
    hyp_ok, note = True, ""
    if lam_lo < 1.0 - HYP_TOL:
        hyp_ok = False
        note = f"spectrum reaches {lam_lo:.6g}, below the required unit floor"
    elif m > 1.0 + HYP_TOL:
        hyp_ok = False
        note = f"lower bound m={m:.6g} exceeds one"
    return m, M, hyp_ok, note


def _resolve_outer_window(lam_lo, lam_hi, m_user, M_user):
    """Outer bounds (m, M) with no unit pinning (ratio-window checks)."""
    m, M = float(lam_lo), float(lam_hi)
    if m_user is not None:
        if m_user <= 0.0:
            raise InvalidSpec("lower bound m must be positive")
        if m_user > lam_lo + HYP_TOL:
            raise InvalidSpec(
                f"m={m_user:.6g} is not a lower bound: smallest eigenvalue is {lam_lo:.6g}"
            )
        m = float(m_user)
    if M_user is not None:
        if M_user < lam_hi - HYP_TOL:
            raise InvalidSpec(
                f"M={M_user:.6g} is not an upper bound: largest eigenvalue is {lam_hi:.6g}"
            )
        M = float(M_user)
    return m, M


def _require_psd(sp, a: np.ndarray, label: str) -> np.ndarray:
    linalg.require_symmetric(a, label)
    lam = sp.eigvals(a)
    if lam[0] < -linalg._positivity_floor(lam):
        raise NotPositiveDefinite(
            f"{label} must be positive semidefinite; smallest eigenvalue is {lam[0]:.6g}"
        )
    return lam


def _inner_spectrum(sp, a, b):
    """Eigenvalues of A^{-1/2} B A^{-1/2}, ascending."""
    _, inv_half = sp.sqrt_factors(a)
    return sp.eigvals(linalg.symmetrize(inv_half @ b @ inv_half))


def _guarded(build, hyp_ok, note):
    """(build(), note); an OpineqError from build() propagates under valid
    hypotheses and otherwise leaves the sides unevaluated, said in the note.
    """
    try:
        return build(), note
    except OpineqError:
        if hyp_ok:
            raise
        return [], note + "; sides not evaluated"


def _norm_dominance(sp, a, b, tol_rel):
    """(||A||, ||B||, hyp_ok, note) for ||A|| I <= B, with A >= 0 and B symmetric."""
    lam_a = _require_psd(sp, a, "A")
    linalg.require_symmetric(b, "B")
    na = float(max(abs(lam_a[0]), abs(lam_a[-1])))
    lam_b = sp.eigvals(b)
    nb = float(max(abs(lam_b[0]), abs(lam_b[-1])))
    dominance = sp.compare(na * np.eye(a.shape[0]), b, tol_rel)
    if dominance.is_le:
        return na, nb, True, ""
    return na, nb, False, (f"||A|| I is not below B "
                           f"(min eig of B - ||A|| I is {dominance.gap_min_eig:.6g})")


def _converse_parts(sp, prefix, p, inner, outer, diff, m, M):
    """(part_specs, term_norm) of the three-branch additive converse: with
    term = p (m^{p-1} - M^{p-1}) diff, outer <= inner + term on [0, 1], the
    reverse on [-1, 0], and inner <= outer - term for p >= 1.
    """
    term = p * (m ** (p - 1.0) - M ** (p - 1.0)) * diff
    term_rev = p * (M ** (p - 1.0) - m ** (p - 1.0)) * diff
    part_specs = []
    if 0.0 <= p <= 1.0:
        part_specs.append((f"{prefix}_upper", outer, inner + term))
    if -1.0 <= p <= 0.0:
        part_specs.append((f"{prefix}_lower", inner + term, outer))
    if 1.0 <= p:
        part_specs.append((f"{prefix}_upper_reversed", inner, outer + term_rev))
    return part_specs, sp.norm_op(term if p <= 1.0 else term_rev)


# ----------------------------------------------------------------------
# entropy / mean checks under positive unital maps
# ----------------------------------------------------------------------

def check_info_monotonicity(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Monotonicity of the deformed relative entropy under positive unital maps.

    For p in [-1, 1] (p != 0) the output-side entropy dominates the mapped
    entropy; for p in [1, 2] the comparison reverses.  No spectral window
    is needed, so the hypotheses reduce to positive definiteness and a
    valid map; at p = 1 both directions are evaluated (they coincide).
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    _require_p_range(p, -1.0, 2.0, "info_monotonicity")
    if p == 0.0:
        raise ZeroParameter("info_monotonicity is undefined at p=0")
    phi = _resolve_map(inst, a.shape[0])
    linalg.require_symmetric(b, "B")
    linalg.require_symmetric(a, "A")
    sp = linalg.Spectra()
    t_in = means.tsallis_entropy(a, b, p, spectra=sp)
    mapped = maps.apply_map(phi, t_in)
    t_out = means.tsallis_entropy(maps.apply_map(phi, a), maps.apply_map(phi, b), p,
                                  spectra=sp)
    part_specs = []
    if p <= 1.0:
        part_specs.append(("entropy_monotone", mapped, t_out))
    if p >= 1.0:
        part_specs.append(("entropy_reversed", t_out, mapped))
    params = {"p": p, "m": None, "M": None, "map": phi.to_json_dict()}
    return _finish("info_monotonicity", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_reverse_monotonicity(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Additive reverse of the entropy monotonicity on a spectral window.

    Under m <= 1 <= A^{-1/2} B A^{-1/2} <= M the output-side entropy
    exceeds the mapped entropy by at most (m^{p-1} - M^{p-1}) Phi(B - A)
    for p in [-1, 1] (p != 0); for p in [1, 2] the roles swap and the
    coefficient becomes M^{p-1} - m^{p-1}.  User-supplied (m, M) are
    accepted as long as they enclose the inner spectrum.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    _require_p_range(p, -1.0, 2.0, "reverse_monotonicity")
    if p == 0.0:
        raise ZeroParameter("reverse_monotonicity is undefined at p=0")
    phi = _resolve_map(inst, a.shape[0])
    linalg.require_symmetric(a, "A")
    sp = linalg.Spectra()
    lam = _inner_spectrum(sp, a, b)
    m, M, hyp_ok, note = _resolve_unit_window(lam[0], lam[-1], inst.m, inst.M)
    linalg.require_symmetric(b, "B")
    params = {"p": p, "m": m, "M": M, "map": phi.to_json_dict(),
              "additive_term_norm": None}

    def sides():  # m <= 0 only when W is singular or indefinite: hyp_ok is False
        if m <= 0.0:
            raise NotPositiveDefinite(f"m={m:.6g} cannot be raised to p - 1")
        mapped = maps.apply_map(phi, means.tsallis_entropy(a, b, p, spectra=sp))
        t_out = means.tsallis_entropy(maps.apply_map(phi, a), maps.apply_map(phi, b), p,
                                      spectra=sp)
        phi_diff = maps.apply_map(phi, b - a)
        term = (m ** (p - 1.0) - M ** (p - 1.0)) * phi_diff
        term_rev = (M ** (p - 1.0) - m ** (p - 1.0)) * phi_diff
        part_specs = []
        if p <= 1.0:
            part_specs.append(("additive_upper", t_out, mapped + term))
        if p >= 1.0:
            part_specs.append(("additive_upper_reversed", mapped, t_out + term_rev))
        params["additive_term_norm"] = sp.norm_op(term if p <= 1.0 else term_rev)
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    return _finish("reverse_monotonicity", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_ando_converse(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Additive converse of Phi(A # B) <= Phi(A) # Phi(B) on a window.

    Three exponent branches: for p in [0, 1] the mapped mean plus
    p (m^{p-1} - M^{p-1}) Phi(B - A) dominates the mean of the images; for
    p in [-1, 0] the same right-hand side is dominated instead; for
    p in [1, 2] the correction p (M^{p-1} - m^{p-1}) Phi(B - A) moves to
    the other side.  Boundary exponents evaluate every branch they belong
    to.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    _require_p_range(p, -1.0, 2.0, "ando_converse")
    phi = _resolve_map(inst, a.shape[0])
    linalg.require_symmetric(a, "A")
    sp = linalg.Spectra()
    lam = _inner_spectrum(sp, a, b)
    m, M, hyp_ok, note = _resolve_unit_window(lam[0], lam[-1], inst.m, inst.M)
    linalg.require_symmetric(b, "B")
    params = {"p": p, "m": m, "M": M, "map": phi.to_json_dict(),
              "additive_term_norm": None}

    def sides():  # m <= 0 only when W is singular or indefinite: hyp_ok is False
        if m <= 0.0:
            raise NotPositiveDefinite(f"m={m:.6g} cannot be raised to p - 1")
        mean_in = maps.apply_map(phi, means.weighted_mean(a, b, p, spectra=sp).value)
        mean_out = means.weighted_mean(maps.apply_map(phi, a), maps.apply_map(phi, b), p,
                                       spectra=sp).value
        part_specs, params["additive_term_norm"] = _converse_parts(
            sp, "mean_additive", p, mean_in, mean_out, maps.apply_map(phi, b - a), m, M)
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    return _finish("ando_converse", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_density_trace(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Unit-trace bounds for weighted means of density matrices.

    For density matrices satisfying the window hypothesis
    1 <= A^{-1/2} B A^{-1/2}, the trace of the weighted mean is at least
    one for p in [0, 1] and at most one for p in [-1, 0] or [1, 2].  The
    window forces B = A when both matrices have unit trace, so valid
    instances sit at the equality point; instances that break the window
    report HYPOTHESIS_VIOLATED rather than FAILS.  The map field is
    ignored: the statement is about the plain trace.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    _require_p_range(p, -1.0, 2.0, "density_trace")
    sp = linalg.Spectra()
    for mat, label in ((a, "A"), (b, "B")):
        _require_psd(sp, mat, label)
        trace = float(np.trace(mat))
        if abs(trace - 1.0) > 1e-10:
            raise NotDensity(f"{label} has trace {trace:.12g}, expected 1")
    lam = _inner_spectrum(sp, a, b)
    m, M, hyp_ok, note = _resolve_unit_window(lam[0], lam[-1], inst.m, inst.M)
    def sides():
        trace_mean = float(np.trace(means.weighted_mean(a, b, p, spectra=sp).value))
        part_specs = []
        if 0.0 <= p <= 1.0:
            part_specs.append(("unit_trace_lower", _scal(1.0), _scal(trace_mean)))
        if p <= 0.0 or p >= 1.0:
            part_specs.append(("unit_trace_upper", _scal(trace_mean), _scal(1.0)))
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = {"p": p, "m": m, "M": M, "map": None}
    return _finish("density_trace", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_furuta_bounds(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Kantorovich-style upper bounds for the output-side entropy.

    With spectral boxes m1 <= A <= M1 and m2 <= B <= M2 set m = m2/M1,
    M = M2/m1 and h = M/m.  For p in (0, 1] the output-side entropy is
    bounded by the mapped entropy plus either ((1 - K(h, p))/p) times the
    mean of the images (Kantorovich bound) or F(m, h, p) times the image
    of A (linear bound).  The boxes are always derived from the exact
    spectra.  When the unit-window hypothesis also holds, the additive
    windowed bound is evaluated as a third part so the three correction
    terms can be compared side by side.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    if p <= 0.0 or p > 1.0 + _P_EPS:
        raise DomainError(f"furuta_bounds requires p in (0, 1], got p={p}")
    phi = _resolve_map(inst, a.shape[0])
    sp = linalg.Spectra()
    lam_a = sp.eigvals(linalg.require_symmetric(a, "A"))
    lam_b = sp.eigvals(linalg.require_symmetric(b, "B"))
    if lam_a[0] <= 0.0 or lam_b[0] <= 0.0:
        raise NotPositiveDefinite("furuta_bounds needs positive definite matrices")
    fm = float(lam_b[0] / lam_a[-1])
    fM = float(lam_b[-1] / lam_a[0])
    h = fM / fm
    kconst = constants.kantorovich_K(h, p)
    fconst = 0.0 if p >= 1.0 - _P_EPS else constants.furuta_F(fm, h, p)
    pa = maps.apply_map(phi, a)
    pb = maps.apply_map(phi, b)
    mapped = maps.apply_map(phi, means.tsallis_entropy(a, b, p, spectra=sp))
    t_out = means.tsallis_entropy(pa, pb, p, spectra=sp)
    k_term = ((1.0 - kconst) / p) * means.weighted_mean(pa, pb, p, spectra=sp).value
    f_term = fconst * pa
    part_specs = [
        ("kantorovich_upper", t_out, mapped + k_term),
        ("linear_upper", t_out, mapped + f_term),
    ]
    lam_w = _inner_spectrum(sp, a, b)
    sandwich_term_norm = None
    if lam_w[0] >= 1.0 - HYP_TOL and fm <= 1.0 + _P_EPS:
        s_term = (fm ** (p - 1.0) - fM ** (p - 1.0)) * maps.apply_map(phi, b - a)
        sandwich_term_norm = sp.norm_op(s_term)
        part_specs.append(("windowed_upper", t_out, mapped + s_term))
    params = {
        "p": p, "m": fm, "M": fM, "map": phi.to_json_dict(),
        "h": h, "kantorovich_K": kconst, "furuta_F": fconst,
        "kantorovich_term_norm": sp.norm_op(k_term),
        "linear_term_norm": sp.norm_op(f_term),
        "windowed_term_norm": sandwich_term_norm,
    }
    return _finish("furuta_bounds", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_seo_bound(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Ratio-window reverse of the mean inequality.

    Under mA <= B <= MA and 0 < p < 1 the mean of the images exceeds the
    mapped mean by at most -C(m, M, p) Phi(A).  The window here does not
    need to contain one; absent overrides it is the exact spectrum of
    A^{-1/2} B A^{-1/2}, which makes the hypothesis hold by construction.
    When the unit window also holds, the additive bound term
    p (m^{p-1} - M^{p-1}) Phi(B - A) is reported for tightness comparison.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    if p <= 0.0 or p >= 1.0:
        raise DomainError(f"seo_bound requires p in (0, 1), got p={p}")
    phi = _resolve_map(inst, a.shape[0])
    linalg.require_symmetric(a, "A")
    sp = linalg.Spectra()
    lam = _inner_spectrum(sp, a, b)
    m, M = _resolve_outer_window(lam[0], lam[-1], inst.m, inst.M)
    cconst = constants.seo_C(m, M, p)
    pa = maps.apply_map(phi, a)
    linalg.require_symmetric(b, "B")
    mean_in = maps.apply_map(phi, means.weighted_mean(a, b, p, spectra=sp).value)
    mean_out = means.weighted_mean(pa, maps.apply_map(phi, b), p, spectra=sp).value
    seo_term = -cconst * pa
    part_specs = [("seo_upper", mean_out, mean_in + seo_term)]
    windowed_term_norm = None
    if lam[0] >= 1.0 - HYP_TOL and m <= 1.0 + _P_EPS:
        w_term = p * (m ** (p - 1.0) - M ** (p - 1.0)) * maps.apply_map(phi, b - a)
        windowed_term_norm = sp.norm_op(w_term)
    params = {
        "p": p, "m": m, "M": M, "map": phi.to_json_dict(),
        "seo_C": cconst,
        "seo_term_norm": sp.norm_op(seo_term),
        "windowed_term_norm": windowed_term_norm,
    }
    return _finish("seo_bound", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_power_corollary(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Power-function corollary of the windowed entropy bounds.

    Specialize the two-matrix statements to the pair (I, A): for
    m <= 1 <= A <= M the image power Phi(A)^p is bounded by
    Phi(A^p) + p (m^{p-1} - M^{p-1}) (Phi(A) - I) for p in [0, 1], with
    the inequality reversed for p in [-1, 0], and for p in [1, 2] the
    correction p (M^{p-1} - m^{p-1}) (Phi(A) - I) bounds Phi(A^p) from
    the Phi(A)^p side.
    """
    a = inst.A
    p = inst.p
    _require_p_range(p, -1.0, 2.0, "power_corollary")
    phi = _resolve_map(inst, a.shape[0])
    sp = linalg.Spectra()
    lam = sp.eigvals(linalg.require_symmetric(a, "A"))
    if lam[0] <= 0.0:
        raise NotPositiveDefinite("power_corollary needs a positive definite matrix")
    m, M, hyp_ok, note = _resolve_unit_window(lam[0], lam[-1], inst.m, inst.M)
    pa = maps.apply_map(phi, a)
    pa_pow = sp.power(pa, p)
    phi_pow = maps.apply_map(phi, sp.power(a, p))
    part_specs, term_norm = _converse_parts(
        sp, "image_power", p, phi_pow, pa_pow, pa - np.eye(pa.shape[0]), m, M)
    params = {"p": p, "m": m, "M": M, "map": phi.to_json_dict(),
              "additive_term_norm": term_norm}
    return _finish("power_corollary", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


# ----------------------------------------------------------------------
# power-difference checks
# ----------------------------------------------------------------------

def check_lowner_heinz(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Power monotonicity: A <= B implies A^p <= B^p for p in [0, 1].

    Exponents above one are accepted so the fuzzer can hunt for the
    well-known failures there; a FAILS verdict with p > 1 is the expected
    demonstration, not an engine defect.  Negative exponents reverse the
    order even in the commuting case and are rejected.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    if p < -_P_EPS:
        raise DomainError(f"lowner_heinz requires p >= 0, got p={p}")
    sp = linalg.Spectra()
    _require_psd(sp, a, "A")
    _require_psd(sp, b, "B")
    hyp_ok, note = True, ""
    order = sp.compare(a, b, tol_rel)
    if not order.is_le:
        hyp_ok = False
        note = f"A is not below B (min eig of B - A is {order.gap_min_eig:.6g})"
    part_specs = [("power_monotone", sp.power(a, p), sp.power(b, p))]
    params = {"p": p, "m": None, "M": None, "map": None,
              "p_in_monotone_range": bool(0.0 <= p <= 1.0)}
    return _finish("lowner_heinz", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_norm_power_lemma(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Tangent-line bound for matrix powers at the operator norm.

    For positive A the chord construction at t = ||A|| gives
    A^p <= ||A||^p I - p ||A||^{p-1} (||A|| I - A) when p is in [0, 1]
    and the reversed comparison when p >= 1 or p <= 0.  Both directions
    are equalities at p = 0 and p = 1 and are evaluated together there.
    """
    a = inst.A
    p = inst.p
    sp = linalg.Spectra()
    lam = _require_psd(sp, a, "A")
    na = float(max(abs(lam[0]), abs(lam[-1])))
    if na == 0.0:
        raise ZeroMatrix("A is zero; the tangent construction needs a positive norm")
    if p < 0.0 and lam[0] <= 0.0:
        raise NotPositiveDefinite("negative exponents need a positive definite matrix")
    a_pow = sp.power(a, p)
    tangent = (na ** p) * np.eye(a.shape[0]) - p * (na ** (p - 1.0)) * (na * np.eye(a.shape[0]) - a)
    part_specs = []
    if 0.0 <= p <= 1.0:
        part_specs.append(("tangent_upper", a_pow, tangent))
    if p >= 1.0 or p <= 0.0:
        part_specs.append(("tangent_lower", tangent, a_pow))
    params = {"p": p, "m": None, "M": None, "map": None, "norm_A": na}
    return _finish("norm_power_lemma", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_lh_extension(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Linearized power-difference bound when B dominates ||A||.

    Under ||A|| I <= B the difference B^p - A^p dominates
    p ||B||^{p-1} (B - A) for p in [0, 1]; for p >= 1 or p <= 0 the linear
    term dominates instead.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    sp = linalg.Spectra()
    na, nb, hyp_ok, note = _norm_dominance(sp, a, b, tol_rel)
    if nb == 0.0:
        raise ZeroMatrix("B is zero; the linear term needs a positive norm")
    def sides():
        diff = sp.power(b, p) - sp.power(a, p)
        lin = p * (nb ** (p - 1.0)) * (b - a)
        part_specs = []
        if 0.0 <= p <= 1.0:
            part_specs.append(("linear_lower", lin, diff))
        if p >= 1.0 or p <= 0.0:
            part_specs.append(("linear_upper", diff, lin))
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = {"p": p, "m": None, "M": None, "map": None,
              "norm_A": na, "norm_B": nb}
    return _finish("lh_extension", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_mn2012(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Scalar floors for B^p - A^p and the comparison between them.

    Under ||A|| I <= B with B - A invertible and p in [0, 1], four parts
    are verified: the linearized floor p ||B||^{p-1} lam_min(B - A) is
    nonnegative and sits below B^p - A^p; the eigenvalue-shift floor
    ||B||^p - (||B|| - lam_min(B - A))^p also sits below B^p - A^p; and
    with s = ||B|| / lam_min(B - A) the dimensionless comparison
    p s^{p-1} <= s^p - (s-1)^p shows the second floor is always at least
    the first.  A negative lam_min(B - A) violates the hypothesis and
    leaves the sides unevaluated.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    _require_p_range(p, 0.0, 1.0, "mn2012")
    sp = linalg.Spectra()
    _, nb, hyp_ok, note = _norm_dominance(sp, a, b, tol_rel)
    lam_diff = sp.eigvals(linalg.require_symmetric(b - a))
    scale_diff = max(1.0, float(abs(lam_diff[0])), float(abs(lam_diff[-1])))
    if float(np.min(np.abs(lam_diff))) <= 1e-12 * scale_diff:
        raise SingularDifference("B - A is numerically singular")
    gap = float(lam_diff[0])
    if hyp_ok and gap < 0.0:
        # A >= 0 and ||A|| I <= B force B - A >= 0; a negative gap means
        # the dominance holds only within tolerance
        hyp_ok = False
        note = f"B - A is not positive (min eig of B - A is {gap:.6g})"
    def sides():
        if gap < 0.0:
            raise DomainError("the floors need B - A positive definite")
        diff = sp.power(b, p) - sp.power(a, p)
        eye = np.eye(a.shape[0])
        floor_lin = p * (nb ** (p - 1.0)) * gap
        floor_shift = nb ** p - (nb - gap) ** p
        s = nb / gap
        return [
            ("floor_nonnegative", _scal(0.0), _scal(floor_lin)),
            ("linear_floor", floor_lin * eye, diff),
            ("shift_floor", floor_shift * eye, diff),
            ("floor_comparison", _scal(p * s ** (p - 1.0)), _scal(s ** p - (s - 1.0) ** p)),
        ]
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = {"p": p, "m": None, "M": None, "map": None,
              "norm_B": nb, "lam_min_diff": gap}
    return _finish("mn2012", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


# ----------------------------------------------------------------------
# vector-expectation checks
# ----------------------------------------------------------------------

def _resolve_unit_vector(inst: InstanceSpec, n: int) -> np.ndarray:
    if inst.x is None:
        return np.full(n, 1.0 / np.sqrt(n))
    norm = float(np.linalg.norm(inst.x))
    if abs(norm - 1.0) > 1e-8:
        raise UnnormalizedVector(f"x has norm {norm:.12g}, expected 1")
    return inst.x


_SCALAR_FUNCTIONS: dict[str, tuple[Callable, Callable]] = {
    # kind -> (f, f'); all three have a monotone derivative on (0, inf),
    # so inf/sup of f' over [m, M] are attained at the endpoints.
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda t: 1.0 / t),
}


def check_mond_pecaric(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Two-sided derivative bounds for vector expectations.

    For 0 < m <= B <= A <= M, a unit vector x with <Bx, x> at most the
    smallest eigenvalue of A that x actually overlaps, and f in
    {power, exp, log} with alpha = inf f' and beta = sup f' on [m, M]:

        alpha <(A - B)x, x>  <=  <f(A)x, x> - f(<Bx, x>)  <=  beta <(A - B)x, x>

    The expectation gate on x is part of the hypotheses: without it the
    middle quantity can exceed both sides even for A = B, because
    f(<Bx, x>) is evaluated at a scalar sitting above part of the
    spectrum that carries weight in x.  Restricting the comparison to
    the eigenvalues x overlaps keeps every pure eigenvector instance
    valid while still rejecting the genuinely false ones.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    linalg.require_symmetric(a, "A")
    linalg.require_symmetric(b, "B")
    sp = linalg.Spectra()
    lam_b = sp.eigvals(b)
    if lam_b[0] <= 0.0:
        raise NotPositiveDefinite("mond_pecaric needs positive definite B")
    dec_a = sp.decompose(a)
    lam_a = dec_a.eigenvalues
    x = _resolve_unit_vector(inst, a.shape[0])
    m, M = _resolve_outer_window(min(lam_b[0], lam_a[0]), max(lam_a[-1], lam_b[-1]),
                                 inst.m, inst.M)
    hyp_ok, note = True, ""
    order = sp.compare(b, a, tol_rel)
    if not order.is_le:
        hyp_ok = False
        note = f"B is not below A (min eig of A - B is {order.gap_min_eig:.6g})"
    qb = float(x @ b @ x)
    weights = (dec_a.eigenvectors.T @ x) ** 2
    support = lam_a[weights > 1e-12]
    lam_floor = float(support[0]) if support.size else float(lam_a[0])
    gate_tol = tol_rel * max(1.0, float(abs(lam_a[0])), float(abs(lam_a[-1])))
    if hyp_ok and qb > lam_floor + gate_tol:
        hyp_ok = False
        note = (f"<Bx, x> = {qb:.6g} exceeds the smallest eigenvalue of A "
                f"carrying weight in x ({lam_floor:.6g}); the scalar "
                f"substitution is not valid there")
    def sides():
        if inst.f == "power":
            fn = lambda t: np.power(t, p)
            dfn = lambda t: p * np.power(t, p - 1.0)
        else:
            fn, dfn = _SCALAR_FUNCTIONS[inst.f]
        if lam_a[0] <= 0.0 and inst.f != "power":
            raise NotPositiveDefinite("mond_pecaric needs positive definite A")
        if lam_a[0] <= 0.0 and inst.f == "power" and (p < 0.0 or p != round(p)):
            raise NotPositiveDefinite("mond_pecaric needs positive definite A")
        alpha = float(min(dfn(m), dfn(M)))
        beta = float(max(dfn(m), dfn(M)))
        fa = dec_a.apply(fn)
        mid = float(x @ fa @ x) - float(fn(qb))
        diff = float(x @ (a - b) @ x)
        return [
            ("derivative_lower", _scal(alpha * diff), _scal(mid)),
            ("derivative_upper", _scal(mid), _scal(beta * diff)),
        ]
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = {"p": p, "m": m, "M": M, "map": None, "f": inst.f}
    return _finish("mond_pecaric", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_holder_mccarthy(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Power expectation inequality and its two-sided reverse.

    For positive definite A and a unit vector x, <A^p x, x> <= <Ax, x>^p
    when 0 < p < 1 and the comparison reverses for p > 1 or p < 0.  On a
    window 0 < m <= A <= M the gap is squeezed between multiples of
    <Ax, x> - <A^p x, x>^{1/p}:

        0 < p < 1:  (p / M^{1-p}) D <= <Ax,x>^p - <A^p x,x> <= (p / m^{1-p}) D
        p > 1, p < 0: the same with the roles of the differences swapped,
        the lower coefficient using m for p > 1 and M for p < 0.
    """
    a = inst.A
    p = inst.p
    if p == 0.0:
        raise ZeroParameter("holder_mccarthy is undefined at p=0")
    sp = linalg.Spectra()
    lam = sp.eigvals(linalg.require_symmetric(a, "A"))
    if lam[0] <= 0.0:
        raise NotPositiveDefinite("holder_mccarthy needs a positive definite matrix")
    x = _resolve_unit_vector(inst, a.shape[0])
    m, M = _resolve_outer_window(lam[0], lam[-1], inst.m, inst.M)
    q1 = float(x @ a @ x)
    qp = float(x @ sp.power(a, p) @ x)
    if 0.0 < p < 1.0:
        below, above, dd = qp, q1 ** p, q1 - qp ** (1.0 / p)
    else:
        below, above, dd = q1 ** p, qp, qp ** (1.0 / p) - q1
    mid = above - below
    lo_end, hi_end = (m, M) if p >= 1.0 else (M, m)
    part_specs = [
        ("expectation_power", _scal(below), _scal(above)),
        ("reverse_lower", _scal((p / lo_end ** (1.0 - p)) * dd), _scal(mid)),
        ("reverse_upper", _scal(mid), _scal((p / hi_end ** (1.0 - p)) * dd)),
    ]
    params = {"p": p, "m": m, "M": M, "map": None}
    return _finish("holder_mccarthy", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


# ----------------------------------------------------------------------
# norm and radius chains
# ----------------------------------------------------------------------

def _refined_chain(names, lo, mid, hi, d, p):
    """Parts refining lo <= mid <= hi (labelled by names) with the shifts
    r1 = (mid^p - lo^p)/d and r2 = (hi^p - mid^p)/d; see check_norm_chain.
    """
    n_lo, n_mid, n_hi = names
    r1 = (mid ** p - lo ** p) / d
    r2 = (hi ** p - mid ** p) / d
    part_specs = []
    if p >= 1.0:
        part_specs += [
            (f"{n_lo}_shift_nonnegative", _scal(lo), _scal(lo + r1)),
            (f"{n_lo}_shift_below_{n_mid}", _scal(lo + r1), _scal(mid)),
            (f"{n_mid}_shift_nonnegative", _scal(mid), _scal(mid + r2)),
            (f"{n_mid}_shift_below_{n_hi}", _scal(mid + r2), _scal(hi)),
        ]
    if 0.0 < p <= 1.0:
        part_specs += [
            (f"{n_hi}_shift_below_{n_mid}", _scal(hi - r2), _scal(mid)),
            (f"{n_mid}_below_{n_lo}_shift", _scal(mid), _scal(lo + r1)),
        ]
    if p < 0.0:
        part_specs += [
            ("ratio1_nonnegative", _scal(0.0), _scal(r1)),
            ("ratio2_nonnegative", _scal(0.0), _scal(r2)),
            (f"{n_mid}_below_{n_lo}_shift", _scal(mid), _scal(lo + r1)),
            (f"{n_hi}_below_{n_mid}_shift", _scal(hi), _scal(mid + r2)),
        ]
    return part_specs


def check_norm_chain(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Refined links between operator, Frobenius and trace norms.

    Write (op, hs, tr) for the three norms and d = p tr^{p-1}.  For p >= 1
    the shifts r1 = (hs^p - op^p)/d and r2 = (tr^p - hs^p)/d refine the
    chain op <= hs <= tr into op <= op + r1 <= hs <= hs + r2 <= tr.  For
    0 < p <= 1 the analogous shifts squeeze hs between tr + (hs^p - tr^p)/d
    and op + (hs^p - op^p)/d.  For p < 0 the shifted quantities overshoot
    instead: both ratios stay nonnegative and bound hs - op and tr - hs
    from above, so the chain runs hs <= op + r1 and tr <= hs + r2.
    """
    a = inst.A
    p = inst.p
    if p == 0.0:
        raise ZeroParameter("norm_chain is undefined at p=0")
    sp = linalg.Spectra()
    op, hs, tr = sp.norms(a)
    if tr == 0.0:
        raise ZeroMatrix("A is zero; the norm chain needs a positive trace norm")
    part_specs = _refined_chain(("op", "hs", "tr"), op, hs, tr, p * tr ** (p - 1.0), p)
    params = {"p": p, "m": None, "M": None, "map": None,
              "norm_op": op, "norm_hs": hs, "norm_tr": tr}
    return _finish("norm_chain", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_radius_chain(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Refined links between spectral radius, numerical radius and norm.

    Same structure as the norm chain with (r, w, op) in place of
    (op, hs, tr) and divisor p op^{p-1}.  Negative exponents additionally
    need a positive spectral radius; a vanishing one (nilpotent A) makes
    r^p undefined and is reported as a violated hypothesis.
    """
    a = inst.A
    p = inst.p
    if p == 0.0:
        raise ZeroParameter("radius_chain is undefined at p=0")
    sp = linalg.Spectra()
    op = sp.norm_op(a)
    if op == 0.0:
        raise ZeroMatrix("A is zero; the radius chain needs a positive norm")
    sr = linalg.spectral_radius(a)
    w = linalg.numerical_radius(a)
    hyp_ok, note = True, ""
    if p < 0.0 and sr <= 1e-12 * op:
        hyp_ok = False
        note = "spectral radius vanishes; negative powers of it are undefined"
    part_specs = []
    if hyp_ok:
        part_specs = _refined_chain(("radius", "w", "op"), sr, w, op, p * op ** (p - 1.0), p)
    params = {"p": p, "m": None, "M": None, "map": None,
              "spectral_radius": sr, "numerical_radius": w, "norm_op": op}
    return _finish("radius_chain", part_specs, hypotheses_ok=hyp_ok, note=note,
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_power_norm(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Norm comparison between A^p B^p and (AB)^p for positive matrices.

    For positive semidefinite A, B the norm ||A^p B^p|| is at most
    ||AB||^p when p is in [0, 1] and at least ||AB||^p when p >= 1; both
    hold with equality at the boundary exponents.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    if p < -_P_EPS:
        raise DomainError(f"power_norm requires p >= 0, got p={p}")
    sp = linalg.Spectra()
    _require_psd(sp, a, "A")
    _require_psd(sp, b, "B")
    nab = sp.norm_op(a @ b)
    napb = sp.norm_op(sp.power(a, p) @ sp.power(b, p))
    part_specs = []
    if p <= 1.0:
        part_specs.append(("power_norm_upper", _scal(napb), _scal(nab ** p)))
    if p >= 1.0:
        part_specs.append(("power_norm_lower", _scal(nab ** p), _scal(napb)))
    params = {"p": p, "m": None, "M": None, "map": None,
              "norm_AB": nab, "norm_ApBp": napb}
    return _finish("power_norm", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


def check_norm_refinement(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Two-sided refinement of the power-norm comparison on a window.

    With 0 < m <= A, B <= M both ||AB|| and ||A^p B^p||^{1/p} lie in
    [m^2, M^2], so the scalar two-sided power bounds apply on that
    product window:

        0 < p <= 1:  (p / (M^2)^{1-p}) D <= ||AB||^p - ||A^p B^p|| <= (p / (m^2)^{1-p}) D
                     with D = ||AB|| - ||A^p B^p||^{1/p};
        p >= 1:      (p / (m^2)^{1-p}) D <= ||A^p B^p|| - ||AB||^p <= (p / (M^2)^{1-p}) D
                     with D = ||A^p B^p||^{1/p} - ||AB||.
    """
    a, b = inst.A, _require_b(inst)
    p = inst.p
    if p <= 0.0:
        raise DomainError(f"norm_refinement requires p > 0, got p={p}")
    linalg.require_symmetric(a, "A")
    linalg.require_symmetric(b, "B")
    sp = linalg.Spectra()
    lam_a = sp.eigvals(a)
    lam_b = sp.eigvals(b)
    lo = float(min(lam_a[0], lam_b[0]))
    hi = float(max(lam_a[-1], lam_b[-1]))
    if lo <= 0.0:
        raise NotPositiveDefinite("norm_refinement needs positive definite matrices")
    m, M = _resolve_outer_window(lo, hi, inst.m, inst.M)
    m2, M2 = m * m, M * M
    nab = sp.norm_op(a @ b)
    napb = sp.norm_op(sp.power(a, p) @ sp.power(b, p))
    part_specs = []
    if p <= 1.0:
        dd = nab - napb ** (1.0 / p)
        mid = nab ** p - napb
        part_specs += [
            ("refine_lower", _scal((p / M2 ** (1.0 - p)) * dd), _scal(mid)),
            ("refine_upper", _scal(mid), _scal((p / m2 ** (1.0 - p)) * dd)),
        ]
    if p >= 1.0:
        dd = napb ** (1.0 / p) - nab
        mid = napb - nab ** p
        part_specs += [
            ("refine_lower", _scal((p / m2 ** (1.0 - p)) * dd), _scal(mid)),
            ("refine_upper", _scal(mid), _scal((p / M2 ** (1.0 - p)) * dd)),
        ]
    params = {"p": p, "m": m, "M": M, "map": None,
              "norm_AB": nab, "norm_ApBp": napb}
    return _finish("norm_refinement", part_specs, hypotheses_ok=True, note="",
                   params=params, tol_rel=tol_rel, spectra=sp)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckInfo:
    """Registry entry: how to run a check and what it needs."""

    check_id: str
    runner: Callable[..., CheckReport]
    description: str
    default_p: tuple[float, ...]
    needs_b: bool = True


REGISTRY: dict[str, CheckInfo] = {}


def _register(info: CheckInfo):
    REGISTRY[info.check_id] = info


_register(CheckInfo(
    "info_monotonicity", check_info_monotonicity,
    "deformed relative entropy shrinks under positive unital maps "
    "(grows for exponents above one)",
    (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0)))
_register(CheckInfo(
    "reverse_monotonicity", check_reverse_monotonicity,
    "additive reverse of the entropy monotonicity on a unit spectral window",
    (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0)))
_register(CheckInfo(
    "ando_converse", check_ando_converse,
    "additive converse of the weighted-mean map inequality on a unit window",
    (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0)))
_register(CheckInfo(
    "density_trace", check_density_trace,
    "unit-trace bounds for weighted means of density matrices under the "
    "unit window",
    (-0.5, 0.5, 1.5)))
_register(CheckInfo(
    "furuta_bounds", check_furuta_bounds,
    "Kantorovich-constant and linear upper bounds for the output-side entropy",
    (0.25, 0.5, 0.75, 1.0)))
_register(CheckInfo(
    "seo_bound", check_seo_bound,
    "ratio-window reverse of the weighted-mean map inequality",
    (0.25, 0.5, 0.75)))
_register(CheckInfo(
    "lowner_heinz", check_lowner_heinz,
    "A <= B implies A^p <= B^p for p in [0, 1] (fails above 1 by design)",
    (0.25, 0.5, 1.0)))
_register(CheckInfo(
    "norm_power_lemma", check_norm_power_lemma,
    "tangent-line bound for A^p at the operator norm of A",
    (1.0 / 3.0, 2.0, -1.0), needs_b=False))
_register(CheckInfo(
    "lh_extension", check_lh_extension,
    "linearized bound for B^p - A^p when B dominates ||A|| I",
    (0.5, 2.0 / 3.0, 2.0, 4.0, -1.0, -3.0)))
_register(CheckInfo(
    "mn2012", check_mn2012,
    "scalar floors for B^p - A^p and the dominance between them",
    (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0)))
_register(CheckInfo(
    "mond_pecaric", check_mond_pecaric,
    "two-sided derivative bounds for vector expectations of f(A) against f(<Bx,x>)",
    (0.5, 2.0, -1.0)))
_register(CheckInfo(
    "holder_mccarthy", check_holder_mccarthy,
    "power expectation inequality and its two-sided reverse on a window",
    (0.5, 2.0, -1.0), needs_b=False))
_register(CheckInfo(
    "norm_chain", check_norm_chain,
    "refined links between operator, Frobenius and trace norms",
    (-1.0, 0.5, 3.0), needs_b=False))
_register(CheckInfo(
    "radius_chain", check_radius_chain,
    "refined links between spectral radius, numerical radius and norm",
    (0.5, 2.0, -1.0), needs_b=False))
_register(CheckInfo(
    "power_norm", check_power_norm,
    "norm comparison between A^p B^p and (AB)^p for positive matrices",
    (0.5, 2.0)))
_register(CheckInfo(
    "norm_refinement", check_norm_refinement,
    "two-sided refinement of the power-norm comparison on a product window",
    (0.5, 2.0)))
_register(CheckInfo(
    "power_corollary", check_power_corollary,
    "windowed bounds between Phi(A)^p and Phi(A^p)",
    (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), needs_b=False))


def _require_tol(tol_rel) -> float:
    """tol_rel as a float; InvalidSpec unless it is finite and nonnegative."""
    tol = float(tol_rel)
    if not np.isfinite(tol) or tol < 0.0:
        raise InvalidSpec(f"tolerance must be finite and nonnegative, got {tol}")
    return tol


def resolve_check(check_id: str) -> CheckInfo:
    """The registry entry of a check id; UnknownCheck when there is none."""
    info = REGISTRY.get(check_id)
    if info is None:
        raise UnknownCheck(
            f"unknown check {check_id!r}; available: {', '.join(sorted(REGISTRY))}")
    return info


def run_check(check_id: str, inst: InstanceSpec, *,
              tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
    """Dispatch an instance to the named check."""
    return resolve_check(check_id).runner(inst, tol_rel=_require_tol(tol_rel))
