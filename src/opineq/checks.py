"""Executable inequality checks.

Every check takes an :class:`InstanceSpec`, verifies the hypotheses of the
inequality it encodes, evaluates both sides, and returns a
:class:`CheckReport` with a Loewner (or scalar) verdict.  A check never
raises because an inequality fails; it raises only when the input is
malformed (wrong shapes, exponents outside the supported range, matrices
that are not positive where positivity is required).

A check has one entry and one exit.  Its body first stacks the operands
(_pair, _symmetric or _stack) and reads the exponents (_exponents), and
only then computes, so a bad input raises for the first of: a missing
B, a nonsymmetric A, a nonsymmetric B, p outside the domain, p = 0, and
then what the body computes (windows, positivity, traces).  The body
returns its parts and params, and _check hands them to _finish with the
one linalg.Spectra it gave the body.

Each check has one implementation, which takes a group of instances of
one dimension and returns their reports in order (CheckInfo.group).  Its
matrix work runs on stacks with one matrix per instance, and every
stacked call gives each instance the bits it gets alone; exponents,
windows, notes and branch choices stay per instance.  The public
check_* functions, CheckInfo.runner and run_check are the group of one;
fuzz.run_fuzz checks each dim of a chunk as one group.  A group raises
whenever one of its instances would raise alone; only a group of one
says which instance it is and what it raises.  A group may also raise
where no instance alone would (an entropy at p = 1 alone needs no
A^{1/2}); fuzz.run_fuzz then reruns its trials one at a time.

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
import functools
import math
from typing import Callable

import numpy as np

from . import constants, linalg, maps, means
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    NotDensity,
    NotFinite,
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
    return None if m is None else np.atleast_2d(np.asarray(m, dtype=float)).tolist()


_JSON_PLAIN = (float, int, str, type(None))


def _json_sanitize(value):
    # exact types only: a bool takes the int branch below and is written as
    # 1 or 0, kept on purpose so that report bytes do not move
    if type(value) in _JSON_PLAIN:
        return value
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


def _concat(stacks) -> np.ndarray:
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


def _split(values: list, stacks) -> list:
    """values, one per matrix of _concat(stacks), cut back into one list per stack."""
    out, start = [], 0
    for x in stacks:
        out.append(values[start:start + len(x)])
        start += len(x)
    return out


def _finish(check_id, spectra, tol_rel, part_specs, params, hypotheses_ok=None, note=None):
    """Assemble a group's CheckReports from (name, lhs, rhs, rows) parts.

    _check's group calls it with what the check body returns.  params,
    hypotheses_ok and note hold one entry per instance of the group
    (None: every hypothesis holds, with no note).  A part's lhs and
    rhs hold one side per instance in rows, its list of instance indices:
    stacks of matrices, or lists of floats for scalar parts, which are
    reported as 1x1 matrices; a stack of 1x1 matrices is read as scalars.
    Each instance's parts keep the order of part_specs.  The shared
    tolerance of an instance is tol_rel times the largest operand scale
    across its parts (never below tol_rel itself), so one loose part does
    not get judged with a tighter yardstick than another.  spectra is the
    Spectra the body ran on, so a side that several parts share, or that
    the body already took the norm of, is not decomposed again.

    It guards the verdicts against sides that left the float range: a
    part whose gap is not finite raises NotFinite, since a Python float
    product or quotient overflows to inf without raising.
    """
    size = len(params)
    hypotheses_ok = [True] * size if hypotheses_ok is None else hypotheses_ok
    note = [""] * size if note is None else note
    part_specs = [(name, lhs[:, 0, 0].tolist(), rhs[:, 0, 0].tolist(), rows)
                  if not isinstance(lhs, list) and lhs.shape[-2:] == (1, 1)
                  else (name, lhs, rhs, rows) for name, lhs, rhs, rows in part_specs]
    # the gaps and side norms of every matrix part of one shape come from
    # two stacked eigensolves, each distinct side stack entering once
    gaps, norms = {}, {}
    by_shape: dict[tuple, list] = {}
    for _, lhs, rhs, _ in part_specs:
        if not isinstance(lhs, list):
            by_shape.setdefault(lhs.shape[-2:], []).append((lhs, rhs))
    for specs in by_shape.values():
        diffs = [rhs - lhs for lhs, rhs in specs]
        low = spectra.eigvals(_concat(diffs))[:, 0].tolist()
        for (lhs, rhs), g in zip(specs, _split(low, diffs)):
            gaps[id(lhs), id(rhs)] = g
        sides = list({id(x): x for spec in specs for x in spec}.values())
        for x, values in zip(sides, _split(spectra.norm_op(_concat(sides)).tolist(), sides)):
            norms[id(x)] = values
    parts = [[] for _ in range(size)]
    scale = [1.0] * size
    for name, lhs, rhs, rows in part_specs:
        if isinstance(lhs, list):   # scalar sides: no eigensolve
            for i, x, y in zip(rows, lhs, rhs):
                gap = y - x
                if not math.isfinite(gap):
                    raise NotFinite(f"{check_id}: the sides of {name} leave the float range")
                scale[i] = max(scale[i], abs(x), abs(y))
                parts[i].append(CheckPart(name, np.array([[x]]), np.array([[y]]), gap))
            continue
        for j, (i, gap, sl, sr) in enumerate(zip(rows, gaps[id(lhs), id(rhs)],
                                                 norms[id(lhs)], norms[id(rhs)])):
            scale[i] = max(scale[i], sl, sr)
            parts[i].append(CheckPart(name, lhs[j], rhs[j], gap))
    reports = []
    for i in range(size):
        tol_used = tol_rel * scale[i]
        if parts[i]:
            worst = min(parts[i], key=lambda part: part.gap_min_eig)
            gap_min_eig, lhs, rhs = worst.gap_min_eig, worst.lhs, worst.rhs
        else:
            gap_min_eig, lhs, rhs = None, None, None
        if not hypotheses_ok[i]:
            verdict = HYPOTHESIS_VIOLATED
        elif gap_min_eig is not None and gap_min_eig >= -tol_used:
            verdict = HOLDS
        else:
            verdict = FAILS
        reports.append(CheckReport(
            check_id=check_id,
            hypotheses_ok=bool(hypotheses_ok[i]),
            hypothesis_note=note[i],
            lhs=lhs,
            rhs=rhs,
            gap_min_eig=gap_min_eig,
            verdict=verdict,
            tol_used=float(tol_used),
            params=params[i],
            parts=tuple(parts[i]),
        ))
    return reports


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

_INSTANCE_KEYS = ("A", "B", "p", "map", "m", "M", "x", "f")
_F_KINDS = ("power", "exp", "log")


def _require_numbers(key, value):
    """SchemaError when a JSON string or boolean stands where a number belongs."""
    if isinstance(value, list):
        for v in value:
            _require_numbers(key, v)
    elif isinstance(value, (str, bool)):
        raise SchemaError(f"{key}: expected a number, got {value!r}")


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
        for key in ("A", "p"):
            if key not in data:
                raise SchemaError(f"instance is missing the required key {key!r}")
        for key in ("A", "B", "x", "p", "m", "M"):
            _require_numbers(key, data.get(key))
        if not isinstance(data.get("f", ""), str):
            raise SchemaError(f"f must be a string, got {data['f']!r}")
        map_spec = data.get("map")
        if map_spec is not None:
            map_spec = maps.MapSpec.from_json_dict(map_spec)
        try:   # __post_init__ converts and validates each value
            return cls(**{**data, "map": map_spec})
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
            out["x"] = np.asarray(self.x, dtype=float).tolist()
        if self.f != "power":
            out["f"] = self.f
        return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckInfo:
    """Registry entry: how to run a check and what it needs.

    group(insts, tol_rel) checks instances of one dimension and returns
    their reports in order; runner(inst, tol_rel=...) is its group of one.
    """

    check_id: str
    runner: Callable[..., CheckReport]
    group: Callable[[list, float], list]
    description: str
    default_p: tuple[float, ...]
    needs_b: bool = True


REGISTRY: dict[str, CheckInfo] = {}


def _check(check_id: str, description: str, default_p, needs_b: bool = True):
    """Register the decorated body(insts, sp, tol_rel) as a check.

    Its group gives the body a fresh linalg.Spectra sp and passes what the
    body returns, (part_specs, params) or (part_specs, params,
    hypotheses_ok, note), to _finish under check_id; the decorated name
    becomes its runner, the group of one.

    The group is every check's one exit for values that leave the float
    range.  It runs the body and _finish with numpy overflow raising, and
    turns any ArithmeticError (a numpy FloatingPointError, or a Python
    OverflowError or ZeroDivisionError) into NotFinite.  numpy's invalid
    and divide stay at their defaults, so a NaN born inside a body still
    warns."""
    def register(body):
        def group(insts, tol_rel):
            sp = linalg.Spectra()
            try:
                with np.errstate(over="raise"):
                    return _finish(check_id, sp, tol_rel, *body(insts, sp, tol_rel))
            except ArithmeticError as exc:
                raise NotFinite(f"{check_id}: a value leaves the float range ({exc})") from exc

        def runner(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
            return group([inst], tol_rel)[0]
        runner.__name__ = runner.__qualname__ = body.__name__
        runner.__doc__ = body.__doc__
        REGISTRY[check_id] = CheckInfo(check_id, runner, group, description,
                                       tuple(default_p), needs_b)
        return runner
    return register


# ----------------------------------------------------------------------
# shared resolution helpers
# ----------------------------------------------------------------------

def _stack(mats) -> np.ndarray:
    """The group's matrices as one (g, n, n) stack; a group of one is a view."""
    return mats[0][None] if len(mats) == 1 else np.stack(mats)


def _col(values) -> np.ndarray:
    """One scalar per instance, shaped to scale a (g, n, n) stack."""
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def _symmetric(insts) -> np.ndarray:
    """The group's A as one stack; NotSymmetric unless every A is symmetric."""
    return linalg._require_symmetric(_stack([inst.A for inst in insts]), "A")


def _pair(insts) -> tuple[np.ndarray, np.ndarray]:
    """The group's A and B as stacks.  Raises, in this order, when an
    instance has no B, when an A is not symmetric and when a B is not."""
    if any(inst.B is None for inst in insts):
        raise InvalidSpec("this check needs a second matrix B")
    return (_symmetric(insts),
            linalg._require_symmetric(_stack([inst.B for inst in insts]), "B"))


def _branch(part_specs, name, lhs, rhs, rows, keep):
    """Append part (name, lhs, rhs) for the instances of rows where keep holds."""
    if all(keep):
        part_specs.append((name, lhs, rhs, rows))
    elif any(keep):
        sel = [j for j, t in enumerate(keep) if t]
        if isinstance(lhs, list):
            lhs, rhs = [lhs[j] for j in sel], [rhs[j] for j in sel]
        else:
            lhs, rhs = lhs[sel], rhs[sel]
        part_specs.append((name, lhs, rhs, [rows[j] for j in sel]))


def _images(phis, *stacks):
    """Apply each instance's map to all of its matrices in one call.

    Yields (rows, images) per image size k: the indices of the instances
    whose maps give k x k images, and one (len(rows), k, k) stack of
    images for each stack given.
    """
    if len(phis) == 1:
        yield [0], list(maps.apply_map(phis[0], np.concatenate(stacks))[:, None])
        return
    inputs = np.stack(stacks, axis=1)
    out = [maps.apply_map(phi, x) for phi, x in zip(phis, inputs)]
    by_size: dict[int, list] = {}
    for i, img in enumerate(out):
        by_size.setdefault(img.shape[-1], []).append(i)
    for rows in by_size.values():
        yield rows, list(np.stack([out[i] for i in rows], axis=1))


def _resolve_map(inst: InstanceSpec, n: int) -> maps.MapSpec:
    if inst.map is None:
        return maps.MapSpec.normalized_trace(n)
    if inst.map.in_dim != n:
        raise DimensionMismatch(
            f"map expects input dimension {inst.map.in_dim}, matrices are {n}x{n}"
        )
    return inst.map


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


def _unit_windows(insts, lam):
    """_resolve_unit_window per instance: lists (m, M, hyp_ok, note)."""
    return tuple(map(list, zip(*(_resolve_unit_window(lo, hi, inst.m, inst.M)
                                 for inst, (lo, hi) in zip(insts, linalg._edges(lam))))))


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


def _eigvals(sp, *mats) -> list:
    """The spectra of several stacks of one shape, from one stacked eigensolve."""
    return _split(sp.eigvals(_concat(mats)), mats)


def _powers(sp, ps, *mats) -> list:
    """Each stack raised to the group's exponents, from one stacked eigensolve."""
    return _split(sp.power(_concat(mats), ps * len(mats)), mats)


def _require_psd(lam, label: str) -> np.ndarray:
    """lam, the ascending spectra of a symmetric stack (label names it),
    once every matrix of the stack is positive semidefinite."""
    return linalg._require_floor(
        lam, False, f"{label} must be positive semidefinite; smallest eigenvalue is {{lo:.6g}}")


def _norm(lam) -> list:
    """max |lambda| per instance, from ascending spectra."""
    return [max(abs(lo), abs(hi)) for lo, hi in linalg._edges(lam)]


def _inner_spectrum(sp, a, b):
    """Eigenvalues of A^{-1/2} B A^{-1/2}, ascending."""
    return sp.eigvals(means._inner_operator(a, b, sp)[1])


def _guarded(build, hyp_ok, note):
    """(build(), note) for a group.  It guards the sides that a violated
    hypothesis may leave undefined: in a group of one, an OpineqError or
    ArithmeticError (a value leaving the float range) from build()
    propagates under valid hypotheses and otherwise leaves the sides
    unevaluated, said in the note; a larger group raises it.
    """
    try:
        return build(), note
    except (OpineqError, ArithmeticError):
        if len(hyp_ok) > 1 or hyp_ok[0]:
            raise
        return [], [note[0] + "; sides not evaluated"]


def _norm_dominance(sp, a, b, tol_rel):
    """(||A||, ||B||, hyp_ok, note), lists over the group, for ||A|| I <= B;
    NotPositiveDefinite unless A >= 0."""
    lam_a, lam_b = _eigvals(sp, a, b)
    na = _norm(_require_psd(lam_a, "A"))
    nb = _norm(lam_b)
    dominance = sp.compare(_col(na) * np.eye(a.shape[-1]), b, tol_rel)
    return na, nb, [d.is_le for d in dominance], [
        "" if d.is_le else (f"||A|| I is not below B "
                            f"(min eig of B - ||A|| I is {d.gap_min_eig:.6g})")
        for d in dominance]


def _converse_parts(sp, part_specs, prefix, rows, ps, ms, Ms, inner, outer, diff):
    """Append the parts of the three-branch additive converse and return
    each instance's term norm: with term = p (m^{p-1} - M^{p-1}) diff,
    outer <= inner + term on [0, 1], the reverse on [-1, 0], and
    inner <= outer - term for p >= 1.
    """
    term = _col([p * (m ** (p - 1.0) - M ** (p - 1.0)) for p, m, M in zip(ps, ms, Ms)]) * diff
    term_rev = _col([p * (M ** (p - 1.0) - m ** (p - 1.0))
                     for p, m, M in zip(ps, ms, Ms)]) * diff
    _branch(part_specs, f"{prefix}_upper", outer, inner + term, rows,
            [0.0 <= p <= 1.0 for p in ps])
    _branch(part_specs, f"{prefix}_lower", inner + term, outer, rows,
            [-1.0 <= p <= 0.0 for p in ps])
    _branch(part_specs, f"{prefix}_upper_reversed", inner, outer + term_rev, rows,
            [1.0 <= p for p in ps])
    le = np.array([p <= 1.0 for p in ps])[:, None, None]
    return sp.norm_op(np.where(le, term, term_rev)).tolist()


@functools.cache
def _bounds(domain: str) -> tuple[float, float]:
    """The least and greatest p the interval domain, such as "(0, 1]",
    admits: a closed end admits _P_EPS of slack and an open end none."""
    lo, hi = (float(end) for end in domain[1:-1].split(", "))
    return (lo - _P_EPS if domain[0] == "[" else math.nextafter(lo, math.inf),
            hi + _P_EPS if domain[-1] == "]" else math.nextafter(hi, -math.inf))


def _exponents(insts, what: str, domain: str, zero: bool = False) -> list:
    """Each instance's p, once it lies in domain ("(-inf, inf)" admits
    every p) and, when zero is set, is not 0; what names the check."""
    lo, hi = _bounds(domain)
    ps = [inst.p for inst in insts]
    for p in ps:
        if not lo <= p <= hi:
            raise DomainError(f"{what} requires p in {domain}, got p={p}")
        if zero and p == 0.0:
            raise ZeroParameter(f"{what} is undefined at p=0")
    return ps


# ----------------------------------------------------------------------
# entropy / mean checks under positive unital maps
# ----------------------------------------------------------------------

@_check("info_monotonicity",
        "deformed relative entropy shrinks under positive unital maps "
        "(grows for exponents above one)",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0))
def check_info_monotonicity(insts, sp, tol_rel):
    """Monotonicity of the deformed relative entropy under positive unital maps.

    For p in [-1, 1] (p != 0) the output-side entropy dominates the mapped
    entropy; for p in [1, 2] the comparison reverses.  No spectral window
    is needed, so the hypotheses reduce to positive definiteness and a
    valid map; at p = 1 both directions are evaluated (they coincide).
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "info_monotonicity", "[-1, 2]", zero=True)
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
    part_specs = []
    for rows, (pa, pb, mapped) in _images(phis, a, b, t_in):
        q = [ps[i] for i in rows]
        t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
        _branch(part_specs, "entropy_monotone", mapped, t_out, rows, [p <= 1.0 for p in q])
        _branch(part_specs, "entropy_reversed", t_out, mapped, rows, [p >= 1.0 for p in q])
    params = [{"p": p, "m": None, "M": None, "map": phi.to_json_dict()}
              for p, phi in zip(ps, phis)]
    return part_specs, params


@_check("reverse_monotonicity",
        "additive reverse of the entropy monotonicity on a unit spectral window",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0))
def check_reverse_monotonicity(insts, sp, tol_rel):
    """Additive reverse of the entropy monotonicity on a spectral window.

    Under m <= 1 <= A^{-1/2} B A^{-1/2} <= M the output-side entropy
    exceeds the mapped entropy by at most (m^{p-1} - M^{p-1}) Phi(B - A)
    for p in [-1, 1] (p != 0); for p in [1, 2] the roles swap and the
    coefficient becomes M^{p-1} - m^{p-1}.  User-supplied (m, M) are
    accepted as long as they enclose the inner spectrum.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "reverse_monotonicity", "[-1, 2]", zero=True)
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    ms, Ms, hyp_ok, note = _unit_windows(insts, _inner_spectrum(sp, a, b))
    params = [{"p": p, "m": m, "M": M, "map": phi.to_json_dict(), "additive_term_norm": None}
              for p, m, M, phi in zip(ps, ms, Ms, phis)]

    def sides():  # m <= 0 only when W is singular or indefinite: hyp_ok is False
        for m in ms:
            if m <= 0.0:
                raise NotPositiveDefinite(f"m={m:.6g} cannot be raised to p - 1")
        t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
        part_specs = []
        for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, t_in, b - a):
            q = [ps[i] for i in rows]
            t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
            term = _col([ms[i] ** (ps[i] - 1.0) - Ms[i] ** (ps[i] - 1.0)
                         for i in rows]) * phi_diff
            term_rev = _col([Ms[i] ** (ps[i] - 1.0) - ms[i] ** (ps[i] - 1.0)
                             for i in rows]) * phi_diff
            le = [p <= 1.0 for p in q]
            _branch(part_specs, "additive_upper", t_out, mapped + term, rows, le)
            _branch(part_specs, "additive_upper_reversed", mapped, t_out + term_rev, rows,
                    [p >= 1.0 for p in q])
            norms = sp.norm_op(np.where(np.array(le)[:, None, None], term, term_rev)).tolist()
            for i, value in zip(rows, norms):
                params[i]["additive_term_norm"] = value
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    return part_specs, params, hyp_ok, note


@_check("ando_converse",
        "additive converse of the weighted-mean map inequality on a unit window",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0))
def check_ando_converse(insts, sp, tol_rel):
    """Additive converse of Phi(A # B) <= Phi(A) # Phi(B) on a window.

    Three exponent branches: for p in [0, 1] the mapped mean plus
    p (m^{p-1} - M^{p-1}) Phi(B - A) dominates the mean of the images; for
    p in [-1, 0] the same right-hand side is dominated instead; for
    p in [1, 2] the correction p (M^{p-1} - m^{p-1}) Phi(B - A) moves to
    the other side.  Boundary exponents evaluate every branch they belong
    to.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "ando_converse", "[-1, 2]")
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    ms, Ms, hyp_ok, note = _unit_windows(insts, _inner_spectrum(sp, a, b))
    params = [{"p": p, "m": m, "M": M, "map": phi.to_json_dict(), "additive_term_norm": None}
              for p, m, M, phi in zip(ps, ms, Ms, phis)]

    def sides():  # m <= 0 only when W is singular or indefinite: hyp_ok is False
        for m in ms:
            if m <= 0.0:
                raise NotPositiveDefinite(f"m={m:.6g} cannot be raised to p - 1")
        mean_in = means.weighted_mean(a, b, ps, spectra=sp).value
        part_specs = []
        for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, mean_in, b - a):
            q = [ps[i] for i in rows]
            mean_out = means.weighted_mean(pa, pb, q, spectra=sp).value
            norms = _converse_parts(sp, part_specs, "mean_additive", rows, q,
                                    [ms[i] for i in rows], [Ms[i] for i in rows],
                                    mapped, mean_out, phi_diff)
            for i, value in zip(rows, norms):
                params[i]["additive_term_norm"] = value
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    return part_specs, params, hyp_ok, note


@_check("density_trace",
        "unit-trace bounds for weighted means of density matrices under the "
        "unit window",
        (-0.5, 0.5, 1.5))
def check_density_trace(insts, sp, tol_rel):
    """Unit-trace bounds for weighted means of density matrices.

    For density matrices satisfying the window hypothesis
    1 <= A^{-1/2} B A^{-1/2}, the trace of the weighted mean is at least
    one for p in [0, 1] and at most one for p in [-1, 0] or [1, 2].  The
    window forces B = A when both matrices have unit trace, so valid
    instances sit at the equality point; instances that break the window
    report HYPOTHESIS_VIOLATED rather than FAILS.  The map field is
    ignored: the statement is about the plain trace.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "density_trace", "[-1, 2]")
    for mat, label, lam in zip((a, b), "AB", _eigvals(sp, a, b)):
        _require_psd(lam, label)
        for trace in np.trace(mat, axis1=-2, axis2=-1).tolist():
            if abs(trace - 1.0) > 1e-10:
                raise NotDensity(f"{label} has trace {trace:.12g}, expected 1")
    ms, Ms, hyp_ok, note = _unit_windows(insts, _inner_spectrum(sp, a, b))

    def sides():
        mean = means.weighted_mean(a, b, ps, spectra=sp).value
        trace_mean = np.trace(mean, axis1=-2, axis2=-1).tolist()
        one = [1.0] * len(ps)
        rows = list(range(len(ps)))
        part_specs = []
        _branch(part_specs, "unit_trace_lower", one, trace_mean, rows,
                [0.0 <= p <= 1.0 for p in ps])
        _branch(part_specs, "unit_trace_upper", trace_mean, one, rows,
                [p <= 0.0 or p >= 1.0 for p in ps])
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = [{"p": p, "m": m, "M": M, "map": None} for p, m, M in zip(ps, ms, Ms)]
    return part_specs, params, hyp_ok, note


@_check("furuta_bounds",
        "Kantorovich-constant and linear upper bounds for the output-side entropy",
        (0.25, 0.5, 0.75, 1.0))
def check_furuta_bounds(insts, sp, tol_rel):
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
    a, b = _pair(insts)
    ps = _exponents(insts, "furuta_bounds", "(0, 1]")
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    lam_a, lam_b = _eigvals(sp, a, b)
    if min(lam_a[:, 0].tolist() + lam_b[:, 0].tolist()) <= 0.0:
        raise NotPositiveDefinite("furuta_bounds needs positive definite matrices")
    params = []
    for p, phi, (a_lo, a_hi), (b_lo, b_hi) in zip(ps, phis, linalg._edges(lam_a),
                                                   linalg._edges(lam_b)):
        fm = b_lo / a_hi
        fM = b_hi / a_lo
        h = fM / fm
        params.append({
            "p": p, "m": fm, "M": fM, "map": phi.to_json_dict(),
            "h": h, "kantorovich_K": constants.kantorovich_K(h, min(p, 1.0)),
            "furuta_F": 0.0 if p >= 1.0 - _P_EPS else constants.furuta_F(fm, h, p),
            "kantorovich_term_norm": None, "linear_term_norm": None,
            "windowed_term_norm": None,
        })
    t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
    groups = []
    part_specs = []
    for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, t_in, b - a):
        q = [ps[i] for i in rows]
        t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
        k_term = (_col([(1.0 - params[i]["kantorovich_K"]) / ps[i] for i in rows])
                  * means.weighted_mean(pa, pb, q, spectra=sp).value)
        f_term = _col([params[i]["furuta_F"] for i in rows]) * pa
        part_specs += [("kantorovich_upper", t_out, mapped + k_term, rows),
                       ("linear_upper", t_out, mapped + f_term, rows)]
        for i, kn, fn in zip(rows, sp.norm_op(k_term).tolist(), sp.norm_op(f_term).tolist()):
            params[i]["kantorovich_term_norm"] = kn
            params[i]["linear_term_norm"] = fn
        groups.append((rows, mapped, t_out, phi_diff))
    lam_w = _inner_spectrum(sp, a, b)[:, 0].tolist()
    for rows, mapped, t_out, phi_diff in groups:
        keep = [lam_w[i] >= 1.0 - HYP_TOL and params[i]["m"] <= 1.0 + _P_EPS for i in rows]
        if not any(keep):
            continue
        k = np.asarray(keep)
        rows = [i for i, t in zip(rows, keep) if t]
        s_term = _col([params[i]["m"] ** (ps[i] - 1.0) - params[i]["M"] ** (ps[i] - 1.0)
                       for i in rows]) * phi_diff[k]
        part_specs.append(("windowed_upper", t_out[k], mapped[k] + s_term, rows))
        for i, value in zip(rows, sp.norm_op(s_term).tolist()):
            params[i]["windowed_term_norm"] = value
    return part_specs, params


@_check("seo_bound", "ratio-window reverse of the weighted-mean map inequality",
        (0.25, 0.5, 0.75))
def check_seo_bound(insts, sp, tol_rel):
    """Ratio-window reverse of the mean inequality.

    Under mA <= B <= MA and 0 < p < 1 the mean of the images exceeds the
    mapped mean by at most -C(m, M, p) Phi(A).  The window here does not
    need to contain one; absent overrides it is the exact spectrum of
    A^{-1/2} B A^{-1/2}, which makes the hypothesis hold by construction.
    When the unit window also holds, the additive bound term
    p (m^{p-1} - M^{p-1}) Phi(B - A) is reported for tightness comparison.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "seo_bound", "(0, 1)")
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    lam = _inner_spectrum(sp, a, b)
    params, windowed = [], []
    for inst, p, phi, (lo, hi) in zip(insts, ps, phis, linalg._edges(lam)):
        m, M = _resolve_outer_window(lo, hi, inst.m, inst.M)
        params.append({"p": p, "m": m, "M": M, "map": phi.to_json_dict(),
                       "seo_C": constants.seo_C(m, M, p), "seo_term_norm": None,
                       "windowed_term_norm": None})
        windowed.append(lo >= 1.0 - HYP_TOL and m <= 1.0 + _P_EPS)
    mean_in = means.weighted_mean(a, b, ps, spectra=sp).value
    extra = (b - a,) if any(windowed) else ()
    part_specs = []
    for rows, (pa, pb, mapped, *phi_diff) in _images(phis, a, b, mean_in, *extra):
        mean_out = means.weighted_mean(pa, pb, [ps[i] for i in rows], spectra=sp).value
        seo_term = _col([-params[i]["seo_C"] for i in rows]) * pa
        part_specs.append(("seo_upper", mean_out, mapped + seo_term, rows))
        for i, value in zip(rows, sp.norm_op(seo_term).tolist()):
            params[i]["seo_term_norm"] = value
        keep = [windowed[i] for i in rows]
        if any(keep):
            k = np.asarray(keep)
            rows = [i for i, t in zip(rows, keep) if t]
            w_term = _col([ps[i] * (params[i]["m"] ** (ps[i] - 1.0)
                                    - params[i]["M"] ** (ps[i] - 1.0))
                           for i in rows]) * phi_diff[0][k]
            for i, value in zip(rows, sp.norm_op(w_term).tolist()):
                params[i]["windowed_term_norm"] = value
    return part_specs, params


# ----------------------------------------------------------------------
# power-difference checks
# ----------------------------------------------------------------------

@_check("lowner_heinz",
        "A <= B implies A^p <= B^p for p in [0, 1] (fails above 1 by design)",
        (0.25, 0.5, 1.0))
def check_lowner_heinz(insts, sp, tol_rel):
    """Power monotonicity: A <= B implies A^p <= B^p for p in [0, 1].

    Exponents above one are accepted so the fuzzer can hunt for the
    well-known failures there; a FAILS verdict with p > 1 is the expected
    demonstration, not an engine defect.  Negative exponents reverse the
    order even in the commuting case and are rejected.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "lowner_heinz", "[0, inf)")
    lam_a, lam_b = _eigvals(sp, a, b)
    _require_psd(lam_a, "A")
    _require_psd(lam_b, "B")
    order = sp.compare(a, b, tol_rel)
    note = ["" if o.is_le else f"A is not below B (min eig of B - A is {o.gap_min_eig:.6g})"
            for o in order]
    part_specs = [("power_monotone", *_powers(sp, ps, a, b), list(range(len(ps))))]
    params = [{"p": p, "m": None, "M": None, "map": None,
               "p_in_monotone_range": bool(0.0 <= p <= 1.0)} for p in ps]
    return part_specs, params, [o.is_le for o in order], note


@_check("norm_power_lemma", "tangent-line bound for A^p at the operator norm of A",
        (1.0 / 3.0, 2.0, -1.0), needs_b=False)
def check_norm_power_lemma(insts, sp, tol_rel):
    """Tangent-line bound for matrix powers at the operator norm.

    For positive A the chord construction at t = ||A|| gives
    A^p <= ||A||^p I - p ||A||^{p-1} (||A|| I - A) when p is in [0, 1]
    and the reversed comparison when p >= 1 or p <= 0.  Both directions
    are equalities at p = 0 and p = 1 and are evaluated together there.
    """
    a = _symmetric(insts)
    ps = _exponents(insts, "norm_power_lemma", "(-inf, inf)")
    lam = _require_psd(sp.eigvals(a), "A")
    na = _norm(lam)
    for p, norm, lo in zip(ps, na, lam[:, 0].tolist()):
        if norm == 0.0:
            raise ZeroMatrix("A is zero; the tangent construction needs a positive norm")
        if p < 0.0 and lo <= 0.0:
            raise NotPositiveDefinite("negative exponents need a positive definite matrix")
    a_pow = sp.power(a, ps)
    eye = np.eye(a.shape[-1])
    tangent = (_col([t ** p for t, p in zip(na, ps)]) * eye
               - _col([p * (t ** (p - 1.0)) for t, p in zip(na, ps)]) * (_col(na) * eye - a))
    rows = list(range(len(ps)))
    part_specs = []
    _branch(part_specs, "tangent_upper", a_pow, tangent, rows, [0.0 <= p <= 1.0 for p in ps])
    _branch(part_specs, "tangent_lower", tangent, a_pow, rows,
            [p >= 1.0 or p <= 0.0 for p in ps])
    params = [{"p": p, "m": None, "M": None, "map": None, "norm_A": t} for p, t in zip(ps, na)]
    return part_specs, params


@_check("lh_extension", "linearized bound for B^p - A^p when B dominates ||A|| I",
        (0.5, 2.0 / 3.0, 2.0, 4.0, -1.0, -3.0))
def check_lh_extension(insts, sp, tol_rel):
    """Linearized power-difference bound when B dominates ||A||.

    Under ||A|| I <= B the difference B^p - A^p dominates
    p ||B||^{p-1} (B - A) for p in [0, 1]; for p >= 1 or p <= 0 the linear
    term dominates instead.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "lh_extension", "(-inf, inf)")
    na, nb, hyp_ok, note = _norm_dominance(sp, a, b, tol_rel)
    if 0.0 in nb:
        raise ZeroMatrix("B is zero; the linear term needs a positive norm")

    def sides():
        b_pow, a_pow = _powers(sp, ps, b, a)
        diff = b_pow - a_pow
        lin = _col([p * (t ** (p - 1.0)) for p, t in zip(ps, nb)]) * (b - a)
        rows = list(range(len(ps)))
        part_specs = []
        _branch(part_specs, "linear_lower", lin, diff, rows, [0.0 <= p <= 1.0 for p in ps])
        _branch(part_specs, "linear_upper", diff, lin, rows,
                [p >= 1.0 or p <= 0.0 for p in ps])
        return part_specs
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = [{"p": p, "m": None, "M": None, "map": None, "norm_A": x, "norm_B": y}
              for p, x, y in zip(ps, na, nb)]
    return part_specs, params, hyp_ok, note


@_check("mn2012", "scalar floors for B^p - A^p and the dominance between them",
        (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0))
def check_mn2012(insts, sp, tol_rel):
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
    a, b = _pair(insts)
    ps = _exponents(insts, "mn2012", "[0, 1]")
    _, nb, hyp_ok, note = _norm_dominance(sp, a, b, tol_rel)
    lam_diff = sp.eigvals(linalg._require_symmetric(b - a))
    gaps = lam_diff[:, 0].tolist()
    for i, (hi, low) in enumerate(zip(lam_diff[:, -1].tolist(),
                                      np.abs(lam_diff).min(axis=-1).tolist())):
        if low <= 1e-12 * max(1.0, abs(gaps[i]), abs(hi)):
            raise SingularDifference("B - A is numerically singular")
        if hyp_ok[i] and gaps[i] < 0.0:
            # A >= 0 and ||A|| I <= B force B - A >= 0; a negative gap means
            # the dominance holds only within tolerance
            hyp_ok[i] = False
            note[i] = f"B - A is not positive (min eig of B - A is {gaps[i]:.6g})"

    def sides():
        if min(gaps) < 0.0:
            raise DomainError("the floors need B - A positive definite")
        b_pow, a_pow = _powers(sp, ps, b, a)
        diff = b_pow - a_pow
        eye = np.eye(a.shape[-1])
        lin, shift, cmp_lo, cmp_hi = [], [], [], []
        for p, t, gap in zip(ps, nb, gaps):
            lin.append(p * (t ** (p - 1.0)) * gap)
            shift.append(t ** p - (t - gap) ** p)
            s = t / gap
            cmp_lo.append(p * s ** (p - 1.0))
            cmp_hi.append(s ** p - (s - 1.0) ** p)
        rows = list(range(len(ps)))
        return [
            ("floor_nonnegative", [0.0] * len(ps), lin, rows),
            ("linear_floor", _col(lin) * eye, diff, rows),
            ("shift_floor", _col(shift) * eye, diff, rows),
            ("floor_comparison", cmp_lo, cmp_hi, rows),
        ]
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = [{"p": p, "m": None, "M": None, "map": None, "norm_B": t, "lam_min_diff": gap}
              for p, t, gap in zip(ps, nb, gaps)]
    return part_specs, params, hyp_ok, note


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


@_check("mond_pecaric",
        "two-sided derivative bounds for vector expectations of f(A) against f(<Bx,x>)",
        (0.5, 2.0, -1.0))
def check_mond_pecaric(insts, sp, tol_rel):
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
    a, b = _pair(insts)
    ps = _exponents(insts, "mond_pecaric", "(-inf, inf)")
    lam_b = sp.eigvals(b)
    if min(lam_b[:, 0].tolist()) <= 0.0:
        raise NotPositiveDefinite("mond_pecaric needs positive definite B")
    dec_a = sp.decompose(a)
    lam_a = dec_a.eigenvalues
    n = a.shape[-1]
    xs = [_resolve_unit_vector(inst, n) for inst in insts]
    windows = [_resolve_outer_window(min(b_lo, a_lo), max(a_hi, b_hi), inst.m, inst.M)
               for inst, (a_lo, a_hi), (b_lo, b_hi)
               in zip(insts, linalg._edges(lam_a), linalg._edges(lam_b))]
    order = sp.compare(b, a, tol_rel)
    hyp_ok = [o.is_le for o in order]
    note = ["" if o.is_le else f"B is not below A (min eig of A - B is {o.gap_min_eig:.6g})"
            for o in order]
    qb = []
    for i, x in enumerate(xs):
        qb.append(float(x @ b[i] @ x))
        weights = (dec_a.eigenvectors[i].T @ x) ** 2
        support = lam_a[i][weights > 1e-12]
        lam_floor = float(support[0]) if support.size else float(lam_a[i, 0])
        gate_tol = tol_rel * max(1.0, float(abs(lam_a[i, 0])), float(abs(lam_a[i, -1])))
        if hyp_ok[i] and qb[i] > lam_floor + gate_tol:
            hyp_ok[i] = False
            note[i] = (f"<Bx, x> = {qb[i]:.6g} exceeds the smallest eigenvalue of A "
                       f"carrying weight in x ({lam_floor:.6g}); the scalar "
                       f"substitution is not valid there")

    def sides():
        fns = []
        for inst, p, lo in zip(insts, ps, lam_a[:, 0].tolist()):
            if inst.f == "power":
                fns.append((lambda t, p=p: np.power(t, p),
                            lambda t, p=p: p * np.power(t, p - 1.0)))
            else:
                fns.append(_SCALAR_FUNCTIONS[inst.f])
            if lo <= 0.0 and inst.f != "power":
                raise NotPositiveDefinite("mond_pecaric needs positive definite A")
            if lo <= 0.0 and inst.f == "power" and (p < 0.0 or p != round(p)):
                raise NotPositiveDefinite("mond_pecaric needs positive definite A")
        bounds = [(float(min(dfn(m), dfn(M))), float(max(dfn(m), dfn(M))))
                  for (_, dfn), (m, M) in zip(fns, windows)]
        fa = dec_a.apply(lambda lam: [fn(row) for (fn, _), row in zip(fns, lam)])
        lower, mid, upper = [], [], []
        for i, (x, (fn, _), (alpha, beta)) in enumerate(zip(xs, fns, bounds)):
            middle = float(x @ fa[i] @ x) - float(fn(qb[i]))
            diff = float(x @ (a[i] - b[i]) @ x)
            lower.append(alpha * diff)
            mid.append(middle)
            upper.append(beta * diff)
        rows = list(range(len(ps)))
        return [("derivative_lower", lower, mid, rows),
                ("derivative_upper", mid, upper, rows)]
    part_specs, note = _guarded(sides, hyp_ok, note)
    params = [{"p": p, "m": m, "M": M, "map": None, "f": inst.f}
              for inst, p, (m, M) in zip(insts, ps, windows)]
    return part_specs, params, hyp_ok, note


@_check("holder_mccarthy",
        "power expectation inequality and its two-sided reverse on a window",
        (0.5, 2.0, -1.0), needs_b=False)
def check_holder_mccarthy(insts, sp, tol_rel):
    """Power expectation inequality and its two-sided reverse.

    For positive definite A and a unit vector x, <A^p x, x> <= <Ax, x>^p
    when 0 < p < 1 and the comparison reverses for p > 1 or p < 0.  On a
    window 0 < m <= A <= M the gap is squeezed between multiples of
    <Ax, x> - <A^p x, x>^{1/p}:

        0 < p < 1:  (p / M^{1-p}) D <= <Ax,x>^p - <A^p x,x> <= (p / m^{1-p}) D
        p > 1, p < 0: the same with the roles of the differences swapped,
        the lower coefficient using m for p > 1 and M for p < 0.
    """
    a = _symmetric(insts)
    ps = _exponents(insts, "holder_mccarthy", "(-inf, inf)", zero=True)
    lam = sp.eigvals(a)
    if min(lam[:, 0].tolist()) <= 0.0:
        raise NotPositiveDefinite("holder_mccarthy needs a positive definite matrix")
    n = a.shape[-1]
    xs = [_resolve_unit_vector(inst, n) for inst in insts]
    windows = [_resolve_outer_window(lo, hi, inst.m, inst.M)
               for inst, (lo, hi) in zip(insts, linalg._edges(lam))]
    a_pow = sp.power(a, ps)
    sides = []
    for i, (x, p, (m, M)) in enumerate(zip(xs, ps, windows)):
        q1 = float(x @ a[i] @ x)
        qp = float(x @ a_pow[i] @ x)
        if 0.0 < p < 1.0:
            below, above, dd = qp, q1 ** p, q1 - qp ** (1.0 / p)
        else:
            below, above, dd = q1 ** p, qp, qp ** (1.0 / p) - q1
        mid = above - below
        lo_end, hi_end = (m, M) if p >= 1.0 else (M, m)
        sides.append((below, above, (p / lo_end ** (1.0 - p)) * dd, mid,
                      (p / hi_end ** (1.0 - p)) * dd))
    below, above, lower, mid, upper = (list(col) for col in zip(*sides))
    rows = list(range(len(ps)))
    part_specs = [("expectation_power", below, above, rows),
                  ("reverse_lower", lower, mid, rows),
                  ("reverse_upper", mid, upper, rows)]
    params = [{"p": p, "m": m, "M": M, "map": None} for p, (m, M) in zip(ps, windows)]
    return part_specs, params


# ----------------------------------------------------------------------
# norm and radius chains
# ----------------------------------------------------------------------

def _refined_chain(part_specs, names, rows, lo, mid, hi, ps):
    """Append the parts refining lo <= mid <= hi (labelled by names) for
    the instances of rows, with the shifts r1 = (mid^p - lo^p)/d and
    r2 = (hi^p - mid^p)/d, d = p hi^{p-1}; see check_norm_chain.
    """
    n_lo, n_mid, n_hi = names
    for i, lo, mid, hi, p in zip(rows, lo, mid, hi, ps):
        d = p * hi ** (p - 1.0)
        r1 = (mid ** p - lo ** p) / d
        r2 = (hi ** p - mid ** p) / d
        chain = []
        if p >= 1.0:
            chain += [
                (f"{n_lo}_shift_nonnegative", lo, lo + r1),
                (f"{n_lo}_shift_below_{n_mid}", lo + r1, mid),
                (f"{n_mid}_shift_nonnegative", mid, mid + r2),
                (f"{n_mid}_shift_below_{n_hi}", mid + r2, hi),
            ]
        if 0.0 < p <= 1.0:
            chain += [
                (f"{n_hi}_shift_below_{n_mid}", hi - r2, mid),
                (f"{n_mid}_below_{n_lo}_shift", mid, lo + r1),
            ]
        if p < 0.0:
            chain += [
                ("ratio1_nonnegative", 0.0, r1),
                ("ratio2_nonnegative", 0.0, r2),
                (f"{n_mid}_below_{n_lo}_shift", mid, lo + r1),
                (f"{n_hi}_below_{n_mid}_shift", hi, mid + r2),
            ]
        part_specs += [(name, [x], [y], (i,)) for name, x, y in chain]


@_check("norm_chain", "refined links between operator, Frobenius and trace norms",
        (-1.0, 0.5, 3.0), needs_b=False)
def check_norm_chain(insts, sp, tol_rel):
    """Refined links between operator, Frobenius and trace norms.

    Write (op, hs, tr) for the three norms and d = p tr^{p-1}.  For p >= 1
    the shifts r1 = (hs^p - op^p)/d and r2 = (tr^p - hs^p)/d refine the
    chain op <= hs <= tr into op <= op + r1 <= hs <= hs + r2 <= tr.  For
    0 < p <= 1 the analogous shifts squeeze hs between tr + (hs^p - tr^p)/d
    and op + (hs^p - op^p)/d.  For p < 0 the shifted quantities overshoot
    instead: both ratios stay nonnegative and bound hs - op and tr - hs
    from above, so the chain runs hs <= op + r1 and tr <= hs + r2.
    """
    a = _stack([inst.A for inst in insts])
    ps = _exponents(insts, "norm_chain", "(-inf, inf)", zero=True)
    op, hs, tr = (v.tolist() for v in sp.norms(a))
    if 0.0 in tr:
        raise ZeroMatrix("A is zero; the norm chain needs a positive trace norm")
    part_specs = []
    _refined_chain(part_specs, ("op", "hs", "tr"), list(range(len(ps))), op, hs, tr, ps)
    params = [{"p": p, "m": None, "M": None, "map": None,
               "norm_op": x, "norm_hs": y, "norm_tr": z}
              for p, x, y, z in zip(ps, op, hs, tr)]
    return part_specs, params


@_check("radius_chain", "refined links between spectral radius, numerical radius and norm",
        (0.5, 2.0, -1.0), needs_b=False)
def check_radius_chain(insts, sp, tol_rel):
    """Refined links between spectral radius, numerical radius and norm.

    Same structure as the norm chain with (r, w, op) in place of
    (op, hs, tr) and divisor p op^{p-1}.  Negative exponents additionally
    need a positive spectral radius; a vanishing one (nilpotent A) makes
    r^p undefined and is reported as a violated hypothesis.
    """
    a = _stack([inst.A for inst in insts])
    ps = _exponents(insts, "radius_chain", "(-inf, inf)", zero=True)
    op = sp.norm_op(a).tolist()
    if 0.0 in op:
        raise ZeroMatrix("A is zero; the radius chain needs a positive norm")
    sr = [linalg.spectral_radius(m) for m in a]
    w = [linalg.numerical_radius(m) for m in a]
    hyp_ok = [not (p < 0.0 and r <= 1e-12 * t) for p, r, t in zip(ps, sr, op)]
    note = ["" if ok else "spectral radius vanishes; negative powers of it are undefined"
            for ok in hyp_ok]
    rows = [i for i, ok in enumerate(hyp_ok) if ok]
    part_specs = []
    if rows:
        _refined_chain(part_specs, ("radius", "w", "op"), rows, [sr[i] for i in rows],
                       [w[i] for i in rows], [op[i] for i in rows], [ps[i] for i in rows])
    params = [{"p": p, "m": None, "M": None, "map": None,
               "spectral_radius": r, "numerical_radius": x, "norm_op": t}
              for p, r, x, t in zip(ps, sr, w, op)]
    return part_specs, params, hyp_ok, note


@_check("power_norm", "norm comparison between A^p B^p and (AB)^p for positive matrices",
        (0.5, 2.0))
def check_power_norm(insts, sp, tol_rel):
    """Norm comparison between A^p B^p and (AB)^p for positive matrices.

    For positive semidefinite A, B the norm ||A^p B^p|| is at most
    ||AB||^p when p is in [0, 1] and at least ||AB||^p when p >= 1; both
    hold with equality at the boundary exponents.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "power_norm", "[0, inf)")
    lam_a, lam_b = _eigvals(sp, a, b)
    _require_psd(lam_a, "A")
    _require_psd(lam_b, "B")
    nab = sp.norm_op(a @ b).tolist()
    napb = sp.norm_op(np.matmul(*_powers(sp, ps, a, b))).tolist()
    nab_p = [t ** p for t, p in zip(nab, ps)]
    rows = list(range(len(ps)))
    part_specs = []
    _branch(part_specs, "power_norm_upper", napb, nab_p, rows, [p <= 1.0 for p in ps])
    _branch(part_specs, "power_norm_lower", nab_p, napb, rows, [p >= 1.0 for p in ps])
    params = [{"p": p, "m": None, "M": None, "map": None, "norm_AB": x, "norm_ApBp": y}
              for p, x, y in zip(ps, nab, napb)]
    return part_specs, params


@_check("norm_refinement",
        "two-sided refinement of the power-norm comparison on a product window",
        (0.5, 2.0))
def check_norm_refinement(insts, sp, tol_rel):
    """Two-sided refinement of the power-norm comparison on a window.

    With 0 < m <= A, B <= M both ||AB|| and ||A^p B^p||^{1/p} lie in
    [m^2, M^2], so the scalar two-sided power bounds apply on that
    product window:

        0 < p <= 1:  (p / (M^2)^{1-p}) D <= ||AB||^p - ||A^p B^p|| <= (p / (m^2)^{1-p}) D
                     with D = ||AB|| - ||A^p B^p||^{1/p};
        p >= 1:      (p / (m^2)^{1-p}) D <= ||A^p B^p|| - ||AB||^p <= (p / (M^2)^{1-p}) D
                     with D = ||A^p B^p||^{1/p} - ||AB||.
    """
    a, b = _pair(insts)
    ps = _exponents(insts, "norm_refinement", "(0, inf)")
    lam_a, lam_b = _eigvals(sp, a, b)
    windows = []
    for inst, (a_lo, a_hi), (b_lo, b_hi) in zip(insts, linalg._edges(lam_a),
                                               linalg._edges(lam_b)):
        if min(a_lo, b_lo) <= 0.0:
            raise NotPositiveDefinite("norm_refinement needs positive definite matrices")
        windows.append(_resolve_outer_window(min(a_lo, b_lo), max(a_hi, b_hi),
                                             inst.m, inst.M))
    nab = sp.norm_op(a @ b).tolist()
    napb = sp.norm_op(np.matmul(*_powers(sp, ps, a, b))).tolist()
    below, above = [], []    # (lower, mid, upper) of the p <= 1 and p >= 1 branches
    for p, (m, M), x, y in zip(ps, windows, nab, napb):
        m2, M2 = m * m, M * M
        sides = [(0.0, 0.0, 0.0)] * 2
        if p <= 1.0:
            dd = x - y ** (1.0 / p)
            sides[0] = ((p / M2 ** (1.0 - p)) * dd, x ** p - y, (p / m2 ** (1.0 - p)) * dd)
        if p >= 1.0:
            dd = y ** (1.0 / p) - x
            sides[1] = ((p / m2 ** (1.0 - p)) * dd, y - x ** p, (p / M2 ** (1.0 - p)) * dd)
        below.append(sides[0])
        above.append(sides[1])
    rows = list(range(len(ps)))
    part_specs = []
    for branch, keep in ((below, [p <= 1.0 for p in ps]), (above, [p >= 1.0 for p in ps])):
        lower, mid, upper = (list(col) for col in zip(*branch))
        _branch(part_specs, "refine_lower", lower, mid, rows, keep)
        _branch(part_specs, "refine_upper", mid, upper, rows, keep)
    params = [{"p": p, "m": m, "M": M, "map": None, "norm_AB": x, "norm_ApBp": y}
              for p, (m, M), x, y in zip(ps, windows, nab, napb)]
    return part_specs, params


@_check("power_corollary", "windowed bounds between Phi(A)^p and Phi(A^p)",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), needs_b=False)
def check_power_corollary(insts, sp, tol_rel):
    """Power-function corollary of the windowed entropy bounds.

    Specialize the two-matrix statements to the pair (I, A): for
    m <= 1 <= A <= M the image power Phi(A)^p is bounded by
    Phi(A^p) + p (m^{p-1} - M^{p-1}) (Phi(A) - I) for p in [0, 1], with
    the inequality reversed for p in [-1, 0], and for p in [1, 2] the
    correction p (M^{p-1} - m^{p-1}) (Phi(A) - I) bounds Phi(A^p) from
    the Phi(A)^p side.
    """
    a = _symmetric(insts)
    ps = _exponents(insts, "power_corollary", "[-1, 2]")
    phis = [_resolve_map(inst, a.shape[-1]) for inst in insts]
    lam = sp.eigvals(a)
    if min(lam[:, 0].tolist()) <= 0.0:
        raise NotPositiveDefinite("power_corollary needs a positive definite matrix")
    ms, Ms, hyp_ok, note = _unit_windows(insts, lam)
    params = [{"p": p, "m": m, "M": M, "map": phi.to_json_dict(), "additive_term_norm": None}
              for p, m, M, phi in zip(ps, ms, Ms, phis)]
    part_specs = []
    for rows, (pa, phi_pow) in _images(phis, a, sp.power(a, ps)):
        q = [ps[i] for i in rows]
        norms = _converse_parts(sp, part_specs, "image_power", rows, q,
                                [ms[i] for i in rows], [Ms[i] for i in rows],
                                phi_pow, sp.power(pa, q), pa - np.eye(pa.shape[-1]))
        for i, value in zip(rows, norms):
            params[i]["additive_term_norm"] = value
    return part_specs, params, hyp_ok, note


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
