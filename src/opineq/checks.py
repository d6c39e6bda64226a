"""Executable inequality checks.

Every check takes an :class:`InstanceSpec`, verifies the hypotheses of the
inequality it encodes, evaluates both sides, and returns a
:class:`CheckReport` with a Loewner (or scalar) verdict.  A check never
raises because an inequality fails; it raises only when the input is
malformed (wrong shapes, exponents outside the supported range, matrices
that are not positive where positivity is required).

A check has one entry and one exit, both in _check.  Each check declares
there its operands (_pair, _symmetric or _square), its exponent domain,
whether p = 0 is excluded, whether it takes a map and the sign of each
operand its theorem needs; the entry validates them, so a bad input
raises for the first of: a missing B, a nonsymmetric A, a nonsymmetric
B, p outside the domain, p = 0, the map, A's sign, B's sign, and then
what the body computes (windows, traces).  The body gets the stacked
operands, the exponents, the maps, each report's base params and the
spectra of the operands with a declared sign, and returns its parts; a
check with hypotheses returns them as a function with one note per
instance ("" when its hypotheses hold), and the entry runs the function
under the one guard for sides that a violated hypothesis leaves
undefined.  _finish builds the reports with the one linalg.Spectra the
body ran on.

A rule that several checks share has one helper: _windowed is the
paper's windowed correction (m^{p-1} - M^{p-1}) Phi(B - A),
_unit_windows and _outer_windows the spectral windows (means._unit_window
decides the unit window), _order an order hypothesis X <= Y as its notes.

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

from . import constants, inputs, linalg, maps, means
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
from .linalg import HYP_TOL, _P_EPS   # named in linalg's policy; HYP_TOL is re-exported

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
    # and each check_* runner, appended from REGISTRY after the last check
]

HOLDS = "HOLDS"
FAILS = "FAILS"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"

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
        """The report as JSON values.  _finish made each one exact (Python
        floats and bools, 2-d float64 sides); params is copied one level deep."""
        return {
            "check_id": self.check_id,
            "hypotheses_ok": self.hypotheses_ok,
            "hypothesis_note": self.hypothesis_note,
            "lhs": _matrix_to_json(self.lhs),
            "rhs": _matrix_to_json(self.rhs),
            "gap_min_eig": self.gap_min_eig,
            "verdict": self.verdict,
            "tol_used": self.tol_used,
            # a params bool is written as 1/0 until ROADMAP item 8's re-record
            "params": {k: int(v) if type(v) is bool else v for k, v in self.params.items()},
            "parts": [{"name": part.name, "gap_min_eig": part.gap_min_eig}
                      for part in self.parts],
        }


def _matrix_to_json(m):
    return None if m is None else m.tolist()


def _concat(stacks) -> np.ndarray:
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


def _split(values: list, stacks) -> list:
    """values, one per matrix of _concat(stacks), cut back into one list per stack."""
    out, start = [], 0
    for x in stacks:
        out.append(values[start:start + len(x)])
        start += len(x)
    return out


def _finish(check_id, spectra, tol_rel, part_specs, params, note=None):
    """Assemble a group's CheckReports from (name, lhs, rhs, rows) parts.

    _check's group calls it with the check body's parts.  params and
    note hold one entry per instance of the group; an instance's
    hypotheses hold when its note is "" (note None: they all hold).  A
    part's lhs and rhs hold one side per instance in rows, its list of
    instance indices: stacks of matrices, or lists of floats for scalar
    parts, which are reported as 1x1 matrices; a stack of 1x1 matrices
    is read as scalars.
    Each instance's parts keep the order of part_specs.  An instance's
    tolerance is linalg._unit_scaled(tol_rel, norms of the sides of all its
    parts), so no part is judged with a tighter yardstick than another.
    The gaps and side norms of every matrix part of one shape come from
    one stacked eigensolve on spectra, the Spectra the body ran on: the
    differences rhs - lhs, then the Gram matrices (linalg._gram) of each
    distinct side stack, entering once however many parts share it.

    It guards the verdicts against sides that left the float range: a
    part whose gap is not finite raises NotFinite, since a Python float
    product or quotient overflows to inf without raising.
    """
    size = len(params)
    note = [""] * size if note is None else note
    part_specs = [(name, lhs[:, 0, 0].tolist(), rhs[:, 0, 0].tolist(), rows)
                  if not isinstance(lhs, list) and lhs.shape[-2:] == (1, 1)
                  else (name, lhs, rhs, rows) for name, lhs, rhs, rows in part_specs]
    gaps, norms = {}, {}
    by_shape: dict[tuple, list] = {}
    for _, lhs, rhs, _ in part_specs:
        if not isinstance(lhs, list):
            by_shape.setdefault(lhs.shape[-2:], []).append((lhs, rhs))
    for specs in by_shape.values():
        diffs = [rhs - lhs for lhs, rhs in specs]
        sides = list({id(x): x for spec in specs for x in spec}.values())
        grams, e = linalg._gram(_concat(sides))
        lam = spectra.eigvals(np.concatenate((*diffs, grams)))
        k = len(lam) - len(grams)
        for (lhs, rhs), g in zip(specs, _split(lam[:k, 0].tolist(), diffs)):
            gaps[id(lhs), id(rhs)] = g
        for x, values in zip(sides, _split(linalg._top_norm(lam[k:], e).tolist(), sides)):
            norms[id(x)] = values
    parts = [[] for _ in range(size)]
    mags = [[] for _ in range(size)]
    for name, lhs, rhs, rows in part_specs:
        if isinstance(lhs, list):   # scalar sides: no eigensolve
            for i, x, y in zip(rows, lhs, rhs):
                gap = y - x
                if not math.isfinite(gap):
                    raise NotFinite(f"{check_id}: the sides of {name} leave the float range")
                mags[i] += abs(x), abs(y)
                parts[i].append(CheckPart(name, np.array([[x]]), np.array([[y]]), gap))
            continue
        for j, (i, gap, sl, sr) in enumerate(zip(rows, gaps[id(lhs), id(rhs)],
                                                 norms[id(lhs)], norms[id(rhs)])):
            mags[i] += sl, sr
            parts[i].append(CheckPart(name, lhs[j], rhs[j], gap))
    reports = []
    for i in range(size):
        tol_used = linalg._unit_scaled(tol_rel, *mags[i])
        if parts[i]:
            worst = min(parts[i], key=lambda part: part.gap_min_eig)
            gap_min_eig, lhs, rhs = worst.gap_min_eig, worst.lhs, worst.rhs
        else:
            gap_min_eig, lhs, rhs = None, None, None
        if note[i]:
            verdict = HYPOTHESIS_VIOLATED
        elif gap_min_eig is not None and gap_min_eig >= -tol_used:
            verdict = HOLDS
        else:
            verdict = FAILS
        reports.append(CheckReport(
            check_id=check_id,
            hypotheses_ok=not note[i],
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

# InstanceSpec.f: kind -> p -> (f, f'), each f' monotone on (0, inf), so its inf/sup
# over [m, M] sit at the endpoints (mond_pecaric); the fuzz sampler draws a kind by index
_FUNCTIONS: dict[str, Callable[[float], tuple[Callable, Callable]]] = {
    "power": lambda p: (lambda t: np.power(t, p), lambda t: p * np.power(t, p - 1.0)),
    "exp": lambda p: (np.exp, np.exp),
    "log": lambda p: (np.log, lambda t: 1.0 / t),
}
_F_KINDS = tuple(_FUNCTIONS)


@dataclasses.dataclass(frozen=True)
class InstanceSpec:
    """One problem instance: the matrices, the exponent and the options.

    ``B`` is optional because several checks are single-matrix statements.
    ``m``/``M`` are optional outer bounds for the relevant spectral window;
    when absent each check derives sharp bounds from the spectrum itself.
    ``x`` is the unit vector of length n used by the vector-expectation
    checks and ``f`` selects the scalar function for the derivative-bound
    check (``power`` uses ``p`` as the exponent).  Each value is read
    here, once, through inputs, so the checks convert nothing; a str,
    bool or complex value or entry raises SchemaError naming its field.
    fuzz._planned alone skips it (_trusted), as its values were read
    upstream or built valid; the check entry and Spectra still check them.
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
        # each value is type-checked, converted and validated here, once
        a = linalg.as_square(self.A, "A")
        object.__setattr__(self, "A", a)
        if self.B is not None:
            b = linalg.as_square(self.B, "B")
            if b.shape != a.shape:
                raise DimensionMismatch(
                    f"A is {a.shape[0]}x{a.shape[0]} but B is {b.shape[0]}x{b.shape[0]}"
                )
            object.__setattr__(self, "B", b)
        for label in ("p", "m", "M"):
            value = getattr(self, label)
            if value is not None or label == "p":
                object.__setattr__(self, label, inputs.finite(label, value))
        if self.m is not None and self.M is not None and self.m > self.M:
            raise InvalidSpec(f"m={self.m} exceeds M={self.M}")
        if self.x is not None:
            x = inputs.floats("x", self.x)
            if x.shape != (a.shape[0],):
                raise DimensionMismatch(
                    f"x must be a vector of length {a.shape[0]}, got shape {x.shape}")
            if not np.all(np.isfinite(x)):
                raise InvalidSpec("x must be finite")
            object.__setattr__(self, "x", x)
        if not isinstance(self.f, str):
            raise SchemaError(f"f must be a string, got {self.f!r}")
        if self.f not in _F_KINDS:
            raise InvalidSpec(f"unknown function kind {self.f!r}; expected one of {_F_KINDS}")

    @classmethod
    def _trusted(cls, **fields) -> "InstanceSpec":
        """These fields, the defaults for absent ones, and no check (see fuzz._planned)."""
        inst = object.__new__(cls)   # a field's class attribute is its default
        inst.__dict__.update({key: getattr(cls, key, None) for key in _INSTANCE_KEYS}, **fields)
        return inst

    @classmethod
    def from_json_dict(cls, data) -> "InstanceSpec":
        """Build the instance, its map included, from a JSON object."""
        if not isinstance(data, dict):
            raise SchemaError("instance must be a JSON object")
        unknown = sorted(set(data) - set(_INSTANCE_KEYS))
        if unknown:
            raise SchemaError(f"unknown instance keys: {', '.join(unknown)}")
        for key in _REQUIRED_KEYS:
            if key not in data:
                raise SchemaError(f"instance is missing the required key {key!r}")
        map_spec = data.get("map")
        if map_spec is not None:
            map_spec = maps.MapSpec.from_json_dict(map_spec)
        return cls(**{**data, "map": map_spec})

    def to_json_dict(self) -> dict:
        """The instance as JSON values: each field that is set, and f when it
        is not "power".  __post_init__ already made each value exact, so an
        array is written with one tolist()."""
        out = {key: getattr(self, key) for key in _INSTANCE_KEYS}
        if out["f"] == "power":
            del out["f"]
        return {key: value.to_json_dict() if key == "map" else maps._plain(value)
                for key, value in out.items() if value is not None}


_INSTANCE_KEYS = tuple(field.name for field in dataclasses.fields(InstanceSpec))
_REQUIRED_KEYS = ("A", "p")   # of an instance file; the other keys are optional


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheckInfo:
    """Registry entry: how to run a check and what it needs.

    group(insts, tol_rel, spectra=None) checks instances of one dimension
    and returns their reports in order.  It runs on spectra, a
    linalg.Spectra that the caller may share with other work on the same
    stacks (fuzz.run_fuzz: a chunk's sampler and its groups), or on a
    fresh one when spectra is None.  runner(inst, tol_rel=...) is its
    group of one, on a fresh Spectra.
    """

    check_id: str
    runner: Callable[..., CheckReport]
    group: Callable[..., list]
    description: str
    default_p: tuple[float, ...]


REGISTRY: dict[str, CheckInfo] = {}


def _check(check_id: str, description: str, default_p, domain: str, operands,
           nonzero: bool = False, mapped: bool = False, signs=None):
    """Register the decorated body as a check: its one entry.

    The check's group raises for the first of: what operands (_pair,
    _symmetric or _square) rejects, a missing B, a nonsymmetric A and a
    nonsymmetric B in that order; a p outside domain, an interval such as
    "(0, 1]" whose closed ends admit _P_EPS of slack ("(-inf, inf)"
    admits every p); a p of 0 when nonzero is set; when mapped, a map
    whose input dimension is not the operands' (an instance without a
    map gets the normalized trace); and an operand whose sign is not the
    one signs declares for it, A's before B's.  signs maps "A" or "B" to
    "psd" (semidefinite up to the floor of linalg._require_floor), "pd"
    (lambda_min > 0 exactly) or None (no sign); the spectra of the
    operands it names, in that order, come from one stacked eigensolve.
    It then builds each report's base params {"p", "m": None, "M": None,
    "map"} and calls body(insts, sp, tol_rel, a, b, ps, phis, params,
    lams) with the group's linalg.Spectra sp (CheckInfo.group) and lams
    those spectra; b is None for one operand and phis None unless mapped.
    The body adds its own params and returns its part specs, which the
    group hands to _finish.

    A check with hypotheses returns (sides, note) instead: one note per
    instance of the group, "" where its hypotheses hold, and a function
    that builds the part specs.  The group guards the sides that a
    violated hypothesis may leave undefined: in a group of one, an
    OpineqError or ArithmeticError (a value leaving the float range) from
    sides() propagates under valid hypotheses and otherwise leaves the
    sides unevaluated, said in the note; a larger group raises it.

    The group is every check's one exit for values that leave the float
    range.  It runs all of this with numpy overflow raising, and turns any
    ArithmeticError (a numpy FloatingPointError, or a Python OverflowError
    or ZeroDivisionError) into NotFinite.  numpy's invalid and divide stay
    at their defaults, so a NaN born inside a body still warns.  The
    decorated name becomes the runner, the group of one, which validates
    tol_rel (inputs.tolerance) where the group trusts it."""
    signs = signs or {}
    lo, hi = (float(end) for end in domain[1:-1].split(", "))
    lo = lo - _P_EPS if domain[0] == "[" else math.nextafter(lo, math.inf)
    hi = hi + _P_EPS if domain[-1] == "]" else math.nextafter(hi, -math.inf)

    def register(body):
        def group(insts, tol_rel, spectra=None):
            sp = linalg.Spectra() if spectra is None else spectra
            try:
                with np.errstate(over="raise"):
                    a, b = operands(insts)
                    ps = [inst.p for inst in insts]
                    for p in ps:
                        if not lo <= p <= hi:
                            raise DomainError(f"{check_id} requires p in {domain}, got p={p}")
                        if nonzero and p == 0.0:
                            raise ZeroParameter(f"{check_id} is undefined at p=0")
                    phis = None
                    if mapped:
                        n = a.shape[-1]
                        phis = [maps.MapSpec.normalized_trace(n) if inst.map is None
                                else inst.map for inst in insts]
                        for phi in phis:
                            if phi.in_dim != n:
                                raise DimensionMismatch(f"map expects input dimension "
                                                        f"{phi.in_dim}, matrices are {n}x{n}")
                    labels = [x for x in "AB" if x in signs]
                    lams = _eigvals(sp, *(b if x == "B" else a for x in labels)) if labels else []
                    for x, lam in zip(labels, lams):
                        least = min(lam[:, 0].tolist())
                        if signs[x] == "pd" and least <= 0.0:
                            raise NotPositiveDefinite(f"{x} must be positive definite; "
                                                      f"smallest eigenvalue is {least:.6g}")
                        if signs[x] == "psd":
                            linalg._require_floor(lam, False, f"{x} must be positive semidefinite;"
                                                  " smallest eigenvalue is {lo:.6g}")
                    params = [{"p": p, "m": None, "M": None,
                               "map": None if phis is None else phis[i].to_json_dict()}
                              for i, p in enumerate(ps)]
                    out = body(insts, sp, tol_rel, a, b, ps, phis, params, lams)
                    note = None
                    if isinstance(out, tuple):
                        sides, note = out
                        try:
                            out = sides()
                        except (OpineqError, ArithmeticError):
                            if len(insts) > 1 or not note[0]:
                                raise
                            out, note = [], [note[0] + "; sides not evaluated"]
                    return _finish(check_id, sp, tol_rel, out, params, note)
            except ArithmeticError as exc:
                raise NotFinite(f"{check_id}: a value leaves the float range ({exc})") from exc

        def runner(inst: InstanceSpec, *, tol_rel=linalg.DEFAULT_TOL_REL) -> CheckReport:
            return group([inst], inputs.tolerance(tol_rel))[0]
        runner.__name__ = runner.__qualname__ = body.__name__
        runner.__doc__ = body.__doc__
        REGISTRY[check_id] = CheckInfo(check_id, runner, group, description,
                                       tuple(default_p))
        return runner
    return register


# ----------------------------------------------------------------------
# shared resolution helpers
# ----------------------------------------------------------------------

def _stack(mats) -> np.ndarray:
    """The group's matrices as one (g, n, n) stack; a group of one is a view.
    Matrices of different shapes raise ValueError."""
    return mats[0][None] if len(mats) == 1 else np.array(mats)


def _col(values) -> np.ndarray:
    """One scalar per instance, shaped to scale a (g, n, n) stack."""
    return np.array(values).reshape(-1, 1, 1)


def _square(insts) -> tuple[np.ndarray, None]:
    """The group's A as one stack, and no B."""
    return _stack([inst.A for inst in insts]), None


def _symmetric(insts) -> tuple[np.ndarray, None]:
    """_square, once every A is symmetric; NotSymmetric otherwise."""
    return linalg._require_symmetric(_square(insts)[0], "A"), None


def _pair(insts) -> tuple[np.ndarray, np.ndarray]:
    """The group's A and B as stacks.  Raises, in this order, when an
    instance has no B, when an A is not symmetric and when a B is not."""
    if any(inst.B is None for inst in insts):
        raise InvalidSpec("this check needs a second matrix B")
    return (_symmetric(insts)[0],
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


def _outer_windows(insts, params, *lams) -> list:
    """Each instance's outer bounds (m, M), also stored in its params, for
    the union of its spectra in lams (ascending stacks), with no unit
    pinning: the union's own edges (lo, hi), or the user's bounds once they
    enclose it within linalg._BOUND_RTOL * max(|lo|, |hi|)."""
    los = np.min([lam[:, 0] for lam in lams], axis=0).tolist()
    his = np.max([lam[:, -1] for lam in lams], axis=0).tolist()
    for inst, lo, hi, par in zip(insts, los, his, params):
        slack = linalg._BOUND_RTOL * max(abs(lo), abs(hi))
        if inst.m is not None:
            if inst.m <= 0.0:
                raise InvalidSpec("lower bound m must be positive")
            if inst.m > lo + slack:
                raise InvalidSpec(
                    f"m={inst.m:.6g} is not a lower bound: smallest eigenvalue is {lo:.6g}")
        if inst.M is not None and inst.M < hi - slack:
            raise InvalidSpec(
                f"M={inst.M:.6g} is not an upper bound: largest eigenvalue is {hi:.6g}")
        par["m"] = lo if inst.m is None else inst.m
        par["M"] = hi if inst.M is None else inst.M
    return [(par["m"], par["M"]) for par in params]


def _unit_windows(insts, lam, params, **extra) -> list:
    """The notes, one per instance of the group, for the unit window
    (means._unit_window) of lam, ascending spectra; stores each instance's
    bounds (m, M), and the keys of extra, in its params.  User bounds must
    enclose the spectrum (_outer_windows)."""
    _outer_windows(insts, params, lam)
    note = []
    for inst, (lo, hi), par in zip(insts, linalg._edges(lam), params):
        par["m"], par["M"], text = means._unit_window(lo, hi, inst.m, inst.M)
        par.update(extra)
        note.append(text)
    return note


def _eigvals(sp, *mats) -> list:
    """The spectra of several stacks of one shape, from one stacked eigensolve."""
    return _split(sp.eigvals(_concat(mats)), mats)


def _norms(sp, *mats) -> list:
    """The operator norms of several stacks of one shape, as lists, from one
    stacked eigensolve."""
    return _split(sp.norm_op(_concat(mats)).tolist(), mats)


def _powers(sp, ps, *mats) -> list:
    """Each stack raised to the group's exponents, from one stacked eigensolve."""
    return _split(sp.power(_concat(mats), ps * len(mats)), mats)


def _norm(lam) -> list:
    """max |lambda| per instance, from ascending spectra."""
    return [max(abs(lo), abs(hi)) for lo, hi in linalg._edges(lam)]


def _order(sp, lo, hi, tol_rel, names) -> list:
    """The notes, one per instance of the group, for the hypothesis lo <= hi
    in the Loewner order (linalg._is_le); names = (name of lo, name of hi)
    for the note.  The norms of lo and hi set only the tolerance of a
    negative gap, so they are taken for those instances alone."""
    gaps = sp.eigvals(linalg._require_symmetric(hi - lo))[:, 0].tolist()
    notes = [""] * len(gaps)
    neg = [i for i, gap in enumerate(gaps) if gap < 0.0]
    if neg:
        for i, x, y in zip(neg, *sp.norm_op(np.array((lo[neg], hi[neg]))).tolist()):
            if not linalg._is_le(gaps[i], tol_rel, x, y):
                notes[i] = (f"{names[0]} is not below {names[1]} "
                            f"(min eig of {names[1]} - {names[0]} is {gaps[i]:.6g})")
    return notes


def _norm_dominance(sp, lams, b, tol_rel):
    """(||A||, ||B||, note), lists over the group, for ||A|| I <= B, from
    lams, the spectra of A and B."""
    na, nb = (_norm(lam) for lam in lams)
    return na, nb, _order(sp, _col(na) * np.eye(b.shape[-1]), b, tol_rel, ("||A|| I", "B"))


def _windowed(sp, params, rows, diff, key, factor):
    """(term, term_rev) for the instances of rows, from their params' p, m
    and M: term = c (m^{p-1} - M^{p-1}) diff, term_rev = c (M^{p-1} -
    m^{p-1}) diff, c = p if factor else 1.  Records the norm of term,
    which term_rev shares bit for bit, as params[i][key].  A nonpositive
    m, from a singular or indefinite W, raises NotPositiveDefinite."""
    ps, ms, Ms = ([params[i][k] for i in rows] for k in ("p", "m", "M"))
    if min(ms) <= 0.0:
        raise NotPositiveDefinite(f"m={min(ms):.6g} cannot be raised to p - 1")
    powers = [(p if factor else 1.0, m ** (p - 1.0), M ** (p - 1.0))
              for p, m, M in zip(ps, ms, Ms)]
    term = _col([c * (lo - hi) for c, lo, hi in powers]) * diff
    term_rev = _col([c * (hi - lo) for c, lo, hi in powers]) * diff
    for i, value in zip(rows, sp.norm_op(term).tolist()):
        params[i][key] = value
    return term, term_rev


def _converse_parts(sp, part_specs, prefix, params, rows, inner, outer, diff):
    """Append the parts of the three-branch additive converse, with
    term = p (m^{p-1} - M^{p-1}) diff (_windowed): outer <= inner + term
    on [0, 1], the reverse on [-1, 0], and inner <= outer - term for
    p >= 1.
    """
    term, term_rev = _windowed(sp, params, rows, diff, "additive_term_norm", True)
    ps = [params[i]["p"] for i in rows]
    _branch(part_specs, f"{prefix}_upper", outer, inner + term, rows,
            [0.0 <= p <= 1.0 for p in ps])
    _branch(part_specs, f"{prefix}_lower", inner + term, outer, rows,
            [-1.0 <= p <= 0.0 for p in ps])
    _branch(part_specs, f"{prefix}_upper_reversed", inner, outer + term_rev, rows,
            [1.0 <= p for p in ps])


# ----------------------------------------------------------------------
# entropy / mean checks under positive unital maps
# ----------------------------------------------------------------------

@_check("info_monotonicity",
        "deformed relative entropy shrinks under positive unital maps "
        "(grows for exponents above one)",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), "[-1, 2]", _pair, nonzero=True, mapped=True)
def check_info_monotonicity(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Monotonicity of the deformed relative entropy under positive unital maps.

    For p in [-1, 1] (p != 0) the output-side entropy dominates the mapped
    entropy; for p in [1, 2] the comparison reverses.  No spectral window
    is needed, so the hypotheses reduce to positive definiteness and a
    valid map; at p = 1 both directions are evaluated (they coincide).
    """
    t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
    part_specs = []
    for rows, (pa, pb, mapped) in _images(phis, a, b, t_in):
        q = [ps[i] for i in rows]
        t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
        _branch(part_specs, "entropy_monotone", mapped, t_out, rows, [p <= 1.0 for p in q])
        _branch(part_specs, "entropy_reversed", t_out, mapped, rows, [p >= 1.0 for p in q])
    return part_specs


@_check("reverse_monotonicity",
        "additive reverse of the entropy monotonicity on a unit spectral window",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), "[-1, 2]", _pair, nonzero=True, mapped=True)
def check_reverse_monotonicity(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Additive reverse of the entropy monotonicity on a spectral window.

    Under m <= 1 <= A^{-1/2} B A^{-1/2} <= M the output-side entropy
    exceeds the mapped entropy by at most (m^{p-1} - M^{p-1}) Phi(B - A)
    for p in [-1, 1] (p != 0); for p in [1, 2] the roles swap and the
    coefficient becomes M^{p-1} - m^{p-1}.  User-supplied (m, M) are
    accepted as long as they enclose the inner spectrum.
    """
    note = _unit_windows(insts, means._inner_spectrum(a, b, sp), params, additive_term_norm=None)

    def sides():
        t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
        part_specs = []
        for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, t_in, b - a):
            q = [ps[i] for i in rows]
            t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
            term, term_rev = _windowed(sp, params, rows, phi_diff, "additive_term_norm", False)
            _branch(part_specs, "additive_upper", t_out, mapped + term, rows,
                    [p <= 1.0 for p in q])
            _branch(part_specs, "additive_upper_reversed", mapped, t_out + term_rev, rows,
                    [p >= 1.0 for p in q])
        return part_specs
    return sides, note


@_check("ando_converse",
        "additive converse of the weighted-mean map inequality on a unit window",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), "[-1, 2]", _pair, mapped=True)
def check_ando_converse(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Additive converse of Phi(A # B) <= Phi(A) # Phi(B) on a window.

    Three exponent branches: for p in [0, 1] the mapped mean plus
    p (m^{p-1} - M^{p-1}) Phi(B - A) dominates the mean of the images; for
    p in [-1, 0] the same right-hand side is dominated instead; for
    p in [1, 2] the correction p (M^{p-1} - m^{p-1}) Phi(B - A) moves to
    the other side.  Boundary exponents evaluate every branch they belong
    to.
    """
    note = _unit_windows(insts, means._inner_spectrum(a, b, sp), params, additive_term_norm=None)

    def sides():
        mean_in = means.weighted_mean(a, b, ps, spectra=sp).value
        part_specs = []
        for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, mean_in, b - a):
            mean_out = means.weighted_mean(pa, pb, [ps[i] for i in rows], spectra=sp).value
            _converse_parts(sp, part_specs, "mean_additive", params, rows,
                            mapped, mean_out, phi_diff)
        return part_specs
    return sides, note


@_check("density_trace",
        "unit-trace bounds for weighted means of density matrices under the "
        "unit window",
        (-0.5, 0.5, 1.5), "[-1, 2]", _pair, signs={"A": "psd", "B": "psd"})
def check_density_trace(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Unit-trace bounds for weighted means of density matrices.

    For density matrices satisfying the window hypothesis
    1 <= A^{-1/2} B A^{-1/2}, the trace of the weighted mean is at least
    one for p in [0, 1] and at most one for p in [-1, 0] or [1, 2].  The
    window forces B = A when both matrices have unit trace, so valid
    instances sit at the equality point; instances that break the window
    report HYPOTHESIS_VIOLATED rather than FAILS.  The map field is
    ignored: the statement is about the plain trace.
    """
    for mat, label in zip((a, b), "AB"):
        for trace in np.trace(mat, axis1=-2, axis2=-1).tolist():
            if abs(trace - 1.0) > linalg._TRACE_TOL:
                raise NotDensity(f"{label} has trace {trace:.12g}, expected 1")
    note = _unit_windows(insts, means._inner_spectrum(a, b, sp), params)

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
    return sides, note


@_check("furuta_bounds",
        "Kantorovich-constant and linear upper bounds for the output-side entropy",
        (0.25, 0.5, 0.75, 1.0), "(0, 1]", _pair, mapped=True, signs={"A": "pd", "B": "pd"})
def check_furuta_bounds(insts, sp, tol_rel, a, b, ps, phis, params, lams):
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
    lam_a, lam_b = lams
    for p, par, (a_lo, a_hi), (b_lo, b_hi) in zip(ps, params, linalg._edges(lam_a),
                                                   linalg._edges(lam_b)):
        fm = b_lo / a_hi
        fM = b_hi / a_lo
        h = fM / fm
        par.update(m=fm, M=fM, h=h, kantorovich_K=constants.kantorovich_K(h, min(p, 1.0)),
                   furuta_F=0.0 if p >= 1.0 - _P_EPS else constants.furuta_F(fm, h, p),
                   kantorovich_term_norm=None, linear_term_norm=None,
                   windowed_term_norm=None)
    t_in = means.tsallis_entropy(a, b, ps, spectra=sp)
    holds = [not means._unit_window(*edges, par["m"])[2]
             for edges, par in zip(linalg._edges(means._inner_spectrum(a, b, sp)), params)]
    part_specs = []
    for rows, (pa, pb, mapped, phi_diff) in _images(phis, a, b, t_in, b - a):
        q = [ps[i] for i in rows]
        t_out = means.tsallis_entropy(pa, pb, q, spectra=sp)
        k_term = (_col([(1.0 - params[i]["kantorovich_K"]) / ps[i] for i in rows])
                  * means.weighted_mean(pa, pb, q, spectra=sp).value)
        f_term = _col([params[i]["furuta_F"] for i in rows]) * pa
        part_specs += [("kantorovich_upper", t_out, mapped + k_term, rows),
                       ("linear_upper", t_out, mapped + f_term, rows)]
        for i, kn, fn in zip(rows, *_norms(sp, k_term, f_term)):
            params[i]["kantorovich_term_norm"] = kn
            params[i]["linear_term_norm"] = fn
        keep = [j for j, i in enumerate(rows) if holds[i]]
        if keep:
            rows = [rows[j] for j in keep]
            s_term = _windowed(sp, params, rows, phi_diff[keep], "windowed_term_norm", False)[0]
            part_specs.append(("windowed_upper", t_out[keep], mapped[keep] + s_term, rows))
    return part_specs


@_check("seo_bound", "ratio-window reverse of the weighted-mean map inequality",
        (0.25, 0.5, 0.75), "(0, 1)", _pair, mapped=True)
def check_seo_bound(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Ratio-window reverse of the mean inequality.

    Under mA <= B <= MA and 0 < p < 1 the mean of the images exceeds the
    mapped mean by at most -C(m, M, p) Phi(A).  The window here does not
    need to contain one; absent overrides it is the exact spectrum of
    A^{-1/2} B A^{-1/2}, which makes the hypothesis hold by construction.
    When the unit window also holds, the additive bound term
    p (m^{p-1} - M^{p-1}) Phi(B - A) is reported for tightness comparison.
    """
    lam = means._inner_spectrum(a, b, sp)
    _outer_windows(insts, params, lam)
    for par in params:
        par.update(seo_C=constants.seo_C(par["m"], par["M"], par["p"]), seo_term_norm=None,
                   windowed_term_norm=None)
    holds = [not means._unit_window(*edges, par["m"])[2]
             for edges, par in zip(linalg._edges(lam), params)]
    mean_in = means.weighted_mean(a, b, ps, spectra=sp).value
    extra = (b - a,) if any(holds) else ()
    part_specs = []
    for rows, (pa, pb, mapped, *phi_diff) in _images(phis, a, b, mean_in, *extra):
        mean_out = means.weighted_mean(pa, pb, [ps[i] for i in rows], spectra=sp).value
        seo_term = _col([-params[i]["seo_C"] for i in rows]) * pa
        part_specs.append(("seo_upper", mean_out, mapped + seo_term, rows))
        for i, value in zip(rows, sp.norm_op(seo_term).tolist()):
            params[i]["seo_term_norm"] = value
        keep = [j for j, i in enumerate(rows) if holds[i]]
        if keep:
            _windowed(sp, params, [rows[j] for j in keep], phi_diff[0][keep],
                      "windowed_term_norm", True)
    return part_specs


# ----------------------------------------------------------------------
# power-difference checks
# ----------------------------------------------------------------------

@_check("lowner_heinz",
        "A <= B implies A^p <= B^p for p in [0, 1] (fails above 1 by design)",
        (0.25, 0.5, 1.0), "[0, inf)", _pair, signs={"A": "psd", "B": "psd"})
def check_lowner_heinz(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Power monotonicity: A <= B implies A^p <= B^p for p in [0, 1].

    Exponents above one are accepted so the fuzzer can hunt for the
    well-known failures there; a FAILS verdict with p > 1 is the expected
    demonstration, not an engine defect.  Negative exponents reverse the
    order even in the commuting case and are rejected.
    """
    for par in params:
        par["p_in_monotone_range"] = bool(0.0 <= par["p"] <= 1.0)
    return (lambda: [("power_monotone", *_powers(sp, ps, a, b), list(range(len(ps))))],
            _order(sp, a, b, tol_rel, ("A", "B")))


@_check("norm_power_lemma", "tangent-line bound for A^p at the operator norm of A",
        (1.0 / 3.0, 2.0, -1.0), "(-inf, inf)", _symmetric, signs={"A": "psd"})
def check_norm_power_lemma(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Tangent-line bound for matrix powers at the operator norm.

    For positive A the chord construction at t = ||A|| gives
    A^p <= ||A||^p I - p ||A||^{p-1} (||A|| I - A) when p is in [0, 1]
    and the reversed comparison when p >= 1 or p <= 0.  Both directions
    are equalities at p = 0 and p = 1 and are evaluated together there.
    """
    lam = lams[0]
    na = _norm(lam)
    for p, norm, lo, par in zip(ps, na, lam[:, 0].tolist(), params):
        if norm == 0.0:
            raise ZeroMatrix("A is zero; the tangent construction needs a positive norm")
        if p < 0.0 and lo <= 0.0:
            raise NotPositiveDefinite("negative exponents need a positive definite matrix")
        par["norm_A"] = norm
    a_pow = sp.power(a, ps)
    eye = np.eye(a.shape[-1])
    tangent = (_col([t ** p for t, p in zip(na, ps)]) * eye
               - _col([p * (t ** (p - 1.0)) for t, p in zip(na, ps)]) * (_col(na) * eye - a))
    rows = list(range(len(ps)))
    part_specs = []
    _branch(part_specs, "tangent_upper", a_pow, tangent, rows, [0.0 <= p <= 1.0 for p in ps])
    _branch(part_specs, "tangent_lower", tangent, a_pow, rows,
            [p >= 1.0 or p <= 0.0 for p in ps])
    return part_specs


@_check("lh_extension", "linearized bound for B^p - A^p when B dominates ||A|| I",
        (0.5, 2.0 / 3.0, 2.0, 4.0, -1.0, -3.0), "(-inf, inf)", _pair,
        signs={"A": "psd", "B": None})
def check_lh_extension(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Linearized power-difference bound when B dominates ||A||.

    Under ||A|| I <= B the difference B^p - A^p dominates
    p ||B||^{p-1} (B - A) for p in [0, 1]; for p >= 1 or p <= 0 the linear
    term dominates instead.
    """
    na, nb, note = _norm_dominance(sp, lams, b, tol_rel)
    if 0.0 in nb:
        raise ZeroMatrix("B is zero; the linear term needs a positive norm")
    for par, x, y in zip(params, na, nb):
        par.update(norm_A=x, norm_B=y)

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
    return sides, note


@_check("mn2012", "scalar floors for B^p - A^p and the dominance between them",
        (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0), "[0, 1]", _pair, signs={"A": "psd", "B": None})
def check_mn2012(insts, sp, tol_rel, a, b, ps, phis, params, lams):
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
    _, nb, note = _norm_dominance(sp, lams, b, tol_rel)
    lam_diff = sp.eigvals(linalg._require_symmetric(b - a))
    gaps = lam_diff[:, 0].tolist()
    for i, (hi, low) in enumerate(zip(lam_diff[:, -1].tolist(),
                                      np.abs(lam_diff).min(axis=-1).tolist())):
        if low <= linalg._scaled(linalg._SINGULAR_RTOL, abs(gaps[i]), abs(hi)):
            raise SingularDifference("B - A is numerically singular")
        if not note[i] and gaps[i] < 0.0:
            # A >= 0 and ||A|| I <= B force B - A >= 0; a negative gap means
            # the dominance holds only within tolerance
            note[i] = f"B - A is not positive (min eig of B - A is {gaps[i]:.6g})"
        params[i].update(norm_B=nb[i], lam_min_diff=gaps[i])

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
    return sides, note


# ----------------------------------------------------------------------
# vector-expectation checks
# ----------------------------------------------------------------------

def _resolve_unit_vector(inst: InstanceSpec, n: int) -> np.ndarray:
    if inst.x is None:
        return np.full(n, 1.0 / np.sqrt(n))
    norm = float(np.linalg.norm(inst.x))
    if abs(norm - 1.0) > linalg._UNIT_TOL:
        raise UnnormalizedVector(f"x has norm {norm:.12g}, expected 1")
    return inst.x


@_check("mond_pecaric",
        "two-sided derivative bounds for vector expectations of f(A) against f(<Bx,x>)",
        (0.5, 2.0, -1.0), "(-inf, inf)", _pair, signs={"B": "pd"})
def check_mond_pecaric(insts, sp, tol_rel, a, b, ps, phis, params, lams):
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
    dec_a = sp.decompose(a)
    lam_a = dec_a.eigenvalues
    n = a.shape[-1]
    xs = [_resolve_unit_vector(inst, n) for inst in insts]
    windows = _outer_windows(insts, params, lam_a, lams[0])
    note = _order(sp, b, a, tol_rel, ("B", "A"))
    qb = []
    for i, (inst, x) in enumerate(zip(insts, xs)):
        params[i]["f"] = inst.f
        qb.append(float(x @ b[i] @ x))
        weights = (dec_a.eigenvectors[i].T @ x) ** 2
        support = lam_a[i][weights > linalg._SUPPORT_TOL]
        lam_floor = float(support[0]) if support.size else float(lam_a[i, 0])
        gate_tol = linalg._scaled(tol_rel, float(abs(lam_a[i, 0])), float(abs(lam_a[i, -1])))
        if not note[i] and qb[i] > lam_floor + gate_tol:
            note[i] = (f"<Bx, x> = {qb[i]:.6g} exceeds the smallest eigenvalue of A "
                       f"carrying weight in x ({lam_floor:.6g}); the scalar "
                       f"substitution is not valid there")

    def sides():
        fns = []
        for inst, p, lo in zip(insts, ps, lam_a[:, 0].tolist()):
            fns.append(_FUNCTIONS[inst.f](p))
            if lo <= 0.0 and (inst.f != "power" or p < 0.0 or p != round(p)):
                raise NotPositiveDefinite("mond_pecaric needs positive definite A")
        bounds = [(float(min(dfn(m), dfn(M))), float(max(dfn(m), dfn(M))))
                  for (_, dfn), (m, M) in zip(fns, windows)]
        fa = dec_a.apply(lambda lam: np.stack([fn(row) for (fn, _), row in zip(fns, lam)]))
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
    return sides, note


@_check("holder_mccarthy",
        "power expectation inequality and its two-sided reverse on a window",
        (0.5, 2.0, -1.0), "(-inf, inf)", _symmetric, nonzero=True, signs={"A": "pd"})
def check_holder_mccarthy(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Power expectation inequality and its two-sided reverse.

    For positive definite A and a unit vector x, <A^p x, x> <= <Ax, x>^p
    when 0 < p < 1 and the comparison reverses for p > 1 or p < 0.  On a
    window 0 < m <= A <= M the gap is squeezed between multiples of
    <Ax, x> - <A^p x, x>^{1/p}:

        0 < p < 1:  (p / M^{1-p}) D <= <Ax,x>^p - <A^p x,x> <= (p / m^{1-p}) D
        p > 1, p < 0: the same with the roles of the differences swapped,
        the lower coefficient using m for p > 1 and M for p < 0.
    """
    n = a.shape[-1]
    xs = [_resolve_unit_vector(inst, n) for inst in insts]
    windows = _outer_windows(insts, params, lams[0])
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
    return [("expectation_power", below, above, rows),
            ("reverse_lower", lower, mid, rows),
            ("reverse_upper", mid, upper, rows)]


# ----------------------------------------------------------------------
# norm and radius chains
# ----------------------------------------------------------------------

def _refined_chain(names, rows, lo, mid, hi, ps) -> list:
    """The parts refining lo <= mid <= hi (labelled by names) for the
    instances of rows, with the shifts r1 = (mid^p - lo^p)/d and
    r2 = (hi^p - mid^p)/d, d = p hi^{p-1}; see check_norm_chain.
    """
    n_lo, n_mid, n_hi = names
    d = [p * z ** (p - 1.0) for p, z in zip(ps, hi)]
    r1 = [(y ** p - x ** p) / e for x, y, p, e in zip(lo, mid, ps, d)]
    r2 = [(z ** p - y ** p) / e for y, z, p, e in zip(mid, hi, ps, d)]
    lo_r1 = [x + r for x, r in zip(lo, r1)]
    mid_r2 = [y + r for y, r in zip(mid, r2)]
    zero = [0.0] * len(ps)
    up = [p >= 1.0 for p in ps]
    unit = [0.0 < p <= 1.0 for p in ps]
    neg = [p < 0.0 for p in ps]
    part_specs = []
    for name, lhs, rhs, keep in (
            (f"{n_lo}_shift_nonnegative", lo, lo_r1, up),
            (f"{n_lo}_shift_below_{n_mid}", lo_r1, mid, up),
            (f"{n_mid}_shift_nonnegative", mid, mid_r2, up),
            (f"{n_mid}_shift_below_{n_hi}", mid_r2, hi, up),
            (f"{n_hi}_shift_below_{n_mid}", [z - r for z, r in zip(hi, r2)], mid, unit),
            (f"{n_mid}_below_{n_lo}_shift", mid, lo_r1, unit),
            ("ratio1_nonnegative", zero, r1, neg),
            ("ratio2_nonnegative", zero, r2, neg),
            (f"{n_mid}_below_{n_lo}_shift", mid, lo_r1, neg),
            (f"{n_hi}_below_{n_mid}_shift", hi, mid_r2, neg)):
        _branch(part_specs, name, lhs, rhs, rows, keep)
    return part_specs


@_check("norm_chain", "refined links between operator, Frobenius and trace norms",
        (-1.0, 0.5, 3.0), "(-inf, inf)", _square, nonzero=True)
def check_norm_chain(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Refined links between operator, Frobenius and trace norms.

    Write (op, hs, tr) for the three norms and d = p tr^{p-1}.  For p >= 1
    the shifts r1 = (hs^p - op^p)/d and r2 = (tr^p - hs^p)/d refine the
    chain op <= hs <= tr into op <= op + r1 <= hs <= hs + r2 <= tr.  For
    0 < p <= 1 the analogous shifts squeeze hs between tr + (hs^p - tr^p)/d
    and op + (hs^p - op^p)/d.  For p < 0 the shifted quantities overshoot
    instead: both ratios stay nonnegative and bound hs - op and tr - hs
    from above, so the chain runs hs <= op + r1 and tr <= hs + r2.
    """
    op, hs, tr = (v.tolist() for v in sp.norms(a))
    if 0.0 in tr:
        raise ZeroMatrix("A is zero; the norm chain needs a positive trace norm")
    for par, x, y, z in zip(params, op, hs, tr):
        par.update(norm_op=x, norm_hs=y, norm_tr=z)
    return _refined_chain(("op", "hs", "tr"), list(range(len(ps))), op, hs, tr, ps)


@_check("radius_chain", "refined links between spectral radius, numerical radius and norm",
        (0.5, 2.0, -1.0), "(-inf, inf)", _square, nonzero=True)
def check_radius_chain(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Refined links between spectral radius, numerical radius and norm.

    Same structure as the norm chain with (r, w, op) in place of
    (op, hs, tr) and divisor p op^{p-1}.  Negative exponents additionally
    need a positive spectral radius; a vanishing one (nilpotent A) makes
    r^p undefined and is reported as a violated hypothesis.
    """
    op = sp.norm_op(a).tolist()
    if 0.0 in op:
        raise ZeroMatrix("A is zero; the radius chain needs a positive norm")
    sr = [linalg.spectral_radius(m) for m in a]
    w = [linalg.numerical_radius(m) for m in a]
    note = ["spectral radius vanishes; negative powers of it are undefined"
            if p < 0.0 and r <= linalg._NILPOTENT_RTOL * t else "" for p, r, t in zip(ps, sr, op)]
    for par, r, x, t in zip(params, sr, w, op):
        par.update(spectral_radius=r, numerical_radius=x, norm_op=t)
    rows = [i for i, text in enumerate(note) if not text]
    return (lambda: _refined_chain(("radius", "w", "op"), rows, [sr[i] for i in rows],
                                   [w[i] for i in rows], [op[i] for i in rows],
                                   [ps[i] for i in rows]), note)


@_check("power_norm", "norm comparison between A^p B^p and (AB)^p for positive matrices",
        (0.5, 2.0), "[0, inf)", _pair, signs={"A": "psd", "B": "psd"})
def check_power_norm(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Norm comparison between A^p B^p and (AB)^p for positive matrices.

    For positive semidefinite A, B the norm ||A^p B^p|| is at most
    ||AB||^p when p is in [0, 1] and at least ||AB||^p when p >= 1; both
    hold with equality at the boundary exponents.
    """
    nab, napb = _norms(sp, a @ b, np.matmul(*_powers(sp, ps, a, b)))
    for par, x, y in zip(params, nab, napb):
        par.update(norm_AB=x, norm_ApBp=y)
    nab_p = [t ** p for t, p in zip(nab, ps)]
    rows = list(range(len(ps)))
    part_specs = []
    _branch(part_specs, "power_norm_upper", napb, nab_p, rows, [p <= 1.0 for p in ps])
    _branch(part_specs, "power_norm_lower", nab_p, napb, rows, [p >= 1.0 for p in ps])
    return part_specs


@_check("norm_refinement",
        "two-sided refinement of the power-norm comparison on a product window",
        (0.5, 2.0), "(0, inf)", _pair, signs={"A": "pd", "B": "pd"})
def check_norm_refinement(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Two-sided refinement of the power-norm comparison on a window.

    With 0 < m <= A, B <= M both ||AB|| and ||A^p B^p||^{1/p} lie in
    [m^2, M^2], so the scalar two-sided power bounds apply on that
    product window:

        0 < p <= 1:  (p / (M^2)^{1-p}) D <= ||AB||^p - ||A^p B^p|| <= (p / (m^2)^{1-p}) D
                     with D = ||AB|| - ||A^p B^p||^{1/p};
        p >= 1:      (p / (m^2)^{1-p}) D <= ||A^p B^p|| - ||AB||^p <= (p / (M^2)^{1-p}) D
                     with D = ||A^p B^p||^{1/p} - ||AB||.
    """
    windows = _outer_windows(insts, params, *lams)
    nab, napb = _norms(sp, a @ b, np.matmul(*_powers(sp, ps, a, b)))
    below, above = [], []    # (lower, mid, upper) of the p <= 1 and p >= 1 branches
    for p, par, (m, M), x, y in zip(ps, params, windows, nab, napb):
        par.update(norm_AB=x, norm_ApBp=y)
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
    return part_specs


@_check("power_corollary", "windowed bounds between Phi(A)^p and Phi(A^p)",
        (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0), "[-1, 2]", _symmetric, mapped=True,
        signs={"A": "pd"})
def check_power_corollary(insts, sp, tol_rel, a, b, ps, phis, params, lams):
    """Power-function corollary of the windowed entropy bounds.

    Specialize the two-matrix statements to the pair (I, A): for
    m <= 1 <= A <= M the image power Phi(A)^p is bounded by
    Phi(A^p) + p (m^{p-1} - M^{p-1}) (Phi(A) - I) for p in [0, 1], with
    the inequality reversed for p in [-1, 0], and for p in [1, 2] the
    correction p (M^{p-1} - m^{p-1}) (Phi(A) - I) bounds Phi(A^p) from
    the Phi(A)^p side.
    """
    note = _unit_windows(insts, lams[0], params, additive_term_norm=None)

    def sides():
        part_specs = []
        for rows, (pa, phi_pow) in _images(phis, a, sp.power(a, ps)):
            _converse_parts(sp, part_specs, "image_power", params, rows, phi_pow,
                            sp.power(pa, [ps[i] for i in rows]), pa - np.eye(pa.shape[-1]))
        return part_specs
    return sides, note


__all__ += [info.runner.__name__ for info in REGISTRY.values()]


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
    return resolve_check(check_id).runner(inst, tol_rel=tol_rel)
