"""Rules for values from outside the program, applied once where they
enter: InstanceSpec, the MapSpec constructors, SamplerConfig, run_fuzz,
sample_instance, the public linalg and means functions and the CLI.  The
core behind them converts nothing.  numbers and number are the one type
rule for an instance's and a map's entries, the same on the library path
and the JSON path; finite adds finiteness for a scalar.  fuzz._planned,
the one trusted caller, builds unchecked from a plan read here and values
valid by construction, still checked by the check entry and Spectra."""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpec, SchemaError

MAX_DIM = 64

_PLAIN = frozenset((float, int))
_REFUSED = (str, bytes, bool, np.bool_, complex, np.complexfloating)


def integer(v, what: str) -> int:
    """v as an int; InvalidSpec unless v is integral and not a bool, so
    that a mistyped dimension, seed, count or index is never truncated
    into another."""
    try:
        if not isinstance(v, (bool, np.bool_)) and int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidSpec(f"{what} must be an integer, got {v!r}")


def dim(v) -> int:
    """v as a dimension in [1, MAX_DIM]; InvalidSpec otherwise."""
    n = integer(v, "dim")
    if not 1 <= n <= MAX_DIM:
        raise InvalidSpec(f"dim must lie in [1, {MAX_DIM}], got {n}")
    return n


def real(value) -> float:
    """float(value); a TypeError for a bool, which float() reads as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def tolerance(tol_rel) -> float:
    """tol_rel as a float; InvalidSpec unless it is a finite, nonnegative
    number, not a bool, or a string that float() reads as one."""
    try:
        tol = real(tol_rel)
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpec(f"tolerance must be a number, got {tol_rel!r}") from None
    if not np.isfinite(tol) or tol < 0.0:
        raise InvalidSpec(f"tolerance must be finite and nonnegative, got {tol}")
    return tol


def numbers(field: str, value) -> None:
    """SchemaError("<field>: expected a number, got <value>") for the first
    str, bytes, bool or complex entry of value, depth first, which float()
    would parse, read as 0 or 1, or strip of its imaginary part.  A list
    (of lists) of floats and ints passes in one pass over the types, an
    int or float ndarray on its dtype; other sequences are walked."""
    if type(value) is list and (
            _PLAIN.issuperset(map(type, value))
            or all(type(row) is list and _PLAIN.issuperset(map(type, row)) for row in value)):
        return
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for v in value:
            numbers(field, v)
    elif isinstance(value, _REFUSED):
        raise SchemaError(f"{field}: expected a number, got {value!r}")


def number(field: str, value) -> float:
    """float(value), once numbers(field, value) lets it through."""
    numbers(field, value)
    return float(value)


def floats(field: str, value) -> np.ndarray:
    """value as a float64 array, once numbers(field, value) lets it through;
    SchemaError("malformed instance: ...") for what numpy cannot read as
    floats, such as a ragged list, a dict or an int past the float range."""
    numbers(field, value)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed instance: {exc}") from exc


def finite(field: str, value) -> float:
    """number(field, value); SchemaError("malformed instance: ...") for what
    float() refuses, InvalidSpec("<field> must be finite") for inf or nan."""
    try:
        value = number(field, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed instance: {exc}") from exc
    if not np.isfinite(value):
        raise InvalidSpec(f"{field} must be finite")
    return value
