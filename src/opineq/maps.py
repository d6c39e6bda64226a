"""Unital positive linear maps on real symmetric matrices.

Four concrete families cover everything the checks need:

  normalized_trace   X -> [Tr(X)/n]          (1x1 output)
  compression        X -> V^T X V             for an isometry V (V^T V = I)
  pinching           X -> sum_i P_i X P_i     for a projection partition
  mixed_unitary      X -> sum_i w_i U_i^T X U_i,  w_i > 0, sum w_i = 1

All four are unital (Phi(I) = I) and positive; compression with a
strict isometry is the only one that changes dimension besides the
trace map.  MapSpec is a plain frozen description so instances can be
serialized to JSON and rebuilt bit-for-bit.  Its constructors read
every value through inputs, on the library path as on the JSON path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import inputs, linalg, sampling
from .errors import DimensionMismatch, InvalidSpec, NotFinite, SchemaError

log = logging.getLogger(__name__)

NORMALIZED_TRACE = "normalized_trace"
COMPRESSION = "compression"
PINCHING = "pinching"
MIXED_UNITARY = "mixed_unitary"

KINDS = (NORMALIZED_TRACE, COMPRESSION, PINCHING, MIXED_UNITARY)
# each kind's JSON fields, in the order its constructor (its name) takes them
_FIELDS = {NORMALIZED_TRACE: ("dim",), COMPRESSION: ("isometry",),
           PINCHING: ("partition", "dim"), MIXED_UNITARY: ("weights", "unitaries")}

@dataclass(frozen=True)
class MapSpec:
    """Serializable description of one unital positive linear map."""

    kind: str
    in_dim: int
    out_dim: int
    isometry: np.ndarray | None = field(default=None, repr=False)
    partition: tuple[tuple[int, ...], ...] | None = None
    weights: np.ndarray | None = field(default=None, repr=False)
    unitaries: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @classmethod
    def normalized_trace(cls, n: int) -> "MapSpec":
        n = inputs.integer(n, "dim")
        if n < 1:
            raise InvalidSpec("normalized trace needs dimension >= 1")
        return cls(kind=NORMALIZED_TRACE, in_dim=n, out_dim=1)

    @classmethod
    def compression(cls, isometry) -> "MapSpec":
        inputs.numbers("isometry", isometry)
        v = np.asarray(isometry, dtype=float)
        if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] < 1:
            raise InvalidSpec(f"isometry must be n x k with 1 <= k <= n, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidSpec("isometry entries must be finite")
        gram = v.T @ v
        if float(np.max(np.abs(gram - np.eye(v.shape[1])))) > linalg._ORTHO_TOL:
            raise InvalidSpec("isometry columns are not orthonormal")
        return cls(
            kind=COMPRESSION, in_dim=v.shape[0], out_dim=v.shape[1], isometry=v
        )

    @classmethod
    def pinching(cls, partition, n: int) -> "MapSpec":
        n = inputs.integer(n, "dim")
        if n < 1:
            raise InvalidSpec("pinching needs dimension >= 1")
        blocks = tuple(tuple(inputs.integer(i, "partition index") for i in blk)
                       for blk in partition)
        seen = [i for blk in blocks for i in blk]
        if sorted(seen) != list(range(n)):
            raise InvalidSpec(
                f"partition must cover 0..{n - 1} exactly once, got {blocks}"
            )
        if any(len(blk) == 0 for blk in blocks):
            raise InvalidSpec("partition blocks must be nonempty")
        return cls(kind=PINCHING, in_dim=n, out_dim=n, partition=blocks)

    @classmethod
    def mixed_unitary(cls, weights, unitaries) -> "MapSpec":
        inputs.numbers("weights", weights)
        inputs.numbers("unitaries", unitaries)
        w = np.asarray(weights, dtype=float)
        us = tuple(np.asarray(u, dtype=float) for u in unitaries)
        if w.ndim != 1 or len(us) != w.size or w.size < 1:
            raise InvalidSpec("need one weight per unitary")
        if not np.isfinite(w).all():
            raise InvalidSpec("weights must be finite")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > linalg._ORTHO_TOL:
            raise InvalidSpec("weights must be positive and sum to 1")
        n = us[0].shape[0] if us[0].ndim == 2 else 0
        for u in us:
            if n < 1 or u.shape != (n, n):
                raise InvalidSpec("unitaries must be square matrices of one shape")
            if not np.isfinite(u).all():
                raise InvalidSpec("unitary entries must be finite")
            if float(np.max(np.abs(u.T @ u - np.eye(n)))) > linalg._ORTHO_TOL:
                raise InvalidSpec("matrix is not orthogonal")
        return cls(
            kind=MIXED_UNITARY, in_dim=n, out_dim=n, weights=w, unitaries=us
        )

    def to_json_dict(self) -> dict:
        if self.kind == NORMALIZED_TRACE:
            return {"kind": self.kind, "dim": self.in_dim}
        if self.kind == COMPRESSION:
            return {"kind": self.kind, "isometry": self.isometry.tolist()}
        if self.kind == PINCHING:
            return {
                "kind": self.kind,
                "dim": self.in_dim,
                "partition": [list(b) for b in self.partition],
            }
        return {
            "kind": self.kind,
            "weights": self.weights.tolist(),
            "unitaries": [u.tolist() for u in self.unitaries],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MapSpec":
        """Rebuild a map from its JSON object: its kind and that kind's
        _FIELDS, no other key.  A string or boolean where a number belongs
        raises SchemaError naming the field (the constructors check the
        isometry, weights and unitaries; dim and partition are checked here)."""
        if not isinstance(obj, dict):
            raise SchemaError("map must be a JSON object")
        for key in ("dim", "partition"):
            inputs.numbers(key, obj.get(key))
        kind = obj.get("kind")
        if kind not in KINDS:
            raise InvalidSpec(f"unknown map kind {kind!r}, expected one of {KINDS}")
        unknown = sorted(map(str, set(obj) - {"kind", *_FIELDS[kind]}))
        if unknown:
            raise SchemaError(f"unknown keys for a {kind} map: {', '.join(unknown)}")
        try:
            return getattr(cls, kind)(*(obj[key] for key in _FIELDS[kind]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidSpec(f"malformed map spec: {exc}") from exc


def apply_map(spec: MapSpec, x) -> np.ndarray:
    """Evaluate Phi(X).  X must be square with the map's input dimension.

    X may also be a stack of such matrices, (..., n, n): the map is then
    applied to each matrix in one call, with the bits each would get
    alone.  X must be finite: inside a check it may be a computed matrix
    that overflowed, which would otherwise reach a verdict through a 1x1
    image.  Its symmetry is not validated; it only decides, matrix by
    matrix, whether the image is symmetrized.
    """
    m = np.asarray(x, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (spec.in_dim, spec.in_dim):
        raise DimensionMismatch(
            f"map expects a {spec.in_dim}x{spec.in_dim} matrix, got shape {m.shape}"
        )
    if not np.isfinite(m).all():
        raise NotFinite("matrix entries must be finite")
    if spec.kind == NORMALIZED_TRACE:
        return (np.trace(m, axis1=-2, axis2=-1) / spec.in_dim)[..., None, None]
    if spec.kind == COMPRESSION:
        out = spec.isometry.T @ m @ spec.isometry
    elif spec.kind == PINCHING:
        label = np.empty(spec.in_dim, dtype=int)
        for b, blk in enumerate(spec.partition):
            label[list(blk)] = b
        out = np.where(label[:, None] == label[None, :], m, 0.0)
    else:
        out = np.zeros_like(m)
        for w, u in zip(spec.weights, spec.unitaries):
            out += w * (u.T @ m @ u)
    # a symmetric input must map to an exactly symmetric output so the
    # Loewner comparisons downstream never trip on rounding asymmetry
    sym = linalg._is_symmetric(m)
    if sym.all():
        return linalg.symmetrize(out)
    return np.where(sym[..., None, None], linalg.symmetrize(out), out)


def verify_map(spec: MapSpec, trials: int = 32, seed: int = 0) -> bool:
    """Spot-check unitality, linearity and positivity on random inputs.

    Returns True when every probe passes; a failing witness is logged
    at WARNING level so interactive callers can see what broke.
    """
    trials = inputs.integer(trials, "trials")
    if trials < 0:
        raise InvalidSpec(f"trials must be >= 0, got {trials}")
    rng = sampling.rng_for(seed, 0)
    n = spec.in_dim
    dev = float(np.max(np.abs(apply_map(spec, np.eye(n)) - np.eye(spec.out_dim))))
    if dev > linalg._ORTHO_TOL:
        log.warning("map %s is not unital: Phi(I) deviates by %.3e", spec.kind, dev)
        return False
    for t in range(trials):
        x = rng.normal(size=(n, n))
        y = rng.normal(size=(n, n))
        x = linalg.symmetrize(x)
        y = linalg.symmetrize(y)
        alpha, beta = rng.normal(size=2)
        lhs = apply_map(spec, alpha * x + beta * y)
        rhs = alpha * apply_map(spec, x) + beta * apply_map(spec, y)
        dev = float(np.max(np.abs(lhs - rhs)))
        if dev > linalg._scaled(linalg._MAP_LINEAR_RTOL, linalg.norm_op(lhs), linalg.norm_op(rhs)):
            log.warning("map %s linearity probe %d failed by %.3e", spec.kind, t, dev)
            return False
        g = rng.normal(size=(n, n))
        psd = g @ g.T
        low = float(linalg.eigvals_sym(apply_map(spec, psd))[0])
        if low < -linalg._scaled(linalg._MAP_POSITIVE_RTOL, linalg.norm_op(psd)):
            log.warning("map %s positivity probe %d failed: min eig %.3e", spec.kind, t, low)
            return False
    return True
