"""Deterministic random instance generators.

Streams come from the Philox counter-based generator keyed by
(seed, index): rng_for(seed, k) is an independent stream for every k,
identical across runs and platforms.  That is what lets any fuzz trial
be regenerated on its own, byte for byte: trial k draws from its own
streams, whatever ran before it.

Sampling runs in two phases, in a batch (_Batch).  First every instance
of the batch draws all of its numbers from its own streams, in the same
order as when it is sampled alone: spectra, Gaussian blocks, scalars.
Then the batch's linear algebra runs stacked, one call per matrix shape:
the QR of every Gaussian block, the reconstruction Q diag(lam) Q^T, the
square root A^{1/2} behind each sandwich conjugation and the norm ||A||
behind each norm-dominated pair, taken through a linalg.Spectra.  Stacked
LAPACK and BLAS calls work matrix by matrix, so an instance comes out
bit-identical whatever else shares its batch.  The public generators
below are batches of one, with a SamplerConfig, which reads its values
through inputs; the batch's draws take the dimension and spectrum
window directly, as their caller read them.
fuzz.run_fuzz samples a run in chunks of trials, each batch on the
Spectra that then checks the chunk, so a check finds the sandwich's
decomposition of A already made.

Every sampler is constructive.  Hypotheses like "A <= B in the Loewner
order" or "||A|| I <= B" are built into the recipe (conjugations of a
spectrum that already satisfies the constraint, explicit identity
shifts), never enforced by rejection, so constraint satisfaction is
exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inputs, linalg
from .errors import InvalidSpec, SchemaError

_MASK64 = (1 << 64) - 1
_ZEROS4 = (0, 0, 0, 0)


@dataclass(frozen=True)
class SamplerConfig:
    """Dimension, seed and spectrum window for the generators.

    The generators take an explicit trial index so any single draw can be
    regenerated without replaying the ones before it.
    """

    dim: int
    seed: int = 0
    spectrum_lo: float = 0.5
    spectrum_hi: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "dim", inputs.dim(self.dim))
        object.__setattr__(self, "seed", inputs.integer(self.seed, "seed"))
        for label in ("spectrum_lo", "spectrum_hi"):
            value = getattr(self, label)
            try:
                object.__setattr__(self, label, inputs.number(label, value))
            except (TypeError, ValueError, OverflowError):   # float() refuses it
                raise SchemaError(f"{label}: expected a number, got {value!r}") from None
        if not 0.0 < self.spectrum_lo <= self.spectrum_hi:
            raise InvalidSpec(
                f"need 0 < spectrum_lo <= spectrum_hi, got "
                f"[{self.spectrum_lo}, {self.spectrum_hi}]"
            )
        if not np.isfinite(self.spectrum_hi):
            raise InvalidSpec(f"spectrum_hi must be finite, got {self.spectrum_hi}")


def _key(seed: int, index: int) -> tuple[int, int]:
    return int(seed) & _MASK64, int(index) & _MASK64


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, trial index) pair.

    The Philox key is (seed mod 2**64, index mod 2**64), counter 0.
    """
    # a uint64 array: numpy reads a list that mixes words above and below
    # 2**63 as float64, which merged seed -1 into seed 0
    key = np.array(_key(inputs.integer(seed, "seed"), inputs.integer(index, "index")),
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian sample of length n scaled to unit norm."""
    v = rng.normal(size=n)
    while float(np.linalg.norm(v)) == 0.0:  # pragma: no cover
        v = rng.normal(size=n)
    return v / float(np.linalg.norm(v))


def _square(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonzero n x n Gaussian sample."""
    m = rng.normal(size=(n, n))
    while float(np.max(np.abs(m))) == 0.0:  # pragma: no cover
        m = rng.normal(size=(n, n))
    return m


class _Cell:
    """A value that _Batch.resolve fills in."""

    __slots__ = ("value",)


class _Batch:
    """Draw now, run the linear algebra stacked at resolve().

    streams() hands out the streams rng_for(seed, index) by re-keying a
    few reused Philox generators, which costs a fifth of building new
    ones.  The draw methods take every number they need from the stream
    they are given, at once and in the order the public generators use,
    and return _Cells.  resolve() runs one sign-fixed QR per (n, k) stack
    of Gaussian blocks, one Q diag(lam) Q^T per n, one A^{1/2} stack per
    n for the sandwich conjugations and one ||A|| stack per n for the
    norm-dominated pairs, both through the batch's linalg.Spectra (a
    fresh one unless given), then the derive() callbacks in the order
    they were registered, and fills every cell.
    """

    def __init__(self, seed: int = 0, spectra=None):
        self._seed = int(seed)
        self._spectra = linalg.Spectra() if spectra is None else spectra
        self._slots: list[np.random.Generator] = []
        self._blocks: dict[tuple[int, int], list] = {}   # (n, k) -> [(gaussian, cell)]
        self._spectral: dict[int, list] = {}              # n -> [(lam, q, cell)]
        self._sandwich: dict[int, list] = {}              # n -> [(a, w, cell)]
        self._dominated: dict[int, list] = {}             # n -> [(a, gap, bump, cell)]
        self._derived: list = []                          # [(fn, cell)]

    def streams(self, *indices: int) -> list[np.random.Generator]:
        """rng_for(seed, index) for each index, in order.

        The generators are reused: the next call re-keys them, so take
        everything from them before asking for more.
        """
        while len(self._slots) < len(indices):
            self._slots.append(np.random.Generator(np.random.Philox(key=0)))
        for gen, index in zip(self._slots, indices):
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _ZEROS4, "key": _key(self._seed, index)},
                "buffer": _ZEROS4,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        return self._slots[:len(indices)]

    def derive(self, fn) -> _Cell:
        """A cell holding fn(), called once every stacked stage has run."""
        cell = _Cell()
        self._derived.append((fn, cell))
        return cell

    def isometry(self, rng: np.random.Generator, n: int, k: int) -> _Cell:
        """n x k orthonormal columns from the sign-fixed QR of a Gaussian block."""
        cell = _Cell()
        self._blocks.setdefault((n, k), []).append((rng.normal(size=(n, k)), cell))
        return cell

    def spectral(self, rng: np.random.Generator, spectrum) -> _Cell:
        """Q diag(spectrum) Q^T, symmetrized, with a random orthogonal Q."""
        lam = np.asarray(spectrum, dtype=float)
        q = self.isometry(rng, lam.size, lam.size)
        cell = _Cell()
        self._spectral.setdefault(lam.size, []).append((lam, q, cell))
        return cell

    def spd(self, rng: np.random.Generator, n: int, lo: float, hi: float) -> _Cell:
        """n x n SPD matrix with eigenvalues uniform on [lo, hi]."""
        return self.spectral(rng, rng.uniform(lo, hi, size=n))

    def sandwich_pair(self, rng: np.random.Generator, n: int, lo: float, hi: float,
                      M_target: float) -> tuple[_Cell, _Cell]:
        """(A, B = A^{1/2} W A^{1/2}); see random_sandwich_pair."""
        if M_target < 1.0:
            raise InvalidSpec(f"M_target must be >= 1, got {M_target}")
        a = self.spd(rng, n, lo, hi)
        margin = 1e-6 * max(M_target - 1.0, 1e-3)
        lam_w = 1.0 + margin + (M_target - 1.0 - margin) * rng.uniform(size=n)
        lam_w = np.clip(lam_w, 1.0 + margin, max(M_target, 1.0 + margin))
        w = self.spectral(rng, lam_w)
        b = _Cell()
        self._sandwich.setdefault(n, []).append((a, w, b))
        return a, b

    def norm_dominated_pair(self, rng: np.random.Generator, n: int, lo: float, hi: float,
                            gap: float) -> tuple[_Cell, _Cell]:
        """(A, B = (||A|| + gap) I + bump); see random_norm_dominated_pair."""
        if gap < 0.0:
            raise InvalidSpec(f"gap must be >= 0, got {gap}")
        a = self.spd(rng, n, lo, hi)
        bump = self.spectral(rng, rng.uniform(0.0, hi, size=n))
        b = _Cell()
        self._dominated.setdefault(n, []).append((a, gap, bump, b))
        return a, b

    def density(self, rng: np.random.Generator, n: int, lo: float, hi: float) -> _Cell:
        """SPD matrix from the window [lo, hi], normalized to unit trace."""
        m = self.spd(rng, n, lo, hi)
        return self.derive(lambda: m.value / float(np.trace(m.value)))

    def resolve(self) -> None:
        """Run the stacked linear algebra and fill every cell drawn so far."""
        for jobs in self._blocks.values():
            q, r = np.linalg.qr(np.array([g for g, _ in jobs]))
            q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
            for (_, cell), qi in zip(jobs, q):
                cell.value = qi
        for jobs in self._spectral.values():
            q = np.array([qc.value for _, qc, _ in jobs])
            lam = np.array([lam for lam, _, _ in jobs])
            m = linalg._reconstruct(q, lam)
            for (_, _, cell), mi in zip(jobs, m):
                cell.value = mi
        for jobs in self._sandwich.values():
            half = self._spectra.sqrt(np.array([a.value for a, _, _ in jobs]))
            w = np.array([wc.value for _, wc, _ in jobs])
            b = linalg.symmetrize(half @ w @ half)
            for (_, _, cell), bi in zip(jobs, b):
                cell.value = bi
        for n, jobs in self._dominated.items():
            norms = self._spectra.norm_op(np.array([a.value for a, _, _, _ in jobs])).tolist()
            for (_, gap, bump, cell), norm in zip(jobs, norms):
                cell.value = linalg.symmetrize((norm + gap) * np.eye(n) + bump.value)
        for fn, cell in self._derived:
            cell.value = fn()
        self._blocks, self._spectral, self._sandwich, self._dominated, self._derived = \
            {}, {}, {}, {}, []


def _one(cell: _Cell, batch: _Batch):
    batch.resolve()
    return cell.value


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    batch = _Batch()
    return _one(batch.isometry(rng, n, n), batch)


def spd_from_spectrum(spectrum, rng: np.random.Generator) -> np.ndarray:
    """Q diag(spectrum) Q^T with a random orthogonal Q."""
    batch = _Batch()
    return _one(batch.spectral(rng, spectrum), batch)


def random_spd(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """SPD matrix with eigenvalues uniform on the config window."""
    batch = _Batch()
    return _one(batch.spd(rng_for(cfg.seed, trial), cfg.dim, cfg.spectrum_lo,
                          cfg.spectrum_hi), batch)


def random_square(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """Dense Gaussian matrix, generally nonsymmetric and nonzero."""
    return _square(rng_for(cfg.seed, trial), cfg.dim)


def random_sandwich_pair(
    cfg: SamplerConfig, M_target: float, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with 1 <= A^{-1/2} B A^{-1/2} <= M_target by construction.

    The inner operator W is sampled directly with spectrum in
    (1, M_target], then conjugated back: B = A^{1/2} W A^{1/2}.  A small
    margin above 1 keeps the order hypothesis safe from conjugation
    rounding.
    """
    batch = _Batch()
    a, b = batch.sandwich_pair(rng_for(cfg.seed, trial), cfg.dim, cfg.spectrum_lo,
                               cfg.spectrum_hi, M_target)
    batch.resolve()
    return a.value, b.value


def random_norm_dominated_pair(
    cfg: SamplerConfig, trial: int = 0, gap: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with ||A|| I + gap I <= B by construction.

    B = (||A|| + gap) I + PSD bump, so B - A >= gap I exactly and the
    operator-norm domination ||A|| I <= B holds with slack gap.
    """
    batch = _Batch()
    a, b = batch.norm_dominated_pair(rng_for(cfg.seed, trial), cfg.dim, cfg.spectrum_lo,
                                     cfg.spectrum_hi, gap)
    batch.resolve()
    return a.value, b.value


def random_density(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """Random density matrix: SPD normalized to unit trace."""
    batch = _Batch()
    return _one(batch.density(rng_for(cfg.seed, trial), cfg.dim, cfg.spectrum_lo,
                              cfg.spectrum_hi), batch)


def random_unit_vector(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    return _unit_vector(rng_for(cfg.seed, trial), cfg.dim)


def random_isometry(cfg: SamplerConfig, k: int, trial: int = 0) -> np.ndarray:
    """n x k matrix with orthonormal columns, 1 <= k <= n."""
    k = inputs.integer(k, "isometry width")
    if not 1 <= k <= cfg.dim:
        raise InvalidSpec(f"isometry width must lie in [1, {cfg.dim}], got {k}")
    batch = _Batch()
    return _one(batch.isometry(rng_for(cfg.seed, trial), cfg.dim, k), batch)
