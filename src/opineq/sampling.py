"""Deterministic random instance generators.

Streams come from the Philox counter-based generator keyed by
(seed, trial): rng_for(seed, k) is an independent stream for every k,
identical across runs and platforms.  That is what lets any fuzz trial
be regenerated on its own, byte for byte: trial k draws from its own
stream, whatever ran before it.

Every sampler is constructive.  Hypotheses like "A <= B in the Loewner
order" or "||A|| I <= B" are built into the recipe (conjugations of a
spectrum that already satisfies the constraint, explicit identity
shifts), never enforced by rejection, so constraint satisfaction is
exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidSpec

_MASK64 = (1 << 64) - 1


MAX_DIM = 64


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
        if not 1 <= self.dim <= MAX_DIM:
            raise InvalidSpec(f"dim must lie in [1, {MAX_DIM}], got {self.dim}")
        if not 0.0 < self.spectrum_lo <= self.spectrum_hi:
            raise InvalidSpec(
                f"need 0 < spectrum_lo <= spectrum_hi, got "
                f"[{self.spectrum_lo}, {self.spectrum_hi}]"
            )


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, trial index) pair."""
    key = [int(seed) & _MASK64, int(index) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


def _isometry(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n x k orthonormal columns from the sign-fixed QR of a Gaussian sample."""
    g = rng.normal(size=(n, k))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian sample of length n scaled to unit norm."""
    v = rng.normal(size=n)
    while float(np.linalg.norm(v)) == 0.0:  # pragma: no cover
        v = rng.normal(size=n)
    return v / float(np.linalg.norm(v))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian sample."""
    return _isometry(rng, n, n)


def spd_from_spectrum(spectrum, rng: np.random.Generator) -> np.ndarray:
    """Q diag(spectrum) Q^T with a random orthogonal Q."""
    lam = np.asarray(spectrum, dtype=float)
    q = random_orthogonal(lam.size, rng)
    return linalg.symmetrize((q * lam) @ q.T)


def random_spd(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """SPD matrix with eigenvalues uniform on the config window."""
    rng = rng_for(cfg.seed, trial)
    lam = rng.uniform(cfg.spectrum_lo, cfg.spectrum_hi, size=cfg.dim)
    return spd_from_spectrum(lam, rng)


def random_square(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """Dense Gaussian matrix, generally nonsymmetric and nonzero."""
    rng = rng_for(cfg.seed, trial)
    m = rng.normal(size=(cfg.dim, cfg.dim))
    while float(np.max(np.abs(m))) == 0.0:  # pragma: no cover
        m = rng.normal(size=(cfg.dim, cfg.dim))
    return m


def random_sandwich_pair(
    cfg: SamplerConfig, M_target: float, trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with 1 <= A^{-1/2} B A^{-1/2} <= M_target by construction.

    The inner operator is sampled directly with spectrum in
    (1, M_target], then conjugated back by A^{1/2}.  A small margin
    above 1 keeps the order hypothesis safe from conjugation rounding.
    """
    if M_target < 1.0:
        raise InvalidSpec(f"M_target must be >= 1, got {M_target}")
    rng = rng_for(cfg.seed, trial)
    lam_a = rng.uniform(cfg.spectrum_lo, cfg.spectrum_hi, size=cfg.dim)
    a = spd_from_spectrum(lam_a, rng)
    margin = 1e-6 * max(M_target - 1.0, 1e-3)
    lam_w = 1.0 + margin + (M_target - 1.0 - margin) * rng.uniform(size=cfg.dim)
    lam_w = np.clip(lam_w, 1.0 + margin, max(M_target, 1.0 + margin))
    w = spd_from_spectrum(lam_w, rng)
    b = linalg.conjugate_by_sqrt(a, w)
    return a, b


def random_norm_dominated_pair(
    cfg: SamplerConfig, trial: int = 0, gap: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with ||A|| I + gap I <= B by construction.

    B = (||A|| + gap) I + PSD bump, so B - A >= gap I exactly and the
    operator-norm domination ||A|| I <= B holds with slack gap.
    """
    if gap < 0.0:
        raise InvalidSpec(f"gap must be >= 0, got {gap}")
    rng = rng_for(cfg.seed, trial)
    lam_a = rng.uniform(cfg.spectrum_lo, cfg.spectrum_hi, size=cfg.dim)
    a = spd_from_spectrum(lam_a, rng)
    bump_lam = rng.uniform(0.0, cfg.spectrum_hi, size=cfg.dim)
    bump = spd_from_spectrum(bump_lam, rng)
    b = (linalg.norm_op(a) + gap) * np.eye(cfg.dim) + bump
    return a, linalg.symmetrize(b)


def random_density(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    """Random density matrix: SPD normalized to unit trace."""
    m = random_spd(cfg, trial)
    return m / float(np.trace(m))


def random_unit_vector(cfg: SamplerConfig, trial: int = 0) -> np.ndarray:
    return _unit_vector(rng_for(cfg.seed, trial), cfg.dim)


def random_isometry(cfg: SamplerConfig, k: int, trial: int = 0) -> np.ndarray:
    """n x k matrix with orthonormal columns, 1 <= k <= n."""
    if not 1 <= k <= cfg.dim:
        raise InvalidSpec(f"isometry width must lie in [1, {cfg.dim}], got {k}")
    return _isometry(rng_for(cfg.seed, trial), cfg.dim, k)
