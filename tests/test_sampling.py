"""Tests for the deterministic instance generators."""

import numpy as np
import pytest

from opineq import fuzz, inputs, linalg, sampling
from opineq.errors import InvalidSpec, SchemaError


def _cfg(dim=4, seed=0, lo=0.5, hi=2.0):
    return sampling.SamplerConfig(dim=dim, seed=seed, spectrum_lo=lo,
                                  spectrum_hi=hi)


# ----------------------------------------------------------------------
# configuration contract
# ----------------------------------------------------------------------

def test_config_accepts_full_dim_range():
    assert sampling.SamplerConfig(dim=1).dim == 1
    assert sampling.SamplerConfig(dim=inputs.MAX_DIM).dim == inputs.MAX_DIM


def test_config_rejects_bad_dims():
    with pytest.raises(InvalidSpec):
        sampling.SamplerConfig(dim=0)
    with pytest.raises(InvalidSpec):
        sampling.SamplerConfig(dim=inputs.MAX_DIM + 1)


@pytest.mark.parametrize("call", [
    lambda: sampling.SamplerConfig(dim=2.5),
    lambda: sampling.SamplerConfig(dim="2"),
    lambda: sampling.SamplerConfig(dim=True),
    lambda: sampling.SamplerConfig(dim=2, seed=np.True_),
    lambda: sampling.rng_for(0, True),
    lambda: sampling.SamplerConfig(dim=2, seed=1.5),
    lambda: sampling.rng_for(1.5, 0),
    lambda: sampling.rng_for(0, 1.5),
    lambda: sampling.random_spd(_cfg(), trial=1.5),
    lambda: sampling.random_isometry(_cfg(), 1.5),
])
def test_non_integral_counts_seeds_and_indices_are_rejected(call):
    # they used to be truncated (seed 1.5 drew seed 1's numbers) or to
    # raise a bare TypeError
    with pytest.raises(InvalidSpec):
        call()


@pytest.mark.parametrize("kwargs, field", [
    ({"spectrum_lo": "0.5"}, "spectrum_lo"),
    ({"spectrum_lo": True, "spectrum_hi": True}, "spectrum_lo"),
    ({"spectrum_hi": np.True_}, "spectrum_hi"),
    ({"spectrum_hi": 2 + 0j}, "spectrum_hi"),
], ids=repr)
def test_config_reads_its_window_as_numbers(kwargs, field):
    # "0.5" raised a bare TypeError, and True was read as 1.0
    with pytest.raises(SchemaError, match=f"^{field}: expected a number, got "):
        sampling.SamplerConfig(dim=2, **kwargs)


def test_integral_floats_are_read_as_integers():
    cfg = sampling.SamplerConfig(dim=3.0, seed=2.0)
    assert (cfg.dim, cfg.seed) == (3, 2) and type(cfg.dim) is type(cfg.seed) is int
    assert np.array_equal(sampling.random_spd(cfg, trial=1.0),
                          sampling.random_spd(_cfg(dim=3, seed=2), trial=1))
    assert np.array_equal(sampling.rng_for(2.0, 1.0).uniform(size=4),
                          sampling.rng_for(2, 1).uniform(size=4))
    assert sampling.random_isometry(cfg, 2.0).shape == (3, 2)


def test_config_rejects_bad_window():
    with pytest.raises(InvalidSpec):
        sampling.SamplerConfig(dim=2, spectrum_lo=2.0, spectrum_hi=1.0)
    with pytest.raises(InvalidSpec):
        sampling.SamplerConfig(dim=2, spectrum_lo=0.0)
    # an infinite window used to reach numpy's uniform, which raised a bare
    # OverflowError
    for lo, hi in ((0.5, float("inf")), (float("inf"), float("inf"))):
        with pytest.raises(InvalidSpec):
            sampling.SamplerConfig(dim=2, spectrum_lo=lo, spectrum_hi=hi)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_rng_for_is_reproducible():
    a = sampling.rng_for(42, 7).uniform(size=8)
    b = sampling.rng_for(42, 7).uniform(size=8)
    assert np.array_equal(a, b)


def test_rng_for_streams_are_distinct():
    a = sampling.rng_for(42, 7).uniform(size=8)
    b = sampling.rng_for(42, 8).uniform(size=8)
    c = sampling.rng_for(43, 7).uniform(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


SEEDS = (-1, -(1 << 63), 1 << 63, (1 << 64) + 5, 7)
INDICES = (0, 3, -2, (1 << 64) - 1, 3 + fuzz._S_B, 3 + fuzz._S_MAP, 3 + fuzz._S_AUX)


def _draws(rng):
    return (rng.uniform(size=5), rng.normal(size=(3, 2)), rng.integers(7, size=6),
            rng.uniform(-1.3, 0.3), int(rng.integers(4)))


def _same(x, y):
    return all(np.array_equal(u, v) for u, v in zip(x, y))


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeyed_streams_equal_rng_for(seed):
    batch = sampling._Batch(seed)
    for index in INDICES:
        (rng,) = batch.streams(index)
        assert _same(_draws(rng), _draws(sampling.rng_for(seed, index)))
    # several live at once, each its own stream
    gens = batch.streams(*INDICES)
    draws = [_draws(rng) for rng in reversed(gens)][::-1]
    for index, got in zip(INDICES, draws):
        assert _same(got, _draws(sampling.rng_for(seed, index)))


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeying_a_partly_consumed_slot_starts_clean(seed):
    batch = sampling._Batch(seed)
    (rng,) = batch.streams(5)
    rng.normal(size=3)
    rng.random(3, dtype=np.float32)     # leaves half a 64-bit word cached
    state = rng.bit_generator.state
    assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
    for index in INDICES:
        (rng,) = batch.streams(index)
        assert _same(_draws(rng), _draws(sampling.rng_for(seed, index)))
        rng.random(dtype=np.float32)


@pytest.mark.parametrize("seed, index", [(-1, 0), (7, -2), ((1 << 63) + 1, 3),
                                         (5, (1 << 64) - 1)])
def test_rng_for_keys_every_word_exactly(seed, index):
    key = sampling.rng_for(seed, index).bit_generator.state["state"]["key"]
    assert [int(k) for k in key] == [seed % (1 << 64), index % (1 << 64)]


def test_negative_seeds_do_not_alias_small_ones():
    assert not np.array_equal(sampling.rng_for(-1, 0).uniform(size=4),
                              sampling.rng_for(0, 0).uniform(size=4))


def test_generators_replay_per_trial():
    cfg = _cfg()
    assert np.array_equal(sampling.random_spd(cfg, 5), sampling.random_spd(cfg, 5))
    assert not np.array_equal(sampling.random_spd(cfg, 5), sampling.random_spd(cfg, 6))
    a1, b1 = sampling.random_sandwich_pair(cfg, 2.0, trial=3)
    a2, b2 = sampling.random_sandwich_pair(cfg, 2.0, trial=3)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


# ----------------------------------------------------------------------
# constraint satisfaction
# ----------------------------------------------------------------------

def test_random_spd_spectrum_in_window():
    cfg = _cfg(dim=6, lo=0.3, hi=4.0)
    for trial in range(16):
        m = sampling.random_spd(cfg, trial)
        assert np.array_equal(m, m.T)
        lam = linalg.eigvals_sym(m)
        assert lam[0] >= 0.3 - 1e-10
        assert lam[-1] <= 4.0 + 1e-10


def test_random_orthogonal_is_orthogonal():
    q = sampling.random_orthogonal(5, sampling.rng_for(1, 2))
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-12


def test_spd_from_spectrum_keeps_eigenvalues():
    spectrum = [0.2, 1.0, 3.5]
    m = sampling.spd_from_spectrum(spectrum, sampling.rng_for(9, 0))
    assert np.allclose(linalg.eigvals_sym(m), sorted(spectrum), atol=1e-10)


def test_random_sandwich_pair_satisfies_window():
    cfg = _cfg(dim=5)
    for trial in range(16):
        a, b = sampling.random_sandwich_pair(cfg, M_target=3.0, trial=trial)
        _, inv_half = linalg.sqrt_factors(a)
        lam = linalg.eigvals_sym(linalg.symmetrize(inv_half @ b @ inv_half))
        assert lam[0] >= 1.0 - 1e-12
        assert lam[-1] <= 3.0 + 1e-9


def test_random_norm_dominated_pair_dominates():
    cfg = _cfg(dim=4)
    for trial in range(16):
        a, b = sampling.random_norm_dominated_pair(cfg, trial, gap=0.25)
        floor = linalg.norm_op(a) * np.eye(4)
        lam = linalg.eigvals_sym(b - floor)
        assert lam[0] >= 0.25 - 1e-12
        lam_diff = linalg.eigvals_sym(b - a)
        assert lam_diff[0] >= 0.25 - 1e-12


def test_random_norm_dominated_pair_rejects_negative_gap():
    with pytest.raises(InvalidSpec):
        sampling.random_norm_dominated_pair(_cfg(), 0, gap=-0.1)


def test_random_sandwich_pair_rejects_small_target():
    with pytest.raises(InvalidSpec):
        sampling.random_sandwich_pair(_cfg(), M_target=0.9)


def test_random_density_unit_trace():
    for trial in range(8):
        rho = sampling.random_density(_cfg(dim=3), trial)
        assert abs(float(np.trace(rho)) - 1.0) < 1e-12
        assert linalg.eigvals_sym(rho)[0] > 0.0


def test_random_unit_vector_normalized():
    for trial in range(8):
        v = sampling.random_unit_vector(_cfg(dim=6), trial)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_random_isometry_columns_orthonormal():
    v = sampling.random_isometry(_cfg(dim=6), k=3, trial=2)
    assert v.shape == (6, 3)
    assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12


def test_random_isometry_rejects_bad_width():
    with pytest.raises(InvalidSpec):
        sampling.random_isometry(_cfg(dim=3), k=4)
    with pytest.raises(InvalidSpec):
        sampling.random_isometry(_cfg(dim=3), k=0)


def test_random_square_is_generally_nonsymmetric():
    m = sampling.random_square(_cfg(dim=4), 0)
    assert m.shape == (4, 4)
    assert not np.array_equal(m, m.T)
