"""Tests for the dense symmetric linear algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opineq import checks, fuzz, linalg, means, sampling
from opineq.errors import (
    DimensionMismatch,
    InvalidSpec,
    NotFinite,
    NotPositiveDefinite,
    NotSymmetric,
    SchemaError,
)

trials = st.integers(min_value=0, max_value=10 ** 6)


def _spd(dim, trial, lo=0.5, hi=2.0):
    return sampling.random_spd(
        sampling.SamplerConfig(dim=dim, seed=7, spectrum_lo=lo, spectrum_hi=hi),
        trial,
    )


# ----------------------------------------------------------------------
# shapes and symmetry
# ----------------------------------------------------------------------

def test_as_square_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        linalg.as_square(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.as_square(np.ones(4))


def test_require_symmetric_rejects_skew():
    with pytest.raises(NotSymmetric):
        linalg.require_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# Where the thresholds sit, one value either side (0.9 and 1.1 of it), at
# a magnitude below one and above: each scales with what it compares, with
# no unit floor (ROADMAP item 8a).

@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_symmetry_threshold_sits_at_sym_rtol_times_the_largest_entry(scale, side):
    # max |a_ij - a_ji| <= 1e-12 * max |a_ij|, SYM_RTOL = 1e-12
    a = np.array([[scale, 0.0], [side * 1e-12 * scale, scale]])
    assert linalg.is_symmetric(a) is (side < 1.0)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_positivity_floor_sits_at_pos_eig_rtol_times_the_spectrum(scale, side):
    # eigenvalues within 1e-10 * max |lambda| of zero count as zero,
    # POS_EIG_RTOL = 1e-10: a fractional power admits -0.9 of the floor and
    # refuses -1.1 of it; a negative power refuses 0.9 and admits 1.1
    floor = 1e-10 * scale
    psd, pd = np.diag([-side * floor, scale]), np.diag([side * floor, scale])
    for a, p, ok in ((psd, 0.5, side < 1.0), (pd, -1.0, side > 1.0)):
        if ok:
            assert np.isfinite(linalg.power(a, p)).all()
        else:
            with pytest.raises(NotPositiveDefinite):
                linalg.power(a, p)


def test_symmetrize_is_projection():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = linalg.symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.array_equal(linalg.symmetrize(s), s)


# ----------------------------------------------------------------------
# eigenvalues and functional calculus
# ----------------------------------------------------------------------

def test_eigvals_closed_form():
    # trace 7, determinant 1: eigenvalues (7 -+ 3 sqrt 5) / 2
    lam = linalg.eigvals_sym(np.array([[2.0, 3.0], [3.0, 5.0]]))
    root = 3.0 * math.sqrt(5.0)
    assert abs(lam[0] - (7.0 - root) / 2.0) < 1e-12
    assert abs(lam[1] - (7.0 + root) / 2.0) < 1e-12


def test_eigvals_sorted_ascending():
    lam = linalg.eigvals_sym(np.diag([3.0, -1.0, 2.0]))
    assert np.all(np.diff(lam) >= 0.0)


def test_power_special_exponents():
    a = _spd(3, 0)
    assert np.allclose(linalg.power(a, 1.0), a, atol=1e-13)
    assert np.allclose(linalg.power(a, 0.0), np.eye(3), atol=1e-13)
    assert np.allclose(linalg.power(a, -1.0) @ a, np.eye(3), atol=1e-11)
    half = linalg.power(a, 0.5)
    assert np.allclose(half @ half, a, atol=1e-12)


def _count_eigensolves(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *args, _s=solve, _n=name: calls.append(_n) or _s(m, *args))
    return calls


def test_power_zero_and_one_need_no_eigensolve(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    a = _spd(3, 1)
    assert np.array_equal(linalg.power(a, 1.0), a)
    assert np.array_equal(linalg.power(a, 0.0), np.eye(3))
    assert calls == []
    with pytest.raises(NotSymmetric):
        linalg.power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.0)


def test_spectra_solves_each_input_once(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    sp = linalg.Spectra()
    a = _spd(3, 2)
    half, _ = sp.sqrt_factors(a)
    assert np.allclose(sp.power(a, 0.5), half, atol=1e-14)
    assert np.array_equal(half, linalg.sqrt_factors(a)[0])
    sp.eigvals(a)
    sp.eigvals(a.copy())
    sp.norm_op(a)
    # the public call solves again; eigh(a), eigvalsh(a) and eigvalsh(a^T a)
    # are kept apart
    assert calls == ["eigh", "eigh", "eigvalsh", "eigvalsh"]


def test_spectra_solves_each_stack_once_with_the_bits_of_each_matrix_alone(monkeypatch):
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    mats = [_spd(4, trial) for trial in range(5)]
    sp = linalg.Spectra()
    sp.decompose(mats[1][None])
    sp.decompose(np.stack(mats[:3]))
    stack = sp.decompose(np.stack(mats[::-1]))
    assert sizes == [1, 3, 5]   # each new stack is solved whole
    # a stack seen before, in any leading shape, is not solved again
    alone = sp.decompose(mats[1])
    again = sp.decompose(np.stack(mats[::-1]).reshape(1, 5, 4, 4))
    assert sizes == [1, 3, 5]
    assert alone.eigenvectors.shape == (4, 4) and again.eigenvalues.shape == (1, 5, 4)
    assert np.array_equal(alone.eigenvectors, eigh(mats[1])[1])
    assert np.array_equal(again.eigenvectors[0], stack.eigenvectors)
    for got, m in zip(stack.eigenvalues, mats[::-1]):
        assert np.array_equal(got, eigh(m)[0])
    powers = sp.power(np.stack(mats), [0.5, -1.0, 0.0, 1.0, 2.0])
    for got, m, p in zip(powers, mats, [0.5, -1.0, 0.0, 1.0, 2.0]):
        assert np.array_equal(got, linalg.Spectra().power(m, p))
    norms = sp.norm_op(np.stack(mats)).tolist()
    assert norms == [linalg.Spectra().norm_op(m) for m in mats]


def test_spectra_rejects_non_finite_input():
    with pytest.raises(ValueError):
        linalg.Spectra().eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_non_finite_errors_are_opineq_errors():
    # inf or nan in an input, or a power that overflows from finite input
    with pytest.raises(NotFinite):
        linalg.as_square([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(NotFinite):
        linalg.Spectra().decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotFinite):
        linalg.power(np.diag([1e200, 1.0]), 2.0)
    with pytest.raises(NotFinite):
        linalg.power(np.diag([1e-9, 1.0]), -40.0)
    # an exponent that is not finite, or that float() refuses: inf, nan and
    # None raised a bare OverflowError, ValueError and TypeError, and -inf
    # returned the identity
    for p in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidSpec, match="^p must be finite$"):
            linalg.power(np.eye(2), p)
    with pytest.raises(SchemaError, match="^malformed instance: "):
        linalg.power(np.eye(2), None)


@pytest.mark.parametrize("call", [
    linalg.as_square, linalg.norm_op, linalg.numerical_radius,
    lambda a: means.weighted_mean(a, np.eye(2), 0.5),
], ids=["as_square", "norm_op", "numerical_radius", "weighted_mean"])
@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], {}], ids=["ragged", "dict"])
def test_what_numpy_cannot_read_is_a_malformed_instance(call, value):
    # a ragged list raised a bare ValueError, a dict a bare TypeError
    with pytest.raises(SchemaError, match="^malformed instance: "):
        call(value)


def test_power_negative_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        linalg.power(np.diag([1.0, 0.0]), -1.0)


def test_sqrt_factors_invert_each_other():
    a = _spd(4, 1)
    half, inv_half = linalg.sqrt_factors(a)
    assert np.allclose(half @ half, a, atol=1e-12)
    assert np.allclose(half @ inv_half, np.eye(4), atol=1e-11)


def test_conjugate_by_sqrt_reference_pair():
    a = np.array([[2.0, 3.0], [3.0, 5.0]])
    b = np.array([[3.0, 4.0], [4.0, 6.0]])
    _, inv_half = linalg.sqrt_factors(a)
    w = linalg.symmetrize(inv_half @ b @ inv_half)
    lam = linalg.eigvals_sym(w)
    assert abs(lam[0] - 1.0) < 1e-10
    assert abs(lam[1] - 2.0) < 1e-10


def test_conjugate_by_sqrt_is_the_square_root_sandwich():
    a = np.array([[2.0, 3.0], [3.0, 5.0]])
    x = np.array([[3.0, 4.0], [4.0, 6.0]])
    half = linalg.sqrt_factors(a)[0]
    assert np.array_equal(linalg.conjugate_by_sqrt(a, x), linalg.symmetrize(half @ x @ half))
    with pytest.raises(DimensionMismatch):
        linalg.conjugate_by_sqrt(a, np.eye(3))


def test_conjugate_by_sqrt_reconstructs_only_the_square_root(monkeypatch):
    # the sandwich needs A^{1/2} only, so A^{-1/2} is never formed
    calls = []
    reconstruct = linalg._reconstruct
    monkeypatch.setattr(linalg, "_reconstruct",
                        lambda *args: calls.append(args) or reconstruct(*args))
    linalg.conjugate_by_sqrt(np.array([[2.0, 3.0], [3.0, 5.0]]), np.eye(2))
    assert len(calls) == 1


def test_spectral_decompose_apply():
    a = _spd(3, 2)
    dec = linalg.spectral_decompose(a)
    cube = dec.apply(lambda t: t ** 3)
    assert np.allclose(cube, a @ a @ a, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(trials, st.sampled_from([0.5, 2.0, -1.0, 1.0 / 3.0]))
def test_power_roundtrip(trial, p):
    a = _spd(3, trial)
    back = linalg.power(linalg.power(a, p), 1.0 / p)
    assert np.allclose(back, a, atol=1e-9)


# ----------------------------------------------------------------------
# norms, radii
# ----------------------------------------------------------------------

def test_norms_closed_form():
    a = np.diag([1.0, -2.0])
    assert abs(linalg.norm_op(a) - 2.0) < 1e-14
    assert abs(linalg.norm_hs(a) - math.sqrt(5.0)) < 1e-14
    assert abs(linalg.norm_tr(a) - 3.0) < 1e-14


def test_singular_values_descending():
    s = linalg.singular_values(np.diag([1.0, -3.0, 2.0]))
    assert np.all(np.diff(s) <= 0.0)
    assert np.allclose(s, [3.0, 2.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(trials, st.integers(min_value=2, max_value=6))
def test_norm_chain_order(trial, dim):
    a = sampling.random_square(sampling.SamplerConfig(dim=dim, seed=3), trial)
    op = linalg.norm_op(a)
    hs = linalg.norm_hs(a)
    tr = linalg.norm_tr(a)
    assert op <= hs + 1e-12 * max(1.0, op)
    assert hs <= tr + 1e-12 * max(1.0, hs)
    assert tr <= dim * op + 1e-10


def test_spectral_radius_nilpotent():
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.spectral_radius(j2) < 1e-14


def test_numerical_radius_shift_blocks():
    # w of the n x n nilpotent shift is cos(pi / (n + 1))
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(linalg.numerical_radius(j2) - 0.5) < 1e-9
    j3 = np.zeros((3, 3))
    j3[0, 1] = j3[1, 2] = 1.0
    assert abs(linalg.numerical_radius(j3) - math.cos(math.pi / 4.0)) < 1e-9


def test_numerical_radius_symmetric_equals_norm():
    a = _spd(4, 3) - 1.2 * np.eye(4)
    assert abs(linalg.numerical_radius(a) - linalg.norm_op(a)) < 1e-9


def _radius_complex_oracle(a, grid=2000):
    """max over theta of the top eigenvalue of Re(e^{i theta} A).

    Independent of the engine's real 2n x 2n embedding: this one works
    directly with the complex Hermitian family, so agreement is a real
    cross-check and not a reimplementation.
    """
    best = -np.inf
    for theta in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
        h = 0.5 * (np.exp(1j * theta) * a + np.exp(-1j * theta) * a.T)
        best = max(best, float(np.linalg.eigvalsh(h)[-1]))
    return best


@pytest.mark.parametrize("trial", range(6))
def test_numerical_radius_matches_complex_oracle(trial):
    dim = 2 + trial % 4
    a = sampling.random_square(sampling.SamplerConfig(dim=dim, seed=11), trial)
    w = linalg.numerical_radius(a)
    oracle = _radius_complex_oracle(a)
    # the grid oracle is a lower bound with O(grid^-2) defect
    assert w >= oracle - 1e-9
    assert abs(w - oracle) < 1e-5 * max(1.0, oracle)


@settings(max_examples=40, deadline=None)
@given(trials, st.integers(min_value=2, max_value=6))
def test_radius_chain_order(trial, dim):
    a = sampling.random_square(sampling.SamplerConfig(dim=dim, seed=5), trial)
    r = linalg.spectral_radius(a)
    w = linalg.numerical_radius(a)
    op = linalg.norm_op(a)
    assert r <= w + 1e-9
    assert w <= op + 1e-9
    assert op <= 2.0 * w + 1e-9


def _radius_brute_force(a, grid: int = 720, refine_iters: int = 40) -> float:
    """The numerical radius kernel numerical_radius replaced, kept as its
    reference: a 720-angle grid on the real 2n x 2n embedding of
    Re(e^{i theta} A), then 40 golden-section steps around the best angle.
    """
    m = linalg.as_square(a)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    k = 0.5 * (m - m.T)

    # Real embedding of cos(t) S + i sin(t) K: X = cos(t) S, Y = sin(t) K.
    def embed(theta: float) -> np.ndarray:
        x = np.cos(theta) * s
        y = np.sin(theta) * k
        return np.block([[x, -y], [y, x]])

    thetas = np.linspace(0.0, np.pi, grid, endpoint=False)
    stack = np.empty((grid, 2 * n, 2 * n))
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    stack[:, :n, :n] = cos_t[:, None, None] * s
    stack[:, n:, n:] = stack[:, :n, :n]
    stack[:, :n, n:] = -sin_t[:, None, None] * k
    stack[:, n:, :n] = -stack[:, :n, n:]
    tops = np.linalg.eigvalsh(stack)[:, -1]

    def g(theta: float) -> float:
        return float(np.linalg.eigvalsh(embed(theta))[-1])

    best = int(np.argmax(tops))
    step = np.pi / grid
    lo = thetas[best] - step
    hi = thetas[best] + step

    # Golden-section ascent on [lo, hi]; g extends smoothly past the
    # grid endpoints so the bracket never needs clipping.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(refine_iters):
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = g(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = g(x1)
    return max(float(tops[best]), f1, f2)


@pytest.mark.parametrize("p", [0.5, 2.0, -1.0])
@pytest.mark.parametrize("dim,trials", [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (16, 2), (32, 1)])
def test_numerical_radius_matches_brute_force(dim, trials, p):
    for trial in range(trials):
        a = fuzz.sample_instance("radius_chain", dim, 7, p, trial).A
        ref = _radius_brute_force(a)
        assert abs(linalg.numerical_radius(a) - ref) <= 1e-12 * ref


def test_numerical_radius_matches_brute_force_dim_64():
    a = fuzz.sample_instance("radius_chain", 64, 7, 0.5, 0).A
    ref = _radius_brute_force(a)
    assert abs(linalg.numerical_radius(a) - ref) <= 1e-12 * ref


def _rotation(r, phi):
    return r * np.array([[math.cos(phi), -math.sin(phi)],
                         [math.sin(phi), math.cos(phi)]])


def _block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


@pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 5e-4])
def test_numerical_radius_two_peaks(ratio):
    # A = [1] (+) r R(phi) is normal, so w = max(1, r), and
    # g(theta) = max(cos theta, r cos(theta -+ phi)) peaks at 0 and at phi.
    # The 400 angles put phi at every offset from the grid, midway included,
    # and down to 1e-3, far closer to the peak at 0 than a grid step.
    for phi in np.linspace(1e-3, np.pi, 400):
        a = _block_diag(np.eye(1), _rotation(ratio, phi))
        assert abs(linalg.numerical_radius(a) - max(1.0, ratio)) <= 1e-12, phi


@pytest.mark.parametrize("phi", [0.01, 0.035, 0.05, 0.1, 0.15])
def test_numerical_radius_close_peaks(phi):
    # [1] (+) 1.0005 R(phi): g has a local maximum 1 at theta = 0 on the [1]
    # branch and w = 1.0005 at theta = phi on the other branch
    a = _block_diag(np.eye(1), _rotation(1.0005, phi))
    assert abs(linalg.numerical_radius(a) - 1.0005) <= 1e-12 * 1.0005


@pytest.mark.parametrize("other", [1.0, 0.9995])
@pytest.mark.parametrize("j", range(8))
def test_numerical_radius_bump_between_grid_peaks(j, other):
    # With h = pi / 8, the spacing of numerical_radius's grid, two blocks
    # peak exactly at the grid angles j h and (j + 1) h and a third,
    # 1.01 R((j + 1/2) h), midway between them.  It is the top branch at no
    # grid angle, since 1.01 cos(h / 2) < 0.9995, yet the matrix is normal
    # and w = 1.01.
    h = np.pi / 8
    a = _block_diag(_rotation(1.0, j * h), _rotation(other, (j + 1) * h),
                    _rotation(1.01, (j + 0.5) * h))
    assert abs(linalg.numerical_radius(a) - 1.01) <= 1e-12 * 1.01


@pytest.mark.parametrize("phi", np.linspace(0.05, 3.0, 13))
def test_numerical_radius_narrow_bump_on_flat_profile(phi):
    # 2 J_2 has W = the unit disc, so g = 1 at every angle; the block
    # (1 + 1e-7) R(phi) pokes out of the disc only within ~4.5e-4 of phi
    a = _block_diag(np.array([[0.0, 2.0], [0.0, 0.0]]), _rotation(1.0 + 1e-7, phi))
    assert abs(linalg.numerical_radius(a) - (1.0 + 1e-7)) <= 1e-12


def test_numerical_radius_maximum_at_pi():
    # near theta = pi, g = 2 - (1 - 1e-6 / 3) t^2 + O(t^4), so w = 2 is
    # attained only at the grid's closing angle
    a = np.diag([-2.0, 1.0]) + 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(linalg.numerical_radius(a) - 2.0) <= 1e-15


def _radius_parts(a):
    return 0.5 * (a + a.T), 0.5j * (a - a.T)


def test_radius_grid_is_even():
    # the reflection pairs j pi / G with (G - j) pi / G, and pi / 2 is its
    # own mirror, solved directly
    half = linalg._RADIUS_GRID // 2
    thetas, _ = linalg._radius_grid(*_radius_parts(np.eye(2)))
    assert linalg._RADIUS_GRID == 2 * half
    assert thetas[half] == np.pi / 2


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_radius_grid_makes_one_stacked_solve_of_half_the_angles(monkeypatch, n):
    calls = _count_eigensolves(monkeypatch)
    shapes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solve(m))
    a = fuzz.sample_instance("radius_chain", n, 7, 0.5, 0).A
    thetas, tops = linalg._radius_grid(*_radius_parts(a))
    assert calls == ["eigvalsh"]
    assert shapes == [(linalg._RADIUS_GRID // 2 + 2, n, n)]
    assert thetas.shape == tops.shape == (linalg._RADIUS_GRID + 1,)


@pytest.mark.parametrize("dim,trials", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4),
                                        (16, 2), (32, 1), (64, 1)])
def test_radius_grid_reflection_matches_the_direct_solve(dim, trials):
    # the angles j <= G/2 and pi are solved as _radius_tops solves them, so
    # their values keep its bits; the others, -lambda_min at the mirror
    # angle, agree to rounding
    half = linalg._RADIUS_GRID // 2
    solved = [*range(half + 1), linalg._RADIUS_GRID]
    for trial in range(trials):
        for p in checks.REGISTRY["radius_chain"].default_p:
            a = fuzz.sample_instance("radius_chain", dim, 7, p, trial).A
            s, k = _radius_parts(a)
            thetas, tops = linalg._radius_grid(s, k)
            direct = linalg._radius_tops(s, k, thetas)
            assert np.array_equal(tops[solved], direct[solved])
            assert np.abs(tops - direct).max() <= 1e-13 * linalg.norm_op(a)


@pytest.mark.parametrize("a,want", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),  # J2: g is 1/2 at every angle
    (np.zeros((3, 3)), 0.0),
    (np.eye(4), 1.0),  # the top eigenvalue of H(theta) is 4-fold
])
def test_numerical_radius_flat_profiles_stop_at_once(monkeypatch, a, want):
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, _solver=solver: calls.append(1) or _solver(m))
    assert abs(linalg.numerical_radius(a) - want) <= 1e-15
    # the grid, one polish step, the slopes of a multiple top eigenvalue,
    # one level-set test and g at its cuts' midpoints
    assert len(calls) <= 5


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_numerical_radius_scales(scale):
    a = fuzz.sample_instance("radius_chain", 4, 7, 0.5, 0).A
    want = linalg.numerical_radius(a)
    assert abs(linalg.numerical_radius(scale * a) - scale * want) <= 1e-13 * scale * want


def test_norms_survive_extreme_scales():
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    op, hs, tr = linalg.norms(m)
    for scale in (1e200, 1e-170):
        got = linalg.norms(scale * m)
        for x, want in zip(got, (op, hs, tr)):
            assert abs(x - scale * want) <= 1e-14 * scale * want
        assert abs(linalg.norm_op(scale * m) - scale * op) <= 1e-14 * scale * op
    assert linalg.norm_op(3e-170 * np.eye(1)) == 3e-170


def test_singular_values_keep_bits_in_range():
    for trial in range(5):
        a = sampling.random_square(sampling.SamplerConfig(dim=4, seed=2), trial)
        want = np.sqrt(np.clip(np.linalg.eigvalsh(linalg.symmetrize(a.T @ a)), 0.0, None))[::-1]
        assert np.array_equal(linalg.singular_values(a), want)


# ----------------------------------------------------------------------
# Loewner comparison
# ----------------------------------------------------------------------

def test_loewner_compare_orders():
    a = _spd(3, 4)
    assert linalg.loewner_compare(a, a + np.eye(3)).is_le
    assert linalg.loewner_compare(a + np.eye(3), a).is_ge
    both = linalg.loewner_compare(a, a)
    assert both.is_le and both.is_ge


def test_loewner_compare_incomparable():
    verdict = linalg.loewner_compare(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert not verdict.is_le and not verdict.is_ge
    assert abs(verdict.gap_min_eig + 1.0) < 1e-12


def test_loewner_compare_tolerance_scales_with_norm():
    scale = 1e6
    a = scale * np.eye(2)
    b = a - 1e-5 * np.eye(2)  # tiny dip relative to the operands
    assert linalg.loewner_compare(a, b, tol_rel=1e-9).is_le
    assert not linalg.loewner_compare(a, b, tol_rel=1e-13).is_le


@pytest.mark.parametrize("scale", [1e-3, 1e6])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_loewner_compare_threshold_sits_at_tol_rel_times_the_norms(scale, side):
    # L <= R while lambda_min(R - L) >= -tol_rel * max(||L||, ||R||):
    # one dip either side of it
    tol = 1e-9 * scale
    left = scale * np.eye(2)
    verdict = linalg.loewner_compare(left, left - np.diag([side * tol, 0.0]), tol_rel=1e-9)
    assert verdict.tol_used == pytest.approx(tol, rel=1e-12)
    assert verdict.is_le is (side < 1.0)


def test_an_exact_zero_scale_gives_a_zero_threshold():
    zero = np.zeros((2, 2))
    verdict = linalg.loewner_compare(zero, zero)
    assert verdict.tol_used == 0.0 and verdict.relation == linalg.EQ
    assert linalg.is_symmetric(zero)
    assert not linalg.loewner_compare(zero, np.diag([-1e-300, 0.0])).is_le
    assert not linalg.power(zero, 0.5).any()
    with pytest.raises(NotPositiveDefinite):
        linalg.power(np.diag([-1e-300, 0.0]), 0.5)


@pytest.mark.parametrize("tol_rel", [-1.0, np.inf, np.nan, "x", True], ids=repr)
def test_loewner_compare_validates_tol_rel(tol_rel):
    # -1.0 gave a negative tol_used and read I <= 2I as INCOMPARABLE
    with pytest.raises(InvalidSpec, match="^tolerance must be "):
        linalg.loewner_compare(np.eye(2), 2.0 * np.eye(2), tol_rel=tol_rel)


def test_loewner_compare_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.loewner_compare(np.eye(2), np.eye(3))


@pytest.mark.parametrize("call, field", [
    (linalg.as_square, "matrix"),
    (lambda a: linalg.as_square(a, "A"), "A"),
    (lambda a: linalg.require_symmetric(a, "X"), "X"),
    (linalg.is_symmetric, "matrix"),
    (linalg.eigvals_sym, "matrix"),
    (lambda a: linalg.power(a, 2.0), "matrix"),
    (linalg.norm_op, "matrix"),
    (linalg.spectral_radius, "matrix"),
    (linalg.numerical_radius, "matrix"),
    (lambda a: linalg.loewner_compare(np.eye(2), a), "right operand"),
    (lambda a: means.weighted_mean(a, np.eye(2), 0.5), "A"),
    (lambda a: means.tsallis_entropy(np.eye(2), a, 0.5), "B"),
])
@pytest.mark.parametrize("bad", ["1", True, np.True_, 1j], ids=repr)
def test_public_matrix_functions_apply_the_number_rule(call, field, bad):
    # spectral_radius read [["1", 0], [0, 1]] as the identity, and
    # eigvals_sym a bool as 0 or 1
    with pytest.raises(SchemaError, match=f"^{field}: expected a number, got "):
        call([[1.0, bad], [bad, 1.0]])
    with pytest.raises(SchemaError, match=f"^{field}: expected a number, got "):
        call(np.array([[1.0, bad], [bad, 1.0]], dtype=object))


@pytest.mark.parametrize("call, first", [
    (linalg.loewner_compare, "left operand"),
    (linalg.conjugate_by_sqrt, "A"),
    (lambda a, b: means.weighted_mean(a, b, 0.5), "A"),
])
def test_operand_pairs_raise_for_symmetry_before_shape(call, first):
    asym = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NotSymmetric, match=f"^{first} is not symmetric"):
        call(asym, np.eye(3))
    with pytest.raises(DimensionMismatch):
        call(np.eye(2), np.eye(3))
