"""Known-value instances: every two-operand check on the family B = cA.

B = cA has closed forms.  W = A^{-1/2} B A^{-1/2} = cI,
A #_p B = c^p A, T_p(A|B) = ((c^p - 1)/p) A and B^p - A^p = (c^p - 1) A^p.
So each check's verdict on it is known (_expected).  With c >= 1,
A <= B and W >= I hold, and the theorems give HOLDS, except where the
family breaks a hypothesis or an input rule of the check.

A comes from the check's own fuzz sampler, so it is not diagonal, with
its map, vector and function.  The pair is scaled by 2^k, which is exact
in binary, so the verdict must not depend on k.

The family runs at c in {1, 1 + 1e-9, 2} and k in {-60, -20, 0, 20, 60}.
So does its window family: the checks with a user window m <= W <= M,
given the sharp window m = M = c.

A second family has a closed-form numerical radius w: radius_chain on
a normal A, on the shift J_n and on J_n in a random orthogonal basis,
at n in {3, 4, 5} and every k, and at n = 64 with k = 0.

Only the cases that pass today run.  EXCLUDED lists the rest, each with
the ROADMAP item that mends it; a case joins the suite with that item.
So do the rest of item 12's families: the identity and trace maps, the
degenerate exponents and the other closed-form sides.
"""

import dataclasses
import math

import numpy as np
import pytest

from opineq import checks, fuzz
from opineq.errors import NotDensity, SingularDifference

SEED = 11
TRIALS = ((0, 3), (1, 4), (2, 5))     # (trial, dim)
C_NEAR = 1.0 + 1e-9
CS = (1.0, C_NEAR, 2.0)
KS = (-60, -20, 0, 20, 60)

# the checks whose sampler draws a second operand B
PAIR_CHECKS = [check_id for check_id, info in checks.REGISTRY.items()
               if fuzz.sample_instance(check_id, 2, SEED, info.default_p[0], 0).B is not None]
# the checks whose window m <= W <= M is on W = A^{-1/2} B A^{-1/2}; the
# first two also need the unit window m <= 1 <= W
WINDOW_CHECKS = ("reverse_monotonicity", "ando_converse", "seo_bound")
WINDOW = "m=M=c"

# (check, c, k) -> why it fails today, and the ROADMAP item that mends it
EXCLUDED = {
    ("info_monotonicity", 1.0, 20):
        "item 8: the sides cancel, so tol_used falls to its unit floor "
        "while the rounding error grows with ||A||",
    ("reverse_monotonicity", 1.0, 20): "item 8: as info_monotonicity",
    ("norm_refinement", 1.0, 20):
        "item 8: the equality case is judged against rounding noise",
    ("norm_refinement", 2.0, 20): "item 8: as (norm_refinement, 1, 20)",
    ("seo_bound", 2.0, 0):
        "item 11: seo_C(m, M, p) is off by about 1e-6 at M/m = 1 + 1e-16 "
        "(W = 2I), far above the tolerance",
    ("seo_bound", 2.0, 20): "item 11: as (seo_bound, 2, 0)",
    ("seo_bound", 2.0, 60): "item 11: as (seo_bound, 2, 0)",
    **{(check_id, c, -60):
       "item 8: the positivity floor, 1e-10 at unit scale, is above the whole "
       "spectrum of A at 2^-60, so an A^{1/2} or a negative power raises NotPositiveDefinite"
       for check_id in ("info_monotonicity", "reverse_monotonicity", "ando_converse",
                        "furuta_bounds", "seo_bound")
       for c in CS},
    ("lh_extension", 2.0, -60): "item 8: the positivity floor, as (info_monotonicity, 2, -60)",
    **{("lh_extension", c, -60):
       "item 8: the order gate ||A|| I <= B passes within its unit-floored tolerance"
       for c in (1.0, C_NEAR)},
    **{("mond_pecaric", c, -60):
       "item 8: the gates B <= A and <Bx, x> pass within their unit-floored "
       "tolerances, so a broken hypothesis is judged and FAILS"
       for c in CS},
    **{("mn2012", c, k):
       "item 8: min |eig(B - A)| falls below the unit-floored singular gate"
       for c, k in ((C_NEAR, -60), (C_NEAR, -20), (2.0, -60))},
    **{(check_id, c, k): "item 8: as (info_monotonicity, 1, 20)"
       for check_id in ("info_monotonicity", "reverse_monotonicity")
       for c, k in ((1.0, 60), (C_NEAR, 20), (C_NEAR, 60))},
    ("furuta_bounds", C_NEAR, 60):
        "item 8: at p = 1 the sides are 1e-9 A, and tol_used, scaled by them, "
        "falls below the rounding error of ||A||",
    **{(check_id, c, -60, WINDOW): "item 8: the positivity floor, as (info_monotonicity, 1, -60)"
       for check_id in WINDOW_CHECKS for c in CS},
    **{("reverse_monotonicity", c, k, WINDOW): "item 8: as (info_monotonicity, 1, 20)"
       for c in (1.0, C_NEAR) for k in (20, 60)},
    **{("norm_refinement", c, k): "item 8: as (norm_refinement, 1, 20)"
       for c, k in ((1.0, 60), (C_NEAR, 20), (C_NEAR, 60), (2.0, 60))},
}


def _expected(check_id, a, c, k):
    """The verdict of B = cA after scaling by 2^k, or the error it must raise."""
    lam = np.linalg.eigvalsh(a)
    if check_id == "density_trace" and (c, k) != (1.0, 0):
        # the trace of A or B is not one; at c = 1 + 1e-9 that of B is off
        # by 1e-9, above linalg._TRACE_TOL
        return NotDensity
    if check_id == "mn2012" and c == 1.0:
        return SingularDifference           # B - A = 0; at c = 1 + 1e-9 it is 1e-9 A
    if check_id in ("lh_extension", "mn2012"):
        # ||A|| I <= cA exactly when c lambda_min(A) >= lambda_max(A); at
        # c = 1 + 1e-9 that needs A within 1e-9 of a multiple of I
        return checks.HOLDS if c * lam[0] >= lam[-1] else checks.HYPOTHESIS_VIOLATED
    if check_id == "mond_pecaric":
        # c = 2 breaks B <= A, and so does c = 1 + 1e-9 where 1e-9 A is
        # above the tolerance; c = 1, and c = 1 + 1e-9 below that, break
        # <Bx, x> <= the smallest eigenvalue of A that x overlaps, since x
        # is not an eigenvector
        return checks.HYPOTHESIS_VIOLATED
    return checks.HOLDS


def _outcome(check_id, inst):
    try:
        return checks.run_check(check_id, inst).verdict
    except (NotDensity, SingularDifference) as exc:
        return type(exc)


def _rotation(r, phi):
    return r * np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


def _orthogonal(n):
    """A Haar-distributed orthogonal n x n matrix, fixed by n."""
    q, r = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _normal(n):
    # Q (2 R(1.1) (+) 1.5 R(0.4) (+) -0.7 I) Q^T is normal with eigenvalues
    # 2 e^{+-1.1 i}, 1.5 e^{+-0.4 i} and -0.7: r = w = ||A|| = 2
    d = np.diag(np.full(n, -0.7))
    d[:2, :2] = _rotation(2.0, 1.1)
    if n >= 4:
        d[2:4, 2:4] = _rotation(1.5, 0.4)
    q = _orthogonal(n)
    return q @ d @ q.T


def _rotated_shift(n):
    # Q J_n Q^T has w = cos(pi / (n + 1)) too, but rounded it is not
    # nilpotent: r is about u^{1/n} ||A|| (2.7e-9, 2.6e-6, 4.7e-4, 7.4e-3
    # and 0.57 at n = 2, 3, 5, 8 and 64), far above the vanishing-radius
    # gate, so p < 0 HOLDS.  That is the rounded matrix's true verdict, not
    # a verdict flip under orthogonal similarity (item 8).
    q = _orthogonal(n)
    return q @ np.eye(n, k=1) @ q.T


# family -> (A at dim n, its w); the shift J_n has w = cos(pi / (n + 1))
# and, in the standard basis, r exactly 0, so p < 0 breaks the hypothesis
RADIUS_FAMILIES = {
    "normal": (_normal, lambda n: 2.0),
    "shift": (lambda n: np.eye(n, k=1), lambda n: math.cos(math.pi / (n + 1))),
    "rotated_shift": (_rotated_shift, lambda n: math.cos(math.pi / (n + 1))),
}
RADIUS_DIMS = (3, 4, 5)

FAMILY = [(check_id, c, k) for check_id in PAIR_CHECKS for c in CS for k in KS]
WINDOW_FAMILY = [(check_id, c, k, WINDOW) for check_id in WINDOW_CHECKS for c in CS for k in KS]
RADIUS_FAMILY = [("radius_chain", family, k) for family in RADIUS_FAMILIES for k in KS]


def test_exclusions_name_cases_of_the_family():
    assert set(EXCLUDED) <= set(FAMILY) | set(WINDOW_FAMILY) | set(RADIUS_FAMILY)


@pytest.mark.parametrize("check_id, c, k",
                         [case for case in FAMILY if case not in EXCLUDED])
def test_equality_family_verdicts(check_id, c, k):
    wrong = []
    for trial, dim in TRIALS:
        for p in checks.REGISTRY[check_id].default_p:
            inst = fuzz.sample_instance(check_id, dim, SEED, p, trial)
            a = np.ldexp(inst.A, k)
            got = _outcome(check_id, dataclasses.replace(inst, A=a, B=c * a))
            want = _expected(check_id, inst.A, c, k)
            if got != want:
                wrong.append((trial, dim, p, got, want))
    assert not wrong


@pytest.mark.parametrize("check_id, c, k, window",
                         [case for case in WINDOW_FAMILY if case not in EXCLUDED])
def test_window_family_verdicts(check_id, c, k, window):
    # the unit window holds up to m = 1 + 1e-9 (HYP_TOL), so only c = 2
    # breaks it; seo_bound's ratio window needs no unit, and it reports the
    # additive term exactly where the unit window holds
    unit = c <= C_NEAR
    want = checks.HOLDS if unit or check_id == "seo_bound" else checks.HYPOTHESIS_VIOLATED
    wrong = []
    for trial, dim in TRIALS:
        for p in checks.REGISTRY[check_id].default_p:
            inst = fuzz.sample_instance(check_id, dim, SEED, p, trial)
            a = np.ldexp(inst.A, k)
            rep = checks.run_check(check_id, dataclasses.replace(inst, A=a, B=c * a, m=c, M=c))
            if rep.verdict != want:
                wrong.append((trial, dim, p, rep.verdict))
            if check_id == "seo_bound" and (rep.params["windowed_term_norm"] is None) is unit:
                wrong.append((trial, dim, p, "windowed_term_norm", rep.params["windowed_term_norm"]))
    assert not wrong


@pytest.mark.parametrize("check_id, family, k",
                         [case for case in RADIUS_FAMILY if case not in EXCLUDED])
def test_closed_form_numerical_radius(check_id, family, k):
    make, radius = RADIUS_FAMILIES[family]
    wrong = []
    for n in RADIUS_DIMS + ((64,) if k == 0 else ()):
        a, w = np.ldexp(make(n), k), math.ldexp(radius(n), k)
        for p in checks.REGISTRY[check_id].default_p:
            inst = fuzz.sample_instance(check_id, n, SEED, p, 0)
            rep = checks.run_check(check_id, dataclasses.replace(inst, A=a))
            vanishing = family == "shift" and p < 0.0
            want = checks.HYPOTHESIS_VIOLATED if vanishing else checks.HOLDS
            noted = "spectral radius vanishes" in rep.hypothesis_note
            if rep.verdict != want or noted != vanishing:
                wrong.append((n, p, rep.verdict, rep.hypothesis_note))
            known = (("numerical_radius", "spectral_radius", "norm_op") if family == "normal"
                     else ("numerical_radius",))
            wrong += [(n, p, name, rep.params[name], w)
                      for name in known if abs(rep.params[name] - w) > 1e-12 * w]
    assert not wrong
