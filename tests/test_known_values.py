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

The map families put the identity (a pinching with one block) and the
normalized trace in place of the sampled map: the mapped pair checks on
B = cA at every c and k, and power_corollary on 2^k A.

EXCLUDED lists the cases that fail today, each with the ROADMAP item
that mends it.  They run as strict expected failures, so a case that a
change mends fails the suite until it leaves the table.  The rest of
item 12's families, the degenerate exponents and the other closed-form
sides, are still to come.
"""

import dataclasses
import math

import numpy as np
import pytest

from opineq import checks, fuzz, maps
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
# the checks that take a map, and the two maps of the map families at dim n:
# the identity, a pinching with one block, and the normalized trace
MAPPED_CHECKS = [check_id for check_id, info in checks.REGISTRY.items()
                 if fuzz.sample_instance(check_id, 2, SEED, info.default_p[0], 0).map is not None]
MAPS = {"identity": lambda n: maps.MapSpec.pinching((tuple(range(n)),), n),
        "trace": maps.MapSpec.normalized_trace}

# (check, c, k) -> why it fails today, and the ROADMAP item that mends it;
# the window and map families add their window or map to the key
EXCLUDED = {
    ("info_monotonicity", 1.0, 20):
        "item 8b: the sides cancel, so tol_used falls to its unit floor "
        "while the rounding error grows with ||A||",
    ("reverse_monotonicity", 1.0, 20): "item 8b: as info_monotonicity",
    ("norm_refinement", 1.0, 20):
        "item 8b: the equality case is judged against rounding noise",
    ("norm_refinement", 2.0, 20): "item 8b: as (norm_refinement, 1, 20)",
    ("seo_bound", 2.0, 0):
        "item 11: seo_C(m, M, p) is off by about 1e-6 at M/m = 1 + 1e-16 "
        "(W = 2I), far above the tolerance",
    ("seo_bound", 2.0, 20): "item 11: as (seo_bound, 2, 0)",
    ("seo_bound", 2.0, 60): "item 11: as (seo_bound, 2, 0)",
    **{(check_id, c, k): "item 8b: as (info_monotonicity, 1, 20)"
       for check_id in ("info_monotonicity", "reverse_monotonicity")
       for c, k in ((1.0, 60), (C_NEAR, 20), (C_NEAR, 60))},
    ("furuta_bounds", C_NEAR, 60):
        "item 8b: at p = 1 the sides are 1e-9 A, and tol_used, scaled by them, "
        "falls below the rounding error of ||A||",
    **{("reverse_monotonicity", c, k, WINDOW): "item 8b: as (info_monotonicity, 1, 20)"
       for c in (1.0, C_NEAR) for k in (20, 60)},
    **{("norm_refinement", c, k): "item 8b: as (norm_refinement, 1, 20)"
       for c, k in ((1.0, 60), (C_NEAR, 20), (C_NEAR, 60), (2.0, 60))},
    **{(check_id, c, k, "trace"): "item 8b: as (info_monotonicity, 1, 20)"
       for check_id in ("info_monotonicity", "reverse_monotonicity")
       for c in (1.0, C_NEAR) for k in (20, 60)},
    ("furuta_bounds", C_NEAR, 60, "trace"): "item 8b: as (furuta_bounds, 1 + 1e-9, 60)",
    **{("seo_bound", 2.0, k, phi): "item 11: as (seo_bound, 2, 0)"
       for k in (0, 20, 60) for phi in ("identity", "trace")},
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
MAP_FAMILY = [(check_id, c, k, phi) for check_id in MAPPED_CHECKS if check_id in PAIR_CHECKS
              for c in CS for k in KS for phi in MAPS]
POWER_MAP_FAMILY = [(check_id, k, phi) for check_id in MAPPED_CHECKS
                    if check_id not in PAIR_CHECKS for k in KS for phi in MAPS]


def _cases(family):
    """family's cases, each one EXCLUDED lists as a strict expected failure."""
    return [pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=EXCLUDED[case]))
            if case in EXCLUDED else case for case in family]


def test_exclusions_name_cases_of_the_family():
    assert set(EXCLUDED) <= {*FAMILY, *WINDOW_FAMILY, *RADIUS_FAMILY, *MAP_FAMILY,
                             *POWER_MAP_FAMILY}
    assert len(MAP_FAMILY) == 150 and len(POWER_MAP_FAMILY) == 10


@pytest.mark.parametrize("check_id, c, k", _cases(FAMILY))
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


@pytest.mark.parametrize("check_id, c, k, window", _cases(WINDOW_FAMILY))
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


@pytest.mark.parametrize("check_id, c, k, phi", _cases(MAP_FAMILY))
def test_identity_and_trace_map_verdicts(check_id, c, k, phi):
    # Phi(B) = c Phi(A) under a linear map, so the mapped sides keep the
    # family's closed forms, and B = cA with c >= 1 HOLDS under both maps
    wrong = []
    for trial, dim in TRIALS:
        for p in checks.REGISTRY[check_id].default_p:
            inst = fuzz.sample_instance(check_id, dim, SEED, p, trial)
            a = np.ldexp(inst.A, k)
            rep = checks.run_check(check_id, dataclasses.replace(inst, A=a, B=c * a,
                                                                 map=MAPS[phi](dim)))
            if rep.verdict != checks.HOLDS:
                wrong.append((trial, dim, p, rep.verdict, rep.gap_min_eig, rep.tol_used))
    assert not wrong


@pytest.mark.parametrize("check_id, k, phi", _cases(POWER_MAP_FAMILY))
def test_power_corollary_map_verdicts(check_id, k, phi):
    # the sampler draws A in its unit window, 1 < A <= M; 2^k A stays in a
    # unit window for k >= 0 and leaves it for k < 0
    want = checks.HOLDS if k >= 0 else checks.HYPOTHESIS_VIOLATED
    wrong = []
    for trial, dim in TRIALS:
        for p in checks.REGISTRY[check_id].default_p:
            inst = fuzz.sample_instance(check_id, dim, SEED, p, trial)
            rep = checks.run_check(check_id, dataclasses.replace(
                inst, A=np.ldexp(inst.A, k), map=MAPS[phi](dim)))
            if rep.verdict != want:
                wrong.append((trial, dim, p, rep.verdict, rep.hypothesis_note))
    assert not wrong


@pytest.mark.parametrize("check_id, family, k", _cases(RADIUS_FAMILY))
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
