"""Known-value instances: every two-operand check on the family B = cA.

B = cA has closed forms.  W = A^{-1/2} B A^{-1/2} = cI,
A #_p B = c^p A, T_p(A|B) = ((c^p - 1)/p) A and B^p - A^p = (c^p - 1) A^p.
So each check's verdict on it is known (_expected).  With c >= 1,
A <= B and W >= I hold, and the theorems give HOLDS, except where the
family breaks a hypothesis or an input rule of the check.

A comes from the check's own fuzz sampler, so it is not diagonal, with
its map, vector and function.  The pair is scaled by 2^k, which is exact
in binary, so the verdict must not depend on k.

Only the cases that pass today run.  EXCLUDED lists the rest, each with
the ROADMAP item that mends it; a case joins the suite with that item.
So do the rest of item 12's families: c = 1 + 1e-9, k = +-60, windows
with m = M, the identity and trace maps, and the degenerate exponents.
"""

import dataclasses

import numpy as np
import pytest

from opineq import checks, fuzz
from opineq.errors import NotDensity, SingularDifference

SEED = 11
TRIALS = ((0, 3), (1, 4), (2, 5))     # (trial, dim)
CS = (1.0, 2.0)
KS = (-20, 0, 20)

# the checks whose sampler draws a second operand B
PAIR_CHECKS = [check_id for check_id, info in checks.REGISTRY.items()
               if fuzz.sample_instance(check_id, 2, SEED, info.default_p[0], 0).B is not None]

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
}


def _expected(check_id, a, c, k):
    """The verdict of B = cA after scaling by 2^k, or the error it must raise."""
    lam = np.linalg.eigvalsh(a)
    if check_id == "density_trace" and (c, k) != (1.0, 0):
        return NotDensity                   # the trace of A or B is not one
    if check_id == "mn2012" and c == 1.0:
        return SingularDifference           # B - A = 0
    if check_id in ("lh_extension", "mn2012"):
        # ||A|| I <= cA exactly when c lambda_min(A) >= lambda_max(A)
        return checks.HOLDS if c * lam[0] >= lam[-1] else checks.HYPOTHESIS_VIOLATED
    if check_id == "mond_pecaric":
        # c = 2 breaks B <= A; c = 1 breaks <Bx, x> <= the smallest eigenvalue
        # of A that x overlaps, since x is not an eigenvector
        return checks.HYPOTHESIS_VIOLATED
    return checks.HOLDS


def _outcome(check_id, inst):
    try:
        return checks.run_check(check_id, inst).verdict
    except (NotDensity, SingularDifference) as exc:
        return type(exc)


FAMILY = [(check_id, c, k) for check_id in PAIR_CHECKS for c in CS for k in KS]


def test_exclusions_name_cases_of_the_family():
    assert set(EXCLUDED) <= set(FAMILY)


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
