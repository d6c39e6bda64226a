"""Tests for the inequality checks: verdicts, gates, gaps and schemas."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

import fuzz_digests
import scalar_oracle
from opineq import checks, cli, fuzz, inputs, linalg, maps, means, repro, sampling
from opineq.errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpec,
    NotDensity,
    NotFinite,
    NotPositiveDefinite,
    NotSymmetric,
    OpineqError,
    SchemaError,
    SingularDifference,
    UnknownCheck,
    UnnormalizedVector,
    ZeroMatrix,
    ZeroParameter,
)

A_REF = np.array([[2.0, 3.0], [3.0, 5.0]])
B1_REF = np.array([[3.0, 4.0], [4.0, 6.0]])
TR2 = maps.MapSpec.normalized_trace(2)
# (check, instance) whose hypothesis fails and whose sides overflow
OVERFLOW_UNDER_VIOLATED = [
    ("lowner_heinz", {"A": [[2e200, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 2e200]],
                      "p": 2.0}),
    ("power_corollary", {"A": [[0.5, 0.0], [0.0, 1e200]], "p": 2.0}),
]


def _inst(a, b=None, **kw):
    return checks.InstanceSpec(A=np.asarray(a, dtype=float),
                               B=None if b is None else np.asarray(b, dtype=float),
                               **kw)


def _spd_pair(dim, trial, seed=29):
    cfg = sampling.SamplerConfig(dim=dim, seed=seed)
    return (sampling.random_spd(cfg, trial),
            sampling.random_spd(cfg, trial + 10 ** 7))


# ----------------------------------------------------------------------
# registry and dispatch
# ----------------------------------------------------------------------

def test_registry_has_all_checks():
    assert len(checks.REGISTRY) == 17
    assert tuple(checks.REGISTRY) == scalar_oracle.CHECK_IDS
    for check_id, info in checks.REGISTRY.items():
        assert info.check_id == check_id
        assert callable(info.runner)
        assert info.description
        assert len(info.default_p) >= 1


def test_run_check_unknown_id():
    with pytest.raises(UnknownCheck):
        checks.run_check("triangle_inequality", _inst(np.eye(2), p=1.0))


def _sampled(check_id):
    """The check's first fuzz instance at dim 3, at its first default p."""
    return fuzz.sample_instance(check_id, 3, 5, checks.REGISTRY[check_id].default_p[0], 0)


def _draws_b(check_id) -> bool:
    """Whether the check takes a B, read from whether its sampler draws one."""
    return _sampled(check_id).B is not None


def test_b_is_required_exactly_where_the_sampler_draws_one():
    for check_id in checks.REGISTRY:
        inst = _sampled(check_id)
        if _draws_b(check_id):
            with pytest.raises(InvalidSpec, match="needs a second matrix B"):
                checks.run_check(check_id, dataclasses.replace(inst, B=None))
        else:
            assert checks.run_check(check_id, inst).verdict == checks.HOLDS


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("check_id", list(checks.REGISTRY))
def test_every_runner_validates_the_tolerance(check_id, tol):
    with pytest.raises(InvalidSpec, match="tolerance must be finite and nonnegative"):
        checks.REGISTRY[check_id].runner(_sampled(check_id), tol_rel=tol)


@pytest.mark.parametrize("tol", ["abc", None, [1e-9], 10**400, True, np.False_],
                         ids=["'abc'", "None", "[1e-09]", "10**400", "True", "np.False_"])
def test_run_check_rejects_a_tolerance_that_is_not_a_number(tol):
    # these used to escape as a bare ValueError, TypeError or OverflowError,
    # or, a bool, to run as tolerance 1 or 0
    with pytest.raises(InvalidSpec, match="tolerance must be a number"):
        checks.run_check("lowner_heinz", _sampled("lowner_heinz"), tol_rel=tol)


def test_run_check_reads_a_numeric_string_tolerance():
    inst = _sampled("lowner_heinz")
    assert checks.run_check("lowner_heinz", inst, tol_rel="1e-9").to_json_dict() == \
        checks.run_check("lowner_heinz", inst, tol_rel=1e-9).to_json_dict()


# ----------------------------------------------------------------------
# hand-computable diagonal oracles
# ----------------------------------------------------------------------

def test_info_monotonicity_diagonal_value():
    # A=diag(1,4), B=diag(4,1), p=1/2: mapped entropy is -1, output
    # entropy is 0 (the traced pair is (2.5, 2.5)), so the gap is 1.
    rep = checks.run_check(
        "info_monotonicity",
        _inst(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), p=0.5, map=TR2))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - 1.0) < 1e-12


def test_info_monotonicity_reversed_at_p1():
    rep = checks.run_check("info_monotonicity",
                           _inst(A_REF, B1_REF, p=1.0, map=TR2))
    # equality point: both directions evaluated, both with zero gap
    assert {part.name for part in rep.parts} == {
        "entropy_monotone", "entropy_reversed"}
    assert abs(rep.gap_min_eig) < 1e-12
    assert rep.verdict == checks.HOLDS


def test_lowner_heinz_diagonal_value():
    rep = checks.run_check(
        "lowner_heinz", _inst(np.diag([1.0, 2.0]), np.diag([4.0, 9.0]), p=0.5))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - 1.0) < 1e-12
    assert rep.params["p_in_monotone_range"] is True


def test_lowner_heinz_fails_above_one():
    # classic pair: A <= B but the squares are incomparable
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = a + np.ones((2, 2))
    rep = checks.run_check("lowner_heinz", _inst(a, b, p=2.0))
    assert rep.hypotheses_ok
    assert rep.verdict == checks.FAILS
    assert rep.params["p_in_monotone_range"] is False
    # min eig of B^2 - A^2 is 7 - sqrt(50)
    assert abs(rep.gap_min_eig - (7.0 - math.sqrt(50.0))) < 1e-10


def test_lowner_heinz_unordered_pair_is_hypothesis_violated():
    rep = checks.run_check(
        "lowner_heinz", _inst(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.gap_min_eig is not None  # sides still evaluated


def test_power_corollary_diagonal_value():
    # A=diag(1,4), tr/2, p=2: window (1,4), correction 2*(4-1)*1.5 = 9,
    # image power 6.25, power image 8.5, gap 6.75
    rep = checks.run_check("power_corollary",
                           _inst(np.diag([1.0, 4.0]), p=2.0, map=TR2))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - 6.75) < 1e-12


def test_norm_chain_diagonal_value():
    rep = checks.run_check("norm_chain", _inst(np.diag([1.0, -2.0]), p=2.0))
    hs = math.sqrt(5.0)
    want = min(1.0 / 6.0, hs - 2.0 - 1.0 / 6.0, 2.0 / 3.0, 3.0 - hs - 2.0 / 3.0)
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - want) < 1e-12


def test_radius_chain_shift_block():
    # J2: radius 0, numerical radius 1/2, norm 1; p=2 shifts are 1/8, 3/8
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = checks.run_check("radius_chain", _inst(j2, p=2.0))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - 0.125) < 1e-6
    assert abs(rep.params["numerical_radius"] - 0.5) < 1e-9


@pytest.mark.parametrize("check_id", ["norm_chain", "radius_chain"])
@pytest.mark.parametrize("scale, p", [(1e200, 3.0), (1e-200, 3.0), (1e-200, -1.0)])
def test_chains_report_powers_out_of_float_range(check_id, scale, p):
    # norm^(p-1) overflows, or underflows to a zero divisor, in float
    # arithmetic; that used to escape as OverflowError / ZeroDivisionError
    with pytest.raises(NotFinite):
        checks.run_check(check_id, _inst(scale * np.eye(2), p=p))


@pytest.mark.parametrize("check_id", ["power_norm", "norm_refinement"])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_overflowing_products_raise_without_warnings(check_id, p):
    # A B (or A^p B^p) overflows; the error must come without numpy's
    # overflow and invalid-value warnings
    a = 1e160 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotFinite):
            checks.run_check(check_id, _inst(a, a.copy(), p=p))


@pytest.mark.parametrize("scale, p", [(1e-200, 0.5), (1e-200, 2.0), (1e-160, 2.0)])
def test_norm_refinement_reports_window_powers_out_of_float_range(scale, p):
    # m^2 underflows, so (m^2)^(1-p) divides by zero or overflows in float
    # arithmetic; that used to escape as ZeroDivisionError / OverflowError
    a = scale * np.array([[2.0, 0.3], [0.3, 1.0]])
    with pytest.raises(NotFinite):
        checks.run_check("norm_refinement", _inst(a, 0.7 * a, p=p))


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_extreme_scales_raise_or_report_finite_values(check_id):
    # A (and B) scaled to the edges of the float range: a check either
    # raises an OpineqError or reports a finite gap, tolerance and params;
    # holder_mccarthy at p = -1 and scale 1e300 used to escape with
    # OverflowError
    info = checks.REGISTRY[check_id]
    for p in sorted(set(info.default_p) | set(fuzz_digests.BOUNDARY_P[check_id])):
        inst = fuzz.sample_instance(check_id, 3, 11, p, 0)
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            scaled = dataclasses.replace(
                inst, A=scale * inst.A, B=None if inst.B is None else scale * inst.B)
            try:
                rep = checks.run_check(check_id, scaled)
            except OpineqError:
                continue
            values = [rep.tol_used] + [v for v in rep.params.values()
                                       if type(v) in (int, float)]
            if rep.gap_min_eig is not None:
                values.append(rep.gap_min_eig)
            assert all(math.isfinite(v) for v in values), (p, scale, rep)


def test_lowner_heinz_tolerance_scales_with_huge_operands():
    # B^2 = 1e200 [[5, 3], [3, 2]] has norm 1e200 (7 + sqrt(45)) / 2; squaring
    # its entries again for the norm used to overflow and drop that scale
    a = 1e100 * np.diag([1.0, 0.0])
    b = 1e100 * np.array([[2.0, 1.0], [1.0, 1.0]])
    rep = checks.run_check("lowner_heinz", _inst(a, b, p=2.0))
    want = 1e-9 * 1e200 * (7.0 + math.sqrt(45.0)) / 2.0
    assert abs(rep.tol_used - want) <= 1e-12 * want


@pytest.mark.parametrize("check_id", ["radius_chain", "norm_chain"])
def test_chains_accept_tiny_operands(check_id):
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    ref = checks.run_check(check_id, _inst(m, p=0.5))
    rep = checks.run_check(check_id, _inst(1e-170 * m, p=0.5))
    assert rep.verdict == checks.HOLDS
    for key in ("norm_op", "norm_hs", "norm_tr", "spectral_radius", "numerical_radius"):
        if key in ref.params:
            assert abs(rep.params[key] - 1e-170 * ref.params[key]) <= 1e-14 * 1e-170 * ref.params[key]


def test_radius_chain_close_peaks_holds():
    # w([1] (+) 1.0005 R(0.05)) = 1.0005 = r, so at p = 2 the shift term
    # vanishes; taking w = 1, the local peak at theta = 0, made r > w and the
    # chain fail by about 5e-4
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1:, 1:] = 1.0005 * np.array([[math.cos(0.05), -math.sin(0.05)],
                                   [math.sin(0.05), math.cos(0.05)]])
    rep = checks.run_check("radius_chain", _inst(a, p=2.0))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.params["numerical_radius"] - 1.0005) <= 1e-12


def test_norm_chain_decomposes_once(monkeypatch):
    # one eigensolve gives all three norms; the scalar parts need none
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    rep = checks.run_check("norm_chain", _inst(np.diag([1.0, -2.0, 0.5, 3.0]), p=3.0))
    assert rep.verdict == checks.HOLDS
    assert len(calls) == 1


@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_no_eigensolve_repeats_within_a_check(check_id, monkeypatch):
    # one runner call, and one group of three instances, solves each
    # (routine, input bits) pair at most once
    calls = []

    def counted(name):
        solve = getattr(np.linalg, name)

        def wrapper(m, *args, **kwargs):
            m = np.ascontiguousarray(m)
            calls.append((name, m.shape, m.dtype.str, m.tobytes()))
            return solve(m, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    info = checks.REGISTRY[check_id]
    p_values = sorted(set(info.default_p) | set(fuzz_digests.BOUNDARY_P[check_id]))
    solved = 0
    for dim in (2, 3, 5):
        for trial, p in enumerate(p_values):
            inst = fuzz.sample_instance(check_id, dim, 7, p, trial)
            calls.clear()
            info.runner(inst, tol_rel=fuzz.FUZZ_TOL_REL)
            assert len(set(calls)) == len(calls), (dim, p)
            solved += len(calls)
        insts = [fuzz.sample_instance(check_id, dim, 7, p_values[trial % len(p_values)], trial)
                 for trial in range(3)]
        calls.clear()
        info.group(insts, fuzz.FUZZ_TOL_REL)
        assert len(set(calls)) == len(calls), (dim, "group")
        solved += len(calls)
    assert solved > 0


@pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
def test_info_monotonicity_rejects_nonsymmetric_a(p):
    # p = 1 used to short-cut to B - A without looking at A
    a = np.array([[2.0, 0.5], [0.0, 2.0]])
    with pytest.raises(NotSymmetric):
        checks.run_check("info_monotonicity", _inst(a, 5.0 * np.eye(2), p=p))


@pytest.mark.parametrize("check_id", ["norm_chain", "radius_chain"])
def test_chains_accept_nonsymmetric_a(check_id):
    a = np.array([[2.0, 0.5], [0.0, 2.0]])
    assert checks.run_check(check_id, _inst(a, p=2.0)).verdict == checks.HOLDS


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_run_check_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidSpec):
        checks.run_check("lowner_heinz", _inst(np.eye(2), 2.0 * np.eye(2), p=0.5),
                         tol_rel=tol)


def test_run_check_accepts_zero_tolerance():
    rep = checks.run_check("lowner_heinz", _inst(np.eye(2), 2.0 * np.eye(2), p=0.5),
                           tol_rel=0.0)
    assert rep.verdict == checks.HOLDS and rep.tol_used == 0.0


def test_first_error_wins_when_an_instance_is_bad_twice():
    # operands are checked first (a missing B, A's symmetry, B's symmetry),
    # then the exponent, then what the check computes (windows,
    # positivity, traces), so each instance raises for its nonsymmetric B
    asym = np.array([[2.0, 1.0 + 1e-3], [1.0, 3.0]])
    # the window override is checked after B's symmetry
    with pytest.raises(NotSymmetric):
        checks.run_check("reverse_monotonicity",
                         _inst(np.eye(2), asym, p=0.5, m=5.0, map=TR2))
    # A's positivity is checked after B's symmetry
    with pytest.raises(NotSymmetric):
        checks.run_check("seo_bound", _inst(np.diag([1.0, -1.0]), asym, p=0.5, map=TR2))
    # density: A's trace is checked after B's symmetry
    with pytest.raises(NotSymmetric):
        checks.run_check("density_trace", _inst(np.eye(2), asym, p=0.5))


@pytest.mark.parametrize("check_id, inst", OVERFLOW_UNDER_VIOLATED)
def test_sides_that_overflow_under_a_violated_hypothesis_are_not_evaluated(check_id, inst):
    # A is not below B, or A dips below the unit floor, and A^2 overflows:
    # the hypothesis gate answers, and the sides are left unevaluated
    rep = checks.run_check(check_id, checks.InstanceSpec.from_json_dict(inst))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_note.endswith("; sides not evaluated")
    assert rep.parts == () and rep.gap_min_eig is None


def test_compared_difference_must_be_symmetric():
    # A and B are each symmetric within tolerance at their own scale, but
    # B - A is not at its much smaller one
    a = 1e6 * np.eye(2) + np.array([[0.0, 1e-7], [0.0, 0.0]])
    b = a + np.array([[1.0, -1e-7], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        checks.run_check("lowner_heinz", _inst(a, b, p=0.5))


# every check's exponent domain, with "(-inf, inf)" for any finite p, and
# whether p = 0 is excluded on its own
_EXPONENT_DOMAINS = {
    "info_monotonicity": ("[-1, 2]", True),
    "reverse_monotonicity": ("[-1, 2]", True),
    "ando_converse": ("[-1, 2]", False),
    "density_trace": ("[-1, 2]", False),
    "furuta_bounds": ("(0, 1]", False),
    "seo_bound": ("(0, 1)", False),
    "lowner_heinz": ("[0, inf)", False),
    "norm_power_lemma": ("(-inf, inf)", False),
    "lh_extension": ("(-inf, inf)", False),
    "mn2012": ("[0, 1]", False),
    "mond_pecaric": ("(-inf, inf)", False),
    "holder_mccarthy": ("(-inf, inf)", True),
    "norm_chain": ("(-inf, inf)", True),
    "radius_chain": ("(-inf, inf)", True),
    "power_norm": ("[0, inf)", False),
    "norm_refinement": ("(0, inf)", False),
    "power_corollary": ("[-1, 2]", False),
}


def _domain_cases():
    """(check_id, p, the error p raises or None) at each end of each domain."""
    for check_id, (domain, zero) in _EXPONENT_DOMAINS.items():
        lo, hi = (float(end) for end in domain[1:-1].split(", "))
        for end, out, closed in ((lo, -1.0, domain[0] == "["), (hi, 1.0, domain[-1] == "]")):
            if math.isinf(end):
                yield check_id, 3.0 * out, None
            elif closed:
                yield check_id, end + out * checks._P_EPS / 2, None
                yield check_id, end + out * 1e-11, DomainError
            else:
                yield check_id, end, DomainError
        if zero:
            yield check_id, 0.0, ZeroParameter


def test_exponent_domain_table_covers_the_registry():
    assert set(_EXPONENT_DOMAINS) == set(checks.REGISTRY)


@pytest.mark.parametrize("check_id, p, error", list(_domain_cases()))
def test_exponent_domain_ends(check_id, p, error):
    # a closed end admits _P_EPS of slack and an open end none
    inst = fuzz.sample_instance(check_id, 3, 5, p, 0)
    if error is None:
        assert isinstance(checks.run_check(check_id, inst), checks.CheckReport)
    else:
        with pytest.raises(error):
            checks.run_check(check_id, inst)


def test_furuta_bounds_takes_k_at_the_closed_upper_end():
    # p just past 1 is admitted by the guard; K is taken at p = 1, its limit
    inst = fuzz.sample_instance("furuta_bounds", 3, 5, 1.0 + checks._P_EPS / 2, 0)
    report = checks.run_check("furuta_bounds", inst)
    assert report.params["kantorovich_K"] == 1.0
    assert report.params["furuta_F"] == 0.0
    assert report.verdict == checks.run_check(
        "furuta_bounds", dataclasses.replace(inst, p=1.0)).verdict


# the checks whose spectral window an m/M override replaces
_READS_WINDOW = {"reverse_monotonicity", "ando_converse", "density_trace", "seo_bound",
                 "mond_pecaric", "holder_mccarthy", "norm_refinement", "power_corollary"}


def _precedence_cases():
    """(check_id, operand made nonsymmetric, what else is wrong) per symmetric check."""
    for check_id in checks.REGISTRY:
        if check_id in ("norm_chain", "radius_chain"):
            continue
        domain, zero = _EXPONENT_DOMAINS[check_id]
        extras = [None]
        if domain != "(-inf, inf)" or zero:
            extras.append("p")
        if check_id in _READS_WINDOW:
            extras.append("window")
        for operand in ("A", "B") if _draws_b(check_id) else ("A",):
            for extra in extras:
                yield check_id, operand, extra


def _outside(domain: str) -> float:
    """An exponent below the domain, or 0 when the domain is unbounded
    (the checks that have no domain exclude only p = 0)."""
    lo = float(domain[1:].split(",")[0])
    if math.isinf(lo):
        return 0.0
    return lo - 1.0 if domain[0] == "[" else lo


@pytest.mark.parametrize("check_id, operand, extra", list(_precedence_cases()))
def test_operands_are_checked_before_exponent_and_window(check_id, operand, extra):
    inst = fuzz.sample_instance(check_id, 3, 5, 0.5, 0)
    bad = np.array(getattr(inst, operand))
    bad[0, -1] += 1e-3 * np.abs(bad).max()
    changes = {operand: bad}
    if extra == "p":
        changes["p"] = _outside(_EXPONENT_DOMAINS[check_id][0])
    if extra == "window":
        changes.update(m=1e3, M=1e3)   # m sits above every eigenvalue
    with pytest.raises(NotSymmetric):
        checks.run_check(check_id, dataclasses.replace(inst, **changes))


# the operand signs each check's theorem needs: "psd" operands are tried
# indefinite, "pd" ones singular
_SIGNS = {
    "density_trace": {"A": "psd", "B": "psd"},
    "furuta_bounds": {"A": "pd", "B": "pd"},
    "lowner_heinz": {"A": "psd", "B": "psd"},
    "norm_power_lemma": {"A": "psd"},
    "lh_extension": {"A": "psd"},
    "mn2012": {"A": "psd"},
    "mond_pecaric": {"B": "pd"},
    "holder_mccarthy": {"A": "pd"},
    "power_norm": {"A": "psd", "B": "psd"},
    "norm_refinement": {"A": "pd", "B": "pd"},
    "power_corollary": {"A": "pd"},
}


@pytest.mark.parametrize("check_id, operand, sign",
                         [(check_id, operand, sign) for check_id, signs in _SIGNS.items()
                          for operand, sign in signs.items()])
def test_an_operand_of_the_wrong_sign_raises_naming_it(check_id, operand, sign):
    bad = np.diag([-1.0 if sign == "psd" else 0.0, 1.0, 2.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        checks.run_check(check_id, dataclasses.replace(_sampled(check_id), **{operand: bad}))
    assert re.findall(r"\b[AB]\b", str(exc.value)) == [operand]


@pytest.mark.parametrize("check_id, inst, error, message", [
    ("info_monotonicity", _inst(np.eye(3), 2.0 * np.eye(3), p=0.5, map=TR2),
     DimensionMismatch, "map expects input dimension 2"),
    ("norm_power_lemma", _inst(np.diag([1.0, 0.0]), p=-1.0),
     NotPositiveDefinite, "negative exponents"),
    # B <= A and <Bx, x> = 1 hold, so only log 0 in the sides is left
    ("mond_pecaric", _inst(np.diag([0.0, 1.0]), np.diag([1e-12, 1.0]), p=0.5, f="log",
                           x=np.array([0.0, 1.0])),
     NotPositiveDefinite, "positive definite A"),
    ("norm_chain", _inst(np.zeros((2, 2)), p=2.0), ZeroMatrix, "A is zero"),
    ("radius_chain", _inst(np.zeros((2, 2)), p=2.0), ZeroMatrix, "A is zero"),
])
def test_check_error_exits(check_id, inst, error, message):
    with pytest.raises(error, match=message):
        checks.run_check(check_id, inst)


def test_instance_spec_rejects_a_nan_in_x():
    with pytest.raises(InvalidSpec, match="x must be finite"):
        _inst(np.eye(2), p=0.5, x=np.array([np.nan, 1.0]))


def test_radius_chain_nilpotent_negative_exponent():
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = checks.run_check("radius_chain", _inst(j2, p=-1.0))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.gap_min_eig is None
    assert rep.parts == ()


def test_norm_power_lemma_touches_at_top_eigenvalue():
    # the tangent construction is exact at ||A||, so the gap is zero there
    for p in (0.5, 2.0):
        rep = checks.run_check("norm_power_lemma", _inst(np.diag([4.0, 1.0]), p=p))
        assert rep.verdict == checks.HOLDS
        assert abs(rep.gap_min_eig) < 1e-12


def test_holder_mccarthy_diagonal_value():
    inst = {"check_id": "holder_mccarthy", "a": [1.0, 4.0], "b": None,
            "p": 2.0, "x": [math.sqrt(0.5), math.sqrt(0.5)], "f": "power"}
    rep = checks.run_check(
        "holder_mccarthy",
        _inst(np.diag(inst["a"]), p=2.0, x=np.array(inst["x"])))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - scalar_oracle.oracle_gap(inst)) < 1e-12


def test_mn2012_parts_and_floor():
    a = np.diag([0.5, 1.0])
    b = np.diag([1.5, 2.5])
    rep = checks.run_check("mn2012", _inst(a, b, p=0.5))
    assert rep.verdict == checks.HOLDS
    assert [part.name for part in rep.parts] == [
        "floor_nonnegative", "linear_floor", "shift_floor", "floor_comparison"]
    inst = {"check_id": "mn2012", "a": [0.5, 1.0], "b": [1.5, 2.5],
            "p": 0.5, "x": None, "f": "power"}
    assert abs(rep.gap_min_eig - scalar_oracle.oracle_gap(inst)) < 1e-12


def test_mn2012_rejects_singular_difference():
    with pytest.raises(SingularDifference):
        checks.run_check("mn2012", _inst(np.eye(2), np.diag([1.0, 2.0]), p=0.5))


@pytest.mark.parametrize("a, b", [
    # ||A|| I <= B fails outright and B - A has a negative eigenvalue
    (np.eye(2), np.diag([2.0, 0.5])),
    # ||A|| I <= B holds only within tolerance: B - A dips to -5e-10
    (np.diag([1.0, 0.5]), np.diag([1.0 - 5e-10, 3.0])),
])
def test_mn2012_negative_difference_is_hypothesis_violated(a, b):
    rep = checks.run_check("mn2012", _inst(a, b, p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_note.endswith("; sides not evaluated")
    assert rep.parts == ()
    assert rep.params["lam_min_diff"] < 0.0


# ----------------------------------------------------------------------
# density trace
# ----------------------------------------------------------------------

def test_density_trace_equality_point():
    rho = np.diag([0.25, 0.75])
    rep = checks.run_check("density_trace", _inst(rho, rho.copy(), p=0.5))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig) < 1e-12


def test_density_trace_window_breaks_for_distinct_states():
    # two genuine densities: the unit-window hypothesis forces B = A, so
    # a distinct pair must come back HYPOTHESIS_VIOLATED, never FAILS,
    # with the trace still evaluated for inspection
    rep = checks.run_check("density_trace",
                           _inst(np.diag([0.3, 0.7]), np.diag([0.7, 0.3]), p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.gap_min_eig is not None
    trace_mean = 2.0 * math.sqrt(0.21)
    assert abs(rep.gap_min_eig - (trace_mean - 1.0)) < 1e-12


def test_density_trace_rejects_non_density():
    with pytest.raises(NotDensity):
        checks.run_check("density_trace",
                         _inst(np.diag([0.5, 0.7]), np.diag([0.5, 0.5]), p=0.5))


# ----------------------------------------------------------------------
# windowed bounds: furuta, seo, reverse, ando
# ----------------------------------------------------------------------

def test_furuta_reference_terms():
    rep = checks.run_check("furuta_bounds",
                           _inst(A_REF, B1_REF, p=0.5, map=TR2))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.params["windowed_term_norm"] - 5.35393) < 1e-3 * 5.35393
    assert abs(rep.params["kantorovich_term_norm"] - 5.55857) < 1e-3 * 5.55857
    assert abs(rep.params["linear_term_norm"] - 12.6413) < 1e-3 * 12.6413
    assert {part.name for part in rep.parts} == {
        "windowed_upper", "kantorovich_upper", "linear_upper"}


def test_furuta_windowed_part_needs_unit_floor():
    # a general pair whose inner spectrum dips below one only gets the
    # two constant-based parts
    a, b = np.diag([1.0, 1.0]), np.diag([0.5, 2.0])
    rep = checks.run_check("furuta_bounds", _inst(a, b, p=0.5, map=TR2))
    assert {part.name for part in rep.parts} == {
        "kantorovich_upper", "linear_upper"}
    assert rep.params["windowed_term_norm"] is None
    assert rep.verdict == checks.HOLDS


@pytest.mark.parametrize("side", [0.9, 1.1])
def test_unit_window_gates_sit_at_one_minus_hyp_tol(side):
    # m <= 1 <= lambda_min(W) within HYP_TOL = 1e-9, one value either side
    # of each gate, for the readers of the one rule (means._unit_window)
    inside, low = side < 1.0, np.diag([1.0 - side * 1e-9, 2.0])
    for check_id in ("reverse_monotonicity", "ando_converse"):
        rep = checks.run_check(check_id, _inst(np.eye(2), low, p=0.5, map=TR2))
        assert rep.hypotheses_ok is inside
    assert checks.run_check("power_corollary", _inst(low, p=0.5, map=TR2)).hypotheses_ok is inside
    rep = checks.run_check("furuta_bounds", _inst(np.eye(2), low, p=0.5, map=TR2))
    assert ("windowed_upper" in {part.name for part in rep.parts}) is inside
    assert means.compute_sandwich(np.eye(2), low).hypothesis_ok is inside
    rep = checks.run_check("seo_bound", _inst(np.eye(2), low, p=0.5, map=TR2))
    assert (rep.params["windowed_term_norm"] is not None) is inside
    # the m side: a user m at 1 + side * 1e-9 below lambda_min(W) = 1.5,
    # and furuta's box m = min b / max a
    m, above = 1.0 + side * 1e-9, np.diag([1.5, 2.0])
    rep = checks.run_check("reverse_monotonicity", _inst(np.eye(2), above, p=0.5, map=TR2, m=m))
    assert rep.hypotheses_ok is inside
    rep = checks.run_check("seo_bound", _inst(np.eye(2), above, p=0.5, map=TR2, m=m))
    assert (rep.params["windowed_term_norm"] is not None) is inside
    rep = checks.run_check("furuta_bounds",
                           _inst(np.eye(2), np.diag([m, 2.0]), p=0.5, map=TR2))
    assert rep.params["m"] == m
    assert ("windowed_upper" in {part.name for part in rep.parts}) is inside


def test_furuta_constant_vanishes_at_p1():
    rep = checks.run_check("furuta_bounds", _inst(A_REF, B1_REF, p=1.0, map=TR2))
    assert rep.params["furuta_F"] == 0.0
    assert rep.params["kantorovich_K"] == 1.0


def test_furuta_rejects_exponents_outside_unit_interval():
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            checks.run_check("furuta_bounds", _inst(A_REF, B1_REF, p=p))


def test_seo_reference_terms():
    rep = checks.run_check("seo_bound",
                           _inst(A_REF, np.array([[2.01, 3.0], [3.0, 5.01]]),
                                 p=0.5, map=TR2, m=0.999, M=1.07))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.params["seo_term_norm"] - 0.000524) < 1e-2 * 0.000524
    assert abs(rep.params["windowed_term_norm"] - 0.0001688) < 1e-3 * 0.0001688
    assert rep.params["windowed_term_norm"] < rep.params["seo_term_norm"]


def test_seo_general_pair_holds_without_unit_window():
    a, b = _spd_pair(4, 0)
    rep = checks.run_check("seo_bound", _inst(a, b, p=0.5))
    assert rep.hypotheses_ok
    assert rep.verdict == checks.HOLDS
    assert rep.params["windowed_term_norm"] is None


def test_seo_rejects_boundary_exponents():
    for p in (0.0, 1.0):
        with pytest.raises(DomainError):
            checks.run_check("seo_bound", _inst(A_REF, B1_REF, p=p))


def test_reverse_monotonicity_diagonal_value():
    inst = {"check_id": "reverse_monotonicity", "a": [1.0, 2.0],
            "b": [1.5, 5.0], "p": 0.5, "x": None, "f": "power"}
    rep = checks.run_check(
        "reverse_monotonicity",
        _inst(np.diag(inst["a"]), np.diag(inst["b"]), p=0.5, map=TR2))
    assert rep.verdict == checks.HOLDS
    assert abs(rep.gap_min_eig - scalar_oracle.oracle_gap(inst)) < 1e-12


def test_reverse_monotonicity_below_window_is_hypothesis_violated():
    rep = checks.run_check("reverse_monotonicity",
                           _inst(np.eye(2), 0.5 * np.eye(2), p=0.5, map=TR2))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED


@pytest.mark.parametrize("check_id", ["reverse_monotonicity", "ando_converse"])
@pytest.mark.parametrize("b00", [0.0, -1e-17])
def test_singular_window_leaves_sides_unevaluated(check_id, b00):
    # B singular, or indefinite within rounding, relative to A: the derived
    # m = min(lambda_min(W), 1) is not positive, so m^(p-1) is undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = checks.run_check(check_id, _inst(np.eye(2), np.diag([b00, 1.0]), p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_note.endswith("; sides not evaluated")
    assert rep.parts == () and rep.params["additive_term_norm"] is None


def test_ando_branch_parts():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.5, 5.0])
    names = {
        -0.5: {"mean_additive_lower"},
        0.0: {"mean_additive_upper", "mean_additive_lower"},
        0.5: {"mean_additive_upper"},
        1.0: {"mean_additive_upper", "mean_additive_upper_reversed"},
        2.0: {"mean_additive_upper_reversed"},
    }
    for p, want in names.items():
        rep = checks.run_check("ando_converse", _inst(a, b, p=p, map=TR2))
        assert {part.name for part in rep.parts} == want, p
        assert rep.verdict == checks.HOLDS


_NORM_ABOVE = ("op_shift_nonnegative", "op_shift_below_hs",
               "hs_shift_nonnegative", "hs_shift_below_tr")
_NORM_BETWEEN = ("tr_shift_below_hs", "hs_below_op_shift")
_RADIUS_ABOVE = ("radius_shift_nonnegative", "radius_shift_below_w",
                 "w_shift_nonnegative", "w_shift_below_op")
_RADIUS_BETWEEN = ("op_shift_below_w", "w_below_radius_shift")
_HOLDER_PARTS = ("expectation_power", "reverse_lower", "reverse_upper")
_PART_NAME_CASES = [
    ("norm_chain", -1.0, ("ratio1_nonnegative", "ratio2_nonnegative",
                          "hs_below_op_shift", "tr_below_hs_shift")),
    ("norm_chain", 0.5, _NORM_BETWEEN),
    ("norm_chain", 1.0, _NORM_ABOVE + _NORM_BETWEEN),
    ("norm_chain", 3.0, _NORM_ABOVE),
    ("radius_chain", -1.0, ("ratio1_nonnegative", "ratio2_nonnegative",
                            "w_below_radius_shift", "op_below_w_shift")),
    ("radius_chain", 0.5, _RADIUS_BETWEEN),
    ("radius_chain", 1.0, _RADIUS_ABOVE + _RADIUS_BETWEEN),
    ("radius_chain", 3.0, _RADIUS_ABOVE),
    *[("holder_mccarthy", p, _HOLDER_PARTS) for p in (-1.0, 0.5, 1.0, 2.0)],
    ("power_corollary", -1.0, ("image_power_lower",)),
    ("power_corollary", 0.0, ("image_power_upper", "image_power_lower")),
    ("power_corollary", 0.5, ("image_power_upper",)),
    ("power_corollary", 1.0, ("image_power_upper", "image_power_upper_reversed")),
    ("power_corollary", 2.0, ("image_power_upper_reversed",)),
]
_PART_NAME_MATRICES = {
    "norm_chain": np.array([[2.0, 1.0], [0.0, 1.0]]),
    "radius_chain": np.array([[2.0, 1.0], [0.0, 1.0]]),
    "holder_mccarthy": np.diag([1.0, 2.0]),
    "power_corollary": np.diag([1.5, 3.0]),
}


@pytest.mark.parametrize("check_id, p, want", _PART_NAME_CASES)
def test_branch_part_names_in_order(check_id, p, want):
    rep = checks.run_check(check_id, _inst(_PART_NAME_MATRICES[check_id], p=p))
    assert tuple(part.name for part in rep.parts) == want


def test_ando_rejects_out_of_range_exponent():
    with pytest.raises(DomainError):
        checks.run_check("ando_converse", _inst(A_REF, B1_REF, p=2.5))


# ----------------------------------------------------------------------
# window overrides
# ----------------------------------------------------------------------

def test_window_overrides_are_respected():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.5, 5.0])  # inner spectrum {1.5, 2.5}
    rep = checks.run_check("reverse_monotonicity",
                           _inst(a, b, p=0.5, map=TR2, m=1.0, M=4.0))
    assert rep.params["m"] == 1.0
    assert rep.params["M"] == 4.0
    assert rep.verdict == checks.HOLDS


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_window_override_slack_is_relative_to_the_spectrum_it_bounds(scale, side):
    # m <= lambda_min + slack and M >= lambda_max - slack with slack =
    # 1e-9 * max |lambda| (_BOUND_RTOL), one value either side at each scale;
    # an absolute 1e-9 let m = 1.9e-10 bound the spectrum {1e-10, 2e-10}
    a, slack = scale * np.diag([1.0, 2.0]), side * 1e-9 * 2.0 * scale
    for key, value in (("m", scale + slack), ("M", 2.0 * scale - slack)):
        inst = _inst(a, p=2.0, x=[1.0, 0.0], **{key: value})
        if side < 1.0:
            assert checks.run_check("holder_mccarthy", inst).params[key] == value
        else:
            with pytest.raises(InvalidSpec, match=f"^{key}=.* is not an? (lower|upper) bound"):
                checks.run_check("holder_mccarthy", inst)


def test_window_override_must_enclose_spectrum():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.5, 5.0])
    with pytest.raises(InvalidSpec):
        checks.run_check("reverse_monotonicity",
                         _inst(a, b, p=0.5, map=TR2, m=2.0))
    with pytest.raises(InvalidSpec):
        checks.run_check("reverse_monotonicity",
                         _inst(a, b, p=0.5, map=TR2, M=2.0))
    with pytest.raises(InvalidSpec):
        checks.run_check("seo_bound", _inst(a, b, p=0.5, m=-1.0))


def test_unit_window_rejects_lower_bound_above_one():
    a = np.diag([1.0, 1.0])
    b = np.diag([1.5, 2.0])
    rep = checks.run_check("reverse_monotonicity",
                           _inst(a, b, p=0.5, map=TR2, m=1.2))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert "exceeds one" in rep.hypothesis_note


# ----------------------------------------------------------------------
# vector-expectation gates
# ----------------------------------------------------------------------

def test_mond_pecaric_every_eigenvector_is_valid():
    a = np.diag([1.0, 4.0])
    for k in range(2):
        x = np.zeros(2)
        x[k] = 1.0
        rep = checks.run_check("mond_pecaric", _inst(a, a.copy(), p=2.0, x=x))
        assert rep.hypotheses_ok
        assert rep.verdict == checks.HOLDS
        assert abs(rep.gap_min_eig) < 1e-10


def test_mond_pecaric_gate_rejects_scalar_substitution_failure():
    # A = B = diag(1,4) with the uniform vector: <Bx,x> = 2.5 exceeds the
    # smallest eigenvalue x overlaps (1), and the two-sided bound is
    # genuinely false there (middle 2.25, both sides 0)
    a = np.diag([1.0, 4.0])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = checks.run_check("mond_pecaric", _inst(a, a.copy(), p=2.0, x=x))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert "carrying weight" in rep.hypothesis_note


def test_mond_pecaric_log_value():
    b = np.diag([0.5, 0.6])
    a = np.diag([2.0, 3.0])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = checks.run_check("mond_pecaric", _inst(a, b, p=1.0, x=x, f="log"))
    assert rep.verdict == checks.HOLDS
    inst = {"check_id": "mond_pecaric", "a": [2.0, 3.0], "b": [0.5, 0.6],
            "p": 1.0, "x": list(x), "f": "log"}
    assert abs(rep.gap_min_eig - scalar_oracle.oracle_gap(inst)) < 1e-12


def test_mond_pecaric_unordered_pair_is_hypothesis_violated():
    rep = checks.run_check(
        "mond_pecaric",
        _inst(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), p=2.0,
              x=np.array([1.0, 0.0])))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED


def test_unnormalized_vector_rejected():
    a = np.diag([1.0, 4.0])
    with pytest.raises(UnnormalizedVector):
        checks.run_check("holder_mccarthy",
                         _inst(a, p=0.5, x=np.array([1.0, 1.0])))


def test_holder_mccarthy_domain():
    with pytest.raises(ZeroParameter):
        checks.run_check("holder_mccarthy", _inst(np.diag([1.0, 2.0]), p=0.0))
    with pytest.raises(NotPositiveDefinite):
        checks.run_check("holder_mccarthy", _inst(np.diag([1.0, 0.0]), p=0.5))


# ----------------------------------------------------------------------
# norm-dominated power differences
# ----------------------------------------------------------------------

def test_lh_extension_gate():
    a = np.diag([2.0, 1.0])
    b = np.diag([2.5, 1.5])  # 1.5 < ||A||: domination fails
    rep = checks.run_check("lh_extension", _inst(a, b, p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    good = checks.run_check("lh_extension",
                            _inst(a, np.diag([2.5, 2.1]), p=0.5))
    assert good.verdict == checks.HOLDS


def test_lh_extension_rejects_zero_b():
    with pytest.raises(ZeroMatrix):
        checks.run_check("lh_extension", _inst(np.eye(2), np.zeros((2, 2)), p=0.5))


def test_norm_power_lemma_rejects_zero():
    with pytest.raises(ZeroMatrix):
        checks.run_check("norm_power_lemma", _inst(np.zeros((2, 2)), p=0.5))


def test_norm_chain_rejects_p0():
    with pytest.raises(ZeroParameter):
        checks.run_check("norm_chain", _inst(np.eye(2), p=0.0))


def test_power_norm_boundary_equalities():
    a, b = _spd_pair(3, 1)
    for p in (0.0, 1.0):
        rep = checks.run_check("power_norm", _inst(a, b, p=p))
        assert rep.verdict == checks.HOLDS
        assert abs(rep.gap_min_eig) < 1e-10


def test_norm_refinement_both_branches_at_p1():
    a, b = _spd_pair(3, 2)
    rep = checks.run_check("norm_refinement", _inst(a, b, p=1.0))
    assert len(rep.parts) == 4
    assert rep.verdict == checks.HOLDS


# ----------------------------------------------------------------------
# tolerance semantics
# ----------------------------------------------------------------------

def test_tolerance_gates_scale_together():
    a = np.eye(2)
    b = a - 1e-6 * np.eye(2)
    # at the default tolerance the dip both breaks the order hypothesis
    # and (if it were accepted) the conclusion
    strict = checks.run_check("lowner_heinz", _inst(a, b, p=0.5))
    assert strict.verdict == checks.HYPOTHESIS_VIOLATED
    loose = checks.run_check("lowner_heinz", _inst(a, b, p=0.5), tol_rel=1e-3)
    assert loose.verdict == checks.HOLDS


@pytest.mark.parametrize("s", [1e6, 1.0, 1e-3, 1e-7, 1e-9, 2.0 ** -60, 1e-200])
def test_order_gate_is_homogeneous(s):
    # B - A = s diag(-0.001, 1) breaks A <= B at every scale; with a unit
    # floor the gate let it pass below s = 1e-6, and the sides read FAILS
    # at s = 1e-7 and 1e-9, HOLDS at 2^-60
    rep = checks.run_check("lowner_heinz",
                           _inst(s * np.eye(2), s * np.diag([0.999, 2.0]), p=0.5))
    assert rep.verdict == checks.HYPOTHESIS_VIOLATED
    assert rep.hypothesis_note.startswith("A is not below B")


# (check, its gate's (lo, hi) -> instance fields): lo <= hi is the gate
_GATES = {
    "lowner_heinz": lambda lo, hi: {"A": lo, "B": hi},
    "mond_pecaric": lambda lo, hi: {"A": hi, "B": lo, "x": np.eye(3)[2]},
    "lh_extension": lambda lo, hi: {"A": lo[0, 0] * np.diag([0.5, 1.0, 0.25]), "B": hi},
    "mn2012": lambda lo, hi: {"A": lo[0, 0] * np.diag([0.5, 1.0, 0.25]), "B": hi},
}


def _gate_family(check_id, tol_rel):
    """(lo, hi, instance) with min eig(hi - lo) 0, -0.1 tol and -10 tol at the
    scales 2^k, k in {-20, 0, 20}, tol = tol_rel * max(||lo||, ||hi||)."""
    out = []
    for k in (-20, 0, 20):
        s = 2.0 ** k
        # ||A|| I for the norm-dominance gates, A itself for the others
        lo = s * (np.eye(3) if check_id in ("lh_extension", "mn2012")
                  else np.diag([1.0, 1.0, 0.5]))
        for shift in (0.0, -0.1, -10.0):
            hi = np.diag([s + shift * tol_rel * 3.0 * s, 2.0 * s, 3.0 * s])
            fields = _GATES[check_id](lo, hi)
            out.append((lo, hi, checks.InstanceSpec(p=0.5, **fields)))
    return out


@pytest.mark.parametrize("check_id", sorted(_GATES))
def test_order_gate_boundary_matches_loewner_compare(check_id):
    # the gates take their norms only for a negative gap; the note must
    # still say what loewner_compare's full rule says, alone and in a group
    tol_rel = linalg.DEFAULT_TOL_REL
    family = _gate_family(check_id, tol_rel)
    grouped = checks.REGISTRY[check_id].group([inst for *_, inst in family], tol_rel)
    holds = []
    for (lo, hi, inst), in_group in zip(family, grouped):
        alone = checks.run_check(check_id, inst, tol_rel=tol_rel)
        is_le = linalg.loewner_compare(lo, hi, tol_rel).is_le
        holds.append(is_le)
        assert (alone.hypothesis_note == "") == is_le, (alone.hypothesis_note, lo, hi)
        assert in_group.to_json_dict() == alone.to_json_dict()
    assert holds == [True, True, False] * 3


def test_order_gate_takes_norms_only_for_negative_gaps(monkeypatch):
    solved = []
    gram_spectrum = linalg.Spectra.gram_spectrum

    def spy(self, a):
        solved.append(a.copy())
        return gram_spectrum(self, a)

    monkeypatch.setattr(linalg.Spectra, "gram_spectrum", spy)
    lo = np.array([_spd_pair(3, trial)[0] for trial in range(4)])
    hi = lo + np.diag([1e-3, 1.0, 2.0])
    assert checks._order(linalg.Spectra(), lo, hi, 1e-9, ("A", "B")) == [""] * 4
    assert not solved
    reps = checks.REGISTRY["lowner_heinz"].group(
        [checks.InstanceSpec(A=x, B=y, p=0.5) for x, y in zip(lo, hi)], 1e-9)
    assert [rep.verdict for rep in reps] == [checks.HOLDS] * 4 and not solved
    hi[[1, 3]] -= 2e-3 * np.eye(3)      # rows 1 and 3 break the order
    notes = checks._order(linalg.Spectra(), lo, hi, 1e-9, ("A", "B"))
    assert [bool(note) for note in notes] == [False, True, False, True]
    assert len(solved) == 1
    assert np.array_equal(solved[0], np.array((lo[[1, 3]], hi[[1, 3]])))


def test_finish_gaps_and_tolerances_match_separate_solves():
    # one stacked solve of the differences and the side Grams against one
    # eigvals per part and one norm_op per side, on the rescale path too
    rng = np.random.default_rng(3)

    def sym(n, scale):
        m = rng.standard_normal((2, n, n))
        return scale * (m + m.swapaxes(-1, -2))

    big, tiny, unit = sym(3, 2.0 ** 500), sym(3, 2.0 ** -500), sym(3, 1.0)
    small = sym(2, 1.0)
    part_specs = [("big", big, big + unit, [0, 1]),
                  ("tiny", tiny, unit, [0, 1]),
                  ("shared", unit, big, [0, 1]),
                  ("other_shape", small, 2.0 * small, [1, 0]),
                  ("scalar", [1.0, 2.0], [3.0, 1.0], [0, 1])]
    tol_rel = 1e-9
    reports = checks._finish("x", linalg.Spectra(), tol_rel, part_specs, [{}, {}])
    mags = [[], []]
    for name, lhs, rhs, rows in part_specs:
        if isinstance(lhs, list):
            gaps = [y - x for x, y in zip(lhs, rhs)]
            norms = [[abs(x) for x in lhs], [abs(y) for y in rhs]]
        else:
            gaps = linalg.Spectra().eigvals(rhs - lhs)[:, 0].tolist()
            norms = [linalg.Spectra().norm_op(x).tolist() for x in (lhs, rhs)]
        for j, i in enumerate(rows):
            part = next(part for part in reports[i].parts if part.name == name)
            assert part.gap_min_eig.hex() == gaps[j].hex()
            mags[i] += norms[0][j], norms[1][j]
    for rep, m in zip(reports, mags):
        assert rep.tol_used.hex() == linalg._unit_scaled(tol_rel, *m).hex()
    assert reports[0].tol_used > tol_rel * 2.0 ** 490    # the norms of the rescaled sides


def test_report_tol_used_scales_with_operands():
    big = 1e6 * np.eye(2)
    rep = checks.run_check("lowner_heinz", _inst(big, big + np.eye(2), p=0.5),
                           tol_rel=1e-9)
    assert rep.tol_used >= 1e-9 * 1e3  # at least tol_rel * sqrt(scale)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_instance_spec_roundtrip_full():
    x = np.array([0.6, 0.8])
    spec = checks.InstanceSpec(A=A_REF, B=B1_REF, p=0.5, map=TR2,
                               m=1.0, M=2.0, x=x, f="exp")
    back = checks.InstanceSpec.from_json_dict(
        json.loads(json.dumps(spec.to_json_dict())))
    assert np.array_equal(back.A, spec.A)
    assert np.array_equal(back.B, spec.B)
    assert back.p == spec.p
    assert back.map.kind == "normalized_trace"
    assert back.m == 1.0 and back.M == 2.0
    assert np.array_equal(back.x, x)
    assert back.f == "exp"


def test_instance_spec_minimal_json_omits_optionals():
    spec = checks.InstanceSpec(A=A_REF, p=0.5)
    data = spec.to_json_dict()
    assert set(data) == {"A", "p"}


def test_instance_spec_schema_rejections():
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict([1, 2, 3])
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict({"A": [[1.0]], "p": 1.0, "extra": 2})
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict({"p": 1.0})
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict({"A": [[1.0]]})
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict({"A": [["one"]], "p": 1.0})
    with pytest.raises(SchemaError):
        checks.InstanceSpec.from_json_dict({"A": [["2", "0"], ["0", "3"]], "p": "0.5", "m": True})


_VALID_JSON = {"A": [[2.0, 0.0], [0.0, 3.0]], "B": [[3.0, 0.0], [0.0, 4.0]], "p": 0.5,
               "m": 1.0, "M": 2.0, "x": [0.6, 0.8], "f": "exp"}


@pytest.mark.parametrize("key, value", [
    ("A", [["2", "0"], ["0", "3"]]), ("A", [[True, 0], [0, 1]]), ("B", [[3.0, 0.0], [0.0, "4"]]),
    ("x", ["0.6", 0.8]), ("x", [0.6, False]), ("p", "0.5"), ("p", True),
    ("m", "1"), ("m", True), ("M", False), ("M", "2.0"), ("f", 5), ("f", ["exp"]),
])
def test_instance_spec_json_rejects_strings_and_booleans_for_numbers(key, value):
    with pytest.raises(SchemaError, match=f"^{key}"):
        checks.InstanceSpec.from_json_dict(dict(_VALID_JSON, **{key: value}))


def _first_non_number(key, value):
    """The message of the plain depth-first walk: its first string or boolean."""
    if isinstance(value, list):
        for item in value:
            message = _first_non_number(key, item)
            if message:
                return message
    elif isinstance(value, (str, bool)):
        return f"{key}: expected a number, got {value!r}"
    return None


def _with(value, path, bad):
    value = json.loads(json.dumps(value))
    *head, last = path
    inner = value
    for index in head:
        inner = inner[index]
    inner[last] = bad
    return value


_CELLS = [(i, j) for i in range(3) for j in range(3)]
_TYPE_CASES = (
    [("A", [[2.0, 0, 1.0], [0, 3.0, 0.5], [1.0, 0.5, 4]], cell) for cell in _CELLS]
    + [("B", [[3.0, 0.0, 1], [0.0, 4.0, 0.5], [1, 0.5, 5.0]], cell) for cell in _CELLS]
    + [("x", [0.6, 0, 0.8], (i,)) for i in range(3)]
    + [("A", [[2.0], [0.0, 3.0], [1.0, 0.5, 4.0]], (i, i)) for i in range(3)]      # ragged
    + [("A", [[[2.0, 0.0]], [[0.0, 3.0]]], (i, 0, j)) for i in range(2) for j in range(2)]
    + [("A", [[2.0, 0.0], [0.0, 3.0]], (1,)), ("x", [0.6, 0.8], (0,))]  # a row replaced
)


@pytest.mark.parametrize("bad", [True, False, "2"])
@pytest.mark.parametrize("key, value, path", _TYPE_CASES)
def test_instance_spec_json_type_check_names_the_walks_first_value(key, value, path, bad):
    value = _with(value, path, bad)
    with pytest.raises(SchemaError) as exc:
        checks.InstanceSpec.from_json_dict(dict(_VALID_JSON, **{key: value}))
    assert str(exc.value) == _first_non_number(key, value)
    # a second offender later on does not change the message
    later = json.loads(json.dumps(value)) + [["3"]]
    with pytest.raises(SchemaError) as exc:
        inputs.numbers(key, later)
    assert str(exc.value) == _first_non_number(key, value)


@pytest.mark.parametrize("value", [
    [], [[]], [1, 2.0], [[1, 2.0], [3.5]], [[[1.0]], [[2, 3]]], [[1.0], 2.0], None, 1, 2.5,
])
def test_instance_spec_json_type_check_passes_numbers(value):
    assert inputs.numbers("A", value) is None


@pytest.mark.parametrize("value, error, message", [
    (math.inf, InvalidSpec, "q must be finite"),
    (-math.inf, InvalidSpec, "q must be finite"),
    (math.nan, InvalidSpec, "q must be finite"),
    (None, SchemaError, "malformed instance: float() argument must be"),
    (10 ** 400, SchemaError, "malformed instance: int too large"),
    ("1", SchemaError, "q: expected a number, got '1'"),
    (True, SchemaError, "q: expected a number, got True"),
], ids=repr)
def test_finite_is_the_number_rule_then_finiteness(value, error, message):
    with pytest.raises(error) as exc:
        inputs.finite("q", value)
    assert str(exc.value).startswith(message)
    assert inputs.finite("q", np.int64(3)) == 3.0
    assert type(inputs.finite("q", np.float64(-0.5))) is float


def test_instance_spec_json_type_walk_leaves_numbers_alone():
    assert checks.InstanceSpec.from_json_dict(_VALID_JSON).f == "exp"
    # numpy values reach the constructor as before
    spec = checks.InstanceSpec.from_json_dict(
        {"A": np.eye(2), "p": np.float64(0.5), "m": np.int64(1), "x": np.array([0.6, 0.8])})
    assert spec.p == 0.5 and spec.m == 1.0


def test_instance_spec_validation():
    with pytest.raises(InvalidSpec):
        checks.InstanceSpec(A=np.eye(2), p=float("nan"))
    with pytest.raises(InvalidSpec):
        checks.InstanceSpec(A=np.eye(2), p=1.0, m=2.0, M=1.0)
    with pytest.raises(InvalidSpec):
        checks.InstanceSpec(A=np.eye(2), p=1.0, f="sin")
    # the library path gives the JSON path's refusal of a non-string f
    with pytest.raises(SchemaError, match=r"^f must be a string, got 3$"):
        checks.InstanceSpec(A=np.eye(2), f=3)
    with pytest.raises(Exception):
        checks.InstanceSpec(A=np.eye(2), B=np.eye(3), p=1.0)


# each refused by the type rule, which names the last field given
_NOT_NUMBERS = [
    {"p": "abc"}, {"m": "x"}, {"A": "abc"}, {"B": [[1.0, "a"], [0.0, 1.0]]},
    {"x": ["a", 1.0]},
    {"p": True}, {"p": np.True_}, {"m": True}, {"M": False}, {"m": 0.5, "M": np.True_},
    {"p": "0.5"}, {"m": "0.25"}, {"M": b"2"}, {"A": [["1", "0"], ["0", "1"]]},
    {"x": ["1", "0"]}, {"A": [[True, False], [False, True]]}, {"B": np.eye(2, dtype=bool)},
    {"A": np.eye(2) + 0j}, {"A": np.array([[1, "0"], [0, 2**70]], dtype=object)},
    {"x": np.array([1.0, np.True_], dtype=object)},
    {"A": [[2.0, False], [False, 3.0]]}, {"A": ((2.0, False), (False, 3.0))},
    {"B": [[3.0, True], [True, 4.0]]}, {"x": [0.6, True]}, {"x": np.array([0.6, 0.8j])},
    {"p": 0.5 + 0j}, {"M": [["2"]]},
]


@pytest.mark.parametrize("kwargs, message", [
    *[pytest.param(k, f"{[*k][-1]}: expected a number, got ", id=repr(k)) for k in _NOT_NUMBERS],
    pytest.param({"p": None}, "malformed instance: ", id="{'p': None}"),
    pytest.param({"p": 10**400}, "malformed instance: ", id="{'p': 10**400}"),
])
def test_instance_spec_rejects_non_numbers_as_schema_errors(kwargs, message):
    # the library path gets the JSON path's error, not a bare ValueError,
    # TypeError or OverflowError; a bool, which float() reads as 0 or 1, a
    # string, which it parses, and a complex number, whose imaginary part
    # it drops, are refused as the JSON path refuses them, naming the field
    with pytest.raises(SchemaError, match="^" + message):
        checks.InstanceSpec(**{"A": np.eye(2), "p": 0.5, **kwargs})


@pytest.mark.parametrize("x", [[[0.6, 0.8]], [[0.6], [0.8]], 0.6, np.array(0.6), [0.6]],
                         ids=repr)
def test_instance_spec_rejects_an_x_that_is_not_a_vector_of_length_n(x):
    # a 2-d x of the right size used to be flattened into a vector
    with pytest.raises(DimensionMismatch, match="^x must be a vector of length 2"):
        checks.InstanceSpec(A=np.eye(2), p=0.5, x=x)


def test_sampled_instance_with_a_non_number_exponent_is_a_schema_error():
    with pytest.raises(SchemaError):
        fuzz.sample_instance("power_norm", 3, 0, "abc", 0)
    # the public exponent paths read p by the same rule: "0.5" was taken
    # as one exponent per matrix, and a bool as 0 or 1
    a = np.eye(2)
    for call in (lambda p: linalg.power(a, p), lambda p: means.weighted_mean(a, a, p),
                 lambda p: means.tsallis_entropy(a, a, p)):
        for p in ("0.5", True):
            with pytest.raises(SchemaError, match=f"^p: expected a number, got {p!r}$"):
                call(p)


@pytest.mark.parametrize("p", ["abc", None, True, np.False_, "0.5"], ids=repr)
@pytest.mark.parametrize("check_id", sorted(checks.REGISTRY))
def test_every_sampler_rejects_a_non_number_exponent_as_a_schema_error(check_id, p):
    # radius_chain compared p < 0 before any instance existed, which
    # raised a bare TypeError on "abc" and None and ran True as p = 1
    message = "malformed instance: " if p is None else "p: expected a number, got "
    with pytest.raises(SchemaError, match="^" + message):
        fuzz.sample_instance(check_id, 3, 0, p, 0)


def test_check_report_json_is_serializable():
    rep = checks.run_check("furuta_bounds", _inst(A_REF, B1_REF, p=0.5, map=TR2))
    data = rep.to_json_dict()
    text = json.dumps(data, sort_keys=True)
    back = json.loads(text)
    assert back["check_id"] == "furuta_bounds"
    assert back["verdict"] == checks.HOLDS
    assert isinstance(back["gap_min_eig"], float)
    assert {part["name"] for part in back["parts"]} == {
        "windowed_upper", "kantorovich_upper", "linear_upper"}


_PLAIN = (str, int, float, type(None))


def _exact(value, leaves=_PLAIN + (bool,)) -> bool:
    """True when value holds only values of the leaves types, which JSON
    writes as they are, in lists, tuples and string-keyed dicts."""
    kind = type(value)
    if kind is list or kind is tuple:
        return all(_exact(v, leaves) for v in value)
    if kind is dict:
        return all(type(key) is str and _exact(v, leaves) for key, v in value.items())
    return kind in leaves


def _traffic_reports():
    """Every check's fuzz reports at dims 2-6 and 16, then every check on
    an instance with m/M overrides, x and f."""
    for check_id in checks.REGISTRY:
        for dims, trials in (((2, 3, 4, 5, 6), 40), ((16,), 4)):
            yield from fuzz.run_fuzz(check_id, trials=trials, dims=dims, seed=2).reports
    x = np.ones(3) / np.sqrt(3.0)
    for check_id, info in checks.REGISTRY.items():
        inst = fuzz.sample_instance(check_id, 3, 5, info.default_p[0], 0)
        yield checks.run_check(check_id, dataclasses.replace(
            inst, m=1e-3, M=64, x=x, f="exp" if check_id == "mond_pecaric" else "power"))


def test_json_documents_are_built_from_exact_values():
    # to_json_dict converts nothing but a bool at the top of params, so
    # what the checks and repro hand it must already be exact
    kinds = set()
    for report in _traffic_reports():
        params = dict(report.params)
        if report.check_id == "lowner_heinz":
            assert type(params.pop("p_in_monotone_range")) is bool
        assert _exact(params, _PLAIN), (report.check_id, params)
        for side in (report.lhs, report.rhs):
            assert side is None or (type(side) is np.ndarray and side.ndim == 2
                                    and side.dtype == np.float64)
        assert type(report.hypotheses_ok) is bool and type(report.tol_used) is float
        assert type(report.gap_min_eig) in (float, type(None))
        assert all(type(part.gap_min_eig) is float for part in report.parts)
        if isinstance(params.get("map"), dict):
            kinds.add(params["map"]["kind"])
    assert kinds == set(maps.KINDS)
    assert all(_exact(result.to_json_dict()) for result in repro.run_all())


def test_report_json_writes_the_params_bool_as_an_int():
    rep = checks.run_check("lowner_heinz", _inst(A_REF, A_REF + np.eye(2), p=0.5))
    assert rep.params["p_in_monotone_range"] is True
    data = rep.to_json_dict()
    assert type(data["params"]["p_in_monotone_range"]) is int
    assert '"p_in_monotone_range": 1\n' in cli._dump_json(data)
    assert checks._matrix_to_json(None) is None


def test_report_picks_worst_part():
    rep = checks.run_check("norm_chain", _inst(np.diag([1.0, -2.0]), p=2.0))
    worst = min(part.gap_min_eig for part in rep.parts)
    assert rep.gap_min_eig == worst
