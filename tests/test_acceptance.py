"""Acceptance suite.

One test per headline guarantee, each at its stated tolerance, so that
`pytest tests/test_acceptance.py -v` prints one pass/fail line per
guarantee.  Everything here goes through the public API the way a user
would drive it; the only private import is the scalar oracle that lives
beside the tests.
"""

import json
import math
import time

import numpy as np

import scalar_oracle
from opineq import checks, cli, constants, fuzz, maps, means, repro

A2 = np.array([[2.0, 3.0], [3.0, 5.0]])
B1 = np.array([[3.0, 4.0], [4.0, 6.0]])
B2 = np.array([[2.01, 3.0], [3.0, 5.01]])


def test_acceptance_1_reference_pair_bound_ordering():
    start = time.perf_counter()
    # exact spectra of the operands: A has eigenvalues (7 +- 3 sqrt 5)/2,
    # B has (9 +- sqrt 73)/2; the outer window is m2/M1, M2/m1
    m1 = (7.0 - 3.0 * math.sqrt(5.0)) / 2.0
    M1 = (7.0 + 3.0 * math.sqrt(5.0)) / 2.0
    m2 = (9.0 - math.sqrt(73.0)) / 2.0
    M2 = (9.0 + math.sqrt(73.0)) / 2.0
    inst = checks.InstanceSpec(A=A2, B=B1, p=0.5,
                               map=maps.MapSpec.normalized_trace(2))
    report = checks.run_check("furuta_bounds", inst)
    assert abs(report.params["m"] - m2 / M1) < 1e-10
    assert abs(report.params["M"] - M2 / m1) < 1e-10
    new_term = report.params["windowed_term_norm"]
    k_term = report.params["kantorovich_term_norm"]
    f_term = report.params["linear_term_norm"]
    assert abs(new_term - 5.35393) <= 1e-3 * 5.35393
    assert abs(k_term - 5.55857) <= 1e-3 * 5.55857
    assert abs(f_term - 12.6413) <= 1e-3 * 12.6413
    assert new_term < k_term < f_term
    assert time.perf_counter() - start < 1.0


def test_acceptance_2_near_identity_pair_ratio_bound():
    start = time.perf_counter()
    inst = checks.InstanceSpec(A=A2, B=B2, p=0.5, m=0.999, M=1.07,
                               map=maps.MapSpec.normalized_trace(2))
    report = checks.run_check("seo_bound", inst)
    ratio_term = report.params["seo_term_norm"]
    our_term = report.params["windowed_term_norm"]
    assert abs(ratio_term - 0.000524) <= 1e-2 * 0.000524
    assert abs(our_term - 0.0001688) <= 1e-3 * 0.0001688
    assert our_term < ratio_term
    assert time.perf_counter() - start < 1.0


def test_acceptance_3_power_difference_tables():
    start = time.perf_counter()
    tols = {"E3i": 5e-3, "E3ii": 5e-2, "E3iii": 5e-3}
    for example_id, tol in tols.items():
        result = repro.run_repro(example_id)
        by_name = {item.quantity: item for item in result.items}
        dev = by_name["entrywise_max_dev"]
        assert dev.mode == "abs" and dev.tol == tol
        assert dev.computed <= tol, (example_id, dev.computed)
        floor = by_name["gap_min_eig"]
        assert floor.computed >= -floor.tol, (example_id, floor.computed)
        assert result.passed
    assert time.perf_counter() - start < 1.0


def test_acceptance_4_sandwich_spectrum_exactness():
    bounds = means.compute_sandwich(A2, B1)
    assert abs(bounds.lam_min - 1.0) <= 1e-10
    assert abs(bounds.lam_max - 2.0) <= 1e-10


def test_acceptance_5_fuzz_suites_zero_failures():
    suite = ("info_monotonicity", "reverse_monotonicity", "ando_converse",
             "power_corollary", "norm_power_lemma", "lh_extension",
             "mn2012", "mond_pecaric", "holder_mccarthy", "norm_chain",
             "radius_chain", "power_norm", "norm_refinement")
    start = time.perf_counter()
    for check_id in suite:
        result = fuzz.run_fuzz(check_id, trials=1000, dims=(2, 3, 4, 5, 6),
                               seed=0, tol_rel=1e-8)
        assert result.trials == 1000
        assert result.failures == 0, (check_id, result.witnesses[:1])
        assert result.counts[checks.HYPOTHESIS_VIOLATED] == 0, check_id
    assert time.perf_counter() - start < 60.0


def test_acceptance_6_scalar_lemma_grids():
    m_grid = np.geomspace(0.01, 1.0, 10)
    big_grid = np.linspace(1.0, 50.0, 10)
    frac_grid = np.linspace(0.0, 1.0, 10)
    p_grid = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    points = 0
    for m in m_grid:
        for big in big_grid:
            for frac in frac_grid:
                t = 1.0 + frac * (big - 1.0)
                for p in p_grid:
                    lower, mid, upper = constants.lemma_bounds(t, m, big, p)
                    assert lower <= mid + 1e-12, (m, big, t, p)
                    assert mid <= upper + 1e-12, (m, big, t, p)
                    points += 1
    assert points == 10 ** 4
    for s in np.linspace(1.0, 100.0, 100):
        for p in np.linspace(0.0, 1.0, 100):
            assert constants.mn2012_gap(float(s), float(p)) >= -1e-12


def test_acceptance_7_power_monotonicity_counterexample():
    result = fuzz.run_fuzz("lowner_heinz", trials=10000, seed=0,
                           p_values=(2.0,), stop_on_fail=True)
    assert result.failures >= 1
    hit = result.reports[-1]
    assert hit.verdict == checks.FAILS
    assert hit.hypotheses_ok  # the ordered-pair hypothesis held
    assert hit.params["p"] == 2.0


def test_acceptance_8_diagonal_oracle_equivalence():
    instances = scalar_oracle.generate(200)
    seen = set()
    for inst in instances:
        seen.add(inst["check_id"])
        n = len(inst["a"])
        spec = checks.InstanceSpec(
            A=np.diag(inst["a"]),
            B=None if inst["b"] is None else np.diag(inst["b"]),
            p=inst["p"],
            map=(maps.MapSpec.normalized_trace(n)
                 if inst["check_id"] in scalar_oracle.MAP_CHECKS else None),
            x=None if inst["x"] is None else np.array(inst["x"]),
            f=inst["f"],
        )
        report = checks.run_check(inst["check_id"], spec)
        assert report.hypotheses_ok, inst
        expected = scalar_oracle.oracle_gap(inst)
        assert abs(report.gap_min_eig - expected) <= 1e-10, inst
    assert seen == set(scalar_oracle.CHECK_IDS)


def test_acceptance_9_fuzz_json_byte_determinism(tmp_path, fresh_python):
    # two runs in this process and one in a fresh interpreter
    paths = [tmp_path / name for name in
             ("serial_a.json", "serial_b.json", "fresh.json")]
    base = ["fuzz", "--check", "reverse_monotonicity", "--trials", "50",
            "--seed", "123"]
    assert cli.main(base + ["--json", str(paths[0])]) == cli.EXIT_OK
    assert cli.main(base + ["--json", str(paths[1])]) == cli.EXIT_OK
    proc = fresh_python("-m", "opineq.cli", *base, "--json", str(paths[2]))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    blob = paths[0].read_bytes()
    assert blob == paths[1].read_bytes()
    assert blob == paths[2].read_bytes()
    assert len(json.loads(blob)) == 50
