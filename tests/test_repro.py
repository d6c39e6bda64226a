"""Tests for the pinned reference instances."""

import json

import numpy as np
import pytest

from opineq import linalg, repro


def test_all_examples_pass():
    results = repro.run_all()
    assert [r.example_id for r in results] == list(repro.EXAMPLE_IDS)
    for result in results:
        failed = [item.quantity for item in result.items if not item.passed]
        assert result.passed, (result.example_id, failed)


def test_e1_term_values():
    result = repro.run_repro("E1")
    by_name = {item.quantity: item for item in result.items}
    assert by_name["windowed_term"].computed == pytest.approx(5.35393, rel=1e-3)
    assert by_name["kantorovich_term"].computed == pytest.approx(5.55857, rel=1e-3)
    assert by_name["linear_term"].computed == pytest.approx(12.6413, rel=1e-3)
    assert by_name["windowed_term"].computed < by_name["kantorovich_term"].computed
    assert by_name["kantorovich_term"].computed < by_name["linear_term"].computed


def test_e2_term_values():
    result = repro.run_repro("E2")
    by_name = {item.quantity: item for item in result.items}
    assert by_name["ratio_window_term"].computed == pytest.approx(0.000524, rel=1e-2)
    assert by_name["windowed_term"].computed == pytest.approx(0.0001688, rel=1e-3)
    assert by_name["windowed_term"].computed < by_name["ratio_window_term"].computed


@pytest.mark.parametrize("example_id", ["E3i", "E3ii", "E3iii"])
def test_e3_difference_tables(example_id):
    result = repro.run_repro(example_id)
    by_name = {item.quantity: item for item in result.items}
    assert by_name["entrywise_max_dev"].passed
    assert by_name["gap_min_eig"].computed >= -by_name["gap_min_eig"].tol
    assert by_name["check_holds"].passed


def test_e3_tables_use_truncated_norm():
    # the tabulated linear term corresponds to ||B|| cut to 9.645, not
    # rounded to 9.646; with rounding the E3ii table misses by far more
    # than its tolerance
    b = np.array([[9.0, 0.0, 1.0], [0.0, 6.0, 2.0], [1.0, 2.0, 7.0]])
    nb = linalg.norm_op(b)
    assert nb > 9.6457  # so truncation and rounding genuinely differ
    assert repro._truncate3(nb) == pytest.approx(9.645, abs=1e-12)


def test_unknown_example_raises():
    with pytest.raises(KeyError, match="unknown example 'E7'; expected one of "
                                       r"\('E1', 'E2', 'E3i', 'E3ii', 'E3iii'\)"):
        repro.run_repro("E7")


def test_result_json_roundtrip():
    result = repro.run_repro("E1")
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload["example_id"] == "E1"
    assert payload["passed"] is True
    assert {item["quantity"] for item in payload["items"]} == {
        "windowed_term", "kantorovich_term", "linear_term",
        "windowed_beats_both", "check_holds"}
    for item in payload["items"]:
        assert set(item) == {"quantity", "computed", "expected",
                             "tol", "mode", "passed"}
