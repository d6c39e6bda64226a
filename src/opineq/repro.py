"""Reference instances with pinned expected values.

Five instances exercise the headline bounds end to end: a 2x2 pair where
the windowed additive bound beats both Kantorovich-style bounds (E1), a
nearby pair where it also beats the ratio-window bound (E2), and one 3x3
pair checked at three exponents against tabulated difference matrices
(E3i, E3ii, E3iii).

The E3 tables were produced with the operator norm of B truncated, not
rounded, to three decimals (the norm is 9.64574... and the tables match
9.645 exactly, to the printed digits).  Reproduction follows that
truncation convention; the engine-level check still runs with the exact
norm and must HOLD either way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import checks, linalg, maps

__all__ = ["EXAMPLE_IDS", "ReproItem", "ReproResult", "run_repro", "run_all"]

EXAMPLE_IDS = ("E1", "E2", "E3i", "E3ii", "E3iii")

_A2 = np.array([[2.0, 3.0], [3.0, 5.0]])
_B1 = np.array([[3.0, 4.0], [4.0, 6.0]])
_B2 = np.array([[2.01, 3.0], [3.0, 5.01]])

_A3 = np.array([[3.0, -1.0, 0.0], [-1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
_B3 = np.array([[9.0, 0.0, 1.0], [0.0, 6.0, 2.0], [1.0, 2.0, 7.0]])

_E3_TABLES = {
    "E3i": (2.0 / 3.0, 5e-3, np.array([
        [0.398, 0.186, -0.035],
        [0.186, 0.541, -0.225],
        [-0.035, -0.225, 0.842],
    ])),
    "E3ii": (4.0, 5e-2, np.array([
        [14675.664, 2845.944, 1333.944],
        [2845.944, 12145.776, 1141.944],
        [1333.944, 1141.944, 17699.664],
    ])),
    "E3iii": (-3.0, 5e-3, np.array([
        [2.371, 6.373, -8.624],
        [6.373, 17.366, -23.62],
        [-8.624, -23.62, 32.367],
    ])),
}


@dataclasses.dataclass(frozen=True)
class ReproItem:
    """One compared quantity: computed vs expected under a tolerance.

    mode is one of 'rel' (relative error), 'abs' (absolute error),
    'bool' (exact truth match) and 'lower_bound' (computed must not sit
    below expected by more than tol).
    """

    quantity: str
    computed: float
    expected: float
    tol: float
    mode: str
    passed: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ReproResult:
    example_id: str
    items: tuple[ReproItem, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        """The result as JSON values: _item made every field exact, and
        the items tuple is written as an array."""
        return dataclasses.asdict(self)


def _item(quantity, computed, expected, tol, mode) -> ReproItem:
    computed = float(computed)
    expected = float(expected)
    if mode == "rel":
        passed = abs(computed - expected) <= tol * abs(expected)
    elif mode == "abs":
        passed = abs(computed - expected) <= tol
    elif mode == "bool":
        passed = bool(computed) == bool(expected)
    elif mode == "lower_bound":
        passed = computed >= expected - tol
    else:  # pragma: no cover
        raise ValueError(f"unknown item mode {mode!r}")
    return ReproItem(quantity, computed, expected, float(tol), mode, passed)


def _repro_e1() -> ReproResult:
    inst = checks.InstanceSpec(A=_A2, B=_B1, p=0.5,
                               map=maps.MapSpec.normalized_trace(2))
    report = checks.check_furuta_bounds(inst)
    windowed = report.params["windowed_term_norm"]
    kant = report.params["kantorovich_term_norm"]
    lin = report.params["linear_term_norm"]
    items = (
        _item("windowed_term", windowed, 5.35393, 1e-3, "rel"),
        _item("kantorovich_term", kant, 5.55857, 1e-3, "rel"),
        _item("linear_term", lin, 12.6413, 1e-3, "rel"),
        _item("windowed_beats_both", windowed < kant < lin, True, 0.0, "bool"),
        _item("check_holds", report.verdict == checks.HOLDS, True, 0.0, "bool"),
    )
    return ReproResult("E1", items, all(i.passed for i in items))


def _repro_e2() -> ReproResult:
    inst = checks.InstanceSpec(A=_A2, B=_B2, p=0.5, m=0.999, M=1.07,
                               map=maps.MapSpec.normalized_trace(2))
    report = checks.check_seo_bound(inst)
    seo = report.params["seo_term_norm"]
    windowed = report.params["windowed_term_norm"]
    items = (
        _item("ratio_window_term", seo, 0.000524, 1e-2, "rel"),
        _item("windowed_term", windowed, 0.0001688, 1e-3, "rel"),
        _item("windowed_beats_ratio", windowed < seo, True, 0.0, "bool"),
        _item("check_holds", report.verdict == checks.HOLDS, True, 0.0, "bool"),
    )
    return ReproResult("E2", items, all(i.passed for i in items))


def _truncate3(value: float) -> float:
    return np.floor(value * 1000.0) / 1000.0


def _repro_e3(example_id: str) -> ReproResult:
    p, tol, table = _E3_TABLES[example_id]
    nb = _truncate3(linalg.norm_op(_B3))
    diff = linalg.power(_B3, p) - linalg.power(_A3, p)
    lin = p * nb ** (p - 1.0) * (_B3 - _A3)
    gap = diff - lin if 0.0 <= p <= 1.0 else lin - diff
    dev = float(np.max(np.abs(gap - table)))
    min_eig = float(linalg.eigvals_sym(gap)[0])
    report = checks.check_lh_extension(checks.InstanceSpec(A=_A3, B=_B3, p=p))
    items = (
        _item("entrywise_max_dev", dev, 0.0, tol, "abs"),
        _item("gap_min_eig", min_eig, 0.0,
              linalg._scaled(linalg.DEFAULT_TOL_REL, linalg.norm_op(gap)), "lower_bound"),
        _item("check_holds", report.verdict == checks.HOLDS, True, 0.0, "bool"),
    )
    return ReproResult(example_id, items, all(i.passed for i in items))


def run_repro(example_id: str) -> ReproResult:
    """Reproduce one pinned instance by id."""
    if example_id == "E1":
        return _repro_e1()
    if example_id == "E2":
        return _repro_e2()
    if example_id in _E3_TABLES:
        return _repro_e3(example_id)
    raise KeyError(f"unknown example {example_id!r}; expected one of {EXAMPLE_IDS}")


def run_all() -> list[ReproResult]:
    return [run_repro(example_id) for example_id in EXAMPLE_IDS]
