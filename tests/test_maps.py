"""Tests for the positive unital map layer."""

import json
import warnings

import numpy as np
import pytest

from opineq import linalg, maps, sampling
from opineq.errors import DimensionMismatch, InvalidSpec, SchemaError


def _spd(dim, trial=0):
    return sampling.random_spd(sampling.SamplerConfig(dim=dim, seed=19), trial)


def _all_specs(n=4):
    iso = sampling.random_isometry(sampling.SamplerConfig(dim=n, seed=23), k=2)
    perm = np.eye(n)[[1, 0, 3, 2]]
    return [
        maps.MapSpec.normalized_trace(n),
        maps.MapSpec.compression(iso),
        maps.MapSpec.pinching(((0, 1), (2, 3)), n),
        maps.MapSpec.mixed_unitary([0.25, 0.75], [np.eye(n), perm]),
    ]


# ----------------------------------------------------------------------
# shared contracts: unitality, positivity, symmetry
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_map_is_unital(spec):
    out = maps.apply_map(spec, np.eye(spec.in_dim))
    assert np.allclose(out, np.eye(spec.out_dim), atol=1e-12)


@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_map_preserves_positivity(spec):
    for trial in range(8):
        x = _spd(spec.in_dim, trial)
        lam = linalg.eigvals_sym(maps.apply_map(spec, x))
        assert lam[0] > -1e-12


@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_map_output_is_symmetric(spec):
    out = maps.apply_map(spec, _spd(spec.in_dim, 3))
    assert np.array_equal(out, out.T)


@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_map_is_linear(spec):
    x, y = _spd(spec.in_dim, 4), _spd(spec.in_dim, 5)
    lhs = maps.apply_map(spec, 2.0 * x - 0.5 * y)
    rhs = 2.0 * maps.apply_map(spec, x) - 0.5 * maps.apply_map(spec, y)
    assert np.allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_verify_map_accepts(spec):
    assert maps.verify_map(spec)


@pytest.mark.parametrize("spec", _all_specs(), ids=lambda s: s.kind)
def test_map_json_roundtrip(spec):
    # the kind and its _FIELDS, as JSON values, read back to the same map
    data = spec.to_json_dict()
    assert set(data) == {"kind", *maps._FIELDS[spec.kind]}
    assert json.loads(json.dumps(data)) == data
    back = maps.MapSpec.from_json_dict(data)
    assert back.to_json_dict() == data
    assert back.kind == spec.kind
    assert back.in_dim == spec.in_dim
    assert back.out_dim == spec.out_dim
    x = _spd(spec.in_dim, 6)
    assert np.allclose(maps.apply_map(back, x), maps.apply_map(spec, x),
                       atol=1e-12)


# ----------------------------------------------------------------------
# kind-specific behavior
# ----------------------------------------------------------------------

def test_normalized_trace_value():
    spec = maps.MapSpec.normalized_trace(3)
    out = maps.apply_map(spec, np.diag([1.0, 2.0, 6.0]))
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 3.0) < 1e-14
    # a bool is not a dimension, though int() reads True as 1
    with pytest.raises(InvalidSpec, match="dim must be an integer"):
        maps.MapSpec.normalized_trace(True)


def test_compression_reduces_dimension():
    iso = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    spec = maps.MapSpec.compression(iso)
    x = np.arange(9.0).reshape(3, 3)
    x = linalg.symmetrize(x)
    out = maps.apply_map(spec, x)
    assert out.shape == (2, 2)
    assert np.allclose(out, x[:2, :2], atol=1e-14)


def test_pinching_zeroes_off_blocks():
    spec = maps.MapSpec.pinching(((0,), (1, 2)), 3)
    x = linalg.symmetrize(np.arange(9.0).reshape(3, 3))
    out = maps.apply_map(spec, x)
    assert out[0, 1] == 0.0 and out[0, 2] == 0.0
    assert np.allclose(out[1:, 1:], x[1:, 1:], atol=1e-14)
    # projecting twice changes nothing
    assert np.allclose(maps.apply_map(spec, out), out, atol=1e-14)


def test_mixed_unitary_trace_preserving():
    perm = np.eye(3)[[2, 0, 1]]
    spec = maps.MapSpec.mixed_unitary([0.5, 0.5], [np.eye(3), perm])
    x = _spd(3, 7)
    out = maps.apply_map(spec, x)
    assert abs(np.trace(out) - np.trace(x)) < 1e-12


# ----------------------------------------------------------------------
# rejection paths
# ----------------------------------------------------------------------

def test_compression_rejects_nonorthonormal():
    with pytest.raises(InvalidSpec):
        maps.MapSpec.compression(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


def test_pinching_rejects_bad_partition():
    with pytest.raises(InvalidSpec):
        maps.MapSpec.pinching(((0, 1), (1, 2)), 3)
    with pytest.raises(InvalidSpec):
        maps.MapSpec.pinching(((0,),), 2)
    # True used to be read as index 1, a valid partition of 2
    with pytest.raises(InvalidSpec, match="partition index must be an integer"):
        maps.MapSpec.pinching([[True, 0]], 2)
    with pytest.raises(InvalidSpec, match="dim must be an integer"):
        maps.MapSpec.pinching([[0]], np.True_)
    # an empty partition covers an empty or negative dimension; it used to
    # build a map with that in_dim
    with pytest.raises(InvalidSpec):
        maps.MapSpec.pinching((), 0)
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict({"kind": "pinching", "partition": [], "dim": -3})


def test_mixed_unitary_rejects_bad_weights():
    with pytest.raises(InvalidSpec):
        maps.MapSpec.mixed_unitary([0.6, 0.6], [np.eye(2), np.eye(2)])
    with pytest.raises(InvalidSpec):
        maps.MapSpec.mixed_unitary([1.0], [np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_mixed_unitary_rejects_a_0d_unitary():
    with pytest.raises(InvalidSpec):
        maps.MapSpec.mixed_unitary([1.0], [5])
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict({"kind": "mixed_unitary", "weights": [1.0],
                                     "unitaries": [5]})


# (id, constructor call, its JSON object, the error): the library path raised
# a bare numpy ValueError for a ragged array and a TypeError for a partition,
# a block or a list of unitaries that is not a sequence
MALFORMED_MAPS = [pytest.param(*row[1:], id=row[0]) for row in [
    ("ragged-isometry", lambda: maps.MapSpec.compression([[1.0, 0.0], [0.0]]),
     {"kind": "compression", "isometry": [[1.0, 0.0], [0.0]]}, SchemaError),
    ("ragged-unitary", lambda: maps.MapSpec.mixed_unitary([1.0], [[[1.0, 0.0], [0.0]]]),
     {"kind": "mixed_unitary", "weights": [1.0], "unitaries": [[[1.0, 0.0], [0.0]]]},
     SchemaError),
    ("partition-not-a-sequence", lambda: maps.MapSpec.pinching(3, 3),
     {"kind": "pinching", "partition": 3, "dim": 3}, InvalidSpec),
    ("block-not-a-sequence", lambda: maps.MapSpec.pinching([0, [1, 2]], 3),
     {"kind": "pinching", "partition": [0, [1, 2]], "dim": 3}, InvalidSpec),
    ("unitaries-not-a-sequence", lambda: maps.MapSpec.mixed_unitary([1.0], 5),
     {"kind": "mixed_unitary", "weights": [1.0], "unitaries": 5}, InvalidSpec),
]]


@pytest.mark.parametrize("build, obj, error", MALFORMED_MAPS)
def test_constructors_refuse_malformed_arrays_and_partitions(build, obj, error):
    with pytest.raises(error):
        build()
    with pytest.raises(error):
        maps.MapSpec.from_json_dict(obj)


@pytest.mark.parametrize("obj", [
    {"kind": "normalized_trace", "dim": 2.9},
    {"kind": "normalized_trace", "dim": -0.5},
    {"kind": "normalized_trace", "dim": float("inf")},
    {"kind": "pinching", "dim": 2.5, "partition": [[0], [1]]},
    {"kind": "pinching", "dim": 2, "partition": [[0.7], [1.2]]},
    {"kind": "pinching", "dim": 2, "partition": [[0], [float("nan")]]},
])
def test_from_json_rejects_non_integral_values(obj):
    # truncating them would evaluate a different map than the one written
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict(obj)


_I2 = [[1.0, 0.0], [0.0, 1.0]]
# (field, offending value, map): each used to be read as the number 1 or 0
NON_NUMBER_MAPS = [
    ("weights", "1", {"kind": "mixed_unitary", "weights": ["1"], "unitaries": [_I2]}),
    ("weights", True, {"kind": "mixed_unitary", "weights": [True], "unitaries": [_I2]}),
    ("unitaries", "1", {"kind": "mixed_unitary", "weights": [1.0],
                        "unitaries": [[["1", 0.0], [0.0, 1.0]]]}),
    ("unitaries", True, {"kind": "mixed_unitary", "weights": [1.0],
                         "unitaries": [[[True, 0.0], [0.0, 1.0]]]}),
    ("isometry", "1", {"kind": "compression", "isometry": [["1"], ["0"]]}),
    ("isometry", True, {"kind": "compression", "isometry": [[True], [False]]}),
    ("dim", True, {"kind": "normalized_trace", "dim": True}),
    ("partition", True, {"kind": "pinching", "dim": 2, "partition": [[0], [True]]}),
]


# a string dim was rejected before too, as a non-integral InvalidSpec
@pytest.mark.parametrize("key, bad, obj", NON_NUMBER_MAPS + [
    ("dim", "2", {"kind": "normalized_trace", "dim": "2"})])
def test_from_json_rejects_strings_and_booleans_for_numbers(key, bad, obj):
    with pytest.raises(SchemaError) as exc:
        maps.MapSpec.from_json_dict(obj)
    assert str(exc.value) == f"{key}: expected a number, got {bad!r}"


# (id, field, first offending entry, constructor call): the library path refuses
# what the JSON path refuses, as a list or as an ndarray; each used to build
# a map, from 1 or 0 or from the real part
@pytest.mark.parametrize("key, bad, build", [pytest.param(*row[1:], id=row[0]) for row in [
    ("isometry-str-list", "isometry", "1",
     lambda: maps.MapSpec.compression([["1", "0"], ["0", "1"]])),
    ("isometry-str-ndarray", "isometry", "1",
     lambda: maps.MapSpec.compression(np.array([["1", "0"], ["0", "1"]]))),
    ("isometry-bool-list", "isometry", True,
     lambda: maps.MapSpec.compression([[True], [False]])),
    ("isometry-bool-ndarray", "isometry", True,
     lambda: maps.MapSpec.compression(np.eye(2, dtype=bool))),
    ("isometry-complex-list", "isometry", 1j, lambda: maps.MapSpec.compression([[1j], [0.0]])),
    ("isometry-complex-ndarray", "isometry", 1 + 1e-3j,
     lambda: maps.MapSpec.compression(np.eye(2) + 1e-3j)),
    ("weights-str-list", "weights", "1",
     lambda: maps.MapSpec.mixed_unitary(["1"], [np.eye(2)])),
    ("weights-bool-ndarray", "weights", True,
     lambda: maps.MapSpec.mixed_unitary(np.array([True]), [np.eye(2)])),
    ("weights-complex-list", "weights", 1 + 0j,
     lambda: maps.MapSpec.mixed_unitary([1 + 0j], [np.eye(2)])),
    ("unitaries-str-list", "unitaries", "1",
     lambda: maps.MapSpec.mixed_unitary([1.0], [[["1", 0.0], [0.0, 1.0]]])),
    ("unitaries-bool-ndarray", "unitaries", True,
     lambda: maps.MapSpec.mixed_unitary([1.0], [np.eye(2, dtype=bool)])),
    ("unitaries-complex-ndarray", "unitaries", 1j,
     lambda: maps.MapSpec.mixed_unitary([1.0], [np.eye(2) * 1j])),
]])
def test_constructors_reject_strings_booleans_and_complex_numbers(key, bad, build):
    with pytest.raises(SchemaError) as exc:
        build()
    assert str(exc.value) == f"{key}: expected a number, got {bad!r}"


# a key that the map's kind does not take: each used to be ignored
STRAY_KEY_MAPS = [
    ("weights", {"kind": "normalized_trace", "dim": 2, "weights": ["1"]}),
    ("isometry", {"kind": "normalized_trace", "dim": 2, "isometry": "x"}),
    ("dim", {"kind": "compression", "isometry": _I2, "dim": 2}),
    ("dim, partition", {"kind": "mixed_unitary", "weights": [1.0], "unitaries": [_I2],
                        "dim": 2, "partition": [[0, 1]]}),
    ("weights", {"kind": "pinching", "dim": 2, "partition": [[0], [1]], "weights": [1.0]}),
]


@pytest.mark.parametrize("keys, obj", STRAY_KEY_MAPS)
def test_from_json_refuses_keys_its_kind_does_not_take(keys, obj):
    with pytest.raises(SchemaError) as exc:
        maps.MapSpec.from_json_dict(obj)
    assert str(exc.value) == f"unknown keys for a {obj['kind']} map: {keys}"


def test_from_json_accepts_integral_floats():
    assert maps.MapSpec.from_json_dict({"kind": "normalized_trace", "dim": 3.0}) == \
        maps.MapSpec.normalized_trace(3)
    spec = maps.MapSpec.from_json_dict({"kind": "pinching", "dim": 2.0,
                                        "partition": [[1.0], [0]]})
    assert spec.partition == ((1,), (0,)) and spec.in_dim == 2
    assert type(spec.in_dim) is int and type(spec.partition[0][0]) is int


def test_from_json_rejects_unknown_kind():
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict({"kind": "transpose", "dim": 2})
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict({"kind": "normalized_trace"})


def test_apply_map_dimension_mismatch():
    spec = maps.MapSpec.normalized_trace(3)
    with pytest.raises(DimensionMismatch):
        maps.apply_map(spec, np.eye(2))


@pytest.mark.parametrize("obj", ["x", [1, 2], 3.0, None])
def test_from_json_rejects_non_object(obj):
    with pytest.raises(SchemaError):
        maps.MapSpec.from_json_dict(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constructors_reject_non_finite_entries(bad):
    iso = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, bad]])
    with pytest.raises(InvalidSpec):
        maps.MapSpec.compression(iso)
    with pytest.raises(InvalidSpec):
        maps.MapSpec.mixed_unitary([bad, 0.5], [np.eye(2), np.eye(2)[::-1]])
    with pytest.raises(InvalidSpec):
        maps.MapSpec.mixed_unitary([0.5, 0.5], [np.eye(2), np.array([[0.0, 1.0], [1.0, bad]])])
    with pytest.raises(InvalidSpec):
        maps.MapSpec.from_json_dict({"kind": "compression", "isometry": iso.tolist()})


@pytest.mark.parametrize("x", [[["1", 0], [0, 1]], [[True, 0.0], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0]], [[1j, 0.0], [0.0, 1.0]]])
def test_apply_map_refuses_what_inputs_floats_refuses(x):
    with pytest.raises(SchemaError):
        maps.apply_map(maps.MapSpec.normalized_trace(2), x)


def test_apply_map_reads_a_list_of_numbers():
    out = maps.apply_map(maps.MapSpec.normalized_trace(2), [[1, 0.0], [0.0, 3]])
    assert out.dtype == np.float64 and out.tolist() == [[2.0]]


def test_apply_map_rejects_non_finite_input():
    spec = maps.MapSpec.normalized_trace(2)
    with pytest.raises(ValueError):
        maps.apply_map(spec, np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_verify_map_rejects_non_integral_trials():
    # range(2.5) used to raise a bare TypeError
    with pytest.raises(InvalidSpec):
        maps.verify_map(maps.MapSpec.normalized_trace(2), trials=2.5)
    # a negative count used to run no linearity or positivity probe and pass
    with pytest.raises(InvalidSpec, match="trials must be >= 0"):
        maps.verify_map(maps.MapSpec.normalized_trace(2), trials=-5)
    assert maps.verify_map(maps.MapSpec.normalized_trace(2), trials=2.0)


def test_verify_map_seeds_draw_their_own_probes(monkeypatch):
    # the probes come from sampling.rng_for(seed, 0); a Philox key built from
    # a Python list read seed -1 as float64, ran seed 0's probes and warned,
    # and merged seeds 2**63 and 2**63 + 1
    spec = maps.MapSpec.pinching(((0, 1), (2,)), 3)
    apply_map = maps.apply_map
    probes = {}
    for seed in (-1, 0, 2**63, 2**63 + 1):
        seen = probes[seed] = []
        monkeypatch.setattr(maps, "apply_map",
                            lambda s, x, seen=seen: seen.append(np.array(x)) or apply_map(s, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert maps.verify_map(spec, trials=2, seed=seed)
    for first, second in ((-1, 0), (2**63, 2**63 + 1)):
        assert not any(np.array_equal(x, y) for x, y in zip(probes[first][1:], probes[second][1:]))
