"""Byte-identity gate: the fuzz JSON of every check is pinned by digest.

The digests come from `tests/fuzz_digests.py` (its docstring gives the
recipe).  A change that moves one byte of any fuzz report, of the fuzz
witness sidecar, of the benchmark's fuzz shape, of the files `fuzz --json --csv` and `repro --json`
write or of `eval` output fails here.
The bytes depend on the numpy and BLAS/LAPACK build, so on any other
platform the test is skipped rather than failed.
"""

import pytest

import fuzz_digests
from opineq import checks

RECORDED_PLATFORM = {
    "numpy": "2.4.6",
    "blas": ("scipy-openblas", "0.3.31.188.0"),
    "lapack": ("scipy-openblas", "0.3.31.188.0"),
}

# check -> digests in fuzz_digests.COLUMNS order
DIGESTS = {
    "ando_converse": ("0801ae81c21c7737", "d9bfb8b7723a9460", "42c048717fea3499", "e5cbd02ef6787503", "ac41bc9ef00d8fc6"),
    "density_trace": ("afbf3b72ff040ef2", "34aa0b3dcbb540eb", "7ce13932c8ae935f", "0224b5869ae5f8c5", "b7a6571261e10811"),
    "furuta_bounds": ("1594584fccbb8b04", "e56bfad3a3a084b5", "921fedc406ab241e", "5f78d0ccbbd73690", "f5aeeff4a791f12a"),
    "holder_mccarthy": ("88426821e1b92247", "7930a9108522b9a1", "6fe360d788b4e591", "ebcc07d8064d024c", "57159010dfcdfa42"),
    "info_monotonicity": ("c0678b267f10e15f", "b23f8fd3d4e5662e", "c0678b267f10e15f", "b23f8fd3d4e5662e", "3f44a6a1723e2615"),
    "lh_extension": ("005c4e5f4ed52c3f", "def87e66a2f876a7", "9c1f29157860682a", "e2fbd22257e26ea2", "19d0b42651674562"),
    "lowner_heinz": ("ce04977a44dea2e2", "5eb2144c38bd73ac", "11ffaeb1ab3d27ed", "d71ac4f1f01cd1da", "9e5956dd1f69aaaf"),
    "mn2012": ("b1558e806bea3a02", "ea945dd7d47e7a99", "1052f64635a463af", "1364f37ca472f0fa", "781b7641f0c50ac4"),
    "mond_pecaric": ("728dd147edca8d87", "ecfb1368800be188", "172989c5cf8c13f7", "1c004f0dbb3b45b3", "4d9135035159b16c"),
    "norm_chain": ("de27e8da18799930", "2332a5caec65a471", "65e1cf03efb55426", "e4844e6462fb479a", "9f9ee9ec3a607cb7"),
    "norm_power_lemma": ("2b2e2c4325389a63", "ac2648109984b2cc", "2d5f9c7e153983a4", "eee26771fb82c06e", "ca5d6c63325b9acc"),
    "norm_refinement": ("29d15ba521363c95", "3a04c7f5110017f4", "50e53f68a5fc57fa", "7cdf88ec8287b012", "256d946f5b5d28fd"),
    "power_corollary": ("4e90b9134ccd60ee", "95d0c6be87065e75", "f4d40ff8cb11866a", "01fdb15cf773d280", "2ae96632cf446194"),
    "power_norm": ("fc3d4d4e0262dd96", "f798b5c3a1de5d53", "f436971c3e7b3817", "7cf7c585c235820f", "3b2c009311193801"),
    "radius_chain": ("0f105708fb80ced8", "15cfc42ea10a260a", "671675ddb3e2d2d9", "d53b088868e7e4a1", "9e30160acf49a987"),
    "reverse_monotonicity": ("ba84219c641f270f", "b7eecec41e61ebb5", "ba84219c641f270f", "b7eecec41e61ebb5", "c5ddd4ac4ac06761"),
    "seo_bound": ("4f7897b58a05e815", "5ffa3fb7635eb11c", "43c76a9055720431", "9d0e528b61489dc7", "288226fa66d60c9a"),
}
REPRO_DIGEST = "7599ba759ff7704a"
WITNESS_DIGEST = "481e9948092e5765"
# the --json and --csv files of fuzz_digests.cli_fuzz_digests
CLI_FUZZ_DIGESTS = ("04ba238008b794f9", "354d4653aaf85ef6")
CLI_REPRO_DIGEST = "61ac893add96d9f1"
# fuzz_digests.bench_shape_digest over each of fuzz_digests.BENCH_DIMS
BENCH_SHAPE_DIGESTS = ("cba74fe7e97779ea", "396ce7f360f4750e")
# check -> digest of `opineq eval` stdout on its fuzz_digests.eval_digest instance
EVAL_DIGESTS = {
    "ando_converse": "58e26bcb2f890208",
    "density_trace": "b119978d14e0dd19",
    "furuta_bounds": "dc9c611287e47cb2",
    "holder_mccarthy": "55240de011b7269d",
    "info_monotonicity": "ebc7add733d519f8",
    "lh_extension": "ce20c409733afcb0",
    "lowner_heinz": "005bfe67b39694c3",
    "mn2012": "5c8b1bbbeaca17b2",
    "mond_pecaric": "7fab2d37e4c80af1",
    "norm_chain": "c2a7305b1b46c32b",
    "norm_power_lemma": "fd0310c2570fa5d2",
    "norm_refinement": "c0bb28f5d2f086a4",
    "power_corollary": "859e4aa25c96c735",
    "power_norm": "14c854b545e0bc83",
    "radius_chain": "663b79abf09780b2",
    "reverse_monotonicity": "e6438ac0eeac9048",
    "seo_bound": "283aaa0925151090",
}

_platform = fuzz_digests.platform()
pytestmark = pytest.mark.skipif(
    _platform != RECORDED_PLATFORM,
    reason=f"digests were recorded on {RECORDED_PLATFORM}, this is {_platform}")


def test_every_check_is_pinned():
    assert sorted(DIGESTS) == sorted(checks.REGISTRY)
    assert sorted(EVAL_DIGESTS) == sorted(checks.REGISTRY)
    assert sorted(fuzz_digests.BOUNDARY_P) == sorted(checks.REGISTRY)


@pytest.mark.parametrize("check_id", sorted(DIGESTS))
def test_fuzz_json_digests(check_id):
    got = tuple(fuzz_digests.fuzz_digest(check_id, p_set, dims, trials)
                for _, p_set, dims, trials in fuzz_digests.COLUMNS)
    assert got == DIGESTS[check_id]


def test_repro_json_digest():
    assert fuzz_digests.repro_digest() == REPRO_DIGEST


def test_witness_sidecar_digest():
    assert fuzz_digests.witness_digest() == WITNESS_DIGEST


def test_cli_fuzz_file_digests():
    assert fuzz_digests.cli_fuzz_digests() == CLI_FUZZ_DIGESTS


@pytest.mark.parametrize("k", range(len(BENCH_SHAPE_DIGESTS)))
def test_bench_shape_digests(k):
    assert fuzz_digests.bench_shape_digest(fuzz_digests.BENCH_DIMS[k]) == BENCH_SHAPE_DIGESTS[k]


def test_cli_repro_file_digest():
    assert fuzz_digests.cli_repro_digest() == CLI_REPRO_DIGEST


@pytest.mark.parametrize("check_id", sorted(EVAL_DIGESTS))
def test_eval_stdout_digests(check_id):
    assert fuzz_digests.eval_digest(check_id) == EVAL_DIGESTS[check_id]
