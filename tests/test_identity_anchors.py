"""Byte-identity anchors.

sha256 digests of results files and of bisection sides for fixed configs and
seeds. A refactor must leave every one unchanged; a change that moves one
changes what the program computes and has to say so.
"""

import hashlib

import numpy as np
import pytest

from circnet.cli import parse_spec
from circnet.metrics import _best_balanced_side
from circnet.search import SearchConfig, run_search, write_results

# write_results bytes for SearchConfig(workers=1, restarts=16, seed=0)
RESULTS_SHA256 = {
    (32, 4): "d8768311c8cb9ee8d56e006be1ae72f132c534c506141e22c7f3ef20ea058e34",
    (32, 5): "8d3321f7a986f1cdc4a29e05ec4b1ca6fcc1198075e8e9c71254123153221109",
    (64, 6): "ecf81e5459162436475c93967372afc5a39816d488455b0627d4489756c8b9bc",
    (128, 6): "638bf4d4bded85aa63445d6e2e37f950cbf2ed6fb41342260d20f82f8d0075e0",
}

# int8 side of _best_balanced_side(t, 16, seed)
SIDE_SHA256 = {
    ("circulant:128:1,8,54", 0): "757ea552b6af459f46f62f3855c30c3ec3bf6a2f9f88307af318f3486785086d",
    ("torus:8,8,4", 7): "bee9c8741f8bd0666cc672fb112f7c3668b71e8e122c60838e3577543f831f54",
    # the restarts stop early here: the first cut found meets the lower bound
    ("hypercube:6", 5): "5c85955f709283ecce2b74f1b1552918819f390911816e7bb466805a38ab87f3",
    ("hypercube:7", 0): "d8ad0501d31785e59870345e43108fc4c0f3fd3e0c106fd9fbd151f949d841fb",
    ("torus:8,4,4", 3): "3d9c5e81dd09d4642aa732d43d4dd3ebc2dc1415d8dc045d111fde5d65eff267",
    ("product:ring:8*complete:4", 0): "0e35a53871304db5962bedd5562462cf086ab5dd2fa0fdc00cf15902211feaa1",
}

# int8 side of _best_balanced_side(t, restarts, seed) at sizes where D ties
# across the swap window's boundary often decide the pair: with index order
# in place of argpartition there, both sides change.
TIE_SIDE_SHA256 = {
    ("circulant:512:1,15,56,149", 2, 0): "493914d5d3a25473b2b1c26339c7ae14504769e13a051cb3750f043f2da69248",
    ("circulant:1024:1,144,258,276", 2, 0): "e95c2aec2c08b0b20aa322cb8a05bdb1246715a7c9f23a384aa04f3a0a838944",
}


@pytest.mark.parametrize("n, k", sorted(RESULTS_SHA256))
def test_results_file_digest(n, k, tmp_path):
    records, _ = run_search(n, k, SearchConfig(workers=1, restarts=16, seed=0))
    path = tmp_path / "results.jsonl"
    write_results(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RESULTS_SHA256[(n, k)]


@pytest.mark.parametrize("spec, seed", sorted(SIDE_SHA256))
def test_bisection_side_digest(spec, seed):
    _, side = _best_balanced_side(parse_spec(spec), 16, seed)
    assert side.dtype == np.int8
    assert hashlib.sha256(side.tobytes()).hexdigest() == SIDE_SHA256[(spec, seed)]


@pytest.mark.parametrize("spec, restarts, seed", sorted(TIE_SIDE_SHA256))
def test_tie_sensitive_side_digest(spec, restarts, seed):
    _, side = _best_balanced_side(parse_spec(spec), restarts, seed)
    assert hashlib.sha256(side.tobytes()).hexdigest() == TIE_SIDE_SHA256[(spec, restarts, seed)]
