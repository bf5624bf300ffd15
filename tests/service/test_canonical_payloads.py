"""Bytes the daemon caches and compares — canonical JSON and the ranked
per-feature deltas of a federation pair — and how the client reads them."""

import numpy as np
import pytest

from repro.core.federation import PairComparison
from repro.service.client import ServiceError, ServiceResponse
from repro.service.server import canonical_json


def test_canonical_json_sorts_keys_with_minimal_separators():
    assert canonical_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'


def test_canonical_json_is_independent_of_insertion_order():
    assert canonical_json({"x": 1, "y": {"q": 2, "p": 3}}) == \
        canonical_json({"y": {"p": 3, "q": 2}, "x": 1})


def test_canonical_json_writes_numpy_values_as_plain_json():
    payload = {"n": np.int64(7), "mean": np.float64(0.5), "bins": np.array([1, 2])}
    assert canonical_json(payload) == b'{"bins":[1,2],"mean":0.5,"n":7}'


def test_canonical_json_rejects_other_objects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"x": object()})


def test_top_deltas_rank_by_absolute_difference_then_name():
    pair = PairComparison(a="cc", b="fb", distance=1.0,
                          deltas={"jobs": 3.0, "bytes": -5.0, "hours": 3.0, "names": 0.5})
    assert pair.top_deltas(3) == [("bytes", -5.0), ("hours", 3.0), ("jobs", 3.0)]


def test_top_deltas_beyond_the_feature_count_return_every_feature():
    pair = PairComparison(a="cc", b="fb", distance=0.0, deltas={"jobs": 1.0})
    assert pair.top_deltas(5) == [("jobs", 1.0)]


def test_service_response_reads_body_and_cache_header():
    response = ServiceResponse(200, {"x-repro-cache": "hit"}, canonical_json({"n": 1}))
    assert response.json() == {"n": 1}
    assert response.text == '{"n":1}'
    assert response.cache == "hit"


def test_service_response_without_cache_header():
    assert ServiceResponse(404, {}, b"{}").cache is None


def test_service_error_carries_status_and_message():
    error = ServiceError(400, {"error": "bad spec"})
    assert (error.status, str(error)) == (400, "HTTP 400: bad spec")
