"""The range radius is tested against the distance the system reports.

An object is in ``Q_r(q, r)`` iff its walking distance is at most ``r``,
where the walking distance is the float sum Algorithm 4, kNN and the
composite queries report.  Setting ``r`` to that very distance is the
sharpest probe: an admission test that rounds differently (for example
``intra <= (r - dist_v) - D(di, dj)``) loses the object there.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import pt2pt_distance_memoized
from repro.index import IndexFramework, IndoorObject
from repro.model.figure1 import build_figure1
from repro.queries import (
    distances_to_all_objects,
    range_query,
    range_query_with_distances,
)
from repro.runtime.ladder import RUNGS, QualityLevel, QueryKind
from repro.serve.requests import QueryRequest
from tests.queries.conftest import random_point_in

OBJECTS = 40


@pytest.fixture(scope="module", params=["matrix", "labels"])
def framework(request):
    """Figure 1 with 40 objects, on each distance backend."""
    space = build_figure1()
    rng = random.Random(2024)
    indoor_ids = [p for p in space.partition_ids if p != 0]
    objects = [
        IndoorObject(i, random_point_in(space, rng, indoor_ids))
        for i in range(OBJECTS)
    ]
    return IndexFramework.build(space, objects, backend=request.param)


@pytest.mark.parametrize("use_index", [True, False])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    object_id=st.integers(min_value=0, max_value=OBJECTS - 1),
)
def test_radius_at_an_objects_distance(framework, use_index, seed, object_id):
    space = framework.space
    q = random_point_in(space, random.Random(seed))
    d = pt2pt_distance_memoized(
        space, q, framework.objects.get(object_id).position
    )
    if math.isinf(d):
        return
    distances = distances_to_all_objects(framework, q)
    assert distances[object_id] == d
    for r in (d, math.nextafter(d, 0.0)):
        expected = sorted(o for o, x in distances.items() if x <= r)
        got = range_query(framework, q, r, use_index=use_index)
        assert got == expected, (q, r)
        with_distances = range_query_with_distances(
            framework, q, r, use_index=use_index
        )
        assert sorted(o for o, _ in with_distances) == expected, (q, r)
    assert object_id in range_query(framework, q, d, use_index=use_index)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    object_id=st.integers(min_value=0, max_value=OBJECTS - 1),
)
def test_fallback_rung_admits_exactly_like_range_query(
    framework, seed, object_id
):
    """The ladder's EXACT_FALLBACK rung (per-object Algorithm 3) uses the
    same exact ``<=`` as ``range_query``, so both answer alike at the
    sharpest radii: an object's own distance and the float just below."""
    space = framework.space
    q = random_point_in(space, random.Random(seed))
    d = pt2pt_distance_memoized(
        space, q, framework.objects.get(object_id).position
    )
    if math.isinf(d):
        return
    fallback = RUNGS[QueryKind.RANGE][QualityLevel.EXACT_FALLBACK]
    for r in (d, math.nextafter(d, 0.0), 2 * d):
        request = QueryRequest.range_query(q, r)
        assert fallback(framework, request, None) == range_query(
            framework, q, r
        ), (q, r)
