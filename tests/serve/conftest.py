"""Shared fixtures for the serving-layer tests."""

import random

import pytest

from repro.index import IndexFramework, IndoorObject
from repro.model.figure1 import build_figure1
from tests.queries.conftest import random_point_in


def build_serve_framework(backend: str = "matrix") -> IndexFramework:
    """A fresh Figure-1 space + 60 deterministic objects, fully indexed
    over the named distance backend."""
    space = build_figure1()
    rng = random.Random(4242)
    indoor_ids = [p for p in space.partition_ids if p != 0]
    objects = [
        IndoorObject(i, random_point_in(space, rng, indoor_ids))
        for i in range(60)
    ]
    return IndexFramework.build(space, objects, backend=backend)


@pytest.fixture
def serve_framework():
    """:func:`build_serve_framework` over the dense matrix.

    Function-scoped: the service tests mutate the topology mid-stream.
    """
    return build_serve_framework()


@pytest.fixture(params=["matrix", "labels"])
def backend_framework(request):
    """:func:`build_serve_framework` over each distance backend."""
    return build_serve_framework(request.param)


@pytest.fixture
def query_positions(serve_framework):
    """A deterministic pool of valid query positions in the space."""
    space = serve_framework.space
    rng = random.Random(17)
    indoor_ids = [p for p in space.partition_ids if p != 0]
    return [random_point_in(space, rng, indoor_ids) for _ in range(12)]
