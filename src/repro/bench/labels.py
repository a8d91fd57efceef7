"""Labels-backend benchmark: ``python -m repro labels-bench``.

Measures what the 2-hop labeling backend (:mod:`repro.labels`) buys over
the paper's dense M_d2d/M_idx pair as the door graph grows past the
single-building scale of §VI.  For one scale the harness:

* generates the space — the §VI-A building at small scales, the
  :mod:`repro.synthetic.campus` composite at campus scale;
* builds the **labels** framework and, where feasible, the **dense**
  framework, recording build wall time and resident bytes from
  ``memory_bytes()``; for the labels index it also records
  ``measured_bytes``, what tracemalloc sees a second build keep alive,
  as the check on that figure;
* at campus scale the dense matrices are *not* materialised (two N×N
  float64/int64 arrays are gigabytes at 13k+ doors — that infeasibility
  is the point of the backend); their footprint is reported analytically
  as ``N² × 16`` with ``"built": false``;
* samples seeded door pairs and counts **bitwise** deviations of the
  labels answer from the canonical reference — the dense matrix where it
  was built, fresh per-source Dijkstra rows (the same
  :func:`scipy.sparse.csgraph.dijkstra` recipe the matrix builder folds)
  where it was not;
* times point ``distance()`` queries over those pairs for both backends.

The headline outputs are ``bytes_ratio`` (dense resident bytes over
labels resident bytes — >1 means the labeling is smaller) and
``mismatches`` (must be 0: the backend is exact or it is wrong).  The
scales are ``quick`` (seconds; the committed ``BENCH_labels.json``),
``paper`` (the paper's ~1 300-door building) and ``campus`` (a
ten-building composite, ~10x paper).

Its subcommand, scales, gated ratios and hard checks are one record in
:mod:`repro.bench.table`.
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.distance.matrix import door_graph_csr, door_graph_edges
from repro.index.framework import IndexFramework
from repro.labels import LabeledDistanceIndex
from repro.synthetic import (
    BuildingConfig,
    CampusConfig,
    generate_building,
    generate_campus,
)

#: Analytic resident bytes per matrix cell when the dense backend is not
#: materialised: 8 (M_d2d float64) + 8 (M_idx int64 ordering as stored).
DENSE_BYTES_PER_CELL = 16


@dataclass(frozen=True)
class LabelsScale:
    """Workload shape for one labels-benchmark scale.

    Attributes:
        name: scale label echoed into the result.
        buildings: §VI-A buildings to compose (1 = plain building, no
            campus joins).
        floors: per-building height.
        skybridges_per_gap: upper-floor joins per adjacent building pair
            (campus scales only).
        sample_pairs: seeded door pairs checked for bitwise agreement and
            timed for point-query latency.
        query_reps: timing repetitions over the sampled pairs.
        build_dense: whether the dense framework is actually built; when
            False its footprint is the ``N² × 16`` analytic figure and
            the bitwise reference comes from fresh Dijkstra rows.
    """

    name: str
    buildings: int
    floors: int
    skybridges_per_gap: int
    sample_pairs: int
    query_reps: int
    build_dense: bool


LABELS_QUICK = LabelsScale(
    name="quick",
    buildings=1,
    floors=5,
    skybridges_per_gap=0,
    sample_pairs=400,
    query_reps=5,
    build_dense=True,
)

LABELS_PAPER = LabelsScale(
    name="paper",
    buildings=1,
    floors=40,
    skybridges_per_gap=0,
    sample_pairs=600,
    query_reps=5,
    build_dense=True,
)

LABELS_CAMPUS = LabelsScale(
    name="campus",
    buildings=10,
    floors=40,
    skybridges_per_gap=2,
    sample_pairs=400,
    query_reps=3,
    build_dense=False,
)

def _generate_space(scale: LabelsScale, seed: int):
    """The benchmark space for one scale (building or campus composite)."""
    building = BuildingConfig(floors=scale.floors)
    if scale.buildings == 1:
        return generate_building(building).space
    campus = generate_campus(CampusConfig(
        buildings=scale.buildings,
        building=building,
        skybridges_per_gap=scale.skybridges_per_gap,
        seed=seed,
    ))
    return campus.space


def _sample_pairs(
    door_ids: Tuple[int, ...], count: int, seed: int
) -> List[Tuple[int, int]]:
    """Seeded (source, target) door-id pairs, self-pairs included."""
    rng = random.Random(seed)
    return [
        (rng.choice(door_ids), rng.choice(door_ids)) for _ in range(count)
    ]


def _canonical_reference(
    space, pairs: List[Tuple[int, int]]
) -> Dict[Tuple[int, int], float]:
    """Exact distances for ``pairs`` from fresh per-source Dijkstra rows —
    the same assembly and fold the dense matrix builder uses, so the
    values are canonical down to the last bit."""
    graph = space.distance_graph
    graph.precompute()
    door_ids = tuple(space.topology.door_ids)
    index_of = {door_id: i for i, door_id in enumerate(door_ids)}
    adjacency = door_graph_csr(door_ids, door_graph_edges(graph))
    sources = sorted({index_of[u] for u, _ in pairs})
    rows = np.atleast_2d(dijkstra(adjacency, directed=True, indices=sources))
    row_of = {u: rows[k] for k, u in enumerate(sources)}
    reference: Dict[Tuple[int, int], float] = {}
    for u_id, v_id in pairs:
        u, v = index_of[u_id], index_of[v_id]
        reference[(u_id, v_id)] = 0.0 if u == v else float(row_of[u][v])
    return reference


def _retained_bytes(graph) -> int:
    """Bytes tracemalloc sees a labels build keep alive; ``graph`` is
    precomputed, so only the index itself is counted."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = LabeledDistanceIndex.build(graph)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained


def _time_queries(
    index, pairs: List[Tuple[int, int]], reps: int
) -> float:
    """Mean microseconds per ``distance()`` call over ``pairs``."""
    start = time.perf_counter()
    for _ in range(reps):
        for u, v in pairs:
            index.distance(u, v)
    wall = time.perf_counter() - start
    return wall / (reps * len(pairs)) * 1e6


def measure_labels(scale: LabelsScale, seed: int = 0) -> Dict[str, Any]:
    """Run the labels benchmark at one scale; returns a JSON-ready dict."""
    space = _generate_space(scale, seed)
    space.distance_graph.precompute()
    doors = len(space.topology.door_ids)

    start = time.perf_counter()
    labeled = IndexFramework.build(space, backend="labels")
    labels_build_s = time.perf_counter() - start
    labels_index = labeled.distance_index
    labels_bytes = labels_index.memory_bytes()
    measured_bytes = _retained_bytes(space.distance_graph)
    stats = dict(labels_index.labeling.stats)

    pairs = _sample_pairs(labels_index.door_ids, scale.sample_pairs, seed)
    labels_query_us = _time_queries(labels_index, pairs, scale.query_reps)

    dense: Dict[str, Any] = {"built": scale.build_dense}
    if scale.build_dense:
        start = time.perf_counter()
        dense_framework = IndexFramework.build(space, backend="matrix")
        dense["build_s"] = time.perf_counter() - start
        dense_index = dense_framework.distance_index
        dense_bytes = dense_index.memory_bytes()
        dense["query_us"] = _time_queries(dense_index, pairs, scale.query_reps)
        reference = {
            (u, v): dense_index.distance(u, v) for u, v in pairs
        }
    else:
        dense_bytes = doors * doors * DENSE_BYTES_PER_CELL
        reference = _canonical_reference(space, pairs)
    dense["bytes"] = int(dense_bytes)

    mismatches = sum(
        1
        for (u, v), expected in reference.items()
        if labels_index.distance(u, v) != expected
    )

    return {
        "scale": scale.name,
        "seed": seed,
        "doors": doors,
        "buildings": scale.buildings,
        "floors": scale.floors,
        "labels": {
            "build_s": labels_build_s,
            "bytes": int(labels_bytes),
            "measured_bytes": int(measured_bytes),
            "entries": int(stats.get("entries", 0)),
            "entries_per_door": (
                stats.get("entries", 0) / doors if doors else 0.0
            ),
            "query_us": labels_query_us,
        },
        "dense": dense,
        "bytes_ratio": dense_bytes / labels_bytes if labels_bytes else 0.0,
        "sampled_pairs": len(pairs),
        "mismatches": mismatches,
    }


def render_labels_summary(result: Dict[str, Any]) -> str:
    """A short plain-text summary of one :func:`measure_labels` result."""
    labels = result["labels"]
    dense = result["dense"]
    dense_build = (
        f"{dense['build_s']:.2f} s build, " if dense["built"] else "not built, "
    )
    dense_query = (
        f", {dense['query_us']:.1f} us/query" if dense["built"] else ""
    )
    return "\n".join([
        f"labels-bench  scale={result['scale']}  seed={result['seed']}",
        f"  doors: {result['doors']} "
        f"({result['buildings']} building(s) x {result['floors']} floors)",
        f"  labels: {labels['build_s']:.2f} s build, "
        f"{labels['bytes'] / 1e6:.1f} MB resident "
        f"({labels['measured_bytes'] / 1e6:.1f} MB measured), "
        f"{labels['entries_per_door']:.1f} entries/door, "
        f"{labels['query_us']:.1f} us/query",
        f"  dense:  {dense_build}"
        f"{dense['bytes'] / 1e6:.1f} MB resident"
        f"{'' if dense['built'] else ' (analytic N^2 x 16)'}"
        f"{dense_query}",
        f"  bytes_ratio: {result['bytes_ratio']:.2f}x "
        f"(dense / labels; >1 means the labeling is smaller)",
        f"  mismatches: {result['mismatches']} "
        f"of {result['sampled_pairs']} sampled pairs",
    ])
