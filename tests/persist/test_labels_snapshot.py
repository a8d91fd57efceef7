"""Snapshot formats v2–v4: the labels-backend section, and loading of
pre-v3 files and v3 labels files (repro.persist.snapshot)."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from repro.distance.matrix import door_graph_edges
from repro.exceptions import SnapshotCorruptError
from repro.index import IndexFramework
from repro.labels import labels_to_bytes
from repro.persist import load_snapshot, read_manifest, save_snapshot
from repro.persist.snapshot import (
    MAGIC,
    SNAPSHOT_FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    _npy_bytes,
    snapshot_bytes,
)
from tests.persist.test_snapshot import _reseal, _section_offsets


@pytest.fixture
def labels_framework(figure1_framework):
    """The same Figure-1 population, indexed through the labels backend."""
    return IndexFramework.build(
        figure1_framework.space,
        list(figure1_framework.objects),
        backend="labels",
    )


class TestFormat:
    def test_version_4_and_the_older_range(self):
        assert SNAPSHOT_FORMAT_VERSION == 4
        assert SUPPORTED_FORMAT_VERSIONS == (1, 2, 3, 4)

    def test_manifest_records_the_backend(
        self, labels_framework, figure1_framework, tmp_path
    ):
        labels_path = save_snapshot(labels_framework, tmp_path / "l.snap")
        matrix_path = save_snapshot(figure1_framework, tmp_path / "m.snap")
        assert read_manifest(labels_path)["backend"] == "labels"
        assert read_manifest(matrix_path)["backend"] == "matrix"

    def test_labels_section_replaces_the_matrices(
        self, labels_framework, tmp_path
    ):
        path = save_snapshot(labels_framework, tmp_path / "l.snap")
        names = [s["name"] for s in read_manifest(path)["sections"]]
        assert "labels" in names
        assert "md2d" not in names

    def test_labels_section_bytes_deterministic(self, labels_framework):
        """The manifest carries a wall-clock ``created_at``, but the labels
        payload itself must encode identically on every save."""
        first = snapshot_bytes(labels_framework)
        second = snapshot_bytes(labels_framework)
        start1, length1 = _section_offsets(first)["labels"]
        start2, length2 = _section_offsets(second)["labels"]
        assert first[start1 : start1 + length1] == (
            second[start2 : start2 + length2]
        )


class TestRoundTrip:
    def test_labels_framework_survives_bit_identically(
        self, labels_framework, tmp_path
    ):
        path = save_snapshot(labels_framework, tmp_path / "l.snap")
        restored, manifest = load_snapshot(path)
        original = labels_framework.distance_index
        loaded = restored.distance_index
        assert loaded.kind == "labels"
        assert loaded.door_ids == original.door_ids
        for u in original.door_ids:
            assert list(loaded.doors_by_distance(u)) == list(
                original.doors_by_distance(u)
            )
        assert restored.is_fresh
        assert restored.build_config["backend"] == "labels"
        assert manifest["objects"] == len(labels_framework.objects)

    def test_reloaded_labels_match_the_dense_backend(
        self, labels_framework, figure1_framework, tmp_path
    ):
        path = save_snapshot(labels_framework, tmp_path / "l.snap")
        restored, _ = load_snapshot(path)
        dense = figure1_framework.distance_index
        for u in dense.door_ids:
            for v in dense.door_ids:
                assert restored.distance_index.distance(
                    u, v
                ) == dense.distance(u, v)


def _as_format(data: bytes, version: int, replace: dict) -> bytes:
    """Re-pack a current snapshot as a container of an older format
    ``version``, swapping in the given section payloads (checksums
    recomputed, so it verifies)."""
    head = struct.Struct(">II")
    head_len = len(MAGIC) + head.size
    _, manifest_len = head.unpack_from(data, len(MAGIC))
    manifest = json.loads(data[head_len : head_len + manifest_len])
    offset = head_len + manifest_len
    payloads = []
    for entry in manifest["sections"]:
        payload = data[offset : offset + entry["length"]]
        offset += entry["length"]
        payload = replace.get(entry["name"], payload)
        entry.update(
            length=len(payload),
            crc32=zlib.crc32(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
        )
        payloads.append(payload)
    manifest["format_version"] = version
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    body = (
        MAGIC
        + head.pack(version, len(manifest_bytes))
        + manifest_bytes
        + b"".join(payloads)
    )
    return body + hashlib.sha256(body).digest()


def _labels_codec_2(index, graph) -> bytes:
    """The labels section as format 3 wrote it: codec 2, with the
    build-time door-graph edges as three ``edge_*`` arrays."""
    data = labels_to_bytes(index)
    (header_len,) = struct.unpack(">Q", data[:8])
    header = json.loads(data[8 : 8 + header_len])
    arrays = {}
    offset = 8 + header_len
    for name, dtype_str, shape in header["arrays"]:
        dtype = np.dtype(dtype_str)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        arrays[name] = np.frombuffer(
            data[offset : offset + nbytes], dtype=dtype
        ).reshape(shape)
        offset += nbytes
    edges = door_graph_edges(graph)
    arrays["edge_src"] = np.array([e[0] for e in edges], dtype=np.int64)
    arrays["edge_dst"] = np.array([e[1] for e in edges], dtype=np.int64)
    arrays["edge_w"] = np.array([e[2] for e in edges], dtype=np.float64)
    descriptors, payload = [], bytearray()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        descriptors.append((name, array.dtype.str, list(array.shape)))
        payload.extend(array.tobytes())
    head = json.dumps(
        {"version": 2, "arrays": descriptors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return struct.pack(">Q", len(head)) + head + bytes(payload)


class TestFormat2Files:
    """Format-2 distance sections were built on unrounded f_d2d weights;
    loading re-derives them from the space instead of trusting them."""

    def test_matrix_file_answers_like_a_fresh_build(
        self, figure1_framework, tmp_path
    ):
        md2d = figure1_framework.distance_index.md2d
        drifted = np.where(
            np.isfinite(md2d) & (md2d > 0), np.nextafter(md2d, np.inf), md2d
        )
        path = tmp_path / "v2.snap"
        path.write_bytes(
            _as_format(
                snapshot_bytes(figure1_framework),
                2,
                {"md2d": _npy_bytes(drifted)},
            )
        )
        restored, manifest = load_snapshot(path)
        assert manifest["format_version"] == 2
        fresh = IndexFramework.build(restored.space).distance_index
        assert np.array_equal(restored.distance_index.md2d, fresh.md2d)
        assert np.array_equal(restored.distance_index.midx, fresh.midx)
        assert restored.is_fresh
        assert len(restored.objects) == len(figure1_framework.objects)

    def test_labels_file_answers_like_a_fresh_build(
        self, labels_framework, tmp_path
    ):
        path = tmp_path / "v2.snap"
        path.write_bytes(
            _as_format(
                snapshot_bytes(labels_framework),
                2,
                {"labels": b"labels codec 1, with a correction table"},
            )
        )
        restored, _ = load_snapshot(path)
        loaded = restored.distance_index
        assert loaded.kind == "labels"
        fresh = IndexFramework.build(restored.space).distance_index
        for u in fresh.door_ids:
            for v in fresh.door_ids:
                assert loaded.distance(u, v) == fresh.distance(u, v)
            assert list(loaded.doors_by_distance(u)) == list(
                fresh.doors_by_distance(u)
            )


class TestFormat3LabelsFiles:
    """Format 3 stored labels codec 2 (with build-time door-graph edges);
    such a file is not quarantined: its distance section is re-derived
    from the space."""

    def test_loads_without_quarantine_and_answers_like_a_fresh_build(
        self, labels_framework, tmp_path
    ):
        from repro.persist import RecoveryManager, SnapshotStore

        index = labels_framework.distance_index
        codec_2 = _labels_codec_2(index, labels_framework.space.distance_graph)
        store = SnapshotStore(tmp_path / "snapshots")
        path = store.save(labels_framework)
        path.write_bytes(
            _as_format(path.read_bytes(), 3, {"labels": codec_2})
        )
        assert read_manifest(path)["format_version"] == 3
        report = RecoveryManager(store).recover()
        assert report.quarantined == []
        restored = report.framework
        loaded = restored.distance_index
        assert loaded.kind == "labels"
        assert restored.is_fresh
        assert len(restored.objects) == len(labels_framework.objects)
        dense = IndexFramework.build(restored.space).distance_index
        for u in dense.door_ids:
            for v in dense.door_ids:
                assert loaded.distance(u, v) == dense.distance(u, v)
            assert list(loaded.doors_by_distance(u)) == list(
                dense.doors_by_distance(u)
            )
            assert list(loaded.doors_by_distance(u)) == list(
                index.doors_by_distance(u)
            )

    def test_codec_2_no_longer_decodes(self, labels_framework):
        from repro.exceptions import SerializationError
        from repro.labels import labels_from_bytes

        index = labels_framework.distance_index
        with pytest.raises(SerializationError, match="codec version 2"):
            labels_from_bytes(
                _labels_codec_2(index, labels_framework.space.distance_graph)
            )


class TestCorruption:
    def test_corrupt_labels_section_is_named(self, labels_framework, tmp_path):
        path = save_snapshot(labels_framework, tmp_path / "l.snap")
        data = path.read_bytes()
        start, length = _section_offsets(data)["labels"]
        corrupted = bytearray(data)
        corrupted[start + length // 2] ^= 0xFF
        path.write_bytes(_reseal(bytes(corrupted)))
        with pytest.raises(SnapshotCorruptError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.section == "labels"
