"""Snapshot formats v2/v3: the labels-backend section and pre-v3 loading
(repro.persist.snapshot)."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import SnapshotCorruptError
from repro.index import IndexFramework
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
    def test_version_3_and_the_older_range(self):
        assert SNAPSHOT_FORMAT_VERSION == 3
        assert SUPPORTED_FORMAT_VERSIONS == (1, 2, 3)

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


def _as_format_2(data: bytes, replace: dict) -> bytes:
    """Re-pack a current snapshot as a format-2 container, swapping in
    the given section payloads (checksums recomputed, so it verifies)."""
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
    manifest["format_version"] = 2
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    body = (
        MAGIC
        + head.pack(2, len(manifest_bytes))
        + manifest_bytes
        + b"".join(payloads)
    )
    return body + hashlib.sha256(body).digest()


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
            _as_format_2(
                snapshot_bytes(figure1_framework), {"md2d": _npy_bytes(drifted)}
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
            _as_format_2(
                snapshot_bytes(labels_framework),
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
