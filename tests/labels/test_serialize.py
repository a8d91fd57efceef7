"""The deterministic labels byte codec (repro.labels.serialize)."""

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.labels import labels_from_bytes, labels_to_bytes


class TestRoundTrip:
    def test_answers_survive_bit_identically(self, building_pair):
        labels, _ = building_pair
        index = labels.distance_index
        restored = labels_from_bytes(labels_to_bytes(index))
        assert restored.door_ids == index.door_ids
        for u in index.door_ids:
            for v in index.door_ids[:6]:
                assert restored.distance(u, v) == index.distance(u, v)
        assert list(restored.doors_by_distance(index.door_ids[0])) == list(
            index.doors_by_distance(index.door_ids[0])
        )

    def test_encoding_is_deterministic(self, building_pair):
        labels, _ = building_pair
        index = labels.distance_index
        assert labels_to_bytes(index) == labels_to_bytes(index)

    def test_patches_survive(self, figure1_pair):
        from repro.labels.index import LabelPatches

        labels, _ = figure1_pair
        index = labels.distance_index
        n = index.size
        patches = LabelPatches(
            door_ids=index.door_ids,
            patch_ids=(index.door_ids[0],),
            fwd=np.zeros((1, n)),
            bwd=np.zeros((1, n)),
        )
        patched = index.with_patches(patches)
        restored = labels_from_bytes(labels_to_bytes(patched))
        assert restored.patches is not None
        assert restored.patches.patch_ids == patches.patch_ids


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="truncated"):
            labels_from_bytes(b"\x00\x01")

    def test_truncated_payload(self, building_pair):
        labels, _ = building_pair
        data = labels_to_bytes(labels.distance_index)
        with pytest.raises(SerializationError, match="truncated"):
            labels_from_bytes(data[:-16])

    def test_trailing_garbage(self, building_pair):
        labels, _ = building_pair
        data = labels_to_bytes(labels.distance_index)
        with pytest.raises(SerializationError, match="trailing"):
            labels_from_bytes(data + b"\x00" * 8)

    def test_bad_header_json(self, building_pair):
        import struct

        garbage = b"not json at all!"
        data = struct.pack(">Q", len(garbage)) + garbage
        with pytest.raises(SerializationError, match="not valid JSON"):
            labels_from_bytes(data)
