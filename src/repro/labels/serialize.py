"""Deterministic byte codec for :class:`LabeledDistanceIndex`.

The snapshot layer (:mod:`repro.persist.snapshot`) stores each section as
opaque checksummed bytes; this module produces those bytes for the labels
backend.  The encoding is a sorted JSON manifest of array descriptors
(name, dtype, shape) followed by the raw C-order array payloads — *not*
``np.savez``, whose zip container embeds wall-clock timestamps and would
break the byte-for-byte snapshot determinism the persistence tests
enforce.  Decoding rebuilds the index exactly: every query answer after a
reload is bit-identical to the saved instance.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import SerializationError
from repro.labels.builder import HubLabeling
from repro.labels.hierarchy import VertexHierarchy
from repro.labels.index import EdgeArrays, LabeledDistanceIndex, LabelPatches

#: Version 2 drops the correction-table arrays version 1 carried.
_CODEC_VERSION = 2


def _collect_arrays(index: LabeledDistanceIndex) -> Dict[str, np.ndarray]:
    lab = index.labeling
    edges = index.base_edges
    arrays: Dict[str, np.ndarray] = {
        "base_door_ids": np.asarray(index.hierarchy.door_ids, dtype=np.int64),
        "out_indptr": lab.out_indptr,
        "out_hubs": lab.out_hubs,
        "out_dists": lab.out_dists,
        "in_indptr": lab.in_indptr,
        "in_hubs": lab.in_hubs,
        "in_dists": lab.in_dists,
        "levels": index.hierarchy.levels,
        "order": index.hierarchy.order,
        "edge_src": edges.src,
        "edge_dst": edges.dst,
        "edge_w": edges.w,
    }
    patches = index.patches
    if patches is not None:
        arrays["patch_door_ids"] = np.asarray(patches.door_ids, dtype=np.int64)
        arrays["patch_ids"] = np.asarray(patches.patch_ids, dtype=np.int64)
        arrays["patch_fwd"] = patches.fwd
        arrays["patch_bwd"] = patches.bwd
    return arrays


def labels_to_bytes(index: LabeledDistanceIndex) -> bytes:
    """Encode ``index`` deterministically (identical input → identical
    bytes, byte-for-byte)."""
    arrays = _collect_arrays(index)
    descriptors: List[Tuple[str, str, List[int]]] = []
    payload = bytearray()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        descriptors.append((name, array.dtype.str, list(array.shape)))
        payload.extend(array.tobytes())
    header = json.dumps(
        {"version": _CODEC_VERSION, "arrays": descriptors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return struct.pack(">Q", len(header)) + header + bytes(payload)


def labels_from_bytes(data: bytes) -> LabeledDistanceIndex:
    """Decode bytes produced by :func:`labels_to_bytes`."""
    if len(data) < 8:
        raise SerializationError("labels section truncated before header")
    (header_len,) = struct.unpack(">Q", data[:8])
    if len(data) < 8 + header_len:
        raise SerializationError("labels section truncated inside header")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"labels header is not valid JSON: {exc}")
    if header.get("version") != _CODEC_VERSION:
        raise SerializationError(
            f"unsupported labels codec version {header.get('version')!r}"
        )
    arrays: Dict[str, np.ndarray] = {}
    offset = 8 + header_len
    for name, dtype_str, shape in header["arrays"]:
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(data):
            raise SerializationError(
                f"labels section truncated inside array {name!r}"
            )
        arrays[name] = np.frombuffer(
            data[offset : offset + nbytes], dtype=dtype
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise SerializationError("labels section has trailing bytes")

    required = {
        "base_door_ids",
        "out_indptr",
        "out_hubs",
        "out_dists",
        "in_indptr",
        "in_hubs",
        "in_dists",
        "levels",
        "order",
        "edge_src",
        "edge_dst",
        "edge_w",
    }
    missing = required - set(arrays)
    if missing:
        raise SerializationError(
            f"labels section is missing arrays: {', '.join(sorted(missing))}"
        )

    door_ids = tuple(int(v) for v in arrays["base_door_ids"])
    labeling = HubLabeling(
        out_indptr=arrays["out_indptr"],
        out_hubs=arrays["out_hubs"],
        out_dists=arrays["out_dists"],
        in_indptr=arrays["in_indptr"],
        in_hubs=arrays["in_hubs"],
        in_dists=arrays["in_dists"],
        stats={
            "entries": float(len(arrays["out_hubs"]) + len(arrays["in_hubs"])),
        },
    )
    hierarchy = VertexHierarchy(
        door_ids=door_ids, levels=arrays["levels"], order=arrays["order"]
    )
    edges = EdgeArrays(arrays["edge_src"], arrays["edge_dst"], arrays["edge_w"])
    patches = None
    if "patch_door_ids" in arrays:
        patches = LabelPatches(
            door_ids=tuple(int(v) for v in arrays["patch_door_ids"]),
            patch_ids=tuple(int(v) for v in arrays["patch_ids"]),
            fwd=arrays["patch_fwd"],
            bwd=arrays["patch_bwd"],
        )
    return LabeledDistanceIndex(door_ids, labeling, hierarchy, edges, patches)
