"""The versioned, checksummed snapshot format for an :class:`IndexFramework`.

A snapshot captures the five §IV structures — the indoor space model (from
which G_dist and the R-tree are reconstructed), the distance backend
(M_d2d for the matrix backend, with M_idx re-derived by the same stable
argsort that built it, so it is bit-identical; or the 2-hop label arrays
for the labels backend, via the :mod:`repro.labels.serialize` codec), the
Door-to-Partition Table, and the grid-indexed object buckets (objects are
stored with their host partition id, so no point location runs on load).
The manifest's ``backend`` key names which layout the file carries;
format-1 files predate it and always hold a matrix.  Formats 1 and 2 were
written before f_d2d weights were rounded to
:data:`repro.model.distance_graph.WEIGHT_QUANTUM`, so their distance
sections are not read: the backend is rebuilt from the decoded space.

Container layout (all integers big-endian)::

    MAGIC (8 bytes, b"RPROSNAP")
    format version (u32)
    manifest length (u32)
    manifest (UTF-8 JSON)
    section payloads, concatenated in manifest order
    whole-file digest (32 bytes, SHA-256 of everything above)

The manifest records the topology epoch, the builder parameters, and per
section its name, codec, length, CRC32, and SHA-256 — so a verifier can
name exactly which component rotted.  Writes are crash-safe: the payload
goes to a ``.tmp.<pid>`` sibling first and is published with
:func:`os.replace`, so a reader never observes a half-written snapshot and
a writer killed before the rename leaves the previous file untouched.

Every load verifies the trailing digest and each section CRC before a
single byte is deserialised; any mismatch raises
:class:`~repro.exceptions.SnapshotCorruptError` naming the damaged section.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.distance.matrix import DoorDistanceMatrix
from repro.exceptions import SnapshotCorruptError
from repro.index.backend import DistanceBackend
from repro.index.distance_matrix import DistanceIndexMatrix
from repro.index.dpt import DoorPartitionTable, DptRecord
from repro.index.framework import IndexFramework, build_distance_backend
from repro.index.objects import IndoorObject, ObjectStore
from repro.index.rtree import PartitionRTree
from repro.io.json_io import space_from_dict, space_to_dict
from repro.geometry import Point
from repro.runtime import crashpoints

PathLike = Union[str, Path]

#: First 8 bytes of every snapshot file.
MAGIC = b"RPROSNAP"

#: Bumped on any incompatible change to the container or a section codec.
#: Version 2 adds the manifest ``backend`` key and, for labels-backed
#: frameworks, replaces the ``md2d`` section with a ``labels`` section
#: (:mod:`repro.labels.serialize` codec).  Version 3 stores distances
#: built on rounded f_d2d weights and labels codec 2 (no correction
#: table).  Version 1 and 2 files still load, with their distance
#: sections re-derived from the space.
SNAPSHOT_FORMAT_VERSION = 3

#: Every container version this reader understands.
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)

#: Section names for a matrix-backed snapshot, in on-disk order.
SECTIONS = ("space", "md2d", "door_ids", "dpt", "objects")

#: Section layout per distance backend.
SECTIONS_BY_BACKEND = {
    "matrix": SECTIONS,
    "labels": ("space", "labels", "door_ids", "dpt", "objects"),
}

#: Codec recorded in the manifest for each section name.
_SECTION_CODECS = {
    "md2d": "npy",
    "door_ids": "npy",
    "labels": "labels",
}

_HEAD = struct.Struct(">II")  # format version, manifest length


# ----------------------------------------------------------------------
# Section codecs
# ----------------------------------------------------------------------
def _json_bytes(value: object) -> bytes:
    # Non-strict JSON: DPT dist1 is legitimately `inf` for one-way doors,
    # and Python's repr-based float encoding round-trips bit-identically.
    return json.dumps(value, sort_keys=True).encode("utf-8")


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _npy_load(payload: bytes, section: str) -> np.ndarray:
    try:
        return np.load(io.BytesIO(payload), allow_pickle=False)
    except ValueError as exc:
        raise SnapshotCorruptError(
            f"section {section!r} is not a valid npy payload: {exc}",
            section=section,
        ) from exc


def _dpt_to_rows(dpt: DoorPartitionTable) -> List[list]:
    return [
        [r.door_id, r.partition1, r.dist1, r.partition2, r.dist2]
        for r in dpt
    ]


def _dpt_from_rows(rows: List[list]) -> DoorPartitionTable:
    records: Dict[int, DptRecord] = {}
    for door_id, partition1, dist1, partition2, dist2 in rows:
        records[int(door_id)] = DptRecord(
            int(door_id),
            None if partition1 is None else int(partition1),
            math.inf if partition1 is None else float(dist1),
            int(partition2),
            float(dist2),
        )
    return DoorPartitionTable(records)


def _objects_to_rows(store: ObjectStore) -> List[dict]:
    rows = []
    for obj in store:
        rows.append(
            {
                "id": obj.object_id,
                "position": [obj.position.x, obj.position.y, obj.position.floor],
                "payload": obj.payload,
                "partition": store.host_partition_id(obj.object_id),
            }
        )
    rows.sort(key=lambda row: row["id"])
    return rows


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def snapshot_bytes(framework: IndexFramework, wal_seq: int = 0) -> bytes:
    """Serialise a framework to the snapshot wire format (no file I/O)."""
    space = framework.space
    backend = str(getattr(framework.distance_index, "kind", "matrix"))
    section_order = SECTIONS_BY_BACKEND.get(backend)
    if section_order is None:
        raise ValueError(f"unknown distance backend {backend!r}")
    payloads: Dict[str, bytes] = {
        "space": _json_bytes(space_to_dict(space)),
        "door_ids": _npy_bytes(
            np.asarray(framework.distance_index.door_ids, dtype=np.int64)
        ),
        "dpt": _json_bytes(_dpt_to_rows(framework.dpt)),
        "objects": _json_bytes(_objects_to_rows(framework.objects)),
    }
    if backend == "labels":
        from repro.labels.serialize import labels_to_bytes

        payloads["labels"] = labels_to_bytes(framework.distance_index)
    else:
        payloads["md2d"] = _npy_bytes(framework.distance_index.md2d)
    sections = []
    for name in section_order:
        payload = payloads[name]
        sections.append(
            {
                "name": name,
                "codec": _SECTION_CODECS.get(name, "json"),
                "length": len(payload),
                "crc32": zlib.crc32(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        )
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "backend": backend,
        # Operator-facing provenance stamp only: verify/load never read
        # it and it is excluded from integrity and replay digests.
        "created_at": time.time(),  # repro: noqa REP002
        "topology_epoch": space.topology_epoch,
        "built_epoch": framework.built_epoch,
        "cell_size": framework.objects.cell_size,
        "wal_seq": wal_seq,
        "doors": framework.distance_index.size,
        "partitions": space.num_partitions,
        "objects": len(framework.objects),
        "sections": sections,
    }
    manifest_bytes = _json_bytes(manifest)
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(_HEAD.pack(SNAPSHOT_FORMAT_VERSION, len(manifest_bytes)))
    body.write(manifest_bytes)
    for name in section_order:
        body.write(payloads[name])
    digest = hashlib.sha256(body.getvalue()).digest()
    body.write(digest)
    return body.getvalue()


def save_snapshot(
    framework: IndexFramework, path: PathLike, wal_seq: int = 0
) -> Path:
    """Atomically write a snapshot of ``framework`` to ``path``.

    The bytes land in a ``.tmp.<pid>`` sibling first and are published with
    ``os.replace``; a crash at any earlier point leaves ``path`` unchanged.

    Args:
        framework: the index structures to persist.
        path: destination file.
        wal_seq: sequence number of the last WAL record already reflected in
            this snapshot (recorded in the manifest so recovery replays only
            newer mutations).
    """
    path = Path(path)
    data = snapshot_bytes(framework, wal_seq=wal_seq)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    # Chaos crash point: die with the temp file complete but unpublished —
    # recovery must sweep the orphan and keep serving the previous
    # generation (see repro.runtime.crashpoints).
    crashpoints.fire("snapshot.save.before_publish")
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Verify / load
# ----------------------------------------------------------------------
def _split_container(data: bytes, source: str) -> Tuple[dict, Dict[str, bytes]]:
    """Verify the container and return (manifest, section payloads)."""
    head_len = len(MAGIC) + _HEAD.size
    if len(data) < head_len + hashlib.sha256().digest_size:
        raise SnapshotCorruptError(
            f"{source}: file too short to be a snapshot ({len(data)} bytes)"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotCorruptError(f"{source}: bad magic; not a snapshot file")
    body, trailer = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != trailer:
        raise SnapshotCorruptError(
            f"{source}: whole-file digest mismatch; the snapshot is damaged "
            "or was truncated"
        )
    version, manifest_len = _HEAD.unpack_from(data, len(MAGIC))
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise SnapshotCorruptError(
            f"{source}: unsupported snapshot format version {version}"
        )
    manifest_end = head_len + manifest_len
    if manifest_end > len(body):
        raise SnapshotCorruptError(f"{source}: manifest overruns the file")
    try:
        manifest = json.loads(body[head_len:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(
            f"{source}: manifest is not valid JSON: {exc}", section="manifest"
        ) from exc

    payloads: Dict[str, bytes] = {}
    offset = manifest_end
    for entry in manifest.get("sections", []):
        name, length = entry["name"], int(entry["length"])
        payload = body[offset : offset + length]
        if len(payload) != length:
            raise SnapshotCorruptError(
                f"{source}: section {name!r} truncated", section=name
            )
        if zlib.crc32(payload) != entry["crc32"]:
            raise SnapshotCorruptError(
                f"{source}: CRC32 mismatch in section {name!r}", section=name
            )
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            raise SnapshotCorruptError(
                f"{source}: SHA-256 mismatch in section {name!r}", section=name
            )
        payloads[name] = payload
        offset += length
    if offset != len(body):
        raise SnapshotCorruptError(
            f"{source}: {len(body) - offset} trailing bytes after the last "
            "section"
        )
    backend = str(manifest.get("backend", "matrix"))
    expected = SECTIONS_BY_BACKEND.get(backend)
    if expected is None:
        raise SnapshotCorruptError(
            f"{source}: manifest names unknown backend {backend!r}",
            section="manifest",
        )
    missing = [name for name in expected if name not in payloads]
    if missing:
        raise SnapshotCorruptError(
            f"{source}: sections missing from manifest: {missing}",
            section=missing[0],
        )
    return manifest, payloads


def read_manifest(path: PathLike) -> dict:
    """Verify a snapshot file's checksums and return its manifest.

    Raises :class:`SnapshotCorruptError` on any damage; does not
    deserialise the structures (use :func:`load_snapshot` for that).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotCorruptError(f"cannot read snapshot {path}: {exc}") from exc
    manifest, _ = _split_container(data, str(path))
    return manifest


def _load_distance_index(
    path: Path, space, backend: str, payloads: Dict[str, bytes]
) -> DistanceBackend:
    """Decode and cross-check a v3 file's distance sections."""
    door_ids = tuple(int(d) for d in _npy_load(payloads["door_ids"], "door_ids"))
    if backend == "labels":
        from repro.exceptions import SerializationError
        from repro.labels.serialize import labels_from_bytes

        try:
            distance_index = labels_from_bytes(payloads["labels"])
        except SerializationError as exc:
            raise SnapshotCorruptError(
                f"{path}: labels section does not decode: {exc}",
                section="labels",
            ) from exc
        if tuple(distance_index.door_ids) != door_ids:
            raise SnapshotCorruptError(
                f"{path}: labels door ids disagree with the door_ids section",
                section="labels",
            )
        if set(door_ids) != set(space.door_ids):
            raise SnapshotCorruptError(
                f"{path}: labels door ids disagree with the space model",
                section="door_ids",
            )
        return distance_index
    matrix = _npy_load(payloads["md2d"], "md2d")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SnapshotCorruptError(
            f"{path}: M_d2d is not square: {matrix.shape}", section="md2d"
        )
    if matrix.shape[0] != len(door_ids):
        raise SnapshotCorruptError(
            f"{path}: door id count {len(door_ids)} does not match matrix "
            f"size {matrix.shape[0]}",
            section="door_ids",
        )
    if set(door_ids) != set(space.door_ids):
        raise SnapshotCorruptError(
            f"{path}: M_d2d door ids disagree with the space model",
            section="door_ids",
        )
    return DistanceIndexMatrix(DoorDistanceMatrix(matrix, door_ids))


def load_snapshot(path: PathLike) -> Tuple[IndexFramework, dict]:
    """Load a snapshot back into a working :class:`IndexFramework`.

    Every checksum is verified before deserialisation; structural
    cross-checks (square matrix, door-id agreement) run after.  Returns the
    framework and the manifest it was loaded from.

    Raises:
        SnapshotCorruptError: on any checksum, structural, or decode failure.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotCorruptError(f"cannot read snapshot {path}: {exc}") from exc
    manifest, payloads = _split_container(data, str(path))

    try:
        space = space_from_dict(json.loads(payloads["space"].decode("utf-8")))
    except Exception as exc:
        raise SnapshotCorruptError(
            f"{path}: space section does not deserialise: {exc}",
            section="space",
        ) from exc
    space.restore_topology_epoch(int(manifest["topology_epoch"]))

    backend = str(manifest.get("backend", "matrix"))
    if int(manifest.get("format_version", 1)) < 3:
        # Pre-v3 distance sections were built on unrounded f_d2d weights.
        distance_index = build_distance_backend(space, backend)
    else:
        distance_index = _load_distance_index(path, space, backend, payloads)

    try:
        dpt = _dpt_from_rows(json.loads(payloads["dpt"].decode("utf-8")))
    except SnapshotCorruptError:
        raise
    except Exception as exc:
        raise SnapshotCorruptError(
            f"{path}: DPT section does not deserialise: {exc}", section="dpt"
        ) from exc

    rtree = PartitionRTree(space).install()
    store = ObjectStore(space, float(manifest["cell_size"]))
    try:
        for row in json.loads(payloads["objects"].decode("utf-8")):
            x, y, floor = row["position"]
            store.add(
                IndoorObject(
                    int(row["id"]),
                    Point(float(x), float(y), int(floor)),
                    row.get("payload", ""),
                ),
                partition_id=int(row["partition"]),
            )
    except SnapshotCorruptError:
        raise
    except Exception as exc:
        raise SnapshotCorruptError(
            f"{path}: objects section does not deserialise: {exc}",
            section="objects",
        ) from exc

    framework = IndexFramework(space, distance_index, dpt, rtree, store)
    framework.built_epoch = int(manifest["built_epoch"])
    return framework, manifest
