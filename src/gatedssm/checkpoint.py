"""Flat-file checkpoints: one file holding a JSON manifest and one raw
float64 buffer.

Layout of `state.bin`: magic b"GSCK", u32 format version, u64 manifest
length, then the UTF-8 JSON manifest, then the buffer. The manifest
lists every named array with its shape, element count and byte offset
counted from the buffer's first byte; the buffer is the concatenation
of the arrays as little-endian 64-bit floats. A free-form `meta` dict
(JSON-safe values only) rides along in the manifest. Round-trips are
bit-exact.

A save writes the whole file under a temporary name and renames it over
the old one, so a reader sees the whole old checkpoint or the whole new
one, even when the saving process is killed. Nothing is fsynced, so the
rename is not durable against a power loss.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import Dict, Iterable, Tuple

import numpy as np

STATE_NAME = "state.bin"
MAGIC = b"GSCK"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIQ")
_DTYPE = "<f8"
_ITEMSIZE = np.dtype(_DTYPE).itemsize
# The manifest of a version 1 checkpoint, which kept it beside a
# separate buffer file.
_V1_MANIFEST_NAME = "manifest.json"


def save_checkpoint(directory: str,
                    entries: Iterable[Tuple[str, np.ndarray]],
                    meta: dict | None = None) -> None:
    """Write named arrays and metadata to `directory` as one file,
    replaced whole (see the module docstring)."""
    os.makedirs(directory, exist_ok=True)
    manifest_entries = []
    arrays = []
    offset = 0
    seen = set()
    for name, arr in entries:
        if name in seen:
            raise ValueError(f"duplicate checkpoint entry {name!r}")
        seen.add(name)
        # A view of the caller's array when it is already contiguous
        # little-endian float64; the bytes are written from its buffer.
        data = np.ascontiguousarray(arr, dtype=_DTYPE)
        manifest_entries.append({
            "name": name,
            "shape": list(np.shape(arr)),
            "offset": offset,
            "size": data.size,
        })
        arrays.append(data)
        offset += data.nbytes
    manifest = json.dumps({"entries": manifest_entries, "meta": meta or {}},
                          indent=1).encode("utf-8")
    # Trailing spaces, which JSON ignores, start the buffer on an
    # 8-byte boundary.
    manifest += b" " * (-(_HEADER.size + len(manifest)) % _ITEMSIZE)
    path = os.path.join(directory, STATE_NAME)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest))
                + manifest)
        for data in arrays:
            f.write(memoryview(data))
    os.replace(tmp, path)


def _require(doc: dict, keys: Tuple[str, ...], what: str) -> None:
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} lacks {key!r}")


def load_checkpoint(directory: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a checkpoint back as ({name: array}, meta)."""
    path = os.path.join(directory, STATE_NAME)
    if (not os.path.exists(path) and
            os.path.exists(os.path.join(directory, _V1_MANIFEST_NAME))):
        raise ValueError(f"{directory} holds a version 1 checkpoint; this "
                         f"program reads only version {FORMAT_VERSION}")
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path} is {len(raw)} bytes, too short for the "
                         f"{_HEADER.size}-byte checkpoint header")
    magic, version, manifest_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path} is not a checkpoint: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    start = _HEADER.size + manifest_len
    if start > len(raw):
        raise ValueError(f"checkpoint manifest of {manifest_len} bytes "
                         f"runs past the end of the {len(raw)}-byte file")
    manifest = json.loads(raw[_HEADER.size:start])
    _require(manifest, ("entries", "meta"), "checkpoint manifest")
    for i, ent in enumerate(manifest["entries"]):
        _require(ent, ("name", "shape", "offset", "size"),
                 f"checkpoint manifest entry {i}")
    # The entries must tile the buffer in order, each as long as its shape.
    buffer_len = len(raw) - start
    out = {}
    end = 0
    for ent in manifest["entries"]:
        name, shape = ent["name"], ent["shape"]
        if name in out:
            raise ValueError(f"duplicate checkpoint entry {name!r}")
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"checkpoint entry {name!r} has shape {shape!r}"
                             f"; each dimension must be an integer >= 0")
        size = math.prod(shape)
        if ent["size"] != size:
            raise ValueError(f"checkpoint entry {name!r} has size "
                             f"{ent['size']}, its shape {shape} holds "
                             f"{size}")
        if ent["offset"] != end:
            raise ValueError(f"checkpoint entry {name!r} starts at byte "
                             f"{ent['offset']}, the entry before it ends "
                             f"at {end}")
        offset, end = end, end + size * _ITEMSIZE
        if end > buffer_len:
            raise ValueError(f"checkpoint entry {name!r} ends at byte {end}"
                             f", past the {buffer_len} bytes of the buffer")
        flat = np.frombuffer(raw, dtype=_DTYPE, count=size,
                             offset=start + offset)
        out[name] = flat.astype(np.float64).reshape(shape)
    if end != buffer_len:
        last = manifest["entries"][-1]["name"] if out else None
        raise ValueError(f"checkpoint entries end at byte {end} (last "
                         f"entry {last!r}), the buffer holds {buffer_len}")
    return out, manifest["meta"]


def load_into(targets: Iterable[Tuple[str, np.ndarray]],
              entries: Dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into `targets`, (name, array) pairs, in place.

    Every target must have an entry of its shape and every entry a
    target. All of that is checked before the first copy, so a load
    that fails changes nothing.
    """
    targets = list(targets)
    for name, arr in targets:
        if name not in entries:
            raise ValueError(f"checkpoint is missing entry {name!r}")
        if entries[name].shape != arr.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint "
                f"{entries[name].shape}, model {arr.shape}"
            )
    unused = set(entries).difference(name for name, _ in targets)
    if unused:
        raise ValueError(
            f"checkpoint has unused entries: {sorted(unused)[:5]}")
    for name, arr in targets:
        arr[...] = entries[name]
