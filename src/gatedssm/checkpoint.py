"""Flat-file checkpoints: a JSON manifest plus one raw float64 buffer.

The manifest lists every named array with its shape and byte offset into
the buffer file; the buffer is the concatenation of the arrays as
little-endian 64-bit floats. A free-form `meta` dict (JSON-safe values
only) rides along in the manifest. Round-trips are bit-exact. Each file
is written under a temporary name and renamed, so neither is ever torn,
but the pair is not replaced as one: a crash between the two renames
leaves the new buffer beside the old manifest, which loads without
error when the sizes match.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Tuple

import numpy as np

MANIFEST_NAME = "manifest.json"
BUFFER_NAME = "params.bin"
FORMAT_VERSION = 1
_DTYPE = "<f8"
_ITEMSIZE = np.dtype(_DTYPE).itemsize


def save_checkpoint(directory: str,
                    entries: Iterable[Tuple[str, np.ndarray]],
                    meta: dict | None = None) -> None:
    """Write named arrays and metadata to `directory`: the buffer, then
    the manifest, each replaced whole (see the module docstring)."""
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
    manifest = {
        "version": FORMAT_VERSION,
        "dtype": _DTYPE,
        "total_bytes": offset,
        "entries": manifest_entries,
        "meta": meta or {},
    }
    buf_tmp = os.path.join(directory, BUFFER_NAME + ".tmp")
    man_tmp = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(buf_tmp, "wb") as f:
        for data in arrays:
            f.write(memoryview(data))
    with open(man_tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    os.replace(buf_tmp, os.path.join(directory, BUFFER_NAME))
    os.replace(man_tmp, os.path.join(directory, MANIFEST_NAME))


def _require(doc: dict, keys: Tuple[str, ...], what: str) -> None:
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} lacks {key!r}")


def load_checkpoint(directory: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a checkpoint back as ({name: array}, meta)."""
    man_path = os.path.join(directory, MANIFEST_NAME)
    buf_path = os.path.join(directory, BUFFER_NAME)
    with open(man_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {manifest.get('version')!r}"
        )
    _require(manifest, ("total_bytes", "entries"), "checkpoint manifest")
    for i, ent in enumerate(manifest["entries"]):
        _require(ent, ("name", "shape", "offset", "size"),
                 f"checkpoint manifest entry {i}")
    with open(buf_path, "rb") as f:
        raw = f.read()
    if len(raw) != manifest["total_bytes"]:
        raise ValueError(
            f"buffer is {len(raw)} bytes, manifest expects "
            f"{manifest['total_bytes']}"
        )
    # The entries must tile the buffer in order, each as long as its shape.
    out = {}
    end = 0
    for ent in manifest["entries"]:
        name, size = ent["name"], ent["size"]
        if size != int(np.prod(ent["shape"])):
            raise ValueError(f"checkpoint entry {name!r} has size {size}, "
                             f"its shape {ent['shape']} holds "
                             f"{int(np.prod(ent['shape']))}")
        if ent["offset"] != end:
            raise ValueError(f"checkpoint entry {name!r} starts at byte "
                             f"{ent['offset']}, the entry before it ends "
                             f"at {end}")
        end += size * _ITEMSIZE
        if end > len(raw):
            raise ValueError(f"checkpoint entry {name!r} ends at byte {end}"
                             f", past the {len(raw)}-byte buffer")
        flat = np.frombuffer(raw, dtype=_DTYPE, count=size,
                             offset=ent["offset"]).astype(np.float64)
        out[name] = flat.reshape(ent["shape"])
    if end != len(raw):
        last = manifest["entries"][-1]["name"] if out else None
        raise ValueError(f"checkpoint entries end at byte {end} (last "
                         f"entry {last!r}), the buffer holds {len(raw)}")
    return out, manifest.get("meta", {})


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
