"""Two-file checkpoints: JSON manifest plus raw little-endian payload.

The manifest lists every tensor (name, shape, dtype code, byte offset into
the payload) alongside the model config and optional training state, so a
checkpoint can be inspected with nothing but a JSON reader.  Payload bytes
are written in manifest order with no padding; loading is exact, so
save -> load -> forward is bit-identical.

A load reads the payload once, into one writable byte array, and checks
its size and CRC-32 there.  Each tensor is then a view of that array;
only a tensor whose offset is not aligned for its dtype (an f64 after an
odd-length f32, say) is copied out.  Loaded arrays are writable, and
each load reads its own buffer, so writing into one load never shows in
another.  ``load_model`` builds the model straight from those views,
with no random initialization to throw away.

Saves are atomic per file and ordered: the payload goes to a temp file that
replaces ``<stem>.bin``, then the manifest replaces ``<stem>.json`` the same
way, so the manifest is the commit point.  The manifest carries the CRC-32
of the payload, and a load whose payload does not match it raises, so a
save that died between the two files never loads as a mixed pair.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

SCHEMA_VERSION = 1
_DTYPE_CODES = {"f32-le": np.dtype("<f4"), "f64-le": np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): "f32-le", np.dtype(np.float64): "f64-le"}


def _stem(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin"):
        p = p.with_suffix("")
    return p


def _replace_with(path: Path, chunks):
    """Write ``chunks`` to a sibling temp file, then move it onto ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def save_checkpoint(path, arrays: dict[str, np.ndarray], config: dict,
                    train_state: dict | None = None) -> Path:
    """Write ``<stem>.bin`` and then ``<stem>.json``; returns the stem path."""
    stem = _stem(path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks = []
    offset = 0
    crc = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _CODES_BY_KIND:
            raise DataError(f"tensor '{name}' has unsupported dtype {arr.dtype}")
        code = _CODES_BY_KIND[arr.dtype]
        raw = arr.astype(_DTYPE_CODES[code], copy=False).reshape(-1).view(np.uint8)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code, "offset": offset})
        offset += raw.size
        crc = zlib.crc32(raw, crc)
        chunks.append(raw)
    _replace_with(stem.with_suffix(".bin"), chunks)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "train_state": train_state,
        "payload_bytes": offset,
        "payload_crc32": crc,
        "tensors": entries,
    }
    _replace_with(stem.with_suffix(".json"), [json.dumps(manifest, indent=1).encode()])
    return stem


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a manifest/payload pair back into (manifest, name -> array).

    The arrays are writable views of one payload buffer (see the module note).
    """
    stem = _stem(path)
    mpath, bpath = stem.with_suffix(".json"), stem.with_suffix(".bin")
    if not mpath.exists():
        raise DataError(f"checkpoint manifest not found: {mpath}")
    if not bpath.exists():
        raise DataError(f"checkpoint payload not found: {bpath}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"manifest {mpath} is not valid JSON: {e}") from None
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"unsupported checkpoint schema {manifest.get('schema_version')!r}")
    payload = np.fromfile(bpath, dtype=np.uint8)
    declared = manifest.get("payload_bytes")
    if declared is not None and declared != payload.size:
        raise DataError(f"payload is {payload.size} bytes, manifest declares {declared}")
    crc = manifest.get("payload_crc32")
    if crc is not None and crc != zlib.crc32(payload):
        raise DataError(f"payload {bpath} does not match the CRC-32 in {mpath}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise DataError(f"manifest {mpath} has no list of tensors")
    arrays = {}
    for entry in entries:
        if not isinstance(entry, dict) or not {"name", "shape", "dtype", "offset"} <= entry.keys():
            raise DataError(f"tensor entry {entry!r} needs a name, shape, dtype and offset")
        name, code, shape, start = entry["name"], entry["dtype"], entry["shape"], entry["offset"]
        if code not in _DTYPE_CODES:
            raise DataError(f"tensor '{name}' has unknown dtype code '{code}'")
        if not isinstance(shape, list) or not all(map(_is_count, shape)):
            raise DataError(f"tensor '{name}' has invalid shape {shape!r}")
        if not _is_count(start):
            raise DataError(f"tensor '{name}' has invalid offset {start!r}")
        dt = _DTYPE_CODES[code]
        end = start + math.prod(shape) * dt.itemsize
        if end > payload.size:
            raise DataError(f"tensor '{name}' overruns payload ({end} > {payload.size})")
        arr = payload[start:end].view(dt).reshape(shape)
        arrays[name] = arr if arr.flags.aligned else arr.copy()
    return manifest, arrays


def _is_count(v) -> bool:
    """A non-negative JSON integer (true/false are not counts)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# -- model-level helpers -----------------------------------------------------

OPTIM_PREFIX = "optim."


def save_model(model, path, train_state: dict | None = None,
               optim_arrays: dict[str, np.ndarray] | None = None) -> Path:
    from .model import config_to_dict

    arrays = {name: t.data for name, t in model.store.items()}
    if optim_arrays:
        for name, arr in optim_arrays.items():
            arrays[OPTIM_PREFIX + name] = arr
    return save_checkpoint(path, arrays, config_to_dict(model.config), train_state)


def load_model(path, dtype=None):
    """Rebuild the model a checkpoint was saved from.

    Returns (model, manifest, arrays); ``arrays`` still holds optimizer
    entries so training can resume.  Inference only needs the model.  The
    parameters are the loaded arrays themselves (cast only when ``dtype``
    differs), so nothing is drawn and nothing is copied.
    """
    from .model import RestorationModel, config_from_dict

    manifest, arrays = load_checkpoint(path)
    if not isinstance(manifest.get("config"), dict):
        raise DataError(f"checkpoint {_stem(path)} has no model config")
    config = config_from_dict(manifest["config"])
    params = {n: a for n, a in arrays.items() if not n.startswith(OPTIM_PREFIX)}
    if dtype is None:
        dtype = params[next(iter(params))].dtype if params else np.float32
    model = RestorationModel(config, dtype=dtype, arrays=params)
    return model, manifest, arrays
