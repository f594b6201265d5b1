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
with no random initialization to throw away; its buffer holds only the
parameters' bytes, and the optimizer entries after them are read through
the CRC-32 and dropped.

Saves are atomic per file and ordered: the payload goes to a temp file that
replaces ``<stem>.bin``, then the manifest replaces ``<stem>.json`` the same
way, so the manifest is the commit point.  The manifest carries the CRC-32
of the payload, and a load whose payload does not match it raises, so a
save that died between the two files never loads as a mixed pair.  A
manifest without the payload's byte count or CRC-32 does not load.

A replaced file is held open across the rename and closed on a thread of
its own, because the filesystem's release of a replaced file blocked the
thread that dropped it for 100-250 ms per file at about 12 ms of CPU
(ext4, 2 vCPU; a 315 MB payload and a manifest alike).  The rename is
the same, so atomicity and the commit order are unchanged.  A save that
fails removes its temp file.
"""

from __future__ import annotations

import json
import math
import os
import threading
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
    """Write ``chunks`` to a sibling temp file, then move it onto ``path``.

    The old ``path`` is closed on its own thread (see the module note); a
    failed write or rename removes the temp file and closes the old one
    at once.
    """
    tmp = path.with_name(path.name + ".tmp")
    old = None
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        try:
            old = os.open(path, os.O_RDONLY)
        except OSError:
            pass
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        if old is not None:
            os.close(old)
        raise
    if old is not None:
        threading.Thread(target=os.close, args=(old,)).start()


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
    _replace_with(stem.with_suffix(".json"), [json.dumps(manifest).encode()])
    return stem


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a manifest/payload pair back into (manifest, name -> array).

    The arrays are writable views of one payload buffer (see the module note).
    """
    return _load(path, lambda name: True)


def _load(path, keep) -> tuple[dict, dict[str, np.ndarray]]:
    """Load the tensors whose names ``keep`` accepts, checking the whole payload.

    Only the byte span covering the kept tensors is read into the buffer
    they view; the bytes before and after it go through the CRC-32 in
    bounded pieces and are not kept.  When every tensor is kept, that span
    is the whole payload.
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
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise DataError(f"manifest {mpath} has no list of tensors")
    tensors = [_entry(entry) for entry in entries]
    for key in ("payload_bytes", "payload_crc32"):
        if not _is_count(manifest.get(key)):
            raise DataError(f"manifest {mpath} needs a non-negative integer {key}, got {manifest.get(key)!r}")
    with bpath.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if manifest["payload_bytes"] != size:
            raise DataError(f"payload is {size} bytes, manifest declares {manifest['payload_bytes']}")
        for name, _, _, _, end in tensors:
            if end > size:
                raise DataError(f"tensor '{name}' overruns payload ({end} > {size})")
        kept = [t for t in tensors if keep(t[0])]
        lo, hi = 0, size
        if len(kept) < len(tensors):
            lo, hi = min((t[3] for t in kept), default=0), max((t[4] for t in kept), default=0)
        crc = _crc_of_next(fh, lo, 0)
        payload = np.empty(hi - lo, np.uint8)
        if fh.readinto(payload) != payload.size:
            raise DataError(f"payload {bpath} ended early")
        crc = _crc_of_next(fh, size - hi, zlib.crc32(payload, crc))
    if manifest["payload_crc32"] != crc:
        raise DataError(f"payload {bpath} does not match the CRC-32 in {mpath}")
    arrays = {}
    for name, dt, shape, start, end in kept:
        arr = payload[start - lo:end - lo].view(dt).reshape(shape)
        arrays[name] = arr if arr.flags.aligned else arr.copy()
    return manifest, arrays


def _entry(entry) -> tuple:
    """Validate one manifest tensor entry into (name, dtype, shape, start, end)."""
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
    return name, dt, shape, start, start + math.prod(shape) * dt.itemsize


def _crc_of_next(fh, count: int, crc: int) -> int:
    """Feed the next ``count`` bytes of ``fh`` through CRC-32, 4 MB at a time, keeping none."""
    piece = memoryview(bytearray(min(count, 4 << 20)))
    while count:
        got = fh.readinto(piece[:min(count, len(piece))])
        if not got:
            raise DataError(f"payload {fh.name} ended early")
        crc = zlib.crc32(piece[:got], crc)
        count -= got
    return crc


def _is_count(v) -> bool:
    """A non-negative JSON integer (true/false are not counts)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# -- model-level helpers -----------------------------------------------------

OPTIM_PREFIX = "optim."


def split_optim(arrays: dict[str, np.ndarray]) -> tuple[dict, dict]:
    """A loaded checkpoint's arrays as (parameters, optimizer entries without the prefix)."""
    params = {n: a for n, a in arrays.items() if not n.startswith(OPTIM_PREFIX)}
    optim = {n[len(OPTIM_PREFIX):]: a for n, a in arrays.items() if n.startswith(OPTIM_PREFIX)}
    return params, optim


def save_model(model, path, train_state: dict | None = None,
               optim_arrays: dict[str, np.ndarray] | None = None) -> Path:
    from .model import config_to_dict

    arrays = {name: t.data for name, t in model.store.items()}
    if optim_arrays:
        for name, arr in optim_arrays.items():
            arrays[OPTIM_PREFIX + name] = arr
    return save_checkpoint(path, arrays, config_to_dict(model.config), train_state)


def load_model(path):
    """Rebuild the model a checkpoint was saved from, in the dtype it was saved in.

    Returns (model, manifest, arrays); ``arrays`` holds the parameters only.
    The parameters are the loaded arrays themselves, so nothing is drawn
    and nothing is copied.  The optimizer entries, which ``save_model``
    writes after the parameters, are checked against the CRC-32 but not
    kept, so a training checkpoint costs an inference process no more
    memory than a bare one; resuming training needs :func:`load_checkpoint`.
    """
    from .model import RestorationModel, config_from_dict

    manifest, params = _load(path, lambda name: not name.startswith(OPTIM_PREFIX))
    if not isinstance(manifest.get("config"), dict):
        raise DataError(f"checkpoint {_stem(path)} has no model config")
    config = config_from_dict(manifest["config"])
    dtype = params[next(iter(params))].dtype if params else np.float32
    model = RestorationModel(config, dtype=dtype, arrays=params)
    return model, manifest, params
