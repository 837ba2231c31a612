"""Binary model checkpoints.

Layout: magic "PGPT" | u32-LE format version (2) | u32-LE header length |
UTF-8 JSON header | payload. The header carries the model config and a
named-tensor manifest (name, shape, byte offset into the payload); the
payload is the tensors as 32-bit little-endian floats in manifest order.
Round trips are bit-identical. Version 1 headers held a config key the
model no longer has, so they do not load.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, param_specs
from .tensor import Tensor

MAGIC = b"PGPT"
VERSION = 2


class CheckpointError(ValueError):
    pass


def build_manifest(shapes):
    """(manifest, payload bytes) for ordered (name, shape) pairs: each
    offset is the byte total of the entries before it."""
    manifest, total = [], 0
    for name, shape in shapes:
        manifest.append({"name": name, "shape": list(shape), "offset": total})
        total += 4 * math.prod(shape)
    return manifest, total


def save_checkpoint(params, config, path):
    """Atomic write: temp file in the target directory, then rename. The
    params must have `param_specs(config)`'s names, order and shapes, the
    one manifest `load_checkpoint` accepts."""
    shapes = [(name, shape) for name, (shape, _)
              in param_specs(config).items()]
    given = [(name, tensor.data.shape) for name, tensor in params.items()]
    if given != shapes:
        raise CheckpointError(
            "params do not match the config: entry %d is %s, expected %s"
            % _first_difference(given, shapes))
    manifest, _ = build_manifest(shapes)
    header = json.dumps({"config": asdict(config),
                         "manifest": manifest}).encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for tensor in params.values():
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _first_difference(manifest, expected):
    """(index, stored, expected) JSON texts of the first differing entry of
    two lists whose JSON texts differ (8.0 and true are not 8)."""
    for i in range(max(len(manifest), len(expected))):
        stored, want = (json.dumps(m[i], sort_keys=True) if i < len(m)
                        else "nothing" for m in (manifest, expected))
        if stored != want:
            return i, stored, want


def load_checkpoint(path):
    """Returns ({name: Tensor}, ModelConfig); never partially loads.

    The manifest must be the one `save_checkpoint` writes for the header's
    config (`param_specs` order, integer shapes and offsets), and the
    payload must hold exactly its bytes.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise CheckpointError("%s is not a checkpoint (bad magic)" % path)
    if len(raw) < 12:
        raise CheckpointError("%s is truncated (no header)" % path)
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError("checkpoint format version %d is not "
                              "supported (expected %d)" % (version, VERSION))
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header_end = 12 + header_len
    if len(raw) < header_end:
        raise CheckpointError("%s is truncated (incomplete header)" % path)
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
        config = ModelConfig(**header["config"])
        manifest = header["manifest"]
        if not isinstance(manifest, list):
            raise TypeError("manifest is not a list")
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise CheckpointError("corrupt checkpoint header: %s" % e) from e

    expected, total = build_manifest((name, shape) for name, (shape, _)
                                     in param_specs(config).items())
    if (json.dumps(manifest, sort_keys=True)
            != json.dumps(expected, sort_keys=True)):
        raise CheckpointError(
            "%s: manifest entry %d: stored %s, expected %s"
            % (path, *_first_difference(manifest, expected)))
    if len(raw) - header_end != total:
        raise CheckpointError("%s: payload has %d bytes, expected %d"
                              % (path, len(raw) - header_end, total))
    payload = np.frombuffer(raw, "<f4", total // 4, header_end)
    if not np.isfinite(payload).all():
        raise CheckpointError("%s: payload holds a NaN or inf weight" % path)
    tensors = {}
    for e in manifest:
        arr = payload[e["offset"] // 4:][:math.prod(e["shape"])]
        tensors[e["name"]] = Tensor(arr.reshape(e["shape"]).astype(np.float32),
                                    requires_grad=True)
    return tensors, config
