"""Binary model checkpoints.

Layout: magic "PGPT" | u32-LE format version | u32-LE header length |
UTF-8 JSON header | payload. The header carries the model config and a
named-tensor manifest (name, shape, byte offset into the payload); the
payload is the tensors as 32-bit little-endian floats in manifest order.
Round trips are bit-identical.
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
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(params, config, path):
    """Atomic write: temp file in the target directory, then rename."""
    manifest = []
    offset = 0
    blobs = []
    for name, tensor in params.items():
        blob = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        manifest.append({"name": name,
                         "shape": list(tensor.data.shape),
                         "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({"config": asdict(config),
                         "manifest": manifest}).encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns ({name: Tensor}, ModelConfig); never partially loads.

    The manifest must hold exactly the tensors `param_specs(config)` names,
    with its shapes as JSON integers and each offset the byte total of the
    entries before it, and the payload must end where they do.
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
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError("corrupt checkpoint header: %s" % e) from e

    try:
        entries = [(e["name"], tuple(e["shape"]), e["offset"])
                   for e in manifest]
    except (KeyError, TypeError) as e:
        raise CheckpointError("%s has a malformed manifest entry: %r"
                              % (path, e)) from e

    payload = raw[header_end:]
    if config.n_layers > len(entries):  # bounds param_specs; 16 per layer
        raise CheckpointError("%s has %d manifest entries, too few for %d "
                              "layers" % (path, len(entries), config.n_layers))
    specs = param_specs(config)
    tensors = {}
    end = 0  # tensors lie back to back in manifest order
    for name, shape, start in entries:
        if not isinstance(name, str) or name not in specs or name in tensors:
            raise CheckpointError("%s has an unexpected tensor %r"
                                  % (path, name))
        if shape != specs[name][0] or any(type(n) is not int for n in shape):
            raise CheckpointError("%s: tensor %r has shape %s, expected %s"
                                  % (path, name, shape, specs[name][0]))
        if type(start) is not int or start != end:
            raise CheckpointError("%s: tensor %r has offset %r, expected %d"
                                  % (path, name, start, end))
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError("%s is truncated (tensor %r)"
                                  % (path, name))
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        tensors[name] = Tensor(arr.astype(np.float32), requires_grad=True)
    missing = [name for name in specs if name not in tensors]
    if missing:
        raise CheckpointError("%s lacks tensor %r" % (path, missing[0]))
    if len(payload) > end:
        raise CheckpointError("%s has %d bytes after the payload"
                              % (path, len(payload) - end))
    return tensors, config
