"""Binary model checkpoints.

Layout: magic "PGPT" | u32-LE format version (4) | u32-LE header length |
UTF-8 JSON header | payload. The header is {"config": the model config};
the payload is the tensors of `param_specs(config)`, in its order, as
32-bit little-endian floats back to back, so the config alone fixes every
tensor's name, shape and offset. Round trips are bit-identical. Versions
1-3 do not load; they held a config key the model lacks (1), a manifest
the config implies (2) or Q, K and V as three tensors per layer (3).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from .model import ModelConfig, param_specs
from .tensor import Tensor

MAGIC = b"PGPT"
VERSION = 4


class CheckpointError(ValueError):
    pass


def save_checkpoint(params, config, path):
    """Atomic write: temp file in the target directory, then rename. The
    params must have `param_specs(config)`'s names, order and shapes, the
    payload `load_checkpoint` reads for that config."""
    shapes = [(name, shape) for name, (shape, _)
              in param_specs(config).items()]
    given = [(name, tensor.data.shape) for name, tensor in params.items()]
    if given != shapes:
        pairs = list(zip_longest(given, shapes, fillvalue="nothing"))
        i = next(i for i, (got, want) in enumerate(pairs) if got != want)
        raise CheckpointError("params do not match the config: entry %d is "
                              "%s, expected %s" % (i, *pairs[i]))
    header = json.dumps({"config": asdict(config)}).encode("utf-8")

    tmp = os.path.join(os.path.dirname(path), os.urandom(8).hex() + ".tmp")
    f = open(tmp, "xb")  # before the try: a failed create unlinks nothing
    try:
        with f:
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


def load_checkpoint(path):
    """Returns ({name: Tensor}, ModelConfig); never partially loads.

    The payload must hold exactly the tensors of the header config's
    `param_specs`, each split off at the running total of the sizes
    before it.
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
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise CheckpointError("corrupt checkpoint header: %s" % e) from e

    specs = param_specs(config)
    total = 4 * sum(math.prod(shape) for shape, _ in specs.values())
    if len(raw) - header_end != total:
        raise CheckpointError("%s: payload has %d bytes, expected %d"
                              % (path, len(raw) - header_end, total))
    payload = np.frombuffer(raw, "<f4", total // 4, header_end)
    if not np.isfinite(payload).all():
        raise CheckpointError("%s: payload holds a NaN or inf weight" % path)
    tensors, offset = {}, 0
    for name, (shape, _) in specs.items():
        size = math.prod(shape)
        tensors[name] = Tensor(payload[offset:offset + size].reshape(shape)
                               .astype(np.float32), requires_grad=True)
        offset += size
    return tensors, config
