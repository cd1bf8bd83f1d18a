"""Self-describing binary checkpoints.

Layout (all integers little-endian):

    magic   14 bytes  b"GROUPCAST-CKPT"
    version uint32    currently 1
    config  uint32 length + UTF-8 JSON
            {"model": ModelConfig dict, "extra": free-form dict,
             whose "step", when present, is an integer >= 0}
    count   uint32    number of parameter records
    record  uint16 name length, name UTF-8,
            uint8 rank, rank x uint32 extents,
            raw little-endian float32 data (row-major)

Records are written in sorted name order so identical weights always
produce identical bytes; values are stored as float32, matching the
training precision, and round-trip bit-exactly.
"""

import json
import struct
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import same_kind
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, weight_layout
from .panels import atomic_open

MAGIC = b"GROUPCAST-CKPT"
VERSION = 1


def save_checkpoint(
    path,
    weights: dict[str, T.Tensor],
    config: ModelConfig,
    extra: dict | None = None,
    moments: dict[str, np.ndarray] | None = None,
) -> None:
    """Write weights (and optional optimizer moments as opt.* records).

    The file appears at ``path`` whole or not at all (written to a
    temporary sibling, then renamed over ``path``).
    """
    records: dict[str, np.ndarray] = {name: t.data for name, t in weights.items()}
    if moments:
        for name, arr in moments.items():
            records[f"opt.{name}"] = arr
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = json.dumps(
        {"model": config.to_dict(), "extra": extra or {}}, sort_keys=True
    ).encode("utf-8")
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    blob += struct.pack("<I", len(records))
    for name in sorted(records):
        arr = np.ascontiguousarray(records[name], dtype="<f4")
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb))
        blob += nb
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    with atomic_open(path, "wb") as f:
        f.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (weights, config, extra, moments).

    A file that cannot be read raises its OSError, a corrupt one
    CheckpointError. A checkpoint that loads is one the model can run: its
    header holds a ModelConfig that builds (every field of its kind, by
    config.same_kind), an ``extra`` object whose ``step``, when present, is
    an integer >= 0, and its weights are exactly the names and shapes of
    model.weight_layout for that config; anything else is a corrupt header.
    Each optimizer moment ("m." or "v." and a weight's name) has the shape
    of its weight.
    """
    buf = Path(path).read_bytes()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(buf):
            raise CheckpointError(f"truncated checkpoint {path}")
        chunk = buf[off : off + n]
        off += n
        return chunk

    if take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path} is not a groupcast checkpoint")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        header = json.loads(take(cfg_len).decode("utf-8"))
        config = ModelConfig.from_dict(header["model"])
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        # not UTF-8 JSON (ValueError), not an object (TypeError), no "model"
        # (KeyError), or a model config that ModelConfig rejects
        raise CheckpointError(f"corrupt header in checkpoint {path}: {exc!r}") from exc
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"corrupt header in checkpoint {path}: extra must be an object, got {extra!r}")
    step = extra.get("step", 0)
    if not same_kind(step, int) or step < 0:
        raise CheckpointError(f"corrupt header in checkpoint {path}: step must be an integer >= 0, got {step!r}")
    (count,) = struct.unpack("<I", take(4))
    weights: dict[str, T.Tensor] = {}
    moments: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8", "replace")  # a name that is not UTF-8 fits no weight
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n = int(np.prod(shape)) if rank else 1
        arr = np.frombuffer(take(4 * n), dtype="<f4").reshape(shape).astype(np.float32)
        if name.startswith("opt."):
            moments[name[4:]] = arr
        else:
            weights[name] = T.parameter(arr, dtype=np.float32)
    if off != len(buf):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    need = {name: shape for name, (shape, _, _) in weight_layout(config).items()}
    have = {name: t.shape for name, t in weights.items()}
    if have != need:
        name = min(n for n in need.keys() | have.keys() if have.get(n) != need.get(n))
        raise CheckpointError(
            f"corrupt header in checkpoint {path}: its model config does not fit the weights "
            f"(weight {name} is {have.get(name, 'missing')}, the config needs {need.get(name, 'no such weight')})"
        )
    for name, arr in moments.items():
        role, _, of = name.partition(".")
        if role not in ("m", "v") or arr.shape != need.get(of):
            raise CheckpointError(f"corrupt checkpoint {path}: optimizer moment {name} {arr.shape} fits no weight")
    return weights, config, extra, moments
