"""Artifact writers (``atomic_open``, and ``write_csv`` and ``write_json``
over it) and the checkpoint file: one UTF-8 JSON header line (sorted keys)
holding the model and train config and an ordered tensor manifest of (name,
rows, cols); then a NUL byte; then the raw float32 values in manifest
order. Deterministic byte-for-byte given identical state.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_open(path, text=False):
    """The one way artifacts are written: a handle on a new 0600 file beside
    ``path`` that replaces it on a clean exit and is deleted on error. The
    handle is binary, or with ``text`` UTF-8 text that writes line ends as
    given (``newline=""``)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with (os.fdopen(fd, "w", encoding="utf-8", newline="") if text
              else os.fdopen(fd, "wb")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, header, rows):
    """Write ``header``, then each of ``rows``, as CSV via ``atomic_open``."""
    with atomic_open(path, text=True) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj):
    """Write ``obj`` as sorted-key JSON, indent 1, through ``atomic_open``."""
    with atomic_open(path, text=True) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def save_checkpoint(path, tensors: dict, meta: dict):
    """Atomically write named 2-D float32 tensors plus JSON metadata."""
    names = sorted(tensors)
    manifest = []
    for name in names:
        r, c = np.shape(tensors[name])
        manifest.append([name, int(r), int(c)])
    header = dict(meta)
    header["manifest"] = manifest
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(header_bytes)
        fh.write(b"\x00")
        for name, r, c in manifest:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f4")
                     .reshape(r, c))


def _read_header(fh) -> dict:
    """Parse the JSON header of a checkpoint open at its start, leaving ``fh``
    just past the NUL byte that ends it."""
    head = b""
    while (sep := head.find(b"\x00")) < 0:
        chunk = fh.read(1 << 16)
        if not chunk:
            raise ValueError(f"{fh.name}: checkpoint header has no end")
        head += chunk
    fh.seek(sep + 1)
    return json.loads(head[:sep].decode("utf-8"))


def read_meta(path) -> dict:
    """A checkpoint's header (its metadata and tensor ``manifest``), read
    without the tensor payload."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def load_checkpoint(path):
    """Returns (tensors dict of float32 arrays, meta dict), each tensor read
    from the file straight into its own array. A payload shorter or longer
    than its manifest is a ``ValueError`` naming the file."""
    with open(path, "rb") as fh:
        meta = _read_header(fh)
        tensors = {}
        for name, r, c in meta.pop("manifest"):
            arr = tensors[name] = np.empty((r, c), dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: checkpoint ends inside tensor "
                                 f"{name} ({r} x {c})")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes in checkpoint")
    return tensors, meta
