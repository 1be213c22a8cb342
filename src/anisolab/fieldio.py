"""Bit-exact binary persistence for grid functions.

Layout, all little-endian, no padding:

    bytes 0..7    magic  b"AFLD0001"
    uint32        N, number of axes
    uint32        q, size of the scaled-axes group
    N x uint64    cells per axis
    N x float64   lo per axis
    N x float64   hi per axis
    float64 ...   node values, C order, (cells_a + 1) nodes per axis

Node values include the boundary ring.  Writing the same field twice
produces identical bytes; reading reconstructs grid and values exactly.

``atomic_write`` is the package's one way of writing an output file: the
bytes go to a ``.tmp`` sibling that replaces the target only once
complete, so readers never see a half-written file, and a failed write
leaves neither a partial target nor the ``.tmp`` file behind.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Grid, ScalarField

__all__ = ["save_field", "load_field", "atomic_write", "MAGIC"]

MAGIC = b"AFLD0001"


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing; move it onto ``path`` on success.

    If the block raises, the temporary file is removed and the error
    propagates; ``path`` keeps whatever it held before.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_field(path, field: ScalarField) -> Path:
    path = Path(path)
    grid = field.grid
    n = grid.ndim
    header = MAGIC
    header += struct.pack("<II", n, grid.q)
    header += struct.pack(f"<{n}Q", *grid.cells)
    header += struct.pack(f"<{n}d", *grid.lo)
    header += struct.pack(f"<{n}d", *grid.hi)
    values = np.ascontiguousarray(field.values, dtype="<f8")
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes(order="C"))
    return path


def load_field(path) -> ScalarField:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise ConfigError(f"{path}: not a field file (bad magic)")
    if len(raw) < 16:
        raise ConfigError(f"{path}: header is {len(raw)} bytes, "
                          f"expected at least 16")
    n, q = struct.unpack_from("<II", raw, 8)
    off = 16
    if len(raw) < off + 24 * n:
        raise ConfigError(f"{path}: header is {len(raw)} bytes, "
                          f"expected {off + 24 * n} for {n} axes")
    cells = struct.unpack_from(f"<{n}Q", raw, off)
    off += 8 * n
    lo = struct.unpack_from(f"<{n}d", raw, off)
    off += 8 * n
    hi = struct.unpack_from(f"<{n}d", raw, off)
    off += 8 * n
    grid = Grid(lo=tuple(lo), hi=tuple(hi),
                cells=tuple(int(c) for c in cells), q=int(q))
    count = int(np.prod(grid.node_shape))
    expected = off + 8 * count
    if len(raw) != expected:
        raise ConfigError(
            f"{path}: payload is {len(raw) - off} bytes, "
            f"expected {8 * count}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
    return ScalarField(grid, values.reshape(grid.node_shape).copy())
