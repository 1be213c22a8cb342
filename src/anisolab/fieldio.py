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
        # the array's own bytes, C order: no copy of the payload
        fh.write(memoryview(values).cast("B"))
    return path


def load_field(path) -> ScalarField:
    """Read a field file; the header and the file size are checked before
    the payload is read straight into the returned (writable) values."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = fh.seek(0, 2)  # the file's size, from its end
        fh.seek(0)
        head = fh.read(16)
        if head[:8] != MAGIC:
            raise ConfigError(f"{path}: not a field file (bad magic)")
        if size < 16:
            raise ConfigError(f"{path}: header is {size} bytes, "
                              f"expected at least 16")
        n, q = struct.unpack_from("<II", head, 8)
        off = 16 + 24 * n
        if size < off:
            raise ConfigError(f"{path}: header is {size} bytes, "
                              f"expected {off} for {n} axes")
        axes = fh.read(24 * n)
        cells = struct.unpack_from(f"<{n}Q", axes, 0)
        lo = struct.unpack_from(f"<{n}d", axes, 8 * n)
        hi = struct.unpack_from(f"<{n}d", axes, 16 * n)
        grid = Grid(lo=tuple(lo), hi=tuple(hi),
                    cells=tuple(int(c) for c in cells), q=int(q))
        nbytes = 8 * int(np.prod(grid.node_shape))
        if size - off != nbytes:
            raise ConfigError(f"{path}: payload is {size - off} bytes, "
                              f"expected {nbytes}")
        values = np.empty(grid.node_shape, dtype="<f8")
        read = fh.readinto(memoryview(values).cast("B"))
    if read != nbytes:
        raise ConfigError(f"{path}: payload is {read} bytes, "
                          f"expected {nbytes}")
    return ScalarField(grid, values)
