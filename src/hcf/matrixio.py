"""Tiny binary matrix format for gains, strengths, labels, and bank dumps.

Layout, all little-endian:

====== ======= =====================================
offset size    content
====== ======= =====================================
0      4       magic ``HCF1``
4      4       rows, unsigned 32-bit
8      4       cols, unsigned 32-bit
12     4*r*c   float32 payload, row-major
====== ======= =====================================

Doubles are narrowed to float32 on write (round to nearest), and one beyond
float32's range is rejected as non-finite; float32 data round-trips bit-exactly.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import MatrixFormatError

MAGIC = b"HCF1"
HEADER = struct.Struct("<4sII")


def write_matrix(matrix, path) -> None:
    """Write a 2-D real matrix; raises on entries not finite as float32."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise MatrixFormatError(f"need a 2-D matrix, got shape {arr.shape}")
    with np.errstate(over="ignore"):  # a double beyond float32's range narrows to inf
        payload = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise MatrixFormatError("matrix contains non-finite entries")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; returns float32."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < HEADER.size:
            raise MatrixFormatError(
                f"file is {size} bytes, shorter than the {HEADER.size}-byte header"
            )
        magic, rows, cols = HEADER.unpack(fh.read(HEADER.size))
        if magic != MAGIC:
            raise MatrixFormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        expected = HEADER.size + 4 * rows * cols
        if size == expected:  # allocate only what the file holds; a short read fails below
            matrix = np.empty((rows, cols), dtype="<f4")
            size = HEADER.size + fh.readinto(matrix)
        if size != expected:
            raise MatrixFormatError(
                f"payload for {rows}x{cols} needs {expected} bytes total, file has {size}"
            )
    if not np.all(np.isfinite(matrix)):
        raise MatrixFormatError("matrix contains non-finite entries")
    return matrix
