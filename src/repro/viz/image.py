"""Minimal image output: binary PPM/PGM/PNG writers and an ASCII preview.

No imaging dependency is available offline, so heat maps are written as
Netpbm files (viewable by virtually every image tool) and terminal previews
use a density character ramp.  :func:`encode_png` produces a standard 8-bit
truecolor PNG from the stdlib alone (``zlib`` + ``struct``) — browsers do not
render PPM, and the tile server (:mod:`repro.serve`) must hand web maps a
format they decode natively.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = ["write_ppm", "write_pgm", "encode_png", "write_png", "ascii_preview"]

_ASCII_RAMP = " .:-=+*#%@"


def write_ppm(path: "str | Path", rgb: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` uint8 array as a binary PPM (P6) file."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {rgb.shape} {rgb.dtype}")
    height, width = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def write_pgm(path: "str | Path", gray: np.ndarray) -> None:
    """Write an ``(H, W)`` uint8 array as a binary PGM (P5) file."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"expected (H, W) uint8 image, got {gray.shape} {gray.dtype}")
    height, width = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(rgb: np.ndarray, compress_level: int = 5) -> bytes:
    """Encode an ``(H, W, 3)`` uint8 array as PNG bytes (8-bit truecolor).

    Pure stdlib: one IHDR/IDAT/IEND chunk each, filter type 0 on every
    scanline.  Lossless, so ``.png`` tile responses decode to exactly the
    colormapped grid.  Deflate runs at level 5 by default, the knee of
    time against bytes on served tiles: about a third less time than
    zlib's default level 6 for about 5% more bytes (``docs/serving.md``).
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {rgb.shape} {rgb.dtype}")
    height, width = rgb.shape[:2]
    # prepend the per-scanline filter byte (0 = None) to each row
    raw = np.empty((height, 1 + width * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = rgb.reshape(height, width * 3)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    idat = zlib.compress(raw.tobytes(), compress_level)
    return (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def write_png(path: "str | Path", rgb: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` uint8 array as a PNG file."""
    with open(path, "wb") as f:
        f.write(encode_png(rgb))


def ascii_preview(grid: np.ndarray, width: int = 72, height: int = 24) -> str:
    """Render a density grid as an ASCII heat map for terminal inspection.

    The grid is box-downsampled to at most ``width x height`` characters;
    denser pixels map to denser ramp characters.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("expected a 2-D grid")
    if grid.size == 0:
        return ""
    rows, cols = grid.shape
    out_h = min(height, rows)
    out_w = min(width, cols)
    # box-average downsample via bin assignment
    row_bins = (np.arange(rows) * out_h // rows).clip(0, out_h - 1)
    col_bins = (np.arange(cols) * out_w // cols).clip(0, out_w - 1)
    sums = np.zeros((out_h, out_w))
    counts = np.zeros((out_h, out_w))
    np.add.at(sums, (row_bins[:, None], col_bins[None, :]), grid)
    np.add.at(counts, (row_bins[:, None], col_bins[None, :]), 1.0)
    small = sums / counts
    top = small.max()
    if top <= 0:
        levels = np.zeros_like(small, dtype=int)
    else:
        levels = np.minimum(
            (small / top * (len(_ASCII_RAMP) - 1)).astype(int), len(_ASCII_RAMP) - 1
        )
    return "\n".join("".join(_ASCII_RAMP[v] for v in row) for row in levels)
