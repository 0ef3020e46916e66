"""Exact Euclidean distance transform to the object boundary.

The boundary of a mask is the set of foreground pixels with at least one
background 4-neighbor. Positions outside the image count as background
along any axis of extent > 1; along a degenerate axis of extent 1 there
is no neighbor in that direction (so a 1-pixel-tall strip is bounded only
left/right). For the 1x1 image the single foreground pixel is its own
boundary.

Squared distances are exact: the transform reports, for every pixel, the
integer squared Euclidean distance to the nearest boundary pixel, and
``edt`` is its square root. A brute-force oracle over all boundary pixels
is provided for verification.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import EmptyForegroundError
from .raster import as_mask

BRUTE_CHUNK_BYTES = 32 << 20  # work-block budget of edt_squared_brute


def boundary_mask(mask) -> np.ndarray:
    """Bool map of boundary pixels (foreground with a background 4-neighbor)."""
    m = as_mask(mask)
    if not m.any():
        raise EmptyForegroundError("mask has no foreground pixel")
    h, w = m.shape
    if h == 1 and w == 1:
        return m.copy()
    # pad with background where an outside exists, replicate along extent-1 axes
    padded = np.pad(m, ((1, 1), (0, 0)), mode="constant" if h > 1 else "edge")
    padded = np.pad(padded, ((0, 0), (1, 1)), mode="constant" if w > 1 else "edge")
    up = padded[:-2, 1:-1]
    down = padded[2:, 1:-1]
    left = padded[1:-1, :-2]
    right = padded[1:-1, 2:]
    return m & ~(up & down & left & right)


def boundary_set(mask) -> np.ndarray:
    """Boundary pixel coordinates as an (N, 2) int array of (row, col), row-major order."""
    return np.argwhere(boundary_mask(mask))


def edt_squared(mask) -> np.ndarray:
    """Exact integer squared Euclidean distance to the nearest boundary pixel."""
    b = boundary_mask(mask)
    # one (2, H, W) int64 work block: row and column offsets to the nearest boundary pixel, squared in place
    sq = ndimage.distance_transform_edt(~b, return_distances=False, return_indices=True).astype(np.int64)
    h, w = b.shape
    sq[0] -= np.arange(h, dtype=np.int64)[:, None]
    sq[1] -= np.arange(w, dtype=np.int64)
    sq *= sq
    return sq[0] + sq[1]  # a new array, so the work block is freed


def edt(mask) -> np.ndarray:
    """Euclidean distance map in pixel units (float64, zero on boundary pixels)."""
    d = edt_squared(mask).astype(np.float64)
    return np.sqrt(d, out=d)


def edt_squared_brute(mask) -> np.ndarray:
    """Brute-force oracle: min over all boundary pixels of the integer squared distance.

    O(pixels * |boundary|); use for verification only. Pixels are taken in
    row-major chunks whose two (chunk, |boundary|) int64 work blocks fit in
    ``BRUTE_CHUNK_BYTES``, so memory stays bounded on large masks.
    """
    b = boundary_set(mask)
    h, w = as_mask(mask).shape
    by = b[:, 0].astype(np.int64)
    bx = b[:, 1].astype(np.int64)
    chunk = max(1, BRUTE_CHUNK_BYTES // (2 * 8 * len(b)))
    out = np.empty(h * w, dtype=np.int64)
    for start in range(0, h * w, chunk):
        pixels = np.arange(start, min(start + chunk, h * w), dtype=np.int64)
        d2 = pixels[:, None] // w - by
        d2 *= d2
        dx = pixels[:, None] % w - bx
        dx *= dx
        d2 += dx
        d2.min(axis=1, out=out[start : start + len(pixels)])
        del d2, dx  # free both blocks before the next chunk allocates its own
    return out.reshape(h, w)
