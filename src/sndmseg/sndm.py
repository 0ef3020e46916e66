"""Signed normalized distance map codec.

Encoding maps a binary mask to a per-pixel signed value: foreground
pixels land in [0.1, 1.0], background pixels in [-1.0, -0.1], and the
magnitude falls off affinely with Euclidean distance from the object
boundary, normalized per region. Boundary-nearest pixels of each region
encode to +/-1.0 and region-deepest pixels to +/-0.1, so the codes jump
from -1 to 1 across the object contour. Decoding is the sign rule and
recovers the mask exactly.
"""

from __future__ import annotations

import numpy as np

from .distance import edt
from .errors import DegenerateMaskError, ShapeMismatchError
from .raster import as_mask


def sndm_encode(mask) -> np.ndarray:
    """Encode a two-class mask into a signed normalized distance map (float32).

    Each region is normalized by its own distance extremes: with d the
    distance map and [lo, hi] the region's range, a pixel encodes to
    sign * (0.1 + 0.9 * (hi - d) / (hi - lo)); a region with constant
    distance encodes to sign * 1.0 throughout.
    """
    m = as_mask(mask)
    if not m.any() or m.all():
        raise DegenerateMaskError("mask must contain both foreground and background")
    d = edt(m)
    out = np.empty(m.shape, dtype=np.float32)
    for region, sign in ((m, 1.0), (~m, -1.0)):
        dv = d[region]
        lo = dv.min()
        hi = dv.max()
        if hi == lo:
            out[region] = sign
        else:
            # sign * (0.1 + 0.9 * ((hi - dv) / (hi - lo))) in place; (hi - dv) / (hi - lo)
            # is exactly 1.0 at dv == lo and 0.0 at dv == hi, so +/-1.0 and +/-0.1 are
            # attained bit-exactly
            np.subtract(hi, dv, out=dv)
            dv /= hi - lo
            dv *= 0.9
            dv += 0.1
            dv *= sign
            out[region] = dv
    return out


def sndm_decode(values) -> np.ndarray:
    """Recover the binary mask of a 2-d signed map: strictly positive values are foreground.

    This is the one decode rule, for encoded maps and for the network's
    tanh predictions alike (``train.evaluate``). Exactly 0.0 maps to
    background; it never occurs in an encoded map and only arises from
    untrained network output, so one fixed convention suffices.
    """
    v = np.asarray(values)
    if v.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d map, got shape {v.shape}")
    return v > 0
