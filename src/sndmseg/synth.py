"""Deterministic synthetic co-object image pairs.

Each sample renders one shared object — a random smoothed polygon with
``POLYGON_CORNERS`` corners before smoothing — into two images under
independent similarity transforms (scale in ``OBJECT_SCALE`` times 0.24
of the image side, rotation in ``ROTATION``, translation that keeps the
object inside the image) with a shared base color plus per-image jitter
of up to ``COLOR_JITTER`` per channel. Each image additionally gets its
own ``DISTRACTORS`` range of distractor shapes, differing between the
two images in both shape and color, over a solid background with
Gaussian noise of deviation ``NOISE_SIGMA``. The
image side length is the one setting (:class:`GenConfig`). Ground truth
masks mark exactly the pixels whose centers fall inside the common
object's polygon: image colors are rendered with 2x2 supersampled
anti-aliasing, masks are crisp.

Polygons are rasterized by a scanline even-odd test: for each sample row
the crossing x of every edge that spans the row is found once, and a
point is inside when an odd number of crossings lie strictly to its
right. The mask is this test at the pixel centers; the coverage is the
same test on one grid of 2x2 subsamples per pixel (offsets 0.25 and
0.75), counted per pixel and divided by 4. The counts are integers, so
the coverage is exact.

The test runs only over the polygon's pixel box, rows ``floor(min y) ..
floor(max y)`` and columns ``floor(min x) .. floor(max x)`` clipped to
the image, and each shape is blended into the image's box alone. This
is exact, not an approximation: a sample row outside the box crosses no
edge; a sample right of the box has no crossing to its right; a sample
left of it has every crossing of its row to its right, and a closed
polygon crosses a row an even number of times; so every sample outside
the box is outside the polygon, and there the blend ``img * 1.0 + color
* 0.0`` leaves the image as it is.

Randomness comes from numpy's Philox counter-based generator keyed by the
sample seed, so a (seed, config) pair always produces bit-identical
output; pairs of a dataset use consecutive seeds and are independent.

A pose is rejected when either mask has a foreground fraction outside
[0.02, 0.6] or is not a single 4-connected component; after bounded
retries the sample falls back to a centered ellipse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import InvalidConfigError, IoFailureError, MalformedHeaderError, ShapeMismatchError, check_count, require_field_types
from .raster import _atomic_write, _read_bytes, read_image, read_mask, write_image, write_mask
from .seeding import check_seed, seeded_rng

FG_FRACTION = (0.02, 0.6)
MAX_ATTEMPTS = 32
DISTRACTORS = (0, 3)  # inclusive count range per image
POLYGON_CORNERS = (8, 12)  # inclusive corner count range of the shared object, before corner cutting
OBJECT_SCALE = (0.7, 1.3)  # multiplier of the base radius 0.24 * image_size
ROTATION = (0.0, 2.0 * np.pi)
COLOR_JITTER = 0.1  # per-channel offset range of the object color in each image
NOISE_SIGMA = 0.02  # deviation of the per-pixel Gaussian image noise
_4CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class GenConfig:
    """The image side length; the pose, color and noise ranges are the module constants.

    The largest object margin, 1.05 * 1.3 * 0.24 * size + 1, stays below
    size / 2 for every size >= 16, so every drawn pose fits the image.
    """

    image_size: int = 64

    def __post_init__(self):
        require_field_types(self)
        if self.image_size < 16:
            raise InvalidConfigError(f"image_size must be >= 16, got {self.image_size}")


@dataclass
class PairSample:
    """One co-object pair; ``pair_id`` names it within a dataset."""

    img_a: np.ndarray
    img_b: np.ndarray
    mask_a: np.ndarray
    mask_b: np.ndarray
    pair_id: str = ""


# ---------------------------------------------------------------------------
# geometry


def _smooth_polygon(rng) -> np.ndarray:
    """Star-shaped polygon around the origin, corner-cut once for smoothness."""
    n = int(rng.integers(POLYGON_CORNERS[0], POLYGON_CORNERS[1] + 1))
    angles = (np.arange(n) + rng.uniform(-0.35, 0.35, size=n)) * (2.0 * np.pi / n)
    radii = rng.uniform(0.55, 1.0, size=n)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    # one round of Chaikin corner cutting
    rolled = np.roll(pts, -1, axis=0)
    out = np.empty((2 * n, 2))
    out[0::2] = 0.75 * pts + 0.25 * rolled
    out[1::2] = 0.25 * pts + 0.75 * rolled
    return out


def _transform(points: np.ndarray, scale: float, angle: float, center) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return points @ (scale * rot.T) + np.asarray(center)


def _box(poly: np.ndarray, size: int) -> tuple:
    """(row slice, column slice) of the pixels a polygon can touch, clipped to the image.

    Rows ``floor(min y) .. floor(max y)`` and columns ``floor(min x) ..
    floor(max x)``, inclusive; empty when the polygon lies wholly outside.
    """
    (x0, y0), (x1, y1) = np.floor([poly.min(axis=0), poly.max(axis=0)]).tolist()
    r0, r1, c0, c1 = (min(max(int(v), 0), size) for v in (y0, y1 + 1, x0, x1 + 1))
    return slice(r0, r1), slice(c0, c1)


def _supersample(inside, box: tuple):
    """(mask at pixel centers, 2x2-supersampled coverage in [0, 1]) over the pixel box ``box``.

    ``inside(ys, xs)`` tests every point ``(x=xs[j], y=ys[i])`` of the
    grid over ascending ``ys`` and ``xs`` and returns its bool map. Row
    ``2r + k`` of the subsample grid lies at ``r + (0.25, 0.75)[k]``, so
    four strided views hold each pixel's four subsamples.
    """
    ys, xs = (np.arange(span.start, span.stop) for span in box)
    mask = inside(ys + 0.5, xs + 0.5)
    sub = inside(*((pixels[:, None] + (0.25, 0.75)).ravel() for pixels in (ys, xs))).view(np.uint8)
    return mask, (sub[0::2, 0::2] + sub[0::2, 1::2] + sub[1::2, 0::2] + sub[1::2, 1::2]) / 4.0


def _even_odd(edges: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Even-odd crossing test on the grid ``ys`` x ``xs``, one scanline per row.

    ``edges`` holds one column ``(x1, y1, x2, y2)`` per polygon edge. A
    point lies inside when an odd number of edges cross its row strictly
    to its right; an edge counts at a row when exactly one end lies below
    it, so horizontal edges never count.
    """
    n = len(xs)
    rows, cols = np.nonzero((edges[1] > ys[:, None]) != (edges[3] > ys[:, None]))
    x1, y1, x2, y2 = edges[:, cols]
    x_at = x1 + (ys[rows] - y1) * (x2 - x1) / (y2 - y1)
    # a crossing toggles every sample column strictly left of it
    left = np.searchsorted(xs, x_at, side="left")
    toggles = np.bincount(rows * (n + 1) + left, minlength=len(ys) * (n + 1)).reshape(len(ys), n + 1)
    return np.cumsum(toggles[:, :0:-1], axis=1)[:, ::-1] % 2 == 1


def _coverage(poly: np.ndarray, size: int):
    """(box, mask, coverage) of a polygon, the mask and coverage over its :func:`_box` only."""
    edges = np.hstack((poly, np.roll(poly, -1, axis=0))).T
    box = _box(poly, size)
    return (box, *_supersample(lambda ys, xs: _even_odd(edges, ys, xs), box))


def _ellipse_coverage(size: int):
    """Fallback shape: centered axis-aligned ellipse, over the whole image."""
    a, b = 0.30 * size, 0.20 * size
    center = size / 2.0

    def inside(ys, xs):
        return ((xs[None, :] - center) / a) ** 2 + ((ys[:, None] - center) / b) ** 2 <= 1.0

    box = (slice(0, size), slice(0, size))
    return (box, *_supersample(inside, box))


def _composite(img: np.ndarray, box: tuple, cover: np.ndarray, color: np.ndarray) -> None:
    """Blend ``color`` over ``img[box]`` in place at the box's coverage ``cover``."""
    img[box] = img[box] * (1.0 - cover[..., None]) + color * cover[..., None]


def _mask_ok(mask: np.ndarray) -> bool:
    frac = mask.mean()
    if not FG_FRACTION[0] <= frac <= FG_FRACTION[1]:
        return False
    _, n_components = ndimage.label(mask, structure=_4CONN)
    return n_components == 1


def _distinct_color(rng, references, min_dist: float = 0.45) -> np.ndarray:
    for _ in range(64):
        color = rng.uniform(0.05, 0.95, size=3)
        if all(np.abs(color - ref).sum() >= min_dist for ref in references):
            return color
    return color  # pathological reference set; keep the last draw


def _distractor_draws(rng, size: int):
    """A distractor's random values in the order they are drawn: (kind, radius, center, angle, quad spreads or None)."""
    kind = int(rng.integers(0, 3))
    radius = rng.uniform(0.08, 0.16) * size
    margin = radius + 2.0
    center = rng.uniform(margin, size - margin, size=2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    spreads = rng.uniform(0.7, 1.0, size=(4, 1)) if kind == 1 else None
    return kind, radius, center, angle, spreads


def _distractor_polygon(kind: int, radius: float, center, angle: float, spreads) -> np.ndarray:
    if kind == 0:  # triangle
        base = np.array([[1.0, 0.0], [-0.5, 0.87], [-0.5, -0.87]])
    elif kind == 1:  # quad
        base = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * spreads
    else:  # coarse ellipse
        t = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        base = np.stack([np.cos(t), 0.7 * np.sin(t)], axis=1)
    return _transform(base, radius, angle, center)


def gen_pair(seed: int, config: GenConfig = GenConfig()) -> PairSample:
    """Render one co-object image pair with exact ground-truth masks."""
    rng = seeded_rng(seed)
    size = config.image_size

    base_color = rng.uniform(0.2, 0.95, size=3)
    base_radius = 0.24 * size

    for _ in range(MAX_ATTEMPTS):
        poly = _smooth_polygon(rng)
        candidate = []
        for _branch in range(2):
            scale = rng.uniform(*OBJECT_SCALE) * base_radius
            margin = 1.05 * scale + 1.0
            center = rng.uniform(margin, size - margin, size=2)
            angle = rng.uniform(*ROTATION)
            shape = _transform(poly, scale, angle, center)
            box, inside, cover = _coverage(shape, size)
            mask = np.zeros((size, size), dtype=bool)
            mask[box] = inside
            if not _mask_ok(mask):
                break
            candidate.append((mask, box, cover, center, 1.05 * scale))
        if len(candidate) == 2:
            poses = candidate
            break
    else:  # no pose fit in MAX_ATTEMPTS draws
        box, mask, cover = _ellipse_coverage(size)
        poses = [(mask, box, cover, np.array([size / 2.0, size / 2.0]), 0.32 * size)] * 2

    images = []
    masks = []
    for mask, box, cover, obj_center, obj_radius in poses:
        bg_color = _distinct_color(rng, [base_color])
        img = np.empty((size, size, 3), dtype=np.float64)
        img[:] = bg_color

        n_distract = int(rng.integers(DISTRACTORS[0], DISTRACTORS[1] + 1))
        placed = 0
        attempts = 0
        while placed < n_distract and attempts < 8 * max(1, n_distract):
            attempts += 1
            draws = _distractor_draws(rng, size)
            _, radius_d, center_d, _, _ = draws
            if np.linalg.norm(center_d - obj_center) < radius_d + obj_radius + 2.0:
                continue  # distractors never occlude the common object; a rejected one builds no polygon
            color_d = _distinct_color(rng, [base_color, bg_color], min_dist=0.35)
            box_d, _, cover_d = _coverage(_distractor_polygon(*draws), size)
            _composite(img, box_d, cover_d, color_d)
            placed += 1

        jitter = rng.uniform(-COLOR_JITTER, COLOR_JITTER, size=3)
        _composite(img, box, cover, np.clip(base_color + jitter, 0.0, 1.0))
        img += rng.normal(0.0, NOISE_SIGMA, size=img.shape)
        images.append(np.clip(img, 0.0, 1.0).astype(np.float32))
        masks.append(mask)

    return PairSample(images[0], images[1], masks[0], masks[1])


# ---------------------------------------------------------------------------
# dataset files


def manifest_path(directory: str) -> str:
    return os.path.join(directory, "manifest.tsv")


def _pair_id(index: int) -> str:
    return f"pair_{index:04d}"


def gen_dataset(seed: int, config: GenConfig, n_pairs: int, out_dir: str) -> list:
    """Write ``n_pairs`` samples (PPM images, PGM masks) plus a manifest.

    Pair i uses seed ``seed + i``. Re-running with the same arguments
    rewrites byte-identical files. Returns the manifest rows.
    """
    check_seed(seed)  # both before the directory is made
    check_count("n_pairs", n_pairs)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create {out_dir}: {exc}") from exc
    rows = []
    for i in range(n_pairs):
        sample = gen_pair(seed + i, config)
        pair_id = _pair_id(i)
        names = (
            f"{pair_id}_imgA.ppm",
            f"{pair_id}_maskA.pgm",
            f"{pair_id}_imgB.ppm",
            f"{pair_id}_maskB.pgm",
        )
        write_image(sample.img_a, os.path.join(out_dir, names[0]))
        write_mask(sample.mask_a, os.path.join(out_dir, names[1]))
        write_image(sample.img_b, os.path.join(out_dir, names[2]))
        write_mask(sample.mask_b, os.path.join(out_dir, names[3]))
        rows.append((pair_id, *names))
    text = "".join("\t".join(row) + "\n" for row in rows)
    _atomic_write(manifest_path(out_dir), text.encode("utf-8"))
    return rows


def load_dataset(directory: str) -> list:
    """Read a generated dataset back via its manifest (UTF-8, 5 tab-separated fields per line).

    Every file field must be a plain file name: the files live in
    ``directory`` itself, so a path that is absolute, has a directory part
    or is ``.``/``..`` is a malformed manifest. A manifest that does not
    exist is ``MissingFile``; one that exists but cannot be read is
    ``IoFailure``. Every image and mask must have the first pair's size;
    a pair that does not is ``ShapeMismatch`` at its manifest line.
    """
    path = manifest_path(directory)
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[: exc.start].count(b"\n") + 1
        raise MalformedHeaderError(f"{path}:{lineno}: not UTF-8 text") from None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise MalformedHeaderError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
        pair_id, img_a, mask_a, img_b, mask_b = fields
        for name in fields[1:]:
            if name in ("", ".", "..") or name != os.path.basename(name):
                raise MalformedHeaderError(f"{path}:{lineno}: file field {name!r} is not a file name in the dataset directory")
        record = PairSample(
            img_a=read_image(os.path.join(directory, img_a)),
            img_b=read_image(os.path.join(directory, img_b)),
            mask_a=read_mask(os.path.join(directory, mask_a)),
            mask_b=read_mask(os.path.join(directory, mask_b)),
            pair_id=pair_id,
        )
        first = records[0] if records else record
        sizes = [arr.shape[:2] for arr in (first.img_a, record.img_a, record.mask_a, record.img_b, record.mask_b)]
        if len(set(sizes)) != 1:
            raise ShapeMismatchError(f"{path}:{lineno}: image and mask sizes {sizes[1:]} differ from each other or the first pair's {sizes[0]}")
        records.append(record)
    return records


def make_pairs(seed: int, config: GenConfig, n_pairs: int) -> list:
    """In-memory dataset with the same seeding scheme as :func:`gen_dataset`."""
    check_seed(seed)  # before the pair index turns a bool seed into an int
    check_count("n_pairs", n_pairs)
    return [replace(gen_pair(seed + i, config), pair_id=_pair_id(i)) for i in range(n_pairs)]
