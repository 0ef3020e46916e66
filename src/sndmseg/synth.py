"""Deterministic synthetic co-object image pairs.

Each sample renders one shared object — a random smoothed polygon — into
two images under independent similarity transforms (scale, rotation,
translation) with a shared base color plus per-image jitter. Each image
additionally gets its own distractor shapes, differing between the two
images in both shape and color, over a noisy solid background. Ground
truth masks mark exactly the pixels whose centers fall inside the common
object's polygon: image colors are rendered with 2x2 supersampled
anti-aliasing, masks are crisp.

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

from .errors import InvalidConfigError, IoFailureError, MissingFileError
from .raster import _atomic_write, read_image, read_mask, write_image, write_mask

FG_FRACTION = (0.02, 0.6)
MAX_ATTEMPTS = 32
_4CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class GenConfig:
    image_size: int = 64
    distractors: tuple = (0, 3)
    object_scale: tuple = (0.7, 1.3)
    rotation: tuple = (0.0, 2.0 * np.pi)
    color_jitter: float = 0.1
    noise_sigma: float = 0.02

    def validate(self) -> "GenConfig":
        if self.image_size < 16:
            raise InvalidConfigError(f"image_size must be >= 16, got {self.image_size}")
        for name in ("distractors", "object_scale", "rotation"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidConfigError(f"{name} range {lo}..{hi} is not well-ordered")
        if self.distractors[0] < 0:
            raise InvalidConfigError("distractor count cannot be negative")
        if self.color_jitter < 0 or self.noise_sigma < 0:
            raise InvalidConfigError("jitter and noise amplitudes must be nonnegative")
        return self


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


def _smooth_polygon(rng, n_lo: int = 8, n_hi: int = 12) -> np.ndarray:
    """Star-shaped polygon around the origin, corner-cut once for smoothness."""
    n = int(rng.integers(n_lo, n_hi + 1))
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


def _point_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over flat point arrays."""
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # (points, edges)
    crosses = (y1[None, :] > py[:, None]) != (y2[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1[None, :] + (py[:, None] - y1[None, :]) * (x2 - x1)[None, :] / (y2 - y1)[None, :]
    hits = crosses & (px[:, None] < x_at)
    return hits.sum(axis=1) % 2 == 1


def _coverage(poly: np.ndarray, size: int):
    """(mask at pixel centers, 2x2-supersampled coverage in [0, 1])."""
    centers = np.arange(size) + 0.5
    cx, cy = np.meshgrid(centers, centers)
    mask = _point_in_polygon(cx.ravel(), cy.ravel(), poly).reshape(size, size)
    cover = np.zeros((size, size), dtype=np.float64)
    for ox in (0.25, 0.75):
        for oy in (0.25, 0.75):
            sx = np.arange(size) + ox
            sy = np.arange(size) + oy
            gx, gy = np.meshgrid(sx, sy)
            cover += _point_in_polygon(gx.ravel(), gy.ravel(), poly).reshape(size, size)
    return mask, cover / 4.0


def _ellipse_coverage(size: int):
    """Fallback shape: centered axis-aligned ellipse."""
    a, b = 0.30 * size, 0.20 * size
    cx = cy = size / 2.0
    centers = np.arange(size) + 0.5

    def inside(xs, ys):
        gx, gy = np.meshgrid(xs, ys)
        return ((gx - cx) / a) ** 2 + ((gy - cy) / b) ** 2 <= 1.0

    mask = inside(centers, centers)
    cover = np.zeros((size, size), dtype=np.float64)
    for ox in (0.25, 0.75):
        for oy in (0.25, 0.75):
            cover += inside(np.arange(size) + ox, np.arange(size) + oy)
    return mask, cover / 4.0


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


def _distractor_polygon(rng, size: int):
    kind = int(rng.integers(0, 3))
    radius = rng.uniform(0.08, 0.16) * size
    margin = radius + 2.0
    center = rng.uniform(margin, size - margin, size=2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    if kind == 0:  # triangle
        base = np.array([[1.0, 0.0], [-0.5, 0.87], [-0.5, -0.87]])
    elif kind == 1:  # quad
        base = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * rng.uniform(0.7, 1.0, size=(4, 1))
    else:  # coarse ellipse
        t = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        base = np.stack([np.cos(t), 0.7 * np.sin(t)], axis=1)
    return _transform(base, radius, angle, center), center, radius


def gen_pair(seed: int, config: GenConfig = GenConfig()) -> PairSample:
    """Render one co-object image pair with exact ground-truth masks."""
    cfg = config.validate()
    rng = np.random.Generator(np.random.Philox(np.uint64(seed)))
    size = cfg.image_size

    base_color = rng.uniform(0.2, 0.95, size=3)
    base_radius = 0.24 * size

    shared = None
    poses = None
    for _ in range(MAX_ATTEMPTS):
        poly = _smooth_polygon(rng)
        candidate = []
        for _branch in range(2):
            scale = rng.uniform(*cfg.object_scale) * base_radius
            margin = 1.05 * scale + 1.0
            if size - margin <= margin:
                break
            center = rng.uniform(margin, size - margin, size=2)
            angle = rng.uniform(*cfg.rotation) if cfg.rotation[1] > cfg.rotation[0] else cfg.rotation[0]
            shape = _transform(poly, scale, angle, center)
            mask, cover = _coverage(shape, size)
            if not _mask_ok(mask):
                break
            candidate.append((mask, cover, center, 1.05 * scale))
        if len(candidate) == 2:
            shared = poly
            poses = candidate
            break
    if poses is None:
        mask, cover = _ellipse_coverage(size)
        poses = [(mask, cover, np.array([size / 2.0, size / 2.0]), 0.32 * size)] * 2

    images = []
    masks = []
    for mask, cover, obj_center, obj_radius in poses:
        bg_color = _distinct_color(rng, [base_color])
        img = np.empty((size, size, 3), dtype=np.float64)
        img[:] = bg_color

        n_distract = int(rng.integers(cfg.distractors[0], cfg.distractors[1] + 1))
        placed = 0
        attempts = 0
        while placed < n_distract and attempts < 8 * max(1, n_distract):
            attempts += 1
            poly_d, center_d, radius_d = _distractor_polygon(rng, size)
            if np.linalg.norm(center_d - obj_center) < radius_d + obj_radius + 2.0:
                continue  # distractors never occlude the common object
            color_d = _distinct_color(rng, [base_color, bg_color], min_dist=0.35)
            _, cover_d = _coverage(poly_d, size)
            img = img * (1.0 - cover_d[..., None]) + color_d * cover_d[..., None]
            placed += 1

        jitter = rng.uniform(-cfg.color_jitter, cfg.color_jitter, size=3)
        obj_color = np.clip(base_color + jitter, 0.0, 1.0)
        img = img * (1.0 - cover[..., None]) + obj_color * cover[..., None]
        img += rng.normal(0.0, cfg.noise_sigma, size=img.shape)
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
    cfg = config.validate()
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create {out_dir}: {exc}") from exc
    rows = []
    for i in range(n_pairs):
        sample = gen_pair(seed + i, cfg)
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
    """Read a generated dataset back via its manifest."""
    path = manifest_path(directory)
    if not os.path.isfile(path):
        raise MissingFileError(f"no manifest at {path}")
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            pair_id, img_a, mask_a, img_b, mask_b = line.split("\t")
            records.append(
                PairSample(
                    img_a=read_image(os.path.join(directory, img_a)),
                    img_b=read_image(os.path.join(directory, img_b)),
                    mask_a=read_mask(os.path.join(directory, mask_a)),
                    mask_b=read_mask(os.path.join(directory, mask_b)),
                    pair_id=pair_id,
                )
            )
    return records


def make_pairs(seed: int, config: GenConfig, n_pairs: int) -> list:
    """In-memory dataset with the same seeding scheme as :func:`gen_dataset`."""
    return [replace(gen_pair(seed + i, config), pair_id=_pair_id(i)) for i in range(n_pairs)]
