"""Escape-time images and rasterization of scan certificates.

Escape rendering is deliberately plain floating point: figures
illustrate, certificates certify.  Pixel centers are placed with integer
offsets from the grid midline, so a grid symmetric about the real axis
negates exactly and the tricorn image is mirror-symmetric pixel for
pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import ComplexBox
from .scan import ParamCertificate, Status

__all__ = [
    "ImageBuffer",
    "PALETTE",
    "MULTIPLIER_PALETTE",
    "PARABOLIC_PALETTE",
    "render_escape",
    "rasterize_scan",
    "write_ppm",
]

# the paper's box-classification vocabulary
PALETTE = {
    Status.TRUE: (0, 255, 255),  # cyan
    Status.FALSE: (0, 200, 0),  # green
    Status.UNDETERMINED: (0, 0, 200),  # blue
}
MULTIPLIER_PALETTE = {**PALETTE, Status.UNDETERMINED: (255, 215, 0)}  # yellow
PARABOLIC_PALETTE = {**PALETTE, Status.UNDETERMINED: (200, 0, 0)}  # red

_INTERIOR = (0, 0, 0)


@dataclass
class ImageBuffer:
    """Row-major 8-bit RGB image, top row first."""

    width: int
    height: int
    pixels: bytearray

    def __post_init__(self):
        if len(self.pixels) != 3 * self.width * self.height:
            raise ValueError("pixel buffer size must be 3 * width * height")

    def pixel(self, x: int, y: int) -> tuple[int, int, int]:
        base = 3 * (y * self.width + x)
        return tuple(self.pixels[base:base + 3])


def _raster(*shape: int) -> tuple[bytearray, np.ndarray]:
    """A zeroed pixel buffer and a writable uint8 array of the given shape
    over its bytes: painting the array fills the buffer, with no copy."""
    pixels = bytearray(math.prod(shape))
    return pixels, np.frombuffer(pixels, dtype=np.uint8).reshape(shape)


def _axis_centers(lo: float, hi: float, count: int, flip: bool) -> np.ndarray:
    """Pixel-center coordinates with exactly antisymmetric offsets.

    The offset numerators are the odd integers -(count-1) .. (count-1), so
    centers of mirror-paired pixels are exact float negations of each
    other whenever lo == -hi.
    """
    mid = 0.5 * (lo + hi)
    span = hi - lo
    nums = 2 * np.arange(count, dtype=np.float64) + 1.0 - count
    if flip:
        nums = -nums
    return mid + nums * (span / (2.0 * count))


def render_escape(
    region: ComplexBox,
    width: int,
    height: int,
    maxiter: int,
    mode: str = "tricorn",
    c: complex = 0j,
) -> ImageBuffer:
    """Escape-time image of the tricorn, Mandelbrot, or a Julia set.

    A point escapes at the first iterate with |z| > 2; points that never
    do within maxiter are interior (black).  Escaped pixels shade from
    blue by the escape iteration.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if mode not in ("tricorn", "mandelbrot", "julia"):
        raise ValueError(f"unknown render mode: {mode}")
    xs = _axis_centers(region.re.lo, region.re.hi, width, flip=False)
    ys = _axis_centers(region.im.lo, region.im.hi, height, flip=True)
    # the pixels in row-major order; the square of z is taken in real
    # arithmetic, (x^2 - y^2, 2xy), conjugated for the tricorn, whose bits
    # do not follow numpy's CPU dispatch as a complex power's may
    x, y = np.tile(xs, height), np.repeat(ys, width)
    if mode == "julia":
        px, py = np.full_like(x, c.real), np.full_like(y, c.imag)
    else:
        px, py = x, y
    twice = -2.0 if mode == "tricorn" else 2.0
    escape = np.zeros(x.size, dtype=np.int32)
    index = np.arange(x.size)
    for k in range(1, maxiter + 1):
        x, y = x * x - y * y + px, twice * x * y + py
        escaped = np.hypot(x, y) > 2.0
        if escaped.any():
            escape[index[escaped]] = k
            keep = ~escaped
            x, y, px, py, index = x[keep], y[keep], px[keep], py[keep], index[keep]
            if index.size == 0:
                break
    shade = np.minimum(255, (escape.astype(np.int64) * 255) // maxiter)
    pixels, rgb = _raster(escape.size, 3)
    hit = escape > 0
    rgb[hit, 0] = shade[hit]
    rgb[hit, 1] = shade[hit]
    rgb[hit, 2] = 255
    rgb[~hit] = _INTERIOR
    return ImageBuffer(width, height, pixels)


def rasterize_scan(
    cert: ParamCertificate,
    palette: dict[Status, tuple[int, int, int]],
    width: int,
    height: int,
) -> ImageBuffer:
    """Paint each pixel with the color of the leaf ParamCertificate.leaf_at
    returns for its center: the deepest leaf whose closed box contains the
    center, the first in certificate order among those.  So a center on an
    edge shared by leaves of one depth takes the color of the earlier leaf.

    A leaf covers the pixel columns whose center lies in [re.lo, re.hi]
    and the rows whose center lies in [im.lo, im.hi].  np.searchsorted
    finds these ranges for all leaves at once on the monotone center axes.
    Leaves are painted shallow first, and within a depth in reverse
    certificate order, so the leaf that leaf_at picks is painted last."""
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    xs = _axis_centers(cert.root.re.lo, cert.root.re.hi, width, flip=False)
    # ascending: image row j has the center ys[height - 1 - j]
    ys = _axis_centers(cert.root.im.lo, cert.root.im.hi, height, flip=True)[::-1]
    (a, b), (c, d) = cert.boxes.re, cert.boxes.im
    col_lo, col_hi = np.searchsorted(xs, a, "left"), np.searchsorted(xs, b, "right")
    row_lo = height - np.searchsorted(ys, d, "right")
    row_hi = height - np.searchsorted(ys, c, "left")
    order = np.lexsort((-np.arange(len(cert.depth)), cert.depth))
    colors = {status.value: np.array(color, dtype=np.uint8) for status, color in palette.items()}
    pixels, rgb = _raster(height, width, 3)
    for status, r0, r1, c0, c1 in zip(*(v[order].tolist()
                                        for v in (cert.status, row_lo, row_hi, col_lo, col_hi))):
        rgb[r0:r1, c0:c1] = colors[status]
    return ImageBuffer(width, height, pixels)


class _Written(int):
    """The number of bytes that write_ppm wrote to a sink, which len() reads
    as it reads the length of the bytes returned without one."""

    __slots__ = ()

    def __len__(self) -> int:
        return int(self)


def write_ppm(img: ImageBuffer, sink=None):
    """Binary portable pixmap: P6, dimensions, 255, raw RGB.  Without a sink,
    returns its bytes.  With one, writes the header and then the pixel
    buffer, never joining them into a copy as large as the raster, and
    returns the number of bytes written."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    if sink is None:
        return header + img.pixels
    sink.write(header)
    sink.write(img.pixels)
    return _Written(len(header) + len(img.pixels))
