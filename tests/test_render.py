"""Escape-time rendering, scan rasterization, and the P6 format."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tricert
from tricert.intervals import ComplexBox, Interval
from tricert.render import (
    MULTIPLIER_PALETTE,
    PALETTE,
    ImageBuffer,
    _axis_centers,
    rasterize_scan,
    render_escape,
    write_ppm,
)
from tricert.scan import Leaf, ParamCertificate, adaptive_scan
from tricert.verify import ClaimResult, Status

SQUARE = ComplexBox(Interval(-2.0, 2.0), Interval(-2.0, 2.0))


def _read_ppm(data: bytes):
    """Minimal independent P6 reader: header tokens then raw RGB."""
    assert data.startswith(b"P6")
    parts = data.split(b"\n", 3)
    magic, dims, maxval, pixels = parts
    w, h = (int(tok) for tok in dims.split())
    assert maxval == b"255"
    assert len(pixels) == 3 * w * h
    return w, h, pixels


class TestPPM:
    def test_single_white_pixel(self):
        img = ImageBuffer(1, 1, bytearray(b"\xff\xff\xff"))
        assert write_ppm(img) == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_byte_length(self):
        img = ImageBuffer(5, 3, bytearray(45))
        data = write_ppm(img)
        assert len(data) == len(b"P6\n5 3\n255\n") + 45

    def test_sink_receives_identical_bytes(self):
        img = ImageBuffer(2, 2, bytearray(range(12)))
        sink = io.BytesIO()
        written = write_ppm(img, sink)
        assert sink.getvalue() == write_ppm(img)
        assert written == len(written) == len(write_ppm(img))

    def test_round_trip_through_reference_reader(self):
        img = render_escape(SQUARE, 16, 16, 30)
        w, h, pixels = _read_ppm(write_ppm(img))
        assert (w, h) == (16, 16)
        assert pixels == bytes(img.pixels)

    def test_buffer_size_checked(self):
        with pytest.raises(ValueError):
            ImageBuffer(2, 2, bytearray(5))


class TestEscape:
    def test_mirror_symmetry(self):
        img = render_escape(SQUARE, 64, 64, 60)
        for y in range(32):
            for x in range(64):
                assert img.pixel(x, y) == img.pixel(x, 63 - y)

    def test_origin_is_interior(self):
        # odd dimensions put a pixel center exactly at 0
        img = render_escape(SQUARE, 33, 33, 100)
        assert img.pixel(16, 16) == (0, 0, 0)

    def test_far_pixels_escape_fast(self):
        region = ComplexBox(Interval(2.9, 3.1), Interval(-0.1, 0.1))
        img = render_escape(region, 4, 4, 50)
        for y in range(4):
            for x in range(4):
                r, g, b = img.pixel(x, y)
                assert b == 255  # escaped shade, never interior black

    def test_julia_basilica_interior(self):
        # superattracting 2-cycle of z^2 - 1: both 0 and -1 are interior
        for center in (0j, -1 + 0j):
            region = ComplexBox.around(center, 0.01)
            img = render_escape(region, 3, 3, 300, mode="julia", c=-1 + 0j)
            assert img.pixel(1, 1) == (0, 0, 0)

    def test_mandelbrot_mode_differs_from_tricorn(self):
        region = ComplexBox(Interval(-2.0, 0.5), Interval(-1.25, 1.25))
        a = render_escape(region, 32, 32, 60, mode="mandelbrot")
        b = render_escape(region, 32, 32, 60, mode="tricorn")
        assert bytes(a.pixels) != bytes(b.pixels)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            render_escape(SQUARE, 0, 4, 10)
        with pytest.raises(ValueError):
            render_escape(SQUARE, 4, 4, 0)
        with pytest.raises(ValueError):
            render_escape(SQUARE, 4, 4, 10, mode="nova")


_RENDER_BYTES = """
import hashlib
from tricert.intervals import ComplexBox, Interval
from tricert.render import render_escape
box = ComplexBox(Interval(-2.0, 2.0), Interval(-2.0, 2.0))
for mode, size in (("tricorn", 256), ("mandelbrot", 200), ("julia", 64)):
    img = render_escape(box, size, size, 500, mode, -0.75 + 0.125j)
    print(hashlib.sha256(bytes(img.pixels)).hexdigest())
"""


def test_render_does_not_depend_on_numpy_dispatch():
    # NPY_ENABLE_CPU_FEATURES=X86_V2 turns off numpy's dispatched AVX2 and
    # AVX-512 loops, under which the complex products np.conj(z) ** 2 and
    # z * z took other last bits: the tricorn and mandelbrot renders below
    # had other bytes under each.  render_escape squares in real
    # arithmetic, and its bytes are the same under both
    src = str(Path(tricert.__file__).resolve().parents[1])
    outputs = set()
    for features in (None, "X86_V2"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if features:
            env["NPY_ENABLE_CPU_FEATURES"] = features
        run = subprocess.run([sys.executable, "-c", _RENDER_BYTES], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        outputs.add(run.stdout)
    [output] = outputs
    assert len(set(output.split())) == 3


class _PerBox:
    """Base of the synthetic claims, which evaluate one box at a time and
    seed nothing: evaluate_level maps evaluate(box, None) -> (result, None)
    over the rows of a level, to arrays of status letters and efforts."""

    def evaluate_level(self, boxes, seeds):
        results = [self.evaluate(box, None)[0] for box in boxes.boxes()]
        return (np.array([r.status.value for r in results], dtype="<U1"),
                np.array([r.effort for r in results], dtype=np.int64), None)


class _QuadrantClaim(_PerBox):
    """TRUE in the lower-left quadrant at depth 1, FALSE elsewhere."""

    name = "synthetic-quadrant"

    def config(self):
        return {}

    def initial_seed(self, rect):
        return None

    def evaluate(self, box, seed):
        if box.width() > 0.5001:
            return ClaimResult(Status.UNDETERMINED), None
        m = box.midpoint()
        status = Status.TRUE if (m.real < 0.5 and m.imag < 0.5) else Status.FALSE
        return ClaimResult(status), None


class TestRasterize:
    UNIT = ComplexBox(Interval(0.0, 1.0), Interval(0.0, 1.0))

    def test_uniform_tree(self):
        leaf = Leaf(0, self.UNIT, Status.TRUE)
        tree = ParamCertificate.of("synthetic", self.UNIT, {}, [leaf])
        img = rasterize_scan(tree, PALETTE, 8, 8)
        cyan = PALETTE[Status.TRUE]
        for y in range(8):
            for x in range(8):
                assert img.pixel(x, y) == cyan

    def test_pixels_match_leaf_lookup(self):
        tree = adaptive_scan(self.UNIT, _QuadrantClaim(), 1)
        img = rasterize_scan(tree, PALETTE, 16, 16)
        for y in range(16):
            for x in range(16):
                cx = (2 * x + 1 - 16) * (1.0 / 32.0) + 0.5
                cy = 0.5 - (2 * y + 1 - 16) * (1.0 / 32.0)
                expected = PALETTE[tree.leaf_at(complex(cx, cy)).status]
                assert img.pixel(x, y) == expected


def _scalar_rasterize_scan(cert, palette, width, height):
    """rasterize_scan leaf by leaf: each leaf's pixel rows and columns found
    by comparing every center with its box, painted shallow first and
    within a depth in reverse certificate order."""
    xs = _axis_centers(cert.root.re.lo, cert.root.re.hi, width, flip=False)
    ys = _axis_centers(cert.root.im.lo, cert.root.im.hi, height, flip=True)
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    leaves = cert.leaves
    order = sorted(range(len(leaves)), key=lambda i: (leaves[i].depth, -i))
    for i in order:
        leaf = leaves[i]
        cols = np.nonzero((xs >= leaf.box.re.lo) & (xs <= leaf.box.re.hi))[0]
        rows = np.nonzero((ys >= leaf.box.im.lo) & (ys <= leaf.box.im.hi))[0]
        if cols.size and rows.size:
            rgb[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1] = palette[leaf.status]
    return ImageBuffer(width, height, bytearray(rgb.tobytes()))


@st.composite
def _certificates(draw):
    """A random quadtree certificate (random splits to depth 5 and random
    statuses, in quadtree order or shuffled) with an image size.  On a
    dyadic root of width * 2^k by height * 2^k the pixel centers are
    exact, and a width (height) of 2-adic order v puts centers on the
    vertical (horizontal) edges that the splits of depth v + 1 make, so
    centers fall on edges shared by leaves.  Leaves smaller than a pixel
    may hold no center."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        re0, im0 = draw(st.integers(-8, 8)) * 2.0 ** k, draw(st.integers(-8, 8)) * 2.0 ** k
        root = ComplexBox(Interval(re0, re0 + width * 2.0 ** k),
                          Interval(im0, im0 + height * 2.0 ** k))
    else:
        corners = st.floats(-4.0, 4.0, allow_subnormal=False)
        a, b, c, d = (draw(corners) for _ in range(4))
        if a == b or c == d:
            b, d = a + 1.0, c + 0.5
        root = ComplexBox(Interval(min(a, b), max(a, b)), Interval(min(c, d), max(c, d)))
    leaves = []

    def grow(box, depth):
        if depth < 5 and draw(st.integers(0, 2)) == 0:
            for child in box.quarter():
                grow(child, depth + 1)
        else:
            leaves.append(Leaf(depth, box, draw(st.sampled_from(list(Status)))))

    grow(root, 0)
    if draw(st.booleans()):
        leaves = draw(st.permutations(leaves))
    return ParamCertificate.of("synthetic", root, {}, leaves), width, height


def _quadrants(box, depth, statuses):
    return [Leaf(depth, b, s) for b, s in zip(box.quarter(), statuses)]


_T, _F, _U = Status.TRUE, Status.FALSE, Status.UNDETERMINED
_UNIT = TestRasterize.UNIT
# the center of a 1x1 image is the corner of all four quadrants, and odd
# sizes put centers on the midlines
_TIES = ParamCertificate.of("synthetic", _UNIT, {}, _quadrants(_UNIT, 1, (_T, _F, _U, _F)))
# the SW quadrant split again: only its NE leaf holds the 1x1 center, which
# it shares with the three shallower quadrants
_DEEP_CORNER = ParamCertificate.of(
    "synthetic", _UNIT, {},
    _quadrants(_UNIT.quarter()[0], 2, (_U, _T, _F, _T)) + _quadrants(_UNIT, 1, (_U, _F, _U, _F))[1:])


@settings(max_examples=300, deadline=None)
@given(_certificates())
@example((_TIES, 1, 1))
@example((_TIES, 3, 5))
@example((_DEEP_CORNER, 1, 1))
@example((_DEEP_CORNER, 4, 4))
def test_rasterize_matches_scalar_painter(drawn):
    """The image bytes equal those of the leaf-by-leaf painter."""
    cert, width, height = drawn
    for palette in (PALETTE, MULTIPLIER_PALETTE):
        ours = rasterize_scan(cert, palette, width, height)
        theirs = _scalar_rasterize_scan(cert, palette, width, height)
        assert bytes(ours.pixels) == bytes(theirs.pixels)
