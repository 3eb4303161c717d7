"""Parameter-space predicates: boundary tests, counting, cycle claims."""

import dataclasses
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mpc, mpf, workdps

import scalar
from tricert import dynamics, scan, verify
from tricert.cli import PAPER_R, PAPER_U, PAPER_X_REGION, _parse_rect
from tricert.dynamics import (
    conj_holomorphic_form,
    even_iterate,
    float_iterate,
    multiplier_rows,
)
from tricert.intervals import (
    BoxArray,
    ComplexBox,
    EmptyIntervalError,
    Interval,
)
from tricert.scan import Leaf, ParamCertificate, adaptive_scan
from tricert.verify import (
    BoundaryDisjointClaim,
    ClaimResult,
    FixedPointCountClaim,
    MultiplierNonRealClaim,
    ParabolicExclusionClaim,
    Status,
    boundary_disjoint,
    boundary_disjoint_level,
    component_witnesses,
    count_zeros,
    disjointness_certificate,
    find_superattracting_parameter,
    float_orbit_of_zero,
    preimage_count,
    qlike_certificate,
    tracked_cycle_level,
)

R_RECT = ComplexBox(Interval(-1.73875, -1.73825), Interval(0.01555, 0.01605))
U_RECT = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))


def _orbit_boxes(lo, hi) -> list[ComplexBox]:
    """The orbit boxes of one (2p,) endpoint row."""
    return BoxArray((lo[0::2], hi[0::2]), (lo[1::2], hi[1::2])).boxes()


def _results(status, effort, *_) -> list[ClaimResult]:
    """The status and effort arrays of a level's evaluation as ClaimResults."""
    return [ClaimResult(Status(s), e) for s, e in zip(status.tolist(), effort.tolist())]


def _nonreal(c: ComplexBox, orbit, region: ComplexBox | None = None) -> ClaimResult:
    """MultiplierNonRealClaim's result for one box, seeded with the orbit."""
    [result] = _results(*MultiplierNonRealClaim(region).evaluate_level(BoxArray.of([c]), [orbit]))
    return result


def _poly_fn(roots):
    """fn of count_zeros for prod (z - r) over the given roots (at least
    one): the (val, der) boxes of each row, whatever its parameter."""

    def val(z: BoxArray) -> BoxArray:
        acc = z - ComplexBox.point(roots[0])
        for r in roots[1:]:
            acc = acc * (z - ComplexBox.point(r))
        return acc

    def der(z: BoxArray) -> BoxArray:
        total = z.scale(0.0)
        for skip in range(len(roots)):
            acc = total + ComplexBox.point(1 + 0j)
            for j, r in enumerate(roots):
                if j != skip:
                    acc = acc * (z - ComplexBox.point(r))
            total = total + acc
        return total

    return lambda c, z: (val(z), der(z))


_UNIT = ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
_ORIGIN = BoxArray.of([ComplexBox.point(0j)])


def _poly_count(roots, region=_UNIT, depth=14) -> int:
    """The count_zeros count of the polynomial's roots in the region."""
    [k] = count_zeros(_poly_fn(roots), _ORIGIN, region, depth).count.tolist()
    return k


def _mp_f(c, z):
    """f_c(z) = conj(z)^2 + c on mpmath.iv complex intervals."""
    return iv.mpc(z.real, -z.imag) ** 2 + c


def _mp_fixed(c, z):
    """f_c^6(z) - z, the function whose zeros FixedPointCountClaim counts."""
    w = z
    for _ in range(6):
        w = _mp_f(c, w)
    return w - z


def _mp_preimage(c, z, w=0.1 - 0.05j):
    """H(z) - conj(w) for f_c^3 = conj H, as preimage_count forms it."""
    return _mp_f(c, _mp_f(c, z)) ** 2 + iv.mpc(c.real, -c.imag) - iv.mpc(w.real, -w.imag)


def _mp_fixed_der(c, z):
    """The derivative (f_c^6)'(z) - 1 of _mp_fixed, along the second
    iterates w: (f_c^2)'(w) = 4 w (w^2 + conj(c))."""
    cbar, d = iv.mpc(c.real, -c.imag), 1
    for _ in range(3):
        s = z ** 2 + cbar
        d, z = d * 4 * z * s, s ** 2 + c
    return d - 1


def _mp_preimage_der(c, z):
    """The derivative H'(z) = 2 f_c^2(z) (f_c^2)'(z) of _mp_preimage."""
    s = z ** 2 + iv.mpc(c.real, -c.imag)
    return 2 * (s ** 2 + c) * 4 * z * s


# kind: (fn of count_zeros, its value and derivative in mpmath.iv, region)
_ZERO_FNS = {
    "fixed-point": (verify._fixed_points(6), _mp_fixed, _mp_fixed_der, PAPER_X_REGION),
    "preimage": (lambda c, z: (lambda v, d: (v - ComplexBox.point(0.1 + 0.05j), d))(
        *conj_holomorphic_form(c, z, 3)), _mp_preimage, _mp_preimage_der, U_RECT),
}


@pytest.mark.parametrize("kind", list(_ZERO_FNS))
@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-6, 1.25e-4)),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from((1e-4, 1e-3, 1e-2)),
       st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
                min_size=4, max_size=4))
def test_krawczyk_image_holds_the_newton_points(kind, u, v, radius, x, y, width, at):
    """Oracle: for c and z sampled in random boxes C and Z, the Newton point
    z - y g(c, z), and for each corner and edge midpoint z of Z the point
    m - y g(c, m) + (1 - y g'(c, z)) (z - m) of the Krawczyk form, with g
    and g' evaluated in mpmath.iv at 60 digits, lie in the image K(Z) of
    verify._zero_image, for the fixed-point and preimage functions of the
    two counts.  At the corners z - m is widest, so the contraction term
    (1 - y der(C, Z)) (Z - m) of K(Z) must reach about as far as its exact
    range there."""
    fn, exact, slope, region = _ZERO_FNS[kind]
    cbox = ComplexBox.around(complex(PAPER_R.re.lo + u * PAPER_R.re.width(),
                                     PAPER_R.im.lo + v * PAPER_R.im.width()), radius)
    zbox = ComplexBox.around(complex(region.re.lo + x * region.re.width(),
                                     region.im.lo + y * region.im.width()), width)
    image, [pre] = verify._zero_image(fn, BoxArray.of([cbox]), BoxArray.of([zbox]))
    assume(image.finite()[0])
    [k] = image.boxes()

    def point(box: ComplexBox, s: float, t: float) -> complex:
        re, im = box.re, box.im
        return complex(min(re.hi, re.lo + s * (re.hi - re.lo)), min(im.hi, im.lo + t * (im.hi - im.lo)))

    def held(value):
        assert value.real in iv.mpf([k.re.lo, k.re.hi])
        assert value.imag in iv.mpf([k.im.lo, k.im.hi])

    c, z = point(cbox, *at[:2]), point(zbox, *at[2:])
    m = zbox.midpoint()
    with workdps(60):
        saved, iv.dps = iv.dps, 60
        try:
            y, cv, zv, mv = (iv.mpc(w.real, w.imag) for w in (pre, c, z, m))
            held(zv - y * exact(cv, zv))
            center = mv - y * exact(cv, mv)
            for s, t in ((0, 0), (0, 1), (1, 0), (1, 1), (0.5, 0), (0.5, 1), (0, 0.5), (1, 0.5)):
                edge = point(zbox, s, t)
                ev = iv.mpc(edge.real, edge.imag)
                held(center + (1 - y * slope(cv, ev)) * (ev - mv))
        finally:
            iv.dps = saved


# a root coordinate in the plane, or exactly on the line of an edge
_ROOT_COORD = st.one_of(st.floats(-1.6, 1.6), st.sampled_from((-1.0, 0.0, 1.0)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(complex, _ROOT_COORD, _ROOT_COORD), min_size=1, max_size=4),
       st.sampled_from((0, 3, 8)))
@example([1.0 + 0.5j, 0.25j], 8)  # a root on an edge
@example([0.5j, 0.5j], 8)  # a double root
def test_polynomial_counts_are_never_wrong(roots, depth):
    # decided or not, a count is never wrong: where it is decided it is
    # the number of roots in the closed square, each simple
    k = _poly_count(roots, depth=depth)
    inside = [r for r in roots if _UNIT.contains(r)]
    assert k == -1 or (k == len(inside) and len(set(inside)) == len(inside))


@pytest.mark.parametrize("roots, count", [
    ([0.3 + 0.2j, -0.5 - 0.5j], 2),  # inside
    ([1.5 + 0.2j, 0.3j, -4.0 - 1.2j], 1),  # outside but one
    ([10.0, 10j], 0),  # far outside
    ([1.001 + 0.5j, -0.25j], 1),  # just off an edge
    ([0.999 + 0.5j, -0.999 - 0.999j], 2),  # just inside an edge and a corner
    ([1.0 + 0.5j], -1),  # on an edge
    ([0j, 0j], -1),  # z^2: a double root
    ([0.5, 0.5, -0.5], -1),  # a double root beside a simple one
])
def test_polynomial_roots_inside_outside_and_near_the_edge(roots, count):
    assert _poly_count(roots, depth=16) == count


def test_overflow_is_undetermined():
    # f^2 overflows on the region's one cell: Undetermined at once, with no
    # further splitting, not a raise
    far = ComplexBox(Interval(1e80, 2e80), Interval(1e80, 2e80))
    found = count_zeros(verify._fixed_points(2), _ORIGIN, far, 10)
    assert found.count.tolist() == [-1] and found.effort.tolist() == [1]


# parameter boxes whose counts over PAPER_X_REGION fail: on the first
# f^6(z) - z holds 0 on every cell, until a row would hold more than
# _ROW_CAP cells; on the second f^6 overflows (as over the region of
# test_overflow_is_undetermined)
_WIDE_C = ComplexBox(Interval(-4.0, 4.0), Interval(-4.0, 4.0))
_FAR_C = ComplexBox(Interval(1e80, 2e80), Interval(1e80, 2e80))


def _scalar_image(n: int, c: ComplexBox, z: ComplexBox, y: complex) -> ComplexBox:
    """The Krawczyk image K(Z) of verify._zero_image for f_c^n(z) - z, in the
    scalar arithmetic, with the kernel's float y."""
    c, z, point = scalar.box(c), scalar.box(z), scalar.ComplexBox.point
    one, m = point(1 + 0j), point(complex(z.re.midpoint(), z.im.midpoint()))
    val, _ = scalar.even_iterate(c, m, n)
    _, der = scalar.even_iterate(c, z, n)
    return m - point(y) * (val - m) + (one - point(y) * (der - one)) * (z - m)


def _box_hex(box: ComplexBox):
    return tuple(x.hex() for x in (box.re.lo, box.re.hi, box.im.lo, box.im.hi))


def test_count_level_matches_scalar_oracle_box_by_box():
    # one count for the level; each box as it counts alone, where the two
    # failing boxes are Undetermined and leave the others alone, and each
    # counted Krawczyk box's image as the scalar arithmetic forms it
    q = PAPER_R.quarter()
    boxes = [q[0], _WIDE_C, q[3], _FAR_C, q[1]]
    fn = verify._fixed_points(6)
    level = count_zeros(fn, BoxArray.of(boxes), PAPER_X_REGION, 8)
    alone = [count_zeros(fn, BoxArray.of([box]), PAPER_X_REGION, 8) for box in boxes]
    assert level.count.tolist() == [1, -1, 1, -1, 1]
    assert level.effort.tolist() == [found.effort[0] for found in alone]
    assert level.owner.tolist() == [0, 2, 4]
    for row, z, k in zip(level.owner.tolist(), level.boxes.boxes(), level.images.boxes()):
        [y] = verify._zero_image(fn, BoxArray.of([boxes[row]]), BoxArray.of([z]))[1]
        assert _box_hex(_scalar_image(6, boxes[row], z, y)) == _box_hex(k)
        assert z.strictly_contains(k) and PAPER_X_REGION.contains_box(k)
        [solo] = alone[row].images.boxes()
        assert _box_hex(solo) == _box_hex(k)
    status, effort, seeds = FixedPointCountClaim(PAPER_X_REGION, 6, contour_depth=8).evaluate_level(
        BoxArray.of(boxes), None)
    assert status.tolist() == ["T", "U", "T", "U", "T"]
    assert effort.tolist() == level.effort.tolist()
    assert seeds is None


def test_count_level_does_not_depend_on_the_batch(monkeypatch):
    # the 4 depth-1 boxes of PAPER_R in one batch, box by box, and in
    # batches of 3 and 1: the same results, and every evaluation counted
    claim = FixedPointCountClaim(PAPER_X_REGION, 6)
    boxes = list(PAPER_R.quarter())
    alone = [_results(*claim.evaluate_level(BoxArray.of([box]), None))[0] for box in boxes]
    rows = []

    def spy(c, z, n):
        rows.append(len(z))
        return even_iterate(c, z, n)

    monkeypatch.setattr(verify, "even_iterate", spy)
    level = _results(*claim.evaluate_level(BoxArray.of(boxes), None))
    assert sum(rows) == sum(r.effort for r in level) == 254
    batched = []
    for size in (3, 1):
        monkeypatch.setattr(verify, "_COUNT_ROWS", size)
        batched.append(_results(*claim.evaluate_level(BoxArray.of(boxes), None)))
    assert level == alone == batched[0] == batched[1]
    assert [r.status for r in level] == [Status.TRUE] * 4


def test_count_level_live_rows_are_bounded(monkeypatch):
    # no row holds more than _ROW_CAP live cells: the paper's boxes count
    # as before, a box whose cells all survive is Undetermined once it
    # would pass the cap, and fn sees at most _ROW_CAP rows a box
    claim = FixedPointCountClaim(PAPER_X_REGION, 6, contour_depth=6)
    boxes = BoxArray.of([*PAPER_R.quarter(), _WIDE_C])
    rows = []

    def spy(c, z, n):
        rows.append(len(z))
        return even_iterate(c, z, n)

    monkeypatch.setattr(verify, "even_iterate", spy)
    monkeypatch.setattr(verify, "_ROW_CAP", 64)
    capped = _results(*claim.evaluate_level(boxes, None))
    assert max(rows) <= 64 * len(boxes)
    rows.clear()
    monkeypatch.setattr(verify, "_ROW_CAP", 1 << 20)
    uncapped = _results(*claim.evaluate_level(boxes, None))
    assert max(rows) > 64 * len(boxes)
    assert capped[:4] == uncapped[:4]
    assert [r.status for r in capped] == [r.status for r in uncapped] == [Status.TRUE] * 4 + [
        Status.UNDETERMINED]
    assert capped[4].effort < uncapped[4].effort


# the count at verify-count's settings and the qlike anchor's preimage
# count, with every count_zeros result they form: the digest of the
# certificate, its efforts, and each result's counts, efforts, Krawczyk
# boxes and images
_COUNT_BITS = """
import hashlib, sys
import numpy as np
from tricert import verify
from tricert.cli import PAPER_N, PAPER_R, PAPER_U, PAPER_X_REGION
from tricert.intervals import ComplexBox
from tricert.scan import adaptive_scan, serialize
found, count_zeros = [], verify.count_zeros
verify.count_zeros = lambda *args: found.append(count_zeros(*args)) or found[-1]
cert = adaptive_scan(PAPER_R, verify.FixedPointCountClaim(PAPER_X_REGION, 6), 4, min_depth=1)
anchor = complex(*map(float.fromhex, sys.argv[1:]))
k = verify.preimage_count(ComplexBox.point(anchor), 0j, PAPER_U, PAPER_N)
digest = hashlib.sha256(serialize(cert) + cert.effort.tobytes() + str(k).encode())
for z in found:
    digest.update(b"".join(np.ascontiguousarray(a).tobytes()
                           for a in (z.count, z.effort, z.owner, z.boxes.e, z.images.e)))
print(len(found), k, digest.hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="X86_V2 names an x86-64 dispatch target")
def test_counts_do_not_depend_on_numpy_dispatch():
    # NPY_ENABLE_CPU_FEATURES=X86_V2 turns off numpy's dispatched AVX2 and
    # AVX-512 loops, under which complex np.abs took other last bits; the
    # count's start rule reads np.hypot, and the bytes and efforts are the
    # same under both.  The anchor is handed over in hex, so neither
    # process forms an input by a transcendental ufunc, whose bits also
    # follow the dispatch
    anchor = find_superattracting_parameter(9, PAPER_R.midpoint())
    src = str(Path(verify.__file__).resolve().parents[1])
    outputs = set()
    for features in (None, "X86_V2"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if features:
            env["NPY_ENABLE_CPU_FEATURES"] = features
        run = subprocess.run([sys.executable, "-c", _COUNT_BITS, anchor.real.hex(),
                              anchor.imag.hex()], env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        outputs.add(run.stdout.strip())
    [output] = outputs
    calls, k, _ = output.split()
    # the scan's one level (its four depth-1 boxes are TRUE) and the
    # preimage count, which counts the anchor's two preimages
    assert (calls, k) == ("2", "2")


def test_overlapping_krawczyk_boxes_are_undetermined(monkeypatch):
    # two starts from the same survivors hold the same zero in boxes that
    # meet, which must not count it twice
    starts = verify._starts

    def twice(cells, owner, der):
        hulls, rows, slopes = starts(cells, owner, der)
        both = np.repeat(np.arange(len(rows)), 2)
        return hulls[both], rows[both], slopes[both]

    assert _poly_count([0.25 + 0.25j]) == 1
    monkeypatch.setattr(verify, "_starts", twice)
    assert _poly_count([0.25 + 0.25j]) == -1


@pytest.mark.parametrize("endpoint", range(4))
def test_image_touching_its_box_holds_no_zero(monkeypatch, endpoint):
    # K(Z) strictly inside Z proves one zero in Z, and the count drops the
    # cells in Z on that uniqueness: an image that keeps one endpoint of
    # Z (re lo, im lo, re hi, im hi) and lies strictly inside it otherwise
    # holds no box, in any round, and the zero's cells survive max_depth
    assert _poly_count([0.25 + 0.25j], depth=6) == 1

    def touching(fn, cs, z):
        quarter = (z.e[2:] - z.e[:2]) / 4.0
        image = np.concatenate((z.e[:2] + quarter, z.e[2:] - quarter))
        image[endpoint] = z.e[endpoint]
        return BoxArray._of(image), np.ones(len(z))

    monkeypatch.setattr(verify, "_zero_image", touching)
    found = count_zeros(_poly_fn([0.25 + 0.25j]), _ORIGIN, _UNIT, 6)
    assert found.count.tolist() == [-1] and len(found.boxes) == 0


def test_value_touching_zero_keeps_its_cell():
    # f(z) = z, whose value on a cell is the cell itself: on [0, 1] x
    # [-1, 1] its zero 0 lies on the region's edge, and so on the edge of
    # the value box of every cell that holds it.  Those cells are kept to
    # max_depth, so the count is -1; dropping them would count 0
    def fn(c, z):
        return z, BoxArray._of(np.tile([[1.0], [0.0], [1.0], [0.0]], len(z)))

    edge = ComplexBox(Interval(0.0, 1.0), Interval(-1.0, 1.0))
    assert count_zeros(fn, _ORIGIN, _UNIT, 4).count.tolist() == [1]
    assert count_zeros(fn, _ORIGIN, edge, 4).count.tolist() == [-1]


def test_contour_depth_is_capped():
    # the count's quadtree depth stays within the boundary walk's cap
    region = ComplexBox(Interval(-1.5, 1.5), Interval(-1.5, 1.5))
    fn = verify._fixed_points(2)
    for depth in (-1, 63):
        with pytest.raises(ValueError):
            count_zeros(fn, _ORIGIN, region, depth)
    assert (count_zeros(fn, _ORIGIN, region, 62).count.tolist()
            == count_zeros(fn, _ORIGIN, region, 16).count.tolist() == [4])


# The depth-first boundary test that preceded the batched one in
# tricert.verify, kept as the bitwise oracle for it.


def _scalar_boundary_disjoint(c: ComplexBox, u: ComplexBox, n: int, max_depth: int = 14):
    """boundary_disjoint one segment at a time, in the scalar arithmetic;
    raises EmptyIntervalError where an enclosure overflows."""
    c, re, im, segment = scalar.box(c), u.re, u.im, scalar.ComplexBox
    edges = [segment(re, Interval.point(im.lo)), segment(re, Interval.point(im.hi)),
             segment(Interval.point(re.lo), im), segment(Interval.point(re.hi), im)]
    stack = [(seg, 0) for seg in edges]
    effort = 0
    saw_inside = saw_outside = saw_undet = False
    while stack:
        seg, depth = stack.pop()
        z = seg
        for _ in range(n):
            z = scalar.eval_f(c, z)
        effort += 1
        if u.strictly_contains(z):
            saw_inside = True
        elif not z.intersects(u):
            saw_outside = True
        elif depth < max_depth:
            a, b = seg.bisect()
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
        else:
            saw_undet = True
    if saw_inside and saw_outside:
        return ClaimResult(Status.FALSE, effort)
    if saw_undet:
        return ClaimResult(Status.UNDETERMINED, effort)
    return ClaimResult(Status.TRUE, effort)


def _qlike_level(boxes, u, n, depth, seeds=None):
    """boundary_disjoint_level on a list of boxes: its results as
    ClaimResults, and the _Walked that children resume from."""
    status, effort, walked = boundary_disjoint_level(BoxArray.of(boxes), u, n, depth, seeds)
    return _results(status, effort), walked


QLIKE_WIDE = _parse_rect("-1.8025,-1.6745,-0.0482,0.0798")
# U = [-1/4, 1/4]^2 and the point c = 1/4 + i/8: f_c maps the corner
# 1/4 + i/4 exactly onto the edge point 1/4, so the image of every segment
# through that corner meets dU at every depth and the box is never TRUE
QUARTER_U = ComplexBox(Interval(-0.25, 0.25), Interval(-0.25, 0.25))
TOUCHING_C = ComplexBox.point(0.25 + 0.125j)


def _grid(rect: ComplexBox, level: int) -> list[ComplexBox]:
    """The 4^level quadtree cells of rect at one level."""
    boxes = [rect]
    for _ in range(level):
        boxes = [child for box in boxes for child in box.quarter()]
    return boxes


# parameter boxes and dynamical squares on dyadic grids, where images land
# exactly on dU often
_DYADIC = st.integers(-128, 64).map(lambda k: k / 64.0)
_PARAM_BOX = st.builds(
    lambda x, y, w, h: ComplexBox(Interval(x, x + w), Interval(y, y + h)),
    _DYADIC, _DYADIC, st.sampled_from((0.0, 2.0 ** -12, 2.0 ** -6)),
    st.sampled_from((0.0, 2.0 ** -12, 2.0 ** -6)),
)
_U_BOXES = (U_RECT, PAPER_U, QUARTER_U,
            ComplexBox(Interval(-0.5, 0.25), Interval(-0.125, 0.5)),
            ComplexBox(Interval(-2.0, 2.0), Interval(-2.0, 2.0)))


class TestBoundaryDisjoint:
    def test_reference_rectangle_verified(self):
        result = boundary_disjoint(R_RECT, U_RECT, 3)
        assert result.status is Status.TRUE

    def test_origin_fails_the_degree_check(self):
        # for c=0 the boundary image z^8-bar lands inside U, which the
        # boundary scan calls TRUE; but the restriction has degree 8, and
        # the anchor proof refuses it already at condition (i): all of dU
        # must map off U.  The preimage of 0 is a zero of multiplicity 8,
        # which no Krawczyk box isolates, so its count is undetermined
        rect = ComplexBox(Interval(-0.001, 0.001), Interval(-0.001, 0.001))
        [leaf] = adaptive_scan(rect, BoundaryDisjointClaim(U_RECT, 3), 0).leaves
        assert leaf.status is Status.TRUE
        cert = qlike_certificate(rect, U_RECT, 3, 0j, max_depth=0)
        assert cert.config["anchor_preimage_count"] == "None"
        assert cert.config["anchor_proof"] == "boundary"
        assert [leaf.status for leaf in cert.leaves] == [Status.UNDETERMINED]

    def test_degenerate_u_rejected(self):
        flat = ComplexBox(Interval(-0.3, 0.3), Interval.point(0.0))
        with pytest.raises(ValueError):
            boundary_disjoint(R_RECT, flat, 3)

    def test_bad_iterate_rejected(self):
        with pytest.raises(ValueError):
            boundary_disjoint(R_RECT, U_RECT, 0)

    # at depth 62, the segment depth cap, the walk recurses 63 deep
    @pytest.mark.parametrize("depth", [0, 3, 8, 62])
    def test_touching_image_is_undetermined(self, depth):
        oracle = _scalar_boundary_disjoint(TOUCHING_C, QUARTER_U, 1, depth)
        assert boundary_disjoint(TOUCHING_C, QUARTER_U, 1, depth) == oracle
        assert oracle.status is not Status.TRUE

    def test_overflow_is_undetermined(self):
        # every segment image overflows: the oracle raises, the batch marks
        # the box Undetermined and splits nothing
        far = ComplexBox(Interval(1e200, 2e200), Interval(1e200, 2e200))
        with pytest.raises(EmptyIntervalError):
            _scalar_boundary_disjoint(far, U_RECT, 3, 2)
        near = ComplexBox.around(R_RECT.midpoint(), 1e-6)
        results, _ = _qlike_level([far, near, far], U_RECT, 3, 2)
        assert results[0] == results[2] == ClaimResult(Status.UNDETERMINED, 4)
        assert results[1] == _scalar_boundary_disjoint(near, U_RECT, 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_PARAM_BOX, min_size=1, max_size=6), st.sampled_from(_U_BOXES),
           st.integers(1, 3), st.integers(0, 8))
    @example([TOUCHING_C, ComplexBox.point(0j)], QUARTER_U, 1, 8)
    def test_batch_matches_scalar_oracle(self, boxes, u, n, depth):
        oracle = [_scalar_boundary_disjoint(c, u, n, depth) for c in boxes]
        assert _qlike_level(boxes, u, n, depth)[0] == oracle

    def test_mixed_frontier_matches_scalar_oracle(self):
        # one level of the qlike-wide scan: TRUE, FALSE and Undetermined
        # owners share the batches
        boxes = _grid(QLIKE_WIDE, 3)
        results, _ = _qlike_level(boxes, PAPER_U, 3, 8)
        assert {r.status for r in results} == set(Status)
        assert results == [_scalar_boundary_disjoint(c, PAPER_U, 3, 8) for c in boxes]

    def test_small_row_cap_splits_the_stack(self, monkeypatch):
        # 8 rows per batch: each walk starts from the edges of two boxes,
        # and the halves of at most 4 parents make one batch
        boxes = _grid(QLIKE_WIDE, 2)
        wide, wide_seeds = _qlike_level(boxes, PAPER_U, 3, 6)
        monkeypatch.setattr(verify, "_ROW_CAP", 8)
        walks, walk, level = [], verify._walk.__code__, verify._walk_level.__code__

        def top_walks(frame, event, arg):
            if frame.f_code is walk and frame.f_back.f_code is level:
                walks.append(len(frame.f_locals["rows"]))

        sys.settrace(top_walks)
        try:
            results, seeds = _qlike_level(boxes, PAPER_U, 3, 6)
        finally:
            sys.settrace(None)
        assert results == wide
        assert walks == [8] * 8
        assert wide == [_scalar_boundary_disjoint(c, PAPER_U, 3, 6) for c in boxes]
        children, child_seeds = _children(boxes, results, seeds)
        _, wide_child_seeds = _children(boxes, wide, wide_seeds)
        resumed, _ = _qlike_level(children, PAPER_U, 3, 6, child_seeds)
        wide_resumed, _ = _qlike_level(children, PAPER_U, 3, 6, wide_child_seeds)
        assert [r.status for r in resumed] == [r.status for r in wide_resumed]

    def test_live_rows_are_bounded(self, monkeypatch):
        # the rows that a walk holds stay within _ROW_CAP per segment level
        # (plus two), however many boxes, from the edges and resumed; a
        # resumed box that turns FALSE stops halving, so only its segment
        # count depends on how the rows are batched
        boxes = _grid(QLIKE_WIDE, 3)
        monkeypatch.setattr(verify, "_ROW_CAP", 64)
        (capped, seeds), peak = _live_rows(lambda: _qlike_level(boxes, PAPER_U, 3, 6))
        assert peak <= 64 * (6 + 2)
        children, child_seeds = _children(boxes, capped, seeds)
        resumed, resumed_peak = _live_rows(
            lambda: _qlike_level(children, PAPER_U, 3, 6, child_seeds)[0])
        assert resumed_peak <= 64 * (6 + 2)
        monkeypatch.setattr(verify, "_ROW_CAP", 1 << 20)
        (uncapped, _), wide_peak = _live_rows(
            lambda: _qlike_level(boxes, PAPER_U, 3, 6))
        wide_resumed, wide_resumed_peak = _live_rows(
            lambda: _qlike_level(children, PAPER_U, 3, 6, child_seeds)[0])
        assert capped == uncapped
        assert [r.status for r in resumed] == [r.status for r in wide_resumed]
        assert min(wide_peak, wide_resumed_peak) > 64 * (6 + 2)

    def test_qlike_wide_effort_matches_scalar_oracle(self, monkeypatch):
        # the qlike-wide workload's scan: each level's effort adds up to the
        # segment rows it evaluated, 64,120 over all levels (the walks from
        # the edges evaluate 253,612), of which the 3,469 leaves keep
        # 33,044; the oracle rechecks the status of every fifth leaf (all
        # of them take about 8 s)
        rows = []
        within = BoxArray.within

        def spy(self, other, strict=False):
            rows.append(len(self))
            return within(self, other, strict)

        monkeypatch.setattr(BoxArray, "within", spy)
        claim = BoundaryDisjointClaim(PAPER_U, 3, 8)
        levels, evaluate = [], claim.evaluate_level

        def counted(boxes, seeds):
            start = len(rows)
            status, effort, children = evaluate(boxes, seeds)
            levels.append((int(effort.sum()), sum(rows[start:])))
            return status, effort, children

        claim.evaluate_level = counted
        cert = adaptive_scan(QLIKE_WIDE, claim, 8)
        assert all(effort == evaluated for effort, evaluated in levels)
        assert sum(effort for effort, _ in levels) == 64_120
        assert len(cert.leaves) == 3469
        assert sum(leaf.effort for leaf in cert.leaves) == 33_044
        for leaf in cert.leaves[::5]:
            assert leaf.status is _scalar_boundary_disjoint(leaf.box, PAPER_U, 3, 8).status

    @pytest.mark.parametrize("max_depth, segment_depth, resumed, fresh", [
        (8, 8, 64_120, 253_612),
        (6, 14, 976_594, 1_304_964),
    ])
    def test_resumed_levels_match_walks_from_the_edges(self, max_depth, segment_depth,
                                                       resumed, fresh):
        # every level of the qlike-wide scan: the walks resumed from the
        # parents' open blocks give the statuses of the walks from the four
        # edges, from fewer segment evaluations in all
        claim = BoundaryDisjointClaim(PAPER_U, 3, segment_depth)
        totals, evaluate = [0, 0], claim.evaluate_level

        def checked(boxes, seeds):
            status, effort, children = evaluate(boxes, seeds)
            unseeded, unseeded_effort, _ = boundary_disjoint_level(boxes, PAPER_U, 3, segment_depth)
            assert status.tolist() == unseeded.tolist()
            totals[0] += int(effort.sum())
            totals[1] += int(unseeded_effort.sum())
            return status, effort, children

        claim.evaluate_level = checked
        adaptive_scan(QLIKE_WIDE, claim, max_depth)
        assert totals == [resumed, fresh]
        assert totals[0] <= totals[1]

    @settings(max_examples=60, deadline=None)
    @given(_PARAM_BOX, st.sampled_from(_U_BOXES), st.integers(1, 3), st.integers(0, 8))
    @example(TOUCHING_C, QUARTER_U, 1, 8)
    def test_resumed_children_match_scalar_oracle(self, parent, u, n, depth):
        # the four children of any parent, resumed from its open blocks
        _, walked = _qlike_level([parent], u, n, depth)
        children = parent.quarter()
        results, _ = _qlike_level(children, u, n, depth, walked[np.zeros(4, dtype=np.int64)])
        assert ([r.status for r in results]
                == [_scalar_boundary_disjoint(c, u, n, depth).status for c in children])

    def test_segment_depth_is_capped(self):
        # a segment's node number 2^depth + index is an int64 up to depth 62
        with pytest.raises(ValueError):
            boundary_disjoint(R_RECT, U_RECT, 3, 63)
        assert boundary_disjoint(R_RECT, U_RECT, 3, 62) == boundary_disjoint(R_RECT, U_RECT, 3)


def _children(boxes, results, walked):
    """The quarters of the Undetermined boxes of a level, and their
    parents' rows of its _Walked, as adaptive_scan hands them on."""
    rows = [k for k, result in enumerate(results) if result.status is Status.UNDETERMINED]
    return ([child for k in rows for child in boxes[k].quarter()],
            walked[np.repeat(np.array(rows, dtype=np.int64), 4)])


def _live_rows(run):
    """run()'s result, and the largest number of segment rows that the
    walks held at once: the batch and the current halves of every active
    verify._walk frame, each counted once (a frame's halves are the batch
    of the frame it called), sampled at every line that a walk executed."""
    code = verify._walk.__code__
    peak = 0

    def local(frame, event, arg):
        nonlocal peak
        if event == "line":
            held, active = {}, frame
            while active is not None:
                if active.f_code is code:
                    names = active.f_locals
                    for part in (names["rows"], names.get("halves")):
                        if part is not None:
                            held[id(part)] = len(part)
                active = active.f_back
            peak = max(peak, sum(held.values()))
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, peak


class TestContourCounting:
    """Zeros counted inside a rectangle's contour by count_zeros."""

    def test_quartic_fixed_points(self):
        # c=0, n=2: fixed points of z^4 in the square are 0, 1, and the
        # two complex cube roots of unity, each in its own Krawczyk box
        region = ComplexBox(Interval(-1.5, 1.5), Interval(-1.5, 1.5))
        found = count_zeros(verify._fixed_points(2), _ORIGIN, region, 16)
        assert found.count.tolist() == [4] and found.owner.tolist() == [0] * 4
        boxes, images = found.boxes.boxes(), found.images.boxes()
        for z, k in zip(boxes, images):
            assert z.strictly_contains(k) and region.contains_box(k)
        for point in (0j, 1 + 0j, complex(-0.5, 3 ** 0.5 / 2), complex(-0.5, -(3 ** 0.5) / 2)):
            assert sum(k.contains(point) for k in images) == 1
        assert not any(a.intersects(b) for i, a in enumerate(boxes) for b in boxes[i + 1:])

    def test_empty_region(self):
        region = ComplexBox(Interval(10.0, 11.0), Interval(10.0, 11.0))
        found = count_zeros(verify._fixed_points(2), _ORIGIN, region, 16)
        assert found.count.tolist() == [0] and len(found.boxes) == 0

    def test_count_bits_are_pinned(self):
        # the count uses elementwise numpy only, no BLAS, so these
        # endpoints hold on any machine
        found = count_zeros(verify._fixed_points(6), BoxArray.of([PAPER_R.quarter()[0]]),
                            PAPER_X_REGION, 10)
        assert found.count.tolist() == [1] and found.effort.tolist() == [63]
        [z], [k] = found.boxes.boxes(), found.images.boxes()
        assert _box_hex(z) == ("0x1.999999999999ap-6", "0x1.1eb851eb851ecp-5",
                               "0x1.47ae147ae147bp-5", "0x1.999999999999ap-5")
        assert _box_hex(k) == ("0x1.a15a9dd6a727ep-6", "0x1.122f3edcdbe09p-5",
                               "0x1.55158699a87c5p-5", "0x1.9697768b30c86p-5")

    def test_odd_iterate_rejected(self):
        with pytest.raises(ValueError):
            FixedPointCountClaim(U_RECT, 3).evaluate_level(BoxArray.of([PAPER_R]), None)

    def test_random_polynomials_match_root_oracle(self):
        rng = random.Random(31)
        done = 0
        while done < 15:
            degree = rng.randint(1, 4)
            roots = [
                complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
                for _ in range(degree)
            ]
            near_edge = any(
                min(abs(r.real - 1.0), abs(r.real + 1.0)) < 0.1
                or min(abs(r.imag - 1.0), abs(r.imag + 1.0)) < 0.1
                for r in roots
            )
            if near_edge:
                continue
            inside = sum(1 for r in roots if abs(r.real) < 1.0 and abs(r.imag) < 1.0)
            assert _poly_count(roots, depth=12) == inside
            done += 1


class TestPreimageCount:
    def test_square_roots_of_one(self):
        u = ComplexBox(Interval(-2.0, 2.0), Interval(-2.0, 2.0))
        assert preimage_count(ComplexBox.point(0j), 1.0 + 0j, u, 1) == 2

    def test_unreached_value(self):
        u = ComplexBox(Interval(-0.5, 0.5), Interval(-0.5, 0.5))
        assert preimage_count(ComplexBox.point(0j), 100.0 + 0j, u, 1) == 0

    def test_anchor_degree_two(self):
        anchor = find_superattracting_parameter(9, R_RECT.midpoint())
        assert anchor is not None
        assert preimage_count(ComplexBox.point(anchor), 0j, U_RECT, 3) == 2


_CENTER = find_superattracting_parameter(9, PAPER_R.midpoint())
# the lower-left 1/32 corner of PAPER_R, outside the period-9 component
_CORNER = complex(PAPER_R.re.lo + PAPER_R.re.width() / 32, PAPER_R.im.lo + PAPER_R.im.width() / 32)


def _anchored(anchor: complex):
    """The qlike certificate in PAPER_U of the 1e-6 box about the anchor,
    one leaf."""
    return qlike_certificate(ComplexBox.around(anchor, 1e-6), PAPER_U, 3, anchor, max_depth=0)


def _unhex(text: str) -> list[float]:
    return [scan._unhex(token) for token in text.split()]


class TestAnchorProof:
    """The anchor is proven by conditions (i)-(iv) of qlike_certificate;
    breaking any of them leaves the leaves Undetermined."""

    def test_center_is_proven(self):
        cert = _anchored(_CENTER)
        config = cert.config
        assert config["anchor_proof"] == "proven"
        assert cert.rollup() is Status.TRUE
        assert (config["anchor_period"], config["anchor_residue"]) == ("9", "0")
        ends = _unhex(config["anchor_cycle"])
        boxes = [ComplexBox(Interval(*ends[k:k + 2]), Interval(*ends[k + 2:k + 4]))
                 for k in range(0, len(ends), 4)]
        # the boxes of z_0, z_3 and z_6 lie strictly in U, z_0 holds the
        # critical point (the anchor is the center), and g = f^3 maps each
        # onto a set that meets the next
        assert len(boxes) == 3 and all(PAPER_U.strictly_contains(b) for b in boxes)
        assert boxes[0].contains(0j)
        c = scalar.ComplexBox.point(_CENTER)
        for k, box in enumerate(boxes):
            image = scalar.eval_f(c, scalar.eval_f(c, scalar.eval_f(c, scalar.box(box))))
            assert image.intersects(boxes[(k + 1) % 3])
        m_lo, m_hi = _unhex(config["anchor_modulus"])
        assert 0.0 <= m_lo <= m_hi < 1.0

    def test_repelling_cycle_is_refused(self, monkeypatch):
        # (i)-(iii) hold at the corner, but its critical orbit escapes; fed
        # the center's period-9 orbit as seed, Krawczyk certifies the
        # corner's repelling 9-cycle, which proves nothing
        assert _anchored(_CORNER).config["anchor_proof"] == "seed"
        monkeypatch.setattr(verify, "_critical_seed", lambda c: float_orbit_of_zero(_CENTER, 9))
        cert = _anchored(_CORNER)
        assert cert.config["anchor_proof"] == "repelling"
        assert "anchor_cycle" not in cert.config
        assert cert.rollup() is Status.UNDETERMINED

    @pytest.mark.parametrize("depth, sizes, kept", [(5, [50, 182], 0), (6, [32, 108, 390], 32)])
    def test_only_the_anchor_component_stays_true(self, monkeypatch, depth, sizes, kept):
        # over [-1.8, 0.2] x [-0.25, 0.25] with U = [-0.3, 0.3]^2 the scan's
        # TRUE leaves fall into components, one of them about c = 0; the
        # proven anchor keeps TRUE only the component with a box holding
        # it, none at depth 5, where the anchor's own leaf is Undetermined
        scanned = []

        def recorded(*args, **kwargs):
            cert = adaptive_scan(*args, **kwargs)
            scanned.append(ParamCertificate.of(cert.claim, cert.root, {}, cert.leaves))
            return cert

        monkeypatch.setattr(verify, "adaptive_scan", recorded)
        rect = ComplexBox(Interval(-1.8, 0.2), Interval(-0.25, 0.25))
        u = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))
        cert = qlike_certificate(rect, u, 3, _CENTER, max_depth=depth, segment_depth=8)
        assert cert.config["anchor_proof"] == "proven"
        before = scanned[0].leaves
        parts = scan.component_rollup(scanned[0])
        assert sorted(map(len, parts)) == sizes
        true = {i for i, leaf in enumerate(cert.leaves) if leaf.status is Status.TRUE}
        assert len(true) == kept
        [about_zero] = [part for part in parts if any(before[i].box.contains(0j) for i in part)]
        assert not true & set(about_zero)
        for part in parts:
            anchored = any(before[i].box.contains(_CENTER) for i in part)
            assert all((i in true) == anchored for i in part)
        assert all(leaf.status is old.status or old.status is Status.TRUE
                   for leaf, old in zip(cert.leaves, before))

    def test_cycle_must_fit_in_u(self):
        # the center's g-cycle reaches 0.166 from 0, outside [-0.1, 0.1]^2
        # (in that U condition (i) fails first: test_cli.py runs it)
        seed = float_orbit_of_zero(_CENTER, 9)
        point = ComplexBox.point(_CENTER)
        small = ComplexBox(Interval(-0.1, 0.1), Interval(-0.1, 0.1))
        assert verify._anchor_cycle(point, small, 3, seed) == {"anchor_proof": "cycle-leaves-u"}
        assert verify._anchor_cycle(point, PAPER_U, 3, seed)["anchor_proof"] == "proven"


def _paper_claims():
    return ParabolicExclusionClaim(9), MultiplierNonRealClaim(PAPER_X_REGION)


def _red_level_6():
    """The red claim's evaluate_level and the boxes and seeds of level 6 of
    its scan of R_RECT at depth 6."""
    claim = _paper_claims()[0]
    levels, evaluate = [], claim.evaluate_level

    def recorded(boxes, seeds):
        levels.append((boxes, seeds))
        return evaluate(boxes, seeds)

    claim.evaluate_level = recorded
    adaptive_scan(R_RECT, claim, 6)
    return evaluate, *levels[6]


class TestTrackedCycleLevel:
    def test_effort_counts_kernel_rows(self, monkeypatch):
        # the paper's red and yellow scans at depth 6: the effort of each
        # level's results adds up to the Krawczyk kernel rows run for it
        # (2,791 and 626 over all levels; the leaves keep 1,918 and 470).
        # Red's Newton-seeded rows start from boxes sized by their
        # parameter spread, where boxes of the inflation radius ran 4,356
        # images at this tightening budget, and yellow's rows below the
        # root start from their parents' orbit boxes
        rows = []
        kernel = dynamics._krawczyk_rows

        def spy(lo, hi, pre):
            rows.append(len(lo))
            return kernel(lo, hi, pre)

        monkeypatch.setattr(dynamics, "_krawczyk_rows", spy)
        totals = []
        for claim in _paper_claims():
            levels, evaluate = [], claim.evaluate_level

            def counted(boxes, seeds):
                start = len(rows)
                status, effort, children = evaluate(boxes, seeds)
                levels.append((int(effort.sum()), sum(rows[start:])))
                return status, effort, children

            claim.evaluate_level = counted
            cert = adaptive_scan(R_RECT, claim, 6)
            assert all(effort == kernel_rows for effort, kernel_rows in levels)
            totals.append((sum(effort for effort, _ in levels),
                           sum(leaf.effort for leaf in cert.leaves)))
        assert totals == [(2791, 1918), (626, 470)]

    def test_preconditioner_is_formed_once_a_row(self, monkeypatch):
        # on the red scan's level 6, _cyclic_inverse sees the converged
        # orbits that start the rows, each exactly once and in order,
        # though their rounds run 3.1 Krawczyk images a row (1,500 on 478
        # rows); no row there has a held parent, so the call for the
        # inherited boxes has no rows
        evaluate, boxes, seeds = _red_level_6()
        inverse, cycle, seen, calls = dynamics._cyclic_inverse, verify.krawczyk_cycle_rows, [], []

        def spy_inverse(x, y):
            seen.append(np.stack((x, y), axis=2).reshape(len(x), -1))
            return inverse(x, y)

        def spy_cycle(c, start_boxes, radius):
            start, first = dynamics._mid_arr(*start_boxes), len(seen)
            out = cycle(c, start_boxes, radius)
            if len(c):
                calls.append((start, np.concatenate(seen[first:]), out[3]))
            return out

        monkeypatch.setattr(dynamics, "_cyclic_inverse", spy_inverse)
        monkeypatch.setattr(verify, "krawczyk_cycle_rows", spy_cycle)
        evaluate(boxes, seeds)
        [(start, inverted, images)] = calls
        assert len(start) > 400
        assert inverted.tobytes() == start.tobytes()
        assert images.sum() > 3 * len(start)

    def test_traced_peak_is_bounded_by_the_chunk(self, monkeypatch):
        # the 516 boxes of the red scan's level 6 take about as much traced
        # heap as 64 of them, _CHUNK rows at a time; one chunk of all rows
        # takes about ten times as much
        evaluate, boxes, seeds = _red_level_6()
        assert len(boxes) == 516

        def peak(count, chunk):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            tracemalloc.start()
            try:
                evaluate(boxes[:count], seeds[:count])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        capped = peak(516, 32)
        assert capped < 2 * peak(64, 32)
        assert peak(516, 516) > 5 * capped


def _yellow_root():
    """The yellow claim's root box of R_RECT, its tracked level and the
    seeds of its four children."""
    claim = _paper_claims()[1]
    root = BoxArray.of([R_RECT])
    tracked, _ = tracked_cycle_level(root, 6, claim.initial_seed(R_RECT))
    return root, tracked, tracked[np.zeros(4, dtype=np.int64)]


def _newton_rows(monkeypatch):
    """The row counts of verify's float_newton_rows calls from here on."""
    rows, newton = [], verify.float_newton_rows

    def spy(c, orbits):
        rows.append(len(c))
        return newton(c, orbits)

    monkeypatch.setattr(verify, "float_newton_rows", spy)
    return rows


class TestInheritedCycles:
    def test_children_of_a_held_row_run_no_newton(self, monkeypatch):
        # the root's cycle is held, so its children start Krawczyk from its
        # orbit boxes: Newton sees no row, and each child's boxes lie
        # inside the root's
        root, tracked, seeds = _yellow_root()
        assert tracked.held.tolist() == [True] and seeds.held.all()
        rows = _newton_rows(monkeypatch)
        children, _ = tracked_cycle_level(root.quarter(), 6, seeds)
        assert rows == []  # not even a call of no rows
        assert children.held.tolist() == [True] * 4
        assert (children.lo > tracked.lo).all() and (children.hi < tracked.hi).all()
        # the orbit guesses are handed on as they came
        assert children.orbits.tobytes() == seeds.orbits.tobytes()

    def test_inherited_rows_start_from_the_parents_boxes(self, monkeypatch):
        # only a float orbit's start is sized: the children's first
        # Krawczyk image is taken on the root's orbit boxes, bit for bit
        root, tracked, seeds = _yellow_root()
        starts, kernel = [], dynamics._krawczyk_rows

        def spy(lo, hi, pre):
            starts.append((lo.tobytes(), hi.tobytes()))
            return kernel(lo, hi, pre)

        monkeypatch.setattr(dynamics, "_krawczyk_rows", spy)
        tracked_cycle_level(root.quarter(), 6, seeds)
        assert starts[0] == (seeds.lo.tobytes(), seeds.hi.tobytes())
        assert seeds.lo.tobytes() == np.repeat(tracked.lo, 4, axis=0).tobytes()

    def test_failed_inheritance_falls_back_to_newton(self, monkeypatch):
        # with every inherited image made to fail, the children refine the
        # handed-on orbits by Newton and end as the rows of a level with no
        # cycle held do, each with the one failed image on top
        root, tracked, seeds = _yellow_root()
        cycle, calls = verify.krawczyk_cycle_rows, []

        def failing_first(c, start, radius):
            calls.append(len(c))
            if len(calls) > 1:
                return cycle(c, start, radius)
            return np.zeros(len(c), dtype=bool), *start, np.ones(len(c), dtype=np.int64)

        fresh, fresh_effort = tracked_cycle_level(root.quarter(), 6, seeds.orbits)
        monkeypatch.setattr(verify, "krawczyk_cycle_rows", failing_first)
        rows = _newton_rows(monkeypatch)
        fallen, fallen_effort = tracked_cycle_level(root.quarter(), 6, seeds)
        assert calls == [4, 4] and rows == [4]
        assert fresh.held.sum() == 4
        for field in ("held", "lo", "hi", "orbits"):
            assert getattr(fallen, field).tobytes() == getattr(fresh, field).tobytes()
        assert (fallen_effort == fresh_effort + 1).all()

    def test_paper_scans_keep_red_off_the_inherited_path(self, monkeypatch):
        # on the depth-6 scans of R_RECT, yellow runs Newton on its root
        # rows alone (its seed and level 0), and no red row is held and
        # Undetermined, so no red row starts from inherited boxes
        red, yellow = _paper_claims()
        rows = _newton_rows(monkeypatch)
        adaptive_scan(R_RECT, yellow, 6)
        assert rows == [1, 1]
        evaluate, held_u = red.evaluate_level, []

        def recorded(boxes, seeds):
            status, effort, children = evaluate(boxes, seeds)
            held_u.append(int((children.held & (status == "U")).sum()))
            return status, effort, children

        red.evaluate_level = recorded
        adaptive_scan(R_RECT, red, 6)
        assert held_u == [0] * 7


    def test_no_kernel_call_gets_no_rows(self, monkeypatch):
        # a step of tracked_cycle_level with no rows to give is skipped: on
        # the depth-5 paper scans every Newton and Krawczyk call has rows,
        # and an empty level makes no call at all
        calls = []
        for name in ("_refine_orbit", "krawczyk_cycle_rows"):
            def spy(c, *args, _kernel=getattr(verify, name), _name=name):
                calls.append((_name, len(c)))
                return _kernel(c, *args)

            monkeypatch.setattr(verify, name, spy)
        for claim in _paper_claims():
            adaptive_scan(R_RECT, claim, 5)
        assert {name for name, _ in calls} == {"_refine_orbit", "krawczyk_cycle_rows"}
        assert all(rows > 0 for _, rows in calls)
        none = np.zeros(0, dtype=np.int64)
        for claim in _paper_claims():
            root = claim.initial_seed(R_RECT)
            calls.clear()
            claim.evaluate_level(BoxArray.of([R_RECT])[none], root[none])
            assert calls == []


class TestCycleClaims:
    def test_attracting_fixed_point_of_origin(self):
        box, orbit = ComplexBox.around(0.05 + 0.02j, 1e-9), [0.06 + 0.03j]
        assert verify._witness(box, 1, orbit) is Status.TRUE
        [refined] = tracked_cycle_level(BoxArray.of([box]), 1, [orbit])[0].orbits
        assert np.isfinite(refined).all()

    def test_repelling_cycle_reported_false(self):
        # the fixed point of f_c near z=1 for c=0 has multiplier 4
        box = ComplexBox.around(0j, 1e-9)
        assert verify._witness(box, 1, [1.0 + 0j]) is Status.FALSE

    def test_attracting_period9_at_component_center(self):
        center = find_superattracting_parameter(9, R_RECT.midpoint())
        orbit = float_orbit_of_zero(center, 9)
        box = ComplexBox.around(center, 1e-10)
        assert verify._witness(box, 9, orbit) is Status.TRUE

    def test_repeated_shorter_cycle_is_not_certified(self):
        # the period-3 orbit of 0 at the airplane center, traversed twice,
        # solves the coupled period-6 system but is no cycle of period 6
        c = find_superattracting_parameter(3, -1.75 + 0j)
        orbit = float_orbit_of_zero(c, 3) * 2
        box = ComplexBox.around(c, 1e-10)
        [excluded], _, _ = ParabolicExclusionClaim(6).evaluate_level(BoxArray.of([box]), [orbit])
        assert verify._witness(box, 6, orbit) is Status.UNDETERMINED
        assert excluded == "U"

    def test_uncertified_corner_is_no_repelling_witness(self, monkeypatch):
        # with no cycle certified, a witness has no modulus to read: the
        # repelling witness at the corner is not FALSE, and neither is the
        # attracting one at the center
        def uncertified(c, boxes, radius):
            lo = np.zeros(boxes[0].shape)
            return np.zeros(len(c), dtype=bool), lo, lo, np.ones(len(c), dtype=np.int64)

        monkeypatch.setattr(verify, "krawczyk_cycle_rows", uncertified)
        cert = ParamCertificate.of("red", R_RECT, {}, [Leaf(0, R_RECT, Status.TRUE)])
        _, attracting, repelling = component_witnesses(cert, 9, R_RECT.midpoint())
        assert attracting is repelling is Status.UNDETERMINED

    def test_overflowing_sized_start_is_undetermined(self, monkeypatch):
        # |s| rho made to overflow on every row, as for a cycle near
        # multiplier 1 whose huge but finite Y meets a wide parameter box:
        # each Newton-seeded row fails with no Krawczyk image, so the red
        # scan ends with every leaf
        # Undetermined, where an image of the row raised EmptyIntervalError
        precondition = dynamics._preconditioner

        def overflowing(c, lo, hi):
            pre = precondition(c, lo, hi)
            return pre._replace(s_rho=np.full_like(pre.s_rho, np.inf))

        monkeypatch.setattr(dynamics, "_preconditioner", overflowing)
        cert = adaptive_scan(R_RECT, ParabolicExclusionClaim(9), 2)
        assert len(cert.status) == 16 and set(cert.status.tolist()) == {"U"}
        assert sum(leaf.effort for leaf in cert.leaves) == 0

    def test_parabolic_seed_needs_a_center(self):
        # Newton finds no period-9 center from this midpoint to seed from
        with pytest.raises(ValueError, match="no superattracting seed parameter"):
            ParabolicExclusionClaim(9).initial_seed(ComplexBox.around(100 + 100j, 1.0))

    def test_overflowing_multiplier_seed_tracks_nothing(self):
        # float_iterate's complex power overflows from the guess at |c| ~ 1e20;
        # the root seed is then not finite and every leaf is Undetermined
        rect = ComplexBox(Interval(1e20, 2e20), Interval(0.0, 1.0))
        with pytest.raises(OverflowError):
            float_iterate(rect.midpoint(), MultiplierNonRealClaim.guess, 5)
        assert not np.isfinite(MultiplierNonRealClaim().initial_seed(rect)).any()
        cert = adaptive_scan(rect, MultiplierNonRealClaim(), 1)
        assert cert.status.tolist() == ["U"] * 4

    def test_multiplier_nonreal_newton_failure(self):
        c = 1e8 + 1e8j
        orbit = [float_iterate(c, 0.04 + 0.04j, k) for k in range(6)]
        assert _nonreal(ComplexBox.point(c), orbit).status is Status.UNDETERMINED

    def test_multiplier_real_on_real_axis(self):
        # conjugation symmetry forces a real multiplier for real c; at c = -2
        # the real 6-cycle 2 cos(2 pi 2^k / 63) is certified, yet not TRUE
        c = ComplexBox.around(-2.0 + 0j, 1e-10)
        orbit = [2.0 * math.cos(math.tau * 2**k / 63) + 0j for k in range(6)]
        assert tracked_cycle_level(BoxArray.of([c]), 6, [orbit])[0].held.sum() == 1
        assert _nonreal(c, orbit).status is not Status.TRUE

    def test_multiplier_needs_the_fixed_point_box_in_the_region(self):
        # a region that holds the float fixed point but not its whole
        # certified box says nothing about the fixed point of f^6 in it
        c = ComplexBox.around(PAPER_R.midpoint(), 1e-6)
        [orbit] = MultiplierNonRealClaim().initial_seed(c)
        tracked, _ = tracked_cycle_level(BoxArray.of([c]), 6, [orbit])
        z0 = _orbit_boxes(tracked.lo[0], tracked.hi[0])[0]
        cut = ComplexBox(Interval(0.0, (orbit[0].real + z0.re.hi) / 2.0), PAPER_X_REGION.im)
        assert cut.contains(orbit[0]) and not cut.contains_box(z0)
        whole, partial = _nonreal(c, orbit, PAPER_X_REGION), _nonreal(c, orbit, cut)
        assert whole.status is Status.TRUE
        assert partial.status is Status.UNDETERMINED


def _one_cycle(p: int) -> verify._CycleSeeds:
    """A level of one row whose period-p cycle is certified; the predicates
    below read it only through the monkeypatched enclosures."""
    lo, hi = np.zeros((1, 2 * p)), np.ones((1, 2 * p))
    return verify._CycleSeeds(np.zeros((1, p), dtype=complex), np.array([True]), lo, hi)


_BELOW_ONE, _ABOVE_ONE = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)


class TestStrictPredicates:
    """An enclosure that touches the value a claim excludes decides nothing:
    a squared modulus product that reaches 1 may be a parabolic cycle's,
    and an Im multiplier that reaches 0 a real multiplier's."""

    @pytest.mark.parametrize("m_lo, m_hi, status", [
        (0.5, 1.0, "U"),  # ends exactly at 1
        (1.0, 2.0, "U"),  # starts exactly at 1
        (1.0, 1.0, "U"),
        (0.5, _BELOW_ONE, "T"),
        (_ABOVE_ONE, 2.0, "F"),
    ])
    def test_modulus_enclosure_at_one(self, monkeypatch, m_lo, m_hi, status):
        monkeypatch.setattr(verify, "squared_modulus_rows",
                            lambda lo, hi: (np.array([m_lo]), np.array([m_hi])))
        tracked = _one_cycle(9)
        assert verify._modulus_statuses(tracked).tolist() == [status]
        # red is TRUE on either strict side and nowhere else
        assert verify._excluded_statuses(tracked).tolist() == ["U" if status == "U" else "T"]

    @pytest.mark.parametrize("im_lo, im_hi, status", [
        (0.0, 1.0, "U"), (-0.0, 1.0, "U"),  # touches 0 from above
        (-1.0, 0.0, "U"), (-1.0, -0.0, "U"),  # touches 0 from below
        (5e-324, 1.0, "T"), (-1.0, -5e-324, "T"),
    ])
    def test_multiplier_enclosure_at_zero(self, monkeypatch, im_lo, im_hi, status):
        multiplier = BoxArray.of([ComplexBox(Interval(-1.0, 1.0), Interval(im_lo, im_hi))])
        monkeypatch.setattr(verify, "multiplier_rows", lambda lo, hi: multiplier)
        assert verify._nonreal_statuses(_one_cycle(6), None).tolist() == [status]

    @pytest.mark.parametrize("second, held", [
        ((1.0, 0.0, 2.0, 1.0), False),  # shares the edge re = 1
        ((0.0, 1.0, 1.0, 2.0), False),  # shares the edge im = 1
        ((1.0, 1.0, 2.0, 2.0), False),  # shares only the corner 1 + 1i
        ((_ABOVE_ONE, 0.0, 2.0, 1.0), True),  # one ulp apart
        ((_ABOVE_ONE, _ABOVE_ONE, 2.0, 2.0), True),
    ])
    def test_touching_orbit_boxes_are_not_held(self, second, held):
        # a cycle of a divisor period puts one point in two boxes, and
        # boxes that touch can share it; the first box is [0, 1] x [0, 1],
        # each box given as (re lo, im lo, re hi, im hi)
        a, b, c, d = second
        lo, hi = np.array([[0.0, 0.0, a, b]]), np.array([[1.0, 1.0, c, d]])
        assert verify._pairwise_disjoint(lo, hi).tolist() == [held]
        # in either order
        swap = [2, 3, 0, 1]
        assert verify._pairwise_disjoint(lo[:, swap], hi[:, swap]).tolist() == [held]


class TestAnchorInOpenU:
    """The anchor proof asks for the cycle of g and the critical value g(0)
    in the open U: a box that reaches dU proves neither."""

    @pytest.mark.parametrize("endpoint", range(4))
    @pytest.mark.parametrize("on_edge", [True, False])
    def test_cycle_box_on_the_edge_of_u(self, monkeypatch, endpoint, on_edge):
        # the superattracting fixed point 0 of f_0 in a box that reaches
        # dU at one endpoint (re lo, im lo, re hi, im hi), or stops one ulp
        # short of it
        u = ComplexBox(Interval(-0.25, 0.25), Interval(-0.25, 0.25))
        ends = np.array([-0.1, -0.1, 0.1, 0.1])
        edge = (-0.25, -0.25, 0.25, 0.25)[endpoint]
        ends[endpoint] = edge if on_edge else np.nextafter(edge, 0.0)
        cycle = verify._CycleSeeds(np.zeros((1, 1), dtype=complex), np.array([True]),
                                   ends[None, :2], ends[None, 2:])
        monkeypatch.setattr(verify, "tracked_cycle_level",
                            lambda boxes, period, seeds: (cycle, np.ones(1, dtype=np.int64)))
        proof = verify._anchor_cycle(ComplexBox.point(0j), u, 1, [0j])
        assert proof["anchor_proof"] == ("cycle-leaves-u" if on_edge else "proven")

    @pytest.mark.parametrize("endpoint", range(4))
    @pytest.mark.parametrize("on_edge", [True, False])
    def test_critical_value_on_the_edge_of_u(self, monkeypatch, endpoint, on_edge):
        # the walk and the preimage count made to pass, and U's edge on one
        # endpoint of the computed box of g(0) = f_c^3(0), or one ulp
        # beyond it
        c, n = complex(-1.7384677075422084, 0.01577114241202889), 3
        z = BoxArray.of([ComplexBox.point(0j)])
        for _ in range(n):
            z = z.sqr().conj() + BoxArray.of([ComplexBox.point(c)])
        ends = z.e[:, 0] + np.array([-0.1, -0.1, 0.1, 0.1])
        edge = z.e[endpoint, 0]
        ends[endpoint] = edge if on_edge else np.nextafter(edge, (-1, -1, 1, 1)[endpoint])
        u = ComplexBox(Interval(ends[0], ends[2]), Interval(ends[1], ends[3]))
        walked = verify._Walked(verify._Segments.edges(u)[:0], np.zeros(2, dtype=np.int64),
                                np.array([False]), np.array([True]))
        monkeypatch.setattr(verify, "_walk_level", lambda *args: (np.ones(1), walked))
        monkeypatch.setattr(verify, "preimage_count", lambda *args: 2)
        proof = verify._anchor_proof(c, u, n, 8)["anchor_proof"]
        assert (proof == "critical-value") == on_edge


@pytest.mark.parametrize("claim", [
    BoundaryDisjointClaim(PAPER_U, 3, 8), FixedPointCountClaim(PAPER_X_REGION, 6),
    ParabolicExclusionClaim(9), MultiplierNonRealClaim(PAPER_X_REGION),
], ids=["qlike", "count", "parabolic", "multiplier"])
def test_claims_evaluate_an_empty_level(claim):
    # a level of no rows, seeded at no rows of the root's seeds or of those
    # that a level hands on, gives empty arrays and seeds that index alike
    boxes, none = BoxArray.of([PAPER_R.quarter()[0]]), np.zeros(0, dtype=np.int64)
    root = claim.initial_seed(PAPER_R)
    _, _, children = claim.evaluate_level(boxes, root)
    for seeds in (root, children):
        status, effort, after = claim.evaluate_level(boxes[none], None if seeds is None else seeds[none])
        assert status.shape == effort.shape == (0,)
        assert after is None or after[none] is not None


@pytest.mark.parametrize("claim, config", [
    (BoundaryDisjointClaim(PAPER_U, 3),
     {"u": "-0.3,0.3,-0.3,0.3", "n": "3", "segment_depth": "14"}),
    (FixedPointCountClaim(PAPER_X_REGION, 6, contour_depth=8),
     {"region": "0.0,0.08,0.0,0.08", "n": "6", "expect": "1", "contour_depth": "8"}),
    (ParabolicExclusionClaim(9), {"period": "9"}),
    (MultiplierNonRealClaim(PAPER_X_REGION), {"guess": "0.04,0.04", "region": "0.0,0.08,0.0,0.08"}),
    (MultiplierNonRealClaim(), {"guess": "0.04,0.04"}),
], ids=["qlike", "count", "parabolic", "multiplier-region", "multiplier"])
def test_claim_echoes_its_parameters(claim, config):
    # the header holds each set field of the claim, and nothing else
    assert claim.config() == config
    assert config.keys() == {field.name for field in dataclasses.fields(claim)
                             if getattr(claim, field.name) is not None}


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from((1e-9, 1e-7, 1e-5, 1.25e-4)), st.data())
def test_multiplier_boxes_hold_the_exact_fixed_point(u, v, radius, data):
    """Oracle: for c sampled in a small box about a point of PAPER_R, the
    fixed point of f^6 found by Newton at 50 digits lies, with its orbit,
    in the certified boxes, and (f^6)' there in the multiplier enclosure."""
    c_mid = complex(PAPER_R.re.lo + u * PAPER_R.re.width(),
                    PAPER_R.im.lo + v * PAPER_R.im.width())
    cbox = ComplexBox.around(c_mid, radius)
    claim = MultiplierNonRealClaim(PAPER_X_REGION)
    seed = claim.initial_seed(cbox)
    [status], _, _ = claim.evaluate_level(BoxArray.of([cbox]), seed)
    tracked, _ = tracked_cycle_level(BoxArray.of([cbox]), 6, seed)
    assume(tracked.held[0])
    boxes = _orbit_boxes(tracked.lo[0], tracked.hi[0])
    [orbit] = tracked.orbits
    [enclosure] = multiplier_rows(tracked.lo, tracked.hi).boxes()
    unit = st.floats(0.0, 1.0)

    def inside(x, iv: Interval) -> bool:
        return mpf(iv.lo) <= x <= mpf(iv.hi)

    with workdps(50):
        c = mpc(mpf(cbox.re.lo) + data.draw(unit) * (mpf(cbox.re.hi) - mpf(cbox.re.lo)),
                mpf(cbox.im.lo) + data.draw(unit) * (mpf(cbox.im.hi) - mpf(cbox.im.lo)))
        z = mpc(orbit[0])
        for _ in range(60):
            # f^6 = F^3 with the holomorphic F(w) = (w^2 + conj(c))^2 + c
            w, d = z, mpc(1)
            for _ in range(3):
                d *= 4 * w * (w * w + c.conjugate())
                w = (w * w + c.conjugate()) ** 2 + c
            step = (w - z) / (d - 1)
            z -= step
            if abs(step) < mpf(10) ** -45:
                break
        exact = [z]
        for _ in range(5):
            exact.append(exact[-1].conjugate() ** 2 + c)
        assert abs(exact[-1].conjugate() ** 2 + c - z) < mpf(10) ** -40
        for point, box in zip(exact, boxes):
            assert inside(point.real, box.re) and inside(point.imag, box.im)
        multiplier, w = mpc(1), z
        for _ in range(3):
            multiplier *= 4 * w * (w * w + c.conjugate())
            w = (w * w + c.conjugate()) ** 2 + c
        assert inside(multiplier.real, enclosure.re)
        assert inside(multiplier.imag, enclosure.im)
    if status == "T":
        assert PAPER_X_REGION.contains_box(boxes[0]) and not enclosure.im.contains(0.0)


def _grid_cert(claim, rect, undetermined):
    """A depth-2 certificate of rect: the cells (column, row) listed are
    Undetermined, the others TRUE."""
    cells = [(i, j) for j in range(4) for i in range(4)]
    boxes = {(i, j): rect.quarter()[(j // 2) * 2 + i // 2].quarter()[(j % 2) * 2 + i % 2]
             for i, j in cells}
    leaves = [Leaf(2, boxes[cell], Status.UNDETERMINED if cell in undetermined else Status.TRUE)
              for cell in cells]
    return ParamCertificate.of(claim.name, rect, claim.config(), leaves)


@pytest.mark.parametrize("red_extra, status", [
    ((1, 3), Status.UNDETERMINED),  # shares an edge with the yellow (0, 3)
    ((1, 2), Status.UNDETERMINED),  # shares the corner (1/4, 3/4) with (0, 3)
    ((2, 2), Status.TRUE),          # touches no yellow cell
])
def test_disjointness_verdict_of_touching_closed_boxes(monkeypatch, red_extra, status):
    # yellow holds two cells of the left column, red the right column and
    # one more cell; exactly one yellow and one red closed box meet, or none
    rect = ComplexBox(Interval(0.0, 1.0), Interval(0.0, 1.0))
    yellow, red = {(0, 0), (0, 3)}, {(3, 0), (3, 1), (3, 2), (3, 3), red_extra}

    def scan(rect, claim, max_depth, min_width=0.0):
        cells = yellow if isinstance(claim, MultiplierNonRealClaim) else red
        return _grid_cert(claim, rect, cells)

    monkeypatch.setattr(verify, "adaptive_scan", scan)
    found, yellow_cert, red_cert = disjointness_certificate(rect, 9, None, 2)
    pairs = [(a, b) for a in yellow_cert.leaves for b in red_cert.leaves
             if a.status is b.status is Status.UNDETERMINED and a.box.intersects(b.box)]
    assert len(pairs) == (status is Status.UNDETERMINED)
    assert found is status

