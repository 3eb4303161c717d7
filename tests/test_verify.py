"""Parameter-space predicates: boundary tests, counting, cycle claims."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workdps

from tricert import verify
from tricert.cli import PAPER_R, PAPER_X_REGION
from tricert.dynamics import cycle_multiplier, float_iterate
from tricert.intervals import ComplexBox, Interval, ZeroDivisionBoxError
from tricert.verify import (
    TWO_PI,
    ContourEnclosure,
    MultiplierNonRealClaim,
    Status,
    _certify_tracked_cycle,
    attracting_cycle_box,
    boundary_disjoint,
    contour_integral,
    count_fixed_points,
    decide_count,
    find_superattracting_parameter,
    float_orbit_of_zero,
    multiplier_im_excludes_zero,
    parabolic_excluded,
    preimage_count,
)

R_RECT = ComplexBox(Interval(-1.73875, -1.73825), Interval(0.01555, 0.01605))
U_RECT = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))


def _poly_fns(roots):
    """val/der box evaluators for prod (z - r) over the given roots."""

    def val(z: ComplexBox) -> ComplexBox:
        acc = ComplexBox.point(1 + 0j)
        for r in roots:
            acc = acc * (z - ComplexBox.point(r))
        return acc

    def der(z: ComplexBox) -> ComplexBox:
        total = ComplexBox.point(0j)
        for skip in range(len(roots)):
            acc = ComplexBox.point(1 + 0j)
            for j, r in enumerate(roots):
                if j != skip:
                    acc = acc * (z - ComplexBox.point(r))
            total = total + acc
        return total

    return val, der


# The depth-first contour integral that preceded the level-synchronous one
# in tricert.verify, kept as the bitwise oracle for it.


def _scalar_edge_integral(val_fn, der_fn, a: complex, b: complex, budget: float, depth: int):
    """Enclosure of the integral of der/val along the straight segment a->b.

    Returns (box, segments) or None when the denominator cannot be
    certified nonzero at full depth.  The average of the integrand over
    the segment lies in its enclosure, so each piece contributes
    enclosure * (b - a).
    """
    seg = ComplexBox.point(a).hull(ComplexBox.point(b))
    try:
        integrand = der_fn(seg) * val_fn(seg).recip()
    except ZeroDivisionBoxError:
        integrand = None
    if integrand is not None:
        contribution = integrand * ComplexBox.point(b - a)
        if contribution.width() <= budget or depth <= 0:
            return contribution, 1
    elif depth <= 0:
        return None
    mid = complex(
        Interval(min(a.real, b.real), max(a.real, b.real)).midpoint(),
        Interval(min(a.imag, b.imag), max(a.imag, b.imag)).midpoint(),
    )
    left = _scalar_edge_integral(val_fn, der_fn, a, mid, budget / 2.0, depth - 1)
    if left is None:
        return None
    right = _scalar_edge_integral(val_fn, der_fn, mid, b, budget / 2.0, depth - 1)
    if right is None:
        return None
    return left[0] + right[0], left[1] + right[1]


def _scalar_contour_integral(
    val_fn,
    der_fn,
    region: ComplexBox,
    tol: float = 1.0,
    max_depth: int = 16,
) -> ContourEnclosure | None:
    """Enclosure of the counterclockwise contour integral of der/val over
    the boundary of an axis-aligned rectangle.

    None when the denominator enclosure cannot exclude 0 on some piece of
    the contour at full subdivision depth.
    """
    z00 = complex(region.re.lo, region.im.lo)
    z10 = complex(region.re.hi, region.im.lo)
    z11 = complex(region.re.hi, region.im.hi)
    z01 = complex(region.re.lo, region.im.hi)
    total = ComplexBox.point(0j)
    segments = 0
    for a, b in ((z00, z10), (z10, z11), (z11, z01), (z01, z00)):
        piece = _scalar_edge_integral(val_fn, der_fn, a, b, tol / 4.0, max_depth)
        if piece is None:
            return None
        total = total + piece[0]
        segments += piece[1]
    return ContourEnclosure(total, segments)


def _enc_hex(enc):
    if enc is None:
        return None
    v = enc.value
    return tuple(x.hex() for x in (v.re.lo, v.re.hi, v.im.lo, v.im.hi)), enc.segments


class _BothContours:
    """Stands in for verify.contour_integral: runs it and the oracle on the
    same arguments and records both results."""

    def __init__(self):
        self.results = []

    def __call__(self, *args):
        new = contour_integral(*args)
        self.results.append((_enc_hex(new), _enc_hex(_scalar_contour_integral(*args))))
        return new


def _against_oracle(fn, *args):
    """The (new, oracle) contour results of the contour fn runs."""
    both = _BothContours()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "contour_integral", both)
        fn(*args)
    assert both.results
    return both.results


# the unit square, and a flat one whose edges run from -0.0 to 0.0
_REGIONS = (ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
            ComplexBox(Interval(-0.0, 0.0), Interval(-1.0, 1.0)))
# a root coordinate in the plane, or exactly on the line of an edge
_ROOT_COORD = st.one_of(st.floats(-1.6, 1.6), st.sampled_from((-1.0, 0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(complex, _ROOT_COORD, _ROOT_COORD), min_size=1, max_size=4),
       st.sampled_from(_REGIONS), st.sampled_from((0.3, 1.5)), st.sampled_from((0, 3, 8)))
def test_contour_matches_scalar_oracle_on_polynomials(roots, region, tol, depth):
    val, der = _poly_fns(roots)
    new = contour_integral(val, der, region, tol, depth)
    assert _enc_hex(new) == _enc_hex(_scalar_contour_integral(val, der, region, tol, depth))
    re, im = region.re, region.im
    if any(region.contains(r) and (r.real in (re.lo, re.hi) or r.imag in (im.lo, im.hi))
           for r in roots):
        assert new is None  # a zero on the contour


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-6, 1e-4)),
       st.sampled_from((2, 4, 6)), st.sampled_from((2, 5, 7)))
@example(0.25, 0.25, 1.25e-4, 6, 10)  # a quarter of R at the paper's settings
def test_contour_matches_scalar_oracle_on_the_count_integrand(u, v, radius, n, depth):
    c = ComplexBox.around(complex(PAPER_R.re.lo + u * PAPER_R.re.width(),
                                  PAPER_R.im.lo + v * PAPER_R.im.width()), radius)
    [(new, old)] = _against_oracle(count_fixed_points, c, PAPER_X_REGION, n, 2.0, depth)
    assert new == old


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.sampled_from((1, 3)),
       st.sampled_from((0.5, 1.0)), st.sampled_from((3, 8)))
def test_contour_matches_scalar_oracle_on_preimage_count(x, y, n, tol, depth):
    c = ComplexBox.around(R_RECT.midpoint(), 1e-6)
    [(new, old)] = _against_oracle(preimage_count, c, complex(x, y), U_RECT, n, tol, depth)
    assert new == old


def test_overflow_is_undetermined():
    # f^2 overflows on every piece of this contour; Undetermined, not a raise
    far = ComplexBox(Interval(1e80, 2e80), Interval(1e80, 2e80))
    assert count_fixed_points(ComplexBox.point(0j), far, 2) == (None, None)


class TestBoundaryDisjoint:
    def test_reference_rectangle_verified(self):
        result = boundary_disjoint(R_RECT, U_RECT, 3)
        assert result.status is Status.TRUE

    def test_origin_fails_the_degree_check(self):
        # for c=0 the boundary image z^8-bar lands inside U, but the
        # restriction has degree 8, which the anchor preimage count rejects
        from tricert.verify import qlike_certificate

        rect = ComplexBox(Interval(-0.001, 0.001), Interval(-0.001, 0.001))
        cert = qlike_certificate(rect, U_RECT, 3, 0j, max_depth=0)
        assert cert.config["anchor_preimage_count"] == "8"
        assert cert.rollup(acknowledge_assumptions=True) is not Status.TRUE

    def test_degenerate_u_rejected(self):
        flat = ComplexBox(Interval(-0.3, 0.3), Interval.point(0.0))
        with pytest.raises(ValueError):
            boundary_disjoint(R_RECT, flat, 3)

    def test_bad_iterate_rejected(self):
        with pytest.raises(ValueError):
            boundary_disjoint(R_RECT, U_RECT, 0)


class TestContourCounting:
    def test_quartic_fixed_points(self):
        # c=0, n=2: fixed points of z^4 in the square are 0, 1, and the
        # two complex cube roots of unity
        region = ComplexBox(Interval(-1.5, 1.5), Interval(-1.5, 1.5))
        enc, count = count_fixed_points(ComplexBox.point(0j), region, 2)
        assert enc is not None
        assert count == 4
        assert enc.value.im.intersects(TWO_PI.scale(4.0))

    def test_empty_region(self):
        region = ComplexBox(Interval(10.0, 11.0), Interval(10.0, 11.0))
        enc, count = count_fixed_points(ComplexBox.point(0j), region, 2)
        assert count == 0
        assert enc.value.contains(0j)

    def test_odd_iterate_rejected(self):
        with pytest.raises(ValueError):
            count_fixed_points(ComplexBox.point(0j), U_RECT, 3)

    def test_decide_count_needs_isolation(self):
        wide = ContourEnclosure(
            ComplexBox(Interval(-0.1, 0.1), Interval(0.0, 20.0)), 4
        )
        assert decide_count(wide) is None
        offset = ContourEnclosure(
            ComplexBox(Interval(1.0, 2.0), Interval(6.0, 7.0)), 4
        )
        assert decide_count(offset) is None

    def test_random_polynomials_match_root_oracle(self):
        rng = random.Random(31)
        region = ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
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
            val, der = _poly_fns(roots)
            enc = contour_integral(val, der, region, tol=1.5, max_depth=12)
            assert enc is not None
            assert enc.value.re.contains(0.0)
            assert enc.value.im.intersects(TWO_PI.scale(float(inside)))
            assert decide_count(enc) == inside
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


class TestCycleClaims:
    def test_attracting_fixed_point_of_origin(self):
        result, refined = attracting_cycle_box(
            ComplexBox.around(0.05 + 0.02j, 1e-9), 1, [0.06 + 0.03j]
        )
        assert result.status is Status.TRUE
        assert refined is not None

    def test_repelling_cycle_reported_false(self):
        # the fixed point of f_c near z=1 for c=0 has multiplier 4
        result, _ = attracting_cycle_box(
            ComplexBox.around(0j, 1e-9), 1, [1.0 + 0j]
        )
        assert result.status is Status.FALSE

    def test_attracting_period9_at_component_center(self):
        center = find_superattracting_parameter(9, R_RECT.midpoint())
        orbit = float_orbit_of_zero(center, 9)
        result, _ = attracting_cycle_box(ComplexBox.around(center, 1e-10), 9, orbit)
        assert result.status is Status.TRUE

    def test_repeated_shorter_cycle_is_not_certified(self):
        # the period-3 orbit of 0 at the airplane center, traversed twice,
        # solves the coupled period-6 system but is no cycle of period 6
        c = find_superattracting_parameter(3, -1.75 + 0j)
        orbit = float_orbit_of_zero(c, 3) * 2
        box = ComplexBox.around(c, 1e-10)
        attracting, _ = attracting_cycle_box(box, 6, orbit)
        excluded, _ = parabolic_excluded(box, 6, orbit)
        assert attracting.status is Status.UNDETERMINED
        assert excluded.status is Status.UNDETERMINED

    def test_multiplier_nonreal_newton_failure(self):
        c = 1e8 + 1e8j
        orbit = [float_iterate(c, 0.04 + 0.04j, k) for k in range(6)]
        result, refined = multiplier_im_excludes_zero(ComplexBox.point(c), orbit)
        assert result.status is Status.UNDETERMINED

    def test_multiplier_real_on_real_axis(self):
        # conjugation symmetry forces a real multiplier for real c; at c = -2
        # the real 6-cycle 2 cos(2 pi 2^k / 63) is certified, yet not TRUE
        c = ComplexBox.around(-2.0 + 0j, 1e-10)
        orbit = [2.0 * math.cos(math.tau * 2**k / 63) + 0j for k in range(6)]
        assert _certify_tracked_cycle(c, 6, orbit) is not None
        result, _ = multiplier_im_excludes_zero(c, orbit)
        assert result.status is not Status.TRUE

    def test_multiplier_needs_the_fixed_point_box_in_the_region(self):
        # a region that holds the float fixed point but not its whole
        # certified box says nothing about the fixed point of f^6 in it
        c = ComplexBox.around(PAPER_R.midpoint(), 1e-6)
        orbit = MultiplierNonRealClaim().initial_seed(c)
        z0 = _certify_tracked_cycle(c, 6, orbit)[0]
        cut = ComplexBox(Interval(0.0, (orbit[0].real + z0.re.hi) / 2.0), PAPER_X_REGION.im)
        assert cut.contains(orbit[0]) and not cut.contains_box(z0)
        whole, _ = multiplier_im_excludes_zero(c, orbit, PAPER_X_REGION)
        partial, _ = multiplier_im_excludes_zero(c, orbit, cut)
        assert whole.status is Status.TRUE
        assert partial.status is Status.UNDETERMINED

    def test_multiplier_claim_echoes_its_region(self):
        assert MultiplierNonRealClaim(PAPER_X_REGION).config() == {
            "guess": "0.04,0.04", "region": "0.0,0.08,0.0,0.08"}
        assert "region" not in MultiplierNonRealClaim().config()


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
    result, orbit = claim.evaluate(cbox, claim.initial_seed(cbox))
    boxes = _certify_tracked_cycle(cbox, 6, orbit)
    assume(boxes is not None)
    enclosure = cycle_multiplier(boxes)
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
    if result.status is Status.TRUE:
        assert PAPER_X_REGION.contains_box(boxes[0]) and not enclosure.im.contains(0.0)


def test_two_pi_encloses_tau():
    assert TWO_PI.lo < math.tau < TWO_PI.hi or TWO_PI.contains(math.tau)
    assert TWO_PI.width() < 1e-14
