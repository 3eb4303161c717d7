"""Parameter-space predicates: boundary tests, counting, cycle claims."""

import math
import random

import pytest

from tricert.intervals import ComplexBox, Interval
from tricert.verify import (
    TWO_PI,
    ContourEnclosure,
    Status,
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
        result, refined = multiplier_im_excludes_zero(
            ComplexBox.point(1e8 + 1e8j)
        )
        assert result.status is Status.UNDETERMINED

    def test_multiplier_real_on_real_axis(self):
        # conjugation symmetry forces a real multiplier for real c
        c = ComplexBox.around(-0.2 + 0j, 1e-10)
        result, _ = multiplier_im_excludes_zero(c, guess=0.17 + 0j)
        assert result.status is not Status.TRUE


def test_two_pi_encloses_tau():
    assert TWO_PI.lo < math.tau < TWO_PI.hi or TWO_PI.contains(math.tau)
    assert TWO_PI.width() < 1e-14
