"""Exact angle arithmetic and the certified period-3 centers."""

import time
from fractions import Fraction

import pytest
from mpmath import findroot, mpc, mpf, sqrt, workdps

from tricert.combinatorics import (
    AIRPLANE_CUBIC,
    Angle,
    angle_map,
    per3_residuals,
    periodic_angles,
    real_root_enclosure,
    solve_period3_centers,
    unlinked,
)
from tricert.intervals import Interval

# independently computed by 60 rounds of plain bisection on c^3+2c^2+c+1
AIRPLANE_ROOT = -1.7548776662466927


class TestAngle:
    def test_reduction_mod_one(self):
        assert Angle(5, 3) == Angle(2, 3)
        assert Angle(-1, 3) == Angle(2, 3)

    def test_map_fixed_angle(self):
        assert angle_map(Angle(1, 3)) == Angle(1, 3)

    def test_map_three_sevenths(self):
        assert angle_map(Angle(3, 7)) == Angle(1, 7)

    def test_map_zero(self):
        assert angle_map(Angle(0)) == Angle(0)

    def test_orbit_of_three_sevenths(self):
        # 3/7 -> 1/7 -> 5/7 -> 4/7 -> 6/7 -> 2/7 -> 3/7, period 6
        orbit = [Angle(3, 7)]
        for _ in range(5):
            orbit.append(angle_map(orbit[-1]))
        assert orbit == [
            Angle(3, 7), Angle(1, 7), Angle(5, 7),
            Angle(4, 7), Angle(6, 7), Angle(2, 7),
        ]
        assert angle_map(orbit[-1]) == orbit[0]


class TestPeriodicAngles:
    def test_small_counts(self):
        for n in range(1, 8):
            assert len(periodic_angles(n)) == abs((-2) ** n - 1)

    def test_denominator_three_for_n2(self):
        angles = set(periodic_angles(2))
        assert angles == {Angle(0), Angle(1, 3), Angle(2, 3)}

    def test_brute_force_oracle(self):
        # an angle is n-periodic iff n applications of the map return it
        for n in range(1, 6):
            expected = set(periodic_angles(n))
            denominator = abs((-2) ** n - 1)
            brute = set()
            for k in range(denominator * 3):
                theta = Angle(Fraction(k, denominator * 3))
                current = theta
                for _ in range(n):
                    current = angle_map(current)
                if current == theta:
                    brute.add(theta)
            assert brute == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            periodic_angles(0)


class TestUnlinked:
    def test_separated_pairs(self):
        assert unlinked([Angle(1, 7), Angle(2, 7)], [Angle(3, 7), Angle(4, 7)])

    def test_interleaved_pairs(self):
        assert not unlinked([Angle(1, 7), Angle(4, 7)], [Angle(2, 7), Angle(6, 7)])

    def test_empty_divider(self):
        assert unlinked([Angle(1, 3)], [])

    def test_wraparound_gap(self):
        assert unlinked([Angle(9, 10), Angle(1, 10)], [Angle(3, 10), Angle(6, 10)])

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            unlinked([Angle(1, 3)], [Angle(1, 3), Angle(2, 3)])


class TestPer3:
    def test_origin_residuals(self):
        re, _ = per3_residuals(Interval.point(0.0), Interval.point(0.0))
        assert re.contains(0.0)

    def test_real_center_residual(self):
        root = real_root_enclosure(AIRPLANE_CUBIC, Interval(-1.8, -1.7))
        s = root.scale(2.0)  # s = c + conj(c) = 2c for real c
        t = root.sqr()
        re, _ = per3_residuals(s, t)
        assert re.contains(0.0)

    def test_case_two_relation(self):
        # with t = s^2 the odd factor s^3 - (s-1)(1+2t) vanishes at the
        # root of s^3 - 2s^2 + s - 1
        s_root = real_root_enclosure((-1.0, 1.0, -2.0, 1.0), Interval(1.0, 2.0))
        _, im_factor = per3_residuals(s_root, s_root.sqr())
        assert im_factor.contains(0.0)


class TestRealRootEnclosure:
    def test_airplane_root(self):
        root = real_root_enclosure(AIRPLANE_CUBIC, Interval(-1.8, -1.7))
        assert root.width() < 1e-12
        assert abs(root.midpoint() - AIRPLANE_ROOT) < 1e-10

    def test_case_one_root(self):
        root = real_root_enclosure((3.0, -3.0, 0.0, 1.0), Interval(-3.0, -2.0))
        assert abs(root.midpoint() - (-2.103803402735536)) < 1e-9
        assert root.hi < -2.0

    def test_negated_airplane_root(self):
        root = real_root_enclosure((-1.0, 1.0, -2.0, 1.0), Interval(1.0, 2.0))
        assert abs(root.midpoint() + AIRPLANE_ROOT) < 1e-10

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            real_root_enclosure(AIRPLANE_CUBIC, Interval(0.0, 1.0))


class TestCenters:
    def test_four_certified_centers(self):
        start = time.time()
        solutions = solve_period3_centers()
        elapsed = time.time() - start
        assert elapsed < 1.0
        labels = [sol.label for sol in solutions]
        assert labels == ["zero", "c*", "omega*c*", "omega2*c*"]
        for sol in solutions:
            assert sol.c.width() < 1e-9

    def test_real_center_value(self):
        solutions = solve_period3_centers()
        c_star = next(s for s in solutions if s.label == "c*")
        # -1.7548... is a truncation, so compare truncated digits
        assert f"{c_star.c.midpoint().real:.10f}".startswith("-1.7548")
        assert abs(c_star.c.midpoint().real - AIRPLANE_ROOT) < 1e-10
        assert c_star.c.im == Interval.point(0.0)

    def test_rotation_consistency(self):
        solutions = solve_period3_centers()
        by_label = {s.label: s.c.midpoint() for s in solutions}
        base = abs(by_label["c*"])
        assert abs(abs(by_label["omega*c*"]) - base) < 1e-9
        assert abs(abs(by_label["omega2*c*"]) - base) < 1e-9

    def test_rotated_centers_hold_the_exact_rotations(self):
        # oracle: the real root of c^3 + 2c^2 + c + 1 at 50 digits, and its
        # rotations by omega = (-1 + sqrt(3) i) / 2
        by_label = {s.label: s.c for s in solve_period3_centers()}
        with workdps(50):
            root = findroot(lambda c: ((c + 2) * c + 1) * c + 1, mpf(-1.75))
            omega = mpc(-1, sqrt(3)) / 2
            for label, point in (("c*", root), ("omega*c*", omega * root),
                                 ("omega2*c*", omega ** 2 * root)):
                box = by_label[label]
                assert mpf(box.re.lo) <= point.real <= mpf(box.re.hi), label
                assert mpf(box.im.lo) <= point.imag <= mpf(box.im.hi), label
