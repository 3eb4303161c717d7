"""The certified period-3 centers."""

import cmath
import math
import time

import numpy as np
import pytest
from mpmath import findroot, mpc, mpf, sqrt, workdps

import scalar
from tricert import combinatorics
from tricert.combinatorics import (
    AIRPLANE_CUBIC,
    OMEGA,
    real_root_enclosure,
    solve_period3_centers,
)
from tricert.intervals import Interval

# independently computed by 60 rounds of plain bisection on c^3+2c^2+c+1
AIRPLANE_ROOT = -1.7548776662466927


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

    def test_horner_steps_have_the_scalar_bits(self):
        # the enclosure on endpoint pairs is the scalar acc * x + a, step by
        # step, at 2,001 points of the bracket
        for x in np.linspace(-1.8, -1.7, 2001).tolist():
            acc = scalar.Interval.point(0.0)
            for a in reversed(AIRPLANE_CUBIC):
                acc = acc * scalar.Interval.point(x) + scalar.Interval.point(a)
            lo, hi = combinatorics._poly_enclosure(AIRPLANE_CUBIC, x)
            assert (float(lo).hex(), float(hi).hex()) == (acc.lo.hex(), acc.hi.hex())


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
        # omega^k c* is c* turned by 2 pi k / 3: a swapped or unrotated
        # center changes the argument differences
        solutions = solve_period3_centers()
        by_label = {s.label: s.c.midpoint() for s in solutions}
        base = cmath.phase(by_label["c*"])
        for label, turn in (("omega*c*", 2 * math.pi / 3), ("omega2*c*", 4 * math.pi / 3)):
            diff = (cmath.phase(by_label[label]) - base) % (2 * math.pi)
            assert abs(diff - turn) < 1e-9, label

    def test_rotations_have_the_bits_of_the_scalar_products(self):
        # the one-row BoxArray products against the scalar OMEGA * c* and
        # (OMEGA * OMEGA) * c*
        by_label = {s.label: s.c for s in solve_period3_centers()}
        omega, star = scalar.box(OMEGA), scalar.box(by_label["c*"])
        assert by_label["omega*c*"] == omega * star
        assert by_label["omega2*c*"] == omega * omega * star

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
