"""Map evaluation, derivatives, and cycle certification."""

import functools
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workdps

import scalar
from scalar import ComplexBox, Interval, eval_f
from tricert import dynamics, intervals, verify
from tricert.cli import PAPER_R, PAPER_X_REGION
from tricert.combinatorics import OMEGA
from tricert.dynamics import (
    conj_holomorphic_form,
    cycle_multiplier,
    even_iterate,
    float_f,
    float_iterate,
    float_newton_rows,
    krawczyk_absence,
    krawczyk_cycle_rows,
    multiplier_rows,
    squared_modulus_rows,
)
from tricert.intervals import BoxArray, EmptyIntervalError, _abs_pair
from tricert.scan import adaptive_scan, serialize
from tricert.verify import (
    MultiplierNonRealClaim,
    ParabolicExclusionClaim,
    Status,
    find_superattracting_parameter,
    float_orbit_of_zero,
    tracked_cycle_level,
)


def _batch_of_points(values) -> BoxArray:
    """The points as the rows of a batch."""
    return BoxArray.of([ComplexBox.point(v) for v in values])


def _pt(z: complex) -> BoxArray:
    """The point z as a one-row batch."""
    return _batch_of_points([z])


def _rows(boxes):
    """The (1, 2p) endpoint rows of one orbit's boxes."""
    lo = np.array([[v for b in boxes for v in (b.re.lo, b.im.lo)]])
    hi = np.array([[v for b in boxes for v in (b.re.hi, b.im.hi)]])
    return lo, hi


def _orbit_boxes(lo, hi) -> list[ComplexBox]:
    """The orbit boxes of one (2p,) endpoint row."""
    return BoxArray((lo[0::2], hi[0::2]), (lo[1::2], hi[1::2])).boxes()


def _krawczyk_cycle(c: ComplexBox, orbit, radius: float):
    """krawczyk_cycle_rows on one row: its certified orbit boxes, or None."""
    certified, lo, hi, _ = krawczyk_cycle_rows(
        BoxArray.of([c]), dynamics._around(np.array([orbit], dtype=complex), radius),
        np.array([radius]))
    return _orbit_boxes(lo[0], hi[0]) if certified[0] else None


def _float_newton(c: complex, orbit):
    """float_newton_rows on one row: its refined orbit and residual."""
    orbits, residual = float_newton_rows(np.array([c], dtype=complex),
                                         np.array([orbit], dtype=complex))
    return orbits[0].tolist(), float(residual[0])


def _squared_modulus(boxes) -> Interval:
    """squared_modulus_rows of one orbit, as an Interval."""
    lo, hi = squared_modulus_rows(*_rows(boxes))
    return Interval(float(lo[0]), float(hi[0]))


class TestEvaluation:
    # the map z.sqr().conj() + c on one-row batches, and on a batch of 2000
    def test_eval_f_at_i(self):
        assert eval_f(_pt(0j), _pt(1j)).contains(-1 + 0j)[0]

    def test_superattracting_two_cycle(self):
        c = _pt(-1 + 0j)
        z1 = eval_f(c, _pt(0j))
        assert z1.contains(-1 + 0j)[0]
        assert eval_f(c, z1).contains(0j)[0]

    def test_eval_f2_point(self):
        # c=0, z=2: second iterate is z^4
        assert even_iterate(_pt(0j), _pt(2 + 0j), 2)[0].contains(16 + 0j)[0]

    def test_eval_f2_matches_composition(self):
        rng = random.Random(11)
        pairs = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                  complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(2000)]
        c, z = (_batch_of_points(column) for column in zip(*pairs))
        twice = eval_f(c, eval_f(c, z))
        direct, _ = even_iterate(c, z, 2)
        for (a, b), t, d in zip(pairs, twice.boxes(), direct.boxes()):
            w = float_f(a, float_f(a, b))
            assert t.contains(w)
            assert d.contains(w)
            assert d.intersects(t)

    def test_iterate_integer_orbit(self):
        # c=1, z=1: 1, 2, 5, 26, 677, exactly representable
        z = _pt(1 + 0j)
        for value in (1.0, 2.0, 5.0, 26.0, 677.0):
            assert z.contains(complex(value, 0.0))[0]
            z = eval_f(_pt(1 + 0j), z)

    def test_iterate_alternating_orbit(self):
        z = _pt(0j)
        for value in (0.0, -1.0, 0.0, -1.0, 0.0):
            assert z.contains(complex(value, 0.0))[0]
            z = eval_f(_pt(-1 + 0j), z)


class TestEscape:
    def test_conjugation_symmetry(self):
        # float orbits commute with conjugation bit-exactly
        rng = random.Random(12)
        for _ in range(200):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for k in range(1, 12):
                a = float_iterate(c, 0j, k)
                b = float_iterate(c.conjugate(), 0j, k)
                if abs(a.real) > 1e100 or abs(a.imag) > 1e100:
                    break
                assert a.conjugate() == b


class TestDerivatives:
    def test_critical_point(self):
        _, d = even_iterate(_pt(1j), _pt(0j), 2)
        assert d.contains(0j)[0]

    def test_quartic_derivative(self):
        # c=0: f^2 = z^4, derivative 4 at z=1
        _, d = even_iterate(_pt(0j), _pt(1 + 0j), 2)
        assert d.contains(4 + 0j)[0]

    def test_finite_difference_agreement(self):
        rng = random.Random(13)
        h = 1e-7
        checked = 0
        while checked < 300:
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            n = rng.choice((2, 4))

            def g(w):
                for _ in range(n // 2):
                    w = (w * w + c.conjugate()) ** 2 + c
                return w

            approx = (g(z + h) - g(z - h)) / (2 * h)
            if abs(approx) < 1e-3:
                continue
            v, d = (b.boxes()[0].midpoint() for b in even_iterate(_pt(c), _pt(z), n))
            assert abs(v - g(z)) <= 1e-9 * max(1.0, abs(g(z)))
            assert abs(d - approx) <= 1e-6 * abs(approx)
            checked += 1

    def test_cycle_multiplier_is_the_chain_rule(self):
        # prod 4 z_2j conj(z_2j+1) is the derivative of f^n along any orbit
        rng = random.Random(29)
        for _ in range(200):
            c = _pt(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            z = _pt(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            n = rng.choice((2, 4, 6))
            orbit = [z]
            for _ in range(n - 1):
                orbit.append(eval_f(c, orbit[-1]))
            [multiplier] = cycle_multiplier(orbit).boxes()
            assert multiplier.intersects(even_iterate(c, z, n)[1].boxes()[0])

    def test_cycle_multiplier_needs_even_period(self):
        with pytest.raises(ValueError):
            cycle_multiplier([_pt(0j), _pt(1 + 0j), _pt(1j)])

    def test_modulus_superattracting(self):
        orbit = [ComplexBox.point(0j), ComplexBox.point(-1 + 0j)]
        assert _squared_modulus(orbit).contains(0.0)

    def test_modulus_lower_bound_with_origin(self):
        orbit = [ComplexBox(Interval(-0.1, 0.1), Interval(-0.1, 0.1)), ComplexBox.point(1 + 0j)]
        m = _squared_modulus(orbit)
        assert m.contains(0.0)
        assert -1e-300 <= m.lo <= 0.0


class TestConjHolomorphicForm:
    def test_identity_n1(self):
        z = 1 + 1j
        h = conj_holomorphic_form(_pt(0j), _pt(z), 1)[0].boxes()[0].midpoint()
        assert abs(h.conjugate() - float_f(0j, z)) < 1e-12

    def test_point_agreement_n3(self):
        rng = random.Random(14)
        pairs = [(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                  complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(2000)]
        h, _ = conj_holomorphic_form(*(_batch_of_points(column) for column in zip(*pairs)), 3)
        for (c, z), enclosure in zip(pairs, h.conj().boxes()):
            assert enclosure.contains(float_iterate(c, z, 3))


class TestKrawczyk:
    def test_superattracting_two_cycle(self):
        boxes = _krawczyk_cycle(ComplexBox.point(-1 + 0j), [0j, -1 + 0j], 1e-6)
        assert boxes is not None
        assert boxes[0].contains(0j)
        assert boxes[1].contains(-1 + 0j)
        assert _squared_modulus(boxes).contains(0.0)

    def test_fixed_point_at_origin(self):
        boxes = _krawczyk_cycle(ComplexBox.point(0j), [0j], 1e-6)
        assert boxes is None or boxes[0].contains(0j)

    def test_attracting_fixed_point(self):
        c = 0.1 + 0.05j
        orbit, residual = _float_newton(c, [0.1 + 0.1j])
        assert residual < 1e-12
        boxes = _krawczyk_cycle(ComplexBox.point(c), orbit, 1e-8)
        assert boxes is not None
        assert boxes[0].contains(orbit[0])

    def test_certification_over_small_parameter_box(self):
        c = ComplexBox.around(0.1 + 0.05j, 1e-6)
        orbit, _ = _float_newton(0.1 + 0.05j, [0.1 + 0.1j])
        assert _krawczyk_cycle(c, orbit, 1e-6) is not None

    def test_absence_far_from_any_cycle(self):
        assert krawczyk_absence(ComplexBox.point(0j), 1, [5 + 5j], 1e-3)

    def test_absence_refuses_genuine_cycle(self):
        orbit, _ = _float_newton(0.1 + 0.05j, [0.1 + 0.1j])
        assert not krawczyk_absence(ComplexBox.point(0.1 + 0.05j), 1, orbit, 1e-3)

    def test_guess_length_checked(self):
        with pytest.raises(ValueError, match="orbit guess length must equal the period"):
            tracked_cycle_level(_pt(0j), 2, [[0j]])
        with pytest.raises(ValueError):
            krawczyk_absence(ComplexBox.point(0j), 2, [0j], 1e-6)


class TestFloatNewtonCycle:
    def test_two_cycle_converges(self):
        orbit, residual = _float_newton(-1 + 0j, [0.05 + 0.01j, -0.9 - 0.02j])
        assert residual < 1e-12
        values = sorted((round(z.real, 6), round(z.imag, 6)) for z in orbit)
        assert values == [(-1.0, 0.0), (0.0, 0.0)]


def test_omega_enclosure_is_cube_root_of_unity():
    # OMEGA is the scalar sqrt(3), halved: [-0.5] + sqrt([3, 3]) / 2 i
    assert OMEGA == ComplexBox(Interval.point(-0.5), Interval.point(3.0).sqrt().scale(0.5))
    omega = BoxArray.of([OMEGA])
    [w3] = (omega * omega * omega).boxes()
    assert w3.contains(1 + 0j)
    assert w3.width() < 1e-14


# ---------------------------------------------------------------------------
# the array Krawczyk kernel against the scalar Interval evaluation
# ---------------------------------------------------------------------------


# the scalar Interval kernel, rounded outward after every operation, kept
# verbatim (with the residual helper it called) but for its preconditioner,
# which _scalar_inverse forms and the caller passes in: the oracle of the
# image's regular rows and width, and of the tracked scans' certificate bytes
def _cycle_residuals(c: ComplexBox, points: list[ComplexBox]) -> list[ComplexBox]:
    p = len(points)
    return [eval_f(c, points[i]) - points[(i + 1) % p] for i in range(p)]


def _scalar_inverse(boxes: list[ComplexBox]):
    """The floating-point inverse of the Jacobian at the boxes' midpoints,
    or None when it is singular."""
    p = len(boxes)
    mids = [b.midpoint() for b in boxes]
    # float midpoint Jacobian: d f(z) / d(x, y) = [[2x, -2y], [-2y, -2x]]
    j0 = np.zeros((2 * p, 2 * p))
    for i, m in enumerate(mids):
        j0[2 * i, 2 * i] = 2.0 * m.real
        j0[2 * i, 2 * i + 1] = -2.0 * m.imag
        j0[2 * i + 1, 2 * i] = -2.0 * m.imag
        j0[2 * i + 1, 2 * i + 1] = -2.0 * m.real
        k = (i + 1) % p
        j0[2 * i, 2 * k] -= 1.0
        j0[2 * i + 1, 2 * k + 1] -= 1.0
    try:
        y = np.linalg.inv(j0)
    except np.linalg.LinAlgError:
        return None
    return y if np.all(np.isfinite(y)) else None


def _scalar_krawczyk_image(c: ComplexBox, boxes: list[ComplexBox]) -> list[ComplexBox] | None:
    """_scalar_krawczyk_step preconditioned at the boxes' own midpoints."""
    return _scalar_krawczyk_step(c, boxes, _scalar_inverse(boxes))


def _scalar_krawczyk_step(c: ComplexBox, boxes: list[ComplexBox], y) -> list[ComplexBox] | None:
    """One Krawczyk step for the coupled cyclic system G_i = f(z_i) - z_{i+1}.

    Returns the componentwise image K(Z) with the float preconditioner y,
    or None when y is None (a singular Jacobian).  The matrix I - Y J(Z)
    is formed entrywise so Y J(mid) cancels against I before interval
    widths add.  G is exactly linear in c, so the parameter enters once
    per row with a signed coefficient and the orbit's c-sensitivities can
    cancel.
    """
    if y is None:
        return None
    c, boxes = scalar.box(c), [scalar.box(b) for b in boxes]
    p = len(boxes)
    mids = [b.midpoint() for b in boxes]
    c_mid = c.midpoint()
    cu = c.re - Interval.point(c_mid.real)
    cv = c.im - Interval.point(c_mid.imag)
    gm = _cycle_residuals(ComplexBox.point(c_mid), [ComplexBox.point(m) for m in mids])
    rvec: list[Interval] = []
    for b, m in zip(boxes, mids):
        rvec.extend((b.re - Interval.point(m.real), b.im - Interval.point(m.imag)))
    n = 2 * p
    dblocks = []
    for b in boxes:
        x2, y2 = b.re.scale(2.0), b.im.scale(2.0)
        dblocks.append(((x2, -y2), (-y2, -x2)))
    # K = m - Y G(m) + (I - Y J(Z)) (Z - m)
    kvec: list[Interval] = []
    for r in range(n):
        acc = Interval.point(0.0)
        for j in range(p):
            d = dblocks[j]
            prev = (j - 1) % p
            for col in (0, 1):
                cc = 2 * j + col
                yj = (
                    d[0][col].scale(y[r, 2 * j])
                    + d[1][col].scale(y[r, 2 * j + 1])
                    - Interval.point(y[r, 2 * prev + col])
                )
                m_entry = Interval.point(1.0 if r == cc else 0.0) - yj
                acc = acc + m_entry * rvec[cc]
        su = sv = 0.0
        for cidx in range(n):
            coeff = y[r, cidx]
            if cidx % 2 == 0:
                su += coeff
            else:
                sv += coeff
            if coeff != 0.0:
                half = gm[cidx // 2]
                g = half.re if cidx % 2 == 0 else half.im
                acc = acc - g.scale(coeff)
        acc = acc - cu.scale(su) - cv.scale(sv)
        base = mids[r // 2].real if r % 2 == 0 else mids[r // 2].imag
        kvec.append(Interval.point(base) + acc)
    return [ComplexBox(kvec[2 * i], kvec[2 * i + 1]) for i in range(p)]


_PAPER_C = find_superattracting_parameter(9, PAPER_R.midpoint())
_PAPER_ORBIT = float_orbit_of_zero(_PAPER_C, 9)
_RADIUS = st.floats(-9.0, -2.0).map(lambda e: 10.0 ** e)
_PAPER_ROW = (ComplexBox.around(_PAPER_C, 1e-8), [ComplexBox.around(z, 1e-7) for z in _PAPER_ORBIT])


@st.composite
def _krawczyk_row(draw, p):
    """(parameter box, orbit boxes) of period p: point or small parameter
    boxes, and orbits in the plane, on the real axis (where Y has zero
    entries) or about the paper's period-9 orbit."""
    coord = st.floats(-2.0, 2.0)
    kind = draw(st.sampled_from(("plane", "real", "paper") if p == 9 else ("plane", "real")))
    if kind == "paper":
        c, orbit = _PAPER_C, _PAPER_ORBIT
    else:
        c = complex(draw(coord), draw(coord))
        orbit = [complex(draw(coord), 0.0 if kind == "real" else draw(coord))
                 for _ in range(p)]
    boxes = [ComplexBox.around(z, draw(_RADIUS)) for z in orbit]
    c_radius = draw(st.one_of(st.just(0.0), st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)))
    cbox = ComplexBox.around(c, c_radius) if c_radius else ComplexBox.point(c)
    return cbox, boxes


def _krawczyk_inputs():
    return st.sampled_from((1, 2, 3, 9)).flatmap(_krawczyk_row)


def _singular_row(p: int, k: int, point_c: bool):
    """A row whose midpoint Jacobian is singular: every midpoint at 1/2, so
    each block is diag(1, -1) and the cycle's multiplier matrix has
    eigenvalue 1."""
    r = 2.0 ** -k
    boxes = [ComplexBox(Interval(0.5 - r, 0.5 + r), Interval(-r, r))] * p
    c = ComplexBox.point(0.25 + 0j) if point_c else ComplexBox.around(0.25 + 0j, r)
    return c, boxes


def _exact_box(z: complex, r: float) -> ComplexBox:
    """The box of radius r about z, for z -+ r exact in binary64: its
    midpoint is exactly z."""
    return ComplexBox(Interval(z.real - r, z.real + r), Interval(z.imag - r, z.imag + r))


def _batch(rows):
    """The BoxArray of the rows' parameters and the (lo, hi) endpoint rows
    of their orbit boxes."""
    lo = np.array([[t for b in boxes for t in (b.re.lo, b.im.lo)] for _, boxes in rows])
    hi = np.array([[t for b in boxes for t in (b.re.hi, b.im.hi)] for _, boxes in rows])
    return BoxArray.of([c for c, _ in rows]), (lo, hi)


def _row_boxes(k_lo, k_hi, ok, i):
    return _orbit_boxes(k_lo[i], k_hi[i]) if ok[i] else None


def _image(c, boxes):
    """The image boxes of one row from its one-row batch, or None when its
    midpoint Jacobian is singular."""
    return _row_boxes(*dynamics._krawczyk_image(*_batch([(c, boxes)])), 0)


def _bits(image):
    if image is None:
        return None
    return [tuple(x.hex() for x in (b.re.lo, b.re.hi, b.im.lo, b.im.hi)) for b in image]


@functools.lru_cache(maxsize=None)
def _scan_kernel_rows():
    """250 evenly spaced kernel rows of each of the depth-6 red and yellow
    scans of PAPER_R, as a list of (parameter box, orbit boxes) per scan.
    The kernel sees a row's parameter box through the float midpoint that
    _preconditioner took of it, which tells the boxes of a scan apart."""
    samples = []
    for claim in (ParabolicExclusionClaim(9), MultiplierNonRealClaim(PAPER_X_REGION)):
        rows, box_at = [], {}
        kernel, precondition = dynamics._krawczyk_rows, dynamics._preconditioner

        def mids(pre):
            return zip(pre.cu[:, 0].tolist(), pre.cv[:, 0].tolist())

        def spy_pre(c, lo, hi):
            pre = precondition(c, lo, hi)
            box_at.update(zip(mids(pre), c.boxes()))
            return pre

        def spy(lo, hi, pre):
            rows.extend(zip(mids(pre), lo, hi))
            return kernel(lo, hi, pre)

        with mock.patch.object(dynamics, "_krawczyk_rows", spy), \
                mock.patch.object(dynamics, "_preconditioner", spy_pre):
            adaptive_scan(PAPER_R, claim, 6)
        samples.append([(box_at[mid], _orbit_boxes(lo, hi)) for mid, lo, hi in
                        (rows[k] for k in np.linspace(0, len(rows) - 1, 250).astype(int))])
    return samples


@st.composite
def _converged_row(draw):
    """A converged period-9 cycle at a parameter in PAPER_R, in orbit boxes of
    radius at most 1e-13, under a parameter box of radius up to 1e-2: the
    rounding of the sums of Y's columns, which scale the parameter radius,
    then shows at the image's edge."""
    unit = st.floats(0.0, 1.0)
    c = complex(PAPER_R.re.lo + draw(unit) * PAPER_R.re.width(),
                PAPER_R.im.lo + draw(unit) * PAPER_R.im.width())
    orbit, residual = _float_newton(c, _PAPER_ORBIT)
    assume(residual < 1e-12)
    boxes = [ComplexBox.around(z, draw(st.floats(-16.0, -13.0).map(lambda e: 10.0 ** e)))
             for z in orbit]
    return ComplexBox.around(c, draw(st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e))), boxes


class TestKrawczykKernel:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((1, 2, 3, 9)), st.integers(3, 40), st.booleans())
    def test_singular_midpoint_jacobian(self, p, k, point_c):
        # every midpoint at 1/2: each block is diag(1, -1), so the cycle's
        # multiplier matrix has eigenvalue 1 and J(mid) is singular
        r = 2.0 ** -k
        boxes = [ComplexBox(Interval(0.5 - r, 0.5 + r), Interval(-r, r))] * p
        c = ComplexBox.point(0.25 + 0j) if point_c else ComplexBox.around(0.25 + 0j, r)
        assert _image(c, boxes) is None
        assert _scalar_krawczyk_image(c, boxes) is None

    def test_overflow_raises_like_the_oracle(self):
        # where the scalar evaluation raises on an overflow, the batch marks
        # that row not ok, and a regular row beside it keeps the bits of its
        # one-row batch
        boxes = [ComplexBox.around(1e200 + 0j, 1e190), ComplexBox.around(1e-3j, 1e-6)]
        c = ComplexBox.point(0j)
        with pytest.raises(EmptyIntervalError):
            _scalar_krawczyk_image(c, boxes)
        regular = (ComplexBox.point(-1 + 0j), [ComplexBox.around(0j, 1e-6),
                                               ComplexBox.around(-1 + 0j, 1e-6)])
        assert _image(c, boxes) is None and _scalar_krawczyk_image(*regular) is not None
        k_lo, k_hi, ok = dynamics._krawczyk_image(*_batch([(c, boxes), regular]))
        assert ok.tolist() == [False, True]
        assert _bits(_row_boxes(k_lo, k_hi, ok, 1)) == _bits(_image(*regular))

    def test_periods_beyond_the_error_bounds_are_refused(self):
        # the scale 1 + 2^-44 covers the roundings of the radius up to 2p = 400
        row = np.zeros((1, 402))
        with pytest.raises(ValueError):
            dynamics._krawczyk_image(BoxArray.of([ComplexBox.point(0j)]), (row, row))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2, 3, 9)).flatmap(
               lambda p: st.lists(st.one_of(
                   _krawczyk_row(p),
                   st.builds(_singular_row, st.just(p), st.integers(3, 40), st.booleans())),
                   min_size=1, max_size=6)),
           st.integers(0, 5))
    # einsum picks its summation order from the operand strides: a Y with
    # strides (8, 64, 16) at B = 2 summed these rows unlike their one-row
    # batches, which are C-ordered
    @example([(ComplexBox.point(0j), [ComplexBox.around(0j, r0), ComplexBox.around(1 + 1j, r1)])
              for r0, r1 in ((1e-2, 1e-4), (1e-3, 1e-3))], 0)
    def test_mixed_batch_matches_scalar_oracle(self, rows, pick):
        # point and box c, real-axis rows (zeros in Y) and singular rows
        # share one stack, in one chunk and across chunks of 2: only the
        # rows whose Jacobian the scalar evaluation finds singular, or on
        # which it raises on an overflow, go without an image, and each
        # row's image has the bits of its one-row batch
        regular = []
        for c, boxes in rows:
            try:
                regular.append(_scalar_krawczyk_image(c, boxes) is not None)
            except EmptyIntervalError:
                regular.append(False)
        alone = [_bits(_image(c, boxes)) for c, boxes in rows]
        for chunk in (32, 2):
            with mock.patch.object(dynamics, "_CHUNK", chunk):
                k_lo, k_hi, ok = dynamics._krawczyk_image(*_batch(rows))
            assert ok.tolist() == regular
            assert [_bits(_row_boxes(k_lo, k_hi, ok, i)) for i in range(len(rows))] == alone
        i = pick % len(rows)
        assert _bits(_row_boxes(k_lo, k_hi, ok, i)) == _bits(_image(*rows[i]))

    def test_singular_row_is_lost_alone(self, monkeypatch):
        # a singular row's preconditioner is not finite; only the singular
        # rows come back without an image, also across chunks, and the
        # others keep the bits of their one-row batches
        rows = [_PAPER_ROW, _singular_row(9, 20, True), _PAPER_ROW, _PAPER_ROW,
                _singular_row(9, 4, False)]
        assert [_scalar_krawczyk_image(c, boxes) is not None for c, boxes in rows] == [
            True, False, True, True, False]
        alone = _bits(_image(*_PAPER_ROW))
        assert alone is not None
        for chunk in (32, 2):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            k_lo, k_hi, ok = dynamics._krawczyk_image(*_batch(rows))
            assert ok.tolist() == [True, False, True, True, False]
            for i in (0, 2, 3):
                assert _bits(_row_boxes(k_lo, k_hi, ok, i)) == alone

    def test_width_against_scalar_oracle(self):
        # on kernel rows of the paper's scans the error bounds of the
        # midpoint-radius image widen it by at most 1e-6 of the width of
        # the scalar evaluation, which rounds outward after every operation
        for rows in _scan_kernel_rows():
            k_lo, k_hi, ok = dynamics._krawczyk_image(*_batch(rows))
            assert ok.all()
            for (c, boxes), lo, hi in zip(rows, k_lo, k_hi):
                oracle = _scalar_krawczyk_image(c, boxes)
                widths = [t.hi - t.lo for b in oracle for t in (b.re, b.im)]
                assert (hi - lo <= (1.0 + 1e-6) * np.array(widths)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_krawczyk_inputs(), _converged_row()), st.data())
    def test_image_contains_exact_krawczyk_points(self, inputs, data):
        """For z in Z and c at a sample and the four corners of C,
        m - Y G_c(m) + (I - Y J(z)) (z - m), evaluated at 60 digits with the
        kernel's own Y, lies in K(Z)."""
        c, boxes = inputs
        inverses = []
        inv = dynamics._cyclic_inverse

        def spy(x, y):
            inverses.append(inv(x, y))
            return inverses[-1]

        with mock.patch.object(dynamics, "_cyclic_inverse", spy):
            image = _image(c, boxes)
        assume(image is not None)
        unit = st.floats(0.0, 1.0)

        def sample(i: Interval):
            return mpf(i.lo) + data.draw(unit) * (mpf(i.hi) - mpf(i.lo))

        with workdps(60):
            y = [[mpf(v) for v in row] for row in inverses[0][0].tolist()]
            m = [mpf(t) for b in boxes for t in (b.midpoint().real, b.midpoint().imag)]
            z = [sample(t) for b in boxes for t in (b.re, b.im)]
            corners = [(mpf(u), mpf(v)) for u in (c.re.lo, c.re.hi) for v in (c.im.lo, c.im.hi)]
            for cu, cv in [(sample(c.re), sample(c.im)), *corners]:
                _assert_encloses(image, _exact_krawczyk_point(y, m, z, cu, cv))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_krawczyk_inputs(), _converged_row()), st.data())
    def test_stale_preconditioner_image_contains_exact_krawczyk_points(self, inputs, data):
        """The rounds of krawczyk_cycle_rows keep the Y of their start
        boxes.  With Y the inverse at another point, each orbit coordinate
        of the midpoint moved by up to 8 radii of its box or 1e-3, K(Z)
        still holds the exact Krawczyk points of that Y at 60 digits."""
        c, boxes = inputs
        cs, (lo, hi) = _batch([(c, boxes)])
        mid = dynamics._mid_arr(lo, hi)
        reach = data.draw(st.sampled_from((8.0 * (hi - mid), np.full(mid.shape, 1e-3))))
        stale = mid + reach * np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=mid.size, max_size=mid.size)))
        pre = dynamics._preconditioner(cs, stale, stale)
        y = pre.y
        assume(pre.ok[0])
        image = _row_boxes(*dynamics._krawczyk_rows(lo, hi, pre), 0)
        # the stale Y of a wide box may overflow the image: no claim
        assume(image is not None)
        unit = st.floats(0.0, 1.0)

        def sample(i: Interval):
            return mpf(i.lo) + data.draw(unit) * (mpf(i.hi) - mpf(i.lo))

        with workdps(60):
            y = [[mpf(v) for v in row] for row in y[0].tolist()]
            m = [mpf(t) for t in mid[0].tolist()]
            z = [sample(t) for b in boxes for t in (b.re, b.im)]
            corners = [(mpf(u), mpf(v)) for u in (c.re.lo, c.re.hi) for v in (c.im.lo, c.im.hi)]
            for cu, cv in [(sample(c.re), sample(c.im)), *corners]:
                _assert_encloses(image, _exact_krawczyk_point(y, m, z, cu, cv))

    def test_certified_row_stays_certified_under_its_start_preconditioner(self):
        # the positive control of the stale Y: the paper's period-9 row in
        # boxes of radius 1e-6 is certified by the Y of its start boxes, and
        # each of its tightening images, whose midpoints have moved, lies
        # strictly inside the last
        row = (ComplexBox.around(_PAPER_C, 1e-8),
               [ComplexBox.around(z, 1e-6) for z in _PAPER_ORBIT])
        c, (lo, hi) = _batch([row])
        pre, start = dynamics._preconditioner(c, lo, hi), dynamics._mid_arr(lo, hi)
        for _ in range(dynamics._TIGHTEN):
            k_lo, k_hi, ok = dynamics._krawczyk_rows(lo, hi, pre)
            assert ok[0] and ((lo < k_lo) & (k_hi < hi)).all()
            lo, hi = k_lo, k_hi
        assert (dynamics._mid_arr(lo, hi) != start).any()
        certified, _, _, images = krawczyk_cycle_rows(c, _batch([row])[1], np.array([1e-6]))
        assert certified[0] and images[0] == dynamics._TIGHTEN

    def test_fresh_row_certifies_on_its_first_image(self):
        # a float orbit, given as points, starts from boxes sized by its
        # parameter spread: on the depth-6 box of PAPER_R about the period-9
        # center the first image lies strictly inside them, and the row
        # runs exactly _TIGHTEN images; started from boxes of its inflation
        # radius about the orbit, the same row runs more
        box = PAPER_R
        for _ in range(6):
            box = next(q for q in box.quarter() if q.contains(_PAPER_C))
        orbit, residual = _float_newton(box.midpoint(), _PAPER_ORBIT)
        assert residual < 1e-10
        c, radius = BoxArray.of([box]), np.array([box.width()])
        points = np.array([[t for z in orbit for t in (z.real, z.imag)]])
        kernel, first = dynamics._krawczyk_rows, []

        def spy(lo, hi, pre):
            out = kernel(lo, hi, pre)
            first.append(((lo < out[0]) & (out[1] < hi)).all())
            return out

        with mock.patch.object(dynamics, "_krawczyk_rows", spy):
            certified, _, _, images = krawczyk_cycle_rows(c, (points, points.copy()), radius)
        assert certified[0] and first[0] and images[0] == dynamics._TIGHTEN
        start = dynamics._around(np.array([orbit]), radius[:, None])
        certified, _, _, images = krawczyk_cycle_rows(c, start, radius)
        assert certified[0] and images[0] > dynamics._TIGHTEN

    @pytest.mark.parametrize("rho", [8.0, 2.0 ** -4])
    def test_sized_start_that_overflows_or_is_too_wide_fails_at_once(self, rho):
        # z = 1/2 + 2^-511 i is the fixed point of modulus just over 1/2
        # (multiplier nearly 1) of a parameter c: J = [[0, -2^-510],
        # [-2^-510, -2]] is regular, with determinant -2^-1020, so Y holds
        # 2^1021.  Over a parameter radius of 8, |s| rho overflows (a start
        # about z of radius 2^-600 overflows its image: see the next test),
        # and over 2^-4 the sized start is 2^1019 wide: either way the row
        # fails with no image run
        z = complex(0.5, 2.0 ** -511)
        c = BoxArray.of([ComplexBox.around(z - z.conjugate() ** 2, rho)])
        point = np.array([[z.real, z.imag]])
        pre = dynamics._preconditioner(c, point, point)
        assert pre.ok[0] and np.abs(pre.y).max() == 2.0 ** 1021
        certified, _, _, images = krawczyk_cycle_rows(c, (point, point.copy()), np.array([1e-9]))
        assert not certified[0] and images[0] == 0

    @pytest.mark.parametrize("end, coordinate", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_image_touching_its_box_certifies_nothing(self, monkeypatch, end, coordinate):
        # K(Z) in Z proves a cycle in Z, and only K(Z) strictly inside Z
        # proves it the only one there, which inheritance and the exact
        # period rest on: an image that keeps one endpoint of its box (end
        # 0 the lower, 1 the upper) and lies strictly inside it otherwise
        # certifies no row, in any round
        c = 0.1 + 0.05j
        orbit, _ = _float_newton(c, [0.1 + 0.1j])
        points = np.array([[orbit[0].real, orbit[0].imag]])

        def run():
            return krawczyk_cycle_rows(_pt(c), (points.copy(), points.copy()), np.array([1e-6]))

        assert run()[0].tolist() == [True]

        def touching(lo, hi, pre):
            quarter = (hi - lo) / 4.0
            image = [lo + quarter, hi - quarter]
            image[end][:, coordinate] = (lo, hi)[end][:, coordinate]
            return *image, pre.ok

        monkeypatch.setattr(dynamics, "_krawczyk_rows", touching)
        certified, _, _, images = run()
        assert certified.tolist() == [False] and images[0] > 1

    def test_overflowing_image_fails_its_row(self):
        # the row above over the parameter radius 8, started from boxes of
        # radius 2^-600 about z, as a held parent's orbit boxes or an
        # absence neighborhood are given: its image overflows, so the row
        # is neither certified nor absent, and a level that inherits it as
        # held returns with the row uncertified
        z = complex(0.5, 2.0 ** -511)
        cbox = ComplexBox.around(z - z.conjugate() ** 2, 8.0)
        c = BoxArray.of([cbox])
        orbit = np.array([[z]])
        lo, hi = dynamics._around(orbit, 2.0 ** -600)
        certified, _, _, images = krawczyk_cycle_rows(c, (lo.copy(), hi.copy()), np.array([1e-9]))
        assert not certified[0] and images[0] == 1
        assert not krawczyk_absence(cbox, 1, [z], 2.0 ** -600)
        tracked, effort = tracked_cycle_level(c, 1, verify._CycleSeeds(orbit, np.array([True]), lo, hi))
        assert tracked.held.tolist() == [False] and effort[0] >= 1

    @pytest.mark.parametrize("e", [2.0 ** -10, 2.0 ** -35])
    def test_image_holds_the_preconditioner_error(self, e):
        """K(Z) must hold the exact Krawczyk points for any preconditioner Y.
        At a real fixed point near x = -1/2, J(m) = diag(2x - 1, -2^-20),
        and Y_11 = -(1 + e) 2^20 leaves A_11 = 1 - Y_11 J_11 = -e exactly.
        With Z = {x} x [-r, r] the im row of K is then A_11 (z_1 - m_1),
        while every other term of that row's radius is rounding-sized: the
        float a_11 keeps -2^-10, so |a| r must carry it; the float product
        Y_11 (-2x) rounds 2^-35 away and a_11 = 0, so gamma_4 |Y| |J(m)| r
        must."""
        x, r = -0.5 + 2.0 ** -21, 2.0 ** -20
        y = np.array([[[1.0 / (2.0 * x - 1.0), 0.0], [0.0, -(1.0 + e) * 2.0 ** 20]]])
        boxes = [ComplexBox(Interval.point(x), Interval(-r, r))]
        with mock.patch.object(dynamics, "_cyclic_inverse", lambda x, v: y.copy()):
            image = _image(ComplexBox.point(complex(x - x * x, 0.0)), boxes)
        with workdps(60):
            ys = [[mpf(v) for v in row] for row in y[0].tolist()]
            m = [mpf(x), mpf(0)]
            assert 1 - ys[1][1] * (-2 * m[0] - 1) == -mpf(e)
            for side in (-1, 1):
                k = _exact_krawczyk_point(ys, m, [mpf(x), side * mpf(r)], mpf(x - x * x), mpf(0))
                assert abs(k[1]) == mpf(e) * r
                _assert_encloses(image, k)


def _exact_krawczyk_point(y, m, z, cu, cv):
    """m - Y G_c(m) + (I - Y J(z)) (z - m) for the coupled cyclic system, at
    the working mpmath precision, with y, m and z lists of mpf over the
    coordinates (re z_0, im z_0, re z_1, ...) and c = cu + i cv."""
    n, p = len(m), len(m) // 2
    d = [z[k] - m[k] for k in range(n)]
    g, jd = [], []
    for i in range(p):
        x, v, nx, nv = m[2 * i], m[2 * i + 1], 2 * ((i + 1) % p), 2 * ((i + 1) % p) + 1
        g += [x * x - v * v + cu - m[nx], -2 * x * v + cv - m[nv]]
        zx, zv = z[2 * i], z[2 * i + 1]
        jd += [2 * zx * d[2 * i] - 2 * zv * d[2 * i + 1] - d[nx],
               -2 * zv * d[2 * i] - 2 * zx * d[2 * i + 1] - d[nv]]
    return [m[r] - sum(y[r][j] * g[j] for j in range(n)) + d[r]
            - sum(y[r][j] * jd[j] for j in range(n)) for r in range(n)]


def _assert_encloses(image, point):
    """Each coordinate of the point lies in its interval of the image boxes."""
    for r, value in enumerate(point):
        box = image[r // 2]
        enclosure = box.re if r % 2 == 0 else box.im
        assert mpf(enclosure.lo) <= value <= mpf(enclosure.hi)


# ---------------------------------------------------------------------------
# the block-cyclic preconditioner
# ---------------------------------------------------------------------------


def _orbits(p):
    """One to four (x, y) orbit coordinate rows of period p in [-2, 2]^2."""
    coord = st.floats(-2.0, 2.0)
    return st.lists(st.lists(st.tuples(coord, coord), min_size=p, max_size=p),
                    min_size=1, max_size=4).map(
        lambda rows: (np.array([[u for u, _ in r] for r in rows]),
                      np.array([[v for _, v in r] for r in rows])))


@st.composite
def _singular_cycle(draw):
    """The exact orbit of a singular p-cycle: w_k = 2 conj(z_k) = s_k 2^e_k
    with |s_k| = 1, the last factor chosen so that the multiplier mu of the
    map once round the cycle is 1 for even p, and of modulus 1 for odd p."""
    p = draw(st.sampled_from((1, 2, 3, 6, 9)))
    unit = st.sampled_from((1, -1, 1j, -1j))
    factors = draw(st.lists(st.tuples(unit, st.integers(-3, 3)), min_size=p - 1, max_size=p - 1))
    w = [s * 2.0 ** e for s, e in factors]
    if p % 2:
        w.append(draw(unit) * 2.0 ** -sum(e for _, e in factors))
    else:
        # mu = w_{p-1} conj(w_{p-2}) w_{p-3} ... conj(w_0), exact in these units
        rest = 1
        for k, v in enumerate(w):
            rest *= v.conjugate() if (p - 1 - k) % 2 else v
        w.append(1 / rest)
    return [v.conjugate() / 2 for v in w]


class TestCyclicInverse:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2, 3, 6, 9)).flatmap(_orbits))
    def test_matches_lapack_inverse(self, orbits):
        # on well-conditioned Jacobians the closed form is np.linalg.inv to
        # 1e-12 relative and inverts J to 1e-12; it is C-ordered, and each
        # row has the bits of its one-row batch
        x, y = orbits
        j = dynamics._jacobians(dynamics._minus_ones(*x.shape), x, y)
        assume((np.linalg.cond(j) <= 100.0).all())
        inverse = dynamics._cyclic_inverse(x, y)
        assert inverse.flags.c_contiguous and inverse.shape == j.shape
        for k in range(len(x)):
            lapack = np.linalg.inv(j[k])
            assert np.abs(inverse[k] - lapack).max() <= 1e-12 * np.abs(lapack).max()
            assert np.abs(np.eye(len(j[k])) - inverse[k] @ j[k]).max() <= 1e-12
            alone = dynamics._cyclic_inverse(x[k:k + 1], y[k:k + 1])[0]
            assert alone.tobytes() == inverse[k].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(_singular_cycle(), st.integers(10, 30), st.booleans())
    def test_singular_cycle_has_no_image(self, orbit, k, point_c):
        # mu = 1 (even p) or |mu| = 1 (odd p) exactly: the inverse divides
        # by zero, and the row goes without an image beside a regular one
        x, y = np.array([[z.real for z in orbit]]), np.array([[z.imag for z in orbit]])
        assert not np.isfinite(dynamics._cyclic_inverse(x, y)).all()
        boxes = [_exact_box(z, 2.0 ** -k) for z in orbit]
        c = ComplexBox.point(0.25 + 0j) if point_c else _exact_box(0.25 + 0j, 2.0 ** -k)
        regular = (c, [_exact_box(complex(0.1 * (i + 1), 0.05), 2.0 ** -k) for i in range(len(orbit))])
        _, _, ok = dynamics._krawczyk_image(*_batch([(c, boxes), regular]))
        assert ok.tolist() == [False, True]


_KERNEL_BITS = """
import hashlib, sys
import numpy as np
from tricert import dynamics
from tricert.intervals import BoxArray
a = np.load(sys.argv[1])
out = dynamics._krawczyk_image(BoxArray((a["c0"], a["c1"]), (a["c2"], a["c3"])), (a["lo"], a["hi"]))
print(hashlib.sha256(b"".join(t.tobytes() for t in out)).hexdigest())
"""


def test_kernel_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE makes OpenBLAS load the kernels of another x86-64
    # CPU; a LAPACK preconditioner changed the images' last bits with it,
    # the block-cyclic one leaves k_lo, k_hi and ok byte for byte the same
    c, (lo, hi) = _batch(_scan_kernel_rows()[0][::6][:40])
    assert lo.shape == (40, 18)
    batch = tmp_path / "batch.npz"
    np.savez(batch, c0=c.re[0], c1=c.re[1], c2=c.im[0], c3=c.im[1], lo=lo, hi=hi)
    src = str(Path(dynamics.__file__).resolve().parents[1])
    digests = set()
    for core in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run([sys.executable, "-c", _KERNEL_BITS, str(batch)], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout.strip())
    k_lo, k_hi, ok = dynamics._krawczyk_image(c, (lo, hi))
    assert ok.all()
    assert digests == {hashlib.sha256(k_lo.tobytes() + k_hi.tobytes() + ok.tobytes()).hexdigest()}


_YELLOW_BITS = """
import hashlib
from tricert.cli import PAPER_R, PAPER_X_REGION
from tricert.scan import adaptive_scan, serialize
from tricert.verify import MultiplierNonRealClaim
cert = adaptive_scan(PAPER_R, MultiplierNonRealClaim(PAPER_X_REGION), 5)
print(hashlib.sha256(serialize(cert) + cert.effort.tobytes()).hexdigest())
"""


def test_yellow_scan_does_not_depend_on_the_blas_kernel():
    # below its root every yellow row starts Krawczyk from its parent's
    # orbit boxes, with no LAPACK solve; only the root's two Newton rows
    # still solve by LAPACK, and the certificate and its efforts are the
    # same on each kernel
    src = str(Path(dynamics.__file__).resolve().parents[1])
    digests = set()
    for core in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run([sys.executable, "-c", _YELLOW_BITS], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout.strip())
    cert = adaptive_scan(PAPER_R, MultiplierNonRealClaim(PAPER_X_REGION), 5)
    assert digests == {hashlib.sha256(serialize(cert) + cert.effort.tobytes()).hexdigest()}


# ---------------------------------------------------------------------------
# the batched float Newton against the scalar loop
# ---------------------------------------------------------------------------


# the scalar float Newton that dynamics.float_newton_rows replaced, kept
# verbatim as its bitwise oracle
def _scalar_float_newton_cycle(
    c: complex,
    period: int,
    orbit_guess: list[complex],
    steps: int = 50,
) -> tuple[list[complex], float]:
    """Floating-point Newton on the coupled cyclic system.

    Refines the whole orbit at once, which stays stable where per-point
    iteration of f^period would wrap.  Returns the refined orbit and the
    final residual max |f(z_i) - z_{i+1}|; callers decide whether the
    residual is small enough to call it converged.
    """
    p = period
    orbit = list(orbit_guess)
    if len(orbit) != p:
        raise ValueError("orbit guess length must equal the period")
    for _ in range(steps):
        j0 = np.zeros((2 * p, 2 * p))
        g = np.zeros(2 * p)
        for i, z in enumerate(orbit):
            k = (i + 1) % p
            fz = float_f(c, z)
            g[2 * i] = (fz - orbit[k]).real
            g[2 * i + 1] = (fz - orbit[k]).imag
            j0[2 * i, 2 * i] = 2.0 * z.real
            j0[2 * i, 2 * i + 1] = -2.0 * z.imag
            j0[2 * i + 1, 2 * i] = -2.0 * z.imag
            j0[2 * i + 1, 2 * i + 1] = -2.0 * z.real
            j0[2 * i, 2 * k] -= 1.0
            j0[2 * i + 1, 2 * k + 1] -= 1.0
        try:
            delta = np.linalg.solve(j0, g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        orbit = [z - complex(delta[2 * i], delta[2 * i + 1]) for i, z in enumerate(orbit)]
        if np.abs(delta).max() < 1e-14:
            break
    residual = max(
        abs(float_f(c, orbit[i]) - orbit[(i + 1) % p]) for i in range(p)
    )
    return orbit, residual


def _hex_orbit(orbit):
    return [(z.real.hex(), z.imag.hex()) for z in orbit]


def _newton_rows_match_oracle(rows):
    """Each row of float_newton_rows against the scalar loop, bit for bit.
    Where CPython's complex power or abs overflows, the loop raises
    OverflowError and the row instead ends with a residual that is not
    finite."""
    p = len(rows[0][1])
    orbits, residual = float_newton_rows(np.array([c for c, _ in rows], dtype=complex),
                                         np.array([g for _, g in rows], dtype=complex))
    assert orbits.shape == (len(rows), p)
    for (c, guess), orbit, res in zip(rows, orbits.tolist(), residual.tolist()):
        try:
            want, want_res = _scalar_float_newton_cycle(c, p, guess)
        except OverflowError:
            assert not math.isfinite(res)
            continue
        assert _hex_orbit(orbit) == _hex_orbit(want)
        assert res.hex() == want_res.hex() or math.isnan(res) and math.isnan(want_res)


# a period-p orbit guess about the paper's period-9 cycle (p = 9, moved by
# up to `scale`, so rows converge after different numbers of steps), or
# anywhere in the plane
@st.composite
def _newton_row(draw, p):
    scale = draw(st.floats(-14.0, -1.0).map(lambda e: 10.0 ** e))
    unit = st.floats(-1.0, 1.0)
    if p == 9 and draw(st.booleans()):
        c = _PAPER_C + complex(draw(unit), draw(unit)) * 3e-4
        guess = [z + complex(draw(unit), draw(unit)) * scale for z in _PAPER_ORBIT]
    else:
        c = complex(draw(st.floats(-2.0, 1.0)), draw(unit))
        guess = [complex(2.0 * draw(unit), 2.0 * draw(unit)) for _ in range(p)]
    return c, guess


def _stuck_rows(p):
    """A row whose first Jacobian is singular (every point at 1/2), and one
    whose first step is not finite: c = 1e300 makes the residual huge and a
    point one ulp off 1/2 makes the Jacobian nearly singular."""
    return [(0.25 + 0j, [0.5 + 0j] * p),
            (1e300 + 0j, [0.5 + 2.0 ** -53 + 0j] + [0.5 + 0j] * (p - 1))]


class TestFloatNewtonRows:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 6, 9)).flatmap(
        lambda p: st.tuples(st.lists(_newton_row(p), min_size=1, max_size=8),
                            st.lists(st.sampled_from(_stuck_rows(p)), max_size=2))),
        st.randoms())
    def test_rows_match_scalar_oracle(self, drawn, rng):
        rows = drawn[0] + drawn[1]
        rng.shuffle(rows)
        _newton_rows_match_oracle(rows)

    def test_rows_stop_on_their_own(self, monkeypatch):
        # a converging row, a singular one and a non-finite step share every
        # stack, in one chunk and across chunks of 2
        near = (_PAPER_C, [z + 1e-4 for z in _PAPER_ORBIT])
        rows = [near, *_stuck_rows(9), near]
        for chunk in (32, 2):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            _newton_rows_match_oracle(rows)
            orbits, residual = float_newton_rows(np.array([c for c, _ in rows]),
                                                 np.array([g for _, g in rows]))
            assert residual[0] < 1e-12 and residual[3] < 1e-12
            # the stuck rows keep their guesses
            assert orbits[1].tolist() == rows[1][1] and orbits[2].tolist() == rows[2][1]

    def test_overflow_is_not_converged(self):
        # the scalar loop raises OverflowError from conj(z) ** 2 here
        rows = [(0j, [1e200 + 0j, 1e-3j]), (-1 + 0j, [0.05 + 0.01j, -0.9 - 0.02j])]
        with pytest.raises(OverflowError):
            _scalar_float_newton_cycle(0j, 2, rows[0][1])
        _newton_rows_match_oracle(rows)


# ---------------------------------------------------------------------------
# the tracked-cycle claims against the per-box path
# ---------------------------------------------------------------------------


# The per-box tracked-cycle path that preceded verify.tracked_cycle_level,
# on the scalar kernel and the scalar Newton, kept as the bitwise oracle of
# the batch, with its rules that a box whose parent held its cycle starts
# from the parent's orbit boxes and a box seeded by Newton starts from
# boxes sized by its parameter spread; it counts the Krawczyk images of
# each box as its effort.


def _scalar_krawczyk_cycle(kernel, c, boxes, radius, y=None):
    """The rules of krawczyk_cycle_rows one box at a time, from the start
    boxes, with the kernel kernel(c, boxes, y) passed in: (certified, the
    tight orbit boxes or []).  The preconditioner y, by default taken at
    the start boxes, is kept through the rounds."""
    if y is None:
        y = _scalar_inverse(boxes)
    certified = False
    remaining = max(dynamics._TIGHTEN, 1)
    for _ in range(24):
        images = kernel(c, boxes, y)
        if images is None:
            return False, []
        inside = all(b.strictly_contains(k) for b, k in zip(boxes, images))
        if inside:
            boxes = images
            certified = True
            remaining -= 1
            if remaining <= 0:
                return True, boxes
            continue
        if certified:
            return True, boxes
        if any(not b.intersects(k) for b, k in zip(boxes, images)):
            return False, []
        grown = []
        for k in images:
            pad = 0.125 * k.width() + 4.0 * radius
            grown.append(
                ComplexBox(
                    Interval(k.re.lo - pad, k.re.hi + pad),
                    Interval(k.im.lo - pad, k.im.hi + pad),
                )
            )
        if max(g.width() for g in grown) > 0.5:
            return False, []
        boxes = grown
    return (True, boxes) if certified else (False, [])


def _scalar_sized_start(c: ComplexBox, orbit, radius: float):
    """The start of krawczyk_cycle_rows from a float orbit: the
    preconditioner y at the orbit's points, and each coordinate -+ (2 |s|
    rho + 4 radius), with |s| rho = |su| rho_re + |sv| rho_im from the sums
    su, sv of that row's even and odd entries of y (0 for a singular y)
    and the parameter radii rho.  Returns (boxes, y), boxes None when not
    finite or wider than 0.5."""
    y = _scalar_inverse([ComplexBox.point(z) for z in orbit])
    c = scalar.box(c)
    c_mid = c.midpoint()
    rho = [Interval.point(max(-d.lo, d.hi)) for d in (
        c.re - Interval.point(c_mid.real), c.im - Interval.point(c_mid.imag))]
    coords = [t for z in orbit for t in (z.real, z.imag)]
    try:
        sides = []
        for r, x in enumerate(coords):
            su, sv = (0.0, 0.0) if y is None else (sum(y[r, 0::2]), sum(y[r, 1::2]))
            s_rho = Interval.point(abs(su)) * rho[0] + Interval.point(abs(sv)) * rho[1]
            reach = (s_rho.scale(2.0) + Interval.point(4.0 * radius)).hi
            sides.append(Interval.point(x) + Interval(-reach, reach))
        boxes = [ComplexBox(sides[2 * i], sides[2 * i + 1]) for i in range(len(orbit))]
    except EmptyIntervalError:
        return None, y
    return (boxes if max(b.width() for b in boxes) <= 0.5 else None), y


def _scalar_refine_orbit(c_mid, period, orbit_guess):
    orbit, residual = _scalar_float_newton_cycle(c_mid, period, orbit_guess)
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in orbit):
        return list(orbit_guess), False
    return orbit, residual < 1e-10


def _held(boxes):
    """The certified orbit boxes when they are pairwise disjoint, else None."""
    p = len(boxes)
    if any(boxes[i].intersects(boxes[j]) for i in range(p) for j in range(i + 1, p)):
        return None
    return boxes


def _scalar_tracked_cycle(c: ComplexBox, period: int, seed):
    """(held orbit boxes or None, orbit guess, Krawczyk images) of
    one box, from its seed (orbit guess, the parent's held orbit boxes or
    None).  Krawczyk starts from the parent's boxes where it held its
    cycle; the orbit guess is refined by Newton only where that is not
    held, and Krawczyk then starts from its sized boxes."""
    images = []

    def kernel(c, boxes, y):
        images.append(1)
        return _scalar_krawczyk_step(c, boxes, y)

    orbit_guess, parent = seed
    radius = max(1e-9, c.width())
    boxes, refined = None, orbit_guess
    if parent is not None:
        certified, found = _scalar_krawczyk_cycle(kernel, c, parent, radius)
        boxes = _held(found) if certified else None
    if boxes is None:
        refined, converged = _scalar_refine_orbit(c.midpoint(), period, orbit_guess)
        start, y = _scalar_sized_start(c, refined, radius) if converged else (None, None)
        if start is not None:
            certified, found = _scalar_krawczyk_cycle(kernel, c, start, radius, y)
            boxes = _held(found) if certified else None
    return boxes, refined, len(images)


# the scalar modulus read that dynamics.squared_modulus_rows replaced, kept
# verbatim as its bitwise oracle
def _scalar_antiholo_modulus(orbit: list[ComplexBox]) -> Interval:
    """Enclosure of prod_i 2|z_i| along the orbit boxes."""
    prod = Interval.point(1.0)
    for z in orbit:
        prod = prod * scalar.box(z).abs().scale(2.0)
    return prod


def _scalar_excluded(boxes):
    if boxes is None:
        return False
    m2 = _scalar_antiholo_modulus(boxes).sqr()
    return m2.hi < 1.0 or m2.lo > 1.0


def _scalar_nonreal(region):
    def status(boxes):
        return (boxes is not None and region.contains_box(boxes[0])
                and not scalar.cycle_multiplier(boxes).im.contains(0.0))
    return status


class _ScalarTrackedClaim:
    """A tracked-cycle claim evaluated box by box on the per-box path, with
    the batch claim's name and header and its seeds refined by the scalar
    Newton.  A level's seeds are an object array of (orbit guess, held
    orbit boxes or None) per row; the root's are a (1, p) orbit array."""

    def __init__(self, claim, period, orbit_at, verdict):
        self.name, self.config = claim.name, claim.config
        self.period, self.orbit_at, self.verdict = period, orbit_at, verdict

    def initial_seed(self, rect):
        guess = self.orbit_at(rect.midpoint())
        return np.array([_scalar_refine_orbit(rect.midpoint(), self.period, guess)[0]])

    def evaluate_level(self, boxes, seeds):
        if seeds.dtype != object:
            seeds = [(orbit.tolist(), None) for orbit in seeds]
        status, effort, handed = [], [], np.empty(len(boxes), dtype=object)
        for k, (box, seed) in enumerate(zip(boxes.boxes(), seeds)):
            held, orbit, images = _scalar_tracked_cycle(box, self.period, seed)
            status.append("T" if self.verdict(held) else "U")
            effort.append(images)
            handed[k] = (orbit, held)
        return np.array(status, dtype="<U1"), np.array(effort, dtype=np.int64), handed


def _cell(rect: ComplexBox, path) -> ComplexBox:
    for k in path:
        rect = rect.quarter()[k]
    return rect


# sub-rects of PAPER_R whose depth-3 leaves are 3.9e-6 wide: on RED_CELL the
# red scan leaves 59 of 64 leaves Undetermined; on YELLOW_CELL the yellow
# scan leaves 22 of 46 leaves Undetermined.  The red scan of the
# whole PAPER_R runs the top levels, where the inflation radius is about the
# box width.
RED_CELL = _cell(PAPER_R, (0, 3, 1, 3))
YELLOW_CELL = _cell(PAPER_R, (2, 0, 0, 2))


def _tracked_claims():
    """(rect, batch claim, per-box oracle claim) for red and yellow."""
    red = ParabolicExclusionClaim(9)
    yellow = MultiplierNonRealClaim(PAPER_X_REGION)
    # the red seed is the critical orbit of the center found from the rect's
    # midpoint, as the batch claim finds it
    red_oracle = _ScalarTrackedClaim(
        red, 9, lambda c: float_orbit_of_zero(find_superattracting_parameter(9, c), 9),
        _scalar_excluded)
    return [
        (PAPER_R, red, red_oracle),
        (RED_CELL, red, red_oracle),
        (YELLOW_CELL, yellow, _ScalarTrackedClaim(
            yellow, 6, lambda c: [float_iterate(c, yellow.guess, k) for k in range(6)],
            _scalar_nonreal(PAPER_X_REGION))),
    ]


def _leaves(cert):
    return [(leaf.depth, leaf.status, leaf.effort) for leaf in cert.leaves]


@functools.lru_cache(maxsize=None)
def _oracle_scans():
    """The per-box scans of _tracked_claims: (seed, bytes, leaves) each."""
    return [(oracle.initial_seed(rect), serialize(cert), _leaves(cert))
            for rect, _, oracle in _tracked_claims()
            for cert in [adaptive_scan(rect, oracle, 3)]]


def _assert_scans_match_oracle():
    for (rect, claim, _), (seed, data, leaves) in zip(_tracked_claims(), _oracle_scans()):
        assert claim.initial_seed(rect).tolist() == seed.tolist()
        batch = adaptive_scan(rect, claim, 3)
        assert (serialize(batch), _leaves(batch)) == (data, leaves)
        assert {leaf.status for leaf in batch.leaves} == {Status.TRUE, Status.UNDETERMINED}
        assert sum(leaf.effort for leaf in batch.leaves) > 0


def test_scan_bytes_match_scalar_oracle():
    # red on PAPER_R and on RED_CELL, and yellow: the certificate
    # bytes and each leaf's status and effort are those of the per-box path
    _assert_scans_match_oracle()


def test_small_chunk_scan_matches_scalar_oracle(monkeypatch):
    # two rows per kernel and Newton call: every round spans many chunks,
    # and rows leave each chunk at different rounds
    monkeypatch.setattr(dynamics, "_CHUNK", 2)
    _assert_scans_match_oracle()


def test_step_rounding_scan_matches_scalar_oracle(monkeypatch):
    # every rounding call takes the integer step, down to one-entry arrays
    monkeypatch.setattr(intervals, "_STEP_MIN", 0)
    _assert_scans_match_oracle()


# ---------------------------------------------------------------------------
# the array status reads against the scalar Interval reads
# ---------------------------------------------------------------------------


_UNIT = st.floats(0.0, 2.0)
# positive coordinates whose squares round to 0 or a subnormal
_TINY = st.floats(1e-300, 1e-160)


@st.composite
def _read_box(draw):
    """A box that contains 0, touches 0 on one axis, has a |z|^2 whose lower
    endpoint rounds to exactly 0 without containing 0, or lies anywhere."""
    kind = draw(st.sampled_from(("across", "touch", "tiny", "any")))
    if kind == "across":
        re, im = (Interval(-draw(_UNIT), draw(_UNIT)) for _ in range(2))
    elif kind == "touch":
        zero = draw(st.sampled_from((0.0, -0.0)))
        re = draw(st.sampled_from((Interval(zero, draw(_UNIT)), Interval(-draw(_UNIT), zero))))
        a, b = sorted((draw(_UNIT), draw(_UNIT)))
        im = Interval(a + 1e-3, b + 1e-3)
    elif kind == "tiny":
        re, im = (Interval(*sorted((draw(_TINY), draw(_TINY)))) for _ in range(2))
    else:
        re, im = (Interval(*sorted((draw(_UNIT) - 1.0, draw(_UNIT) - 1.0))) for _ in range(2))
    if draw(st.booleans()):
        re, im = im, re
    return ComplexBox(re, im)


def _hex_interval(iv: Interval):
    return iv.lo.hex(), iv.hi.hex()


def test_read_boxes_reach_zero_endpoints():
    # a box across 0 and a tiny one off 0 put the lower endpoint of |z| at
    # 0; a box touching 0 on one axis puts it there for that coordinate
    for z in (ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
              ComplexBox(Interval(1e-200, 1e-190), Interval(1e-200, 1e-190))):
        assert z.abs().lo == 0.0 and _squared_modulus([z]).lo == 0.0
    touch = ComplexBox(Interval(-0.0, 1.0), Interval(0.5, 1.0))
    assert touch.re.sqr().lo == 0.0 and touch.abs().lo > 0.0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 3, 6, 9)).flatmap(
    lambda p: st.lists(st.lists(_read_box(), min_size=p, max_size=p), min_size=1, max_size=5)))
def test_array_reads_match_scalar_reads(orbits):
    """_abs_pair gives the endpoints (float.hex) of the scalar abs, and
    squared_modulus_rows and multiplier_rows, row by row, those of the
    scalar antiholo_modulus(boxes).sqr() and cycle_multiplier(boxes)."""
    rows = [_rows(boxes) for boxes in orbits]
    lo, hi = np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])
    z = BoxArray.of([box for boxes in orbits for box in boxes])
    assert [(a.hex(), b.hex()) for a, b in zip(*(v.tolist() for v in _abs_pair(z.re, z.im)))] == [
        _hex_interval(box.abs()) for boxes in orbits for box in boxes]
    m_lo, m_hi = squared_modulus_rows(lo, hi)
    assert [(a.hex(), b.hex()) for a, b in zip(m_lo.tolist(), m_hi.tolist())] == [
        _hex_interval(_scalar_antiholo_modulus(boxes).sqr()) for boxes in orbits]
    if len(orbits[0]) % 2 == 0:
        m = multiplier_rows(lo, hi)
        cols = [v.tolist() for v in (*m.re, *m.im)]
        want = [scalar.cycle_multiplier(boxes) for boxes in orbits]
        assert [tuple(c[k].hex() for c in cols) for k in range(len(orbits))] == [
            _hex_interval(w.re) + _hex_interval(w.im) for w in want]
