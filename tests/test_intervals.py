"""Containment soundness and geometry of intervals and complex boxes."""

import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from tricert.intervals import (
    BoxArray,
    ComplexBox,
    EmptyIntervalError,
    Interval,
    ZeroDivisionBoxError,
)


def _random_interval(rng, span=4.0):
    a = rng.uniform(-span, span)
    b = rng.uniform(-span, span)
    return Interval(min(a, b), max(a, b))


def _random_box(rng, span=4.0):
    return ComplexBox(_random_interval(rng, span), _random_interval(rng, span))


def _member(rng, iv):
    return rng.uniform(iv.lo, iv.hi)


def _box_member(rng, box):
    return complex(_member(rng, box.re), _member(rng, box.im))


class TestInterval:
    def test_exact_integer_add(self):
        s = Interval(1.0, 2.0) + Interval(3.0, 4.0)
        assert s.contains_interval(Interval(4.0, 6.0))

    def test_empty_is_absorbing(self):
        a = Interval(1.0, 2.0)
        assert (a + Interval.EMPTY).is_empty
        assert (a * Interval.EMPTY).is_empty
        assert (Interval.EMPTY - a).is_empty

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(EmptyIntervalError):
            Interval(2.0, 1.0)
        with pytest.raises(EmptyIntervalError):
            Interval(0.0, math.inf)

    def test_sub_self_contains_zero(self):
        rng = random.Random(1)
        for _ in range(500):
            a = _random_interval(rng)
            assert (a - a).contains(0.0)

    def test_sqr_never_negative(self):
        s = Interval(-1.0, 1.0).sqr()
        assert s.lo == 0.0 and s.contains(1.0)
        assert Interval(-2.0, -1.0).sqr().lo >= 0.0

    def test_sqrt_domain(self):
        assert Interval(0.0, 4.0).sqrt().contains(2.0)
        with pytest.raises(EmptyIntervalError):
            Interval(-1.0, 1.0).sqrt()

    def test_recip_refuses_zero(self):
        with pytest.raises(ZeroDivisionBoxError):
            Interval(-1.0, 1.0).recip()
        r = Interval(2.0, 4.0).recip()
        assert r.contains(0.25) and r.contains(0.5)

    def test_midpoint_is_member(self):
        rng = random.Random(2)
        for _ in range(500):
            a = _random_interval(rng, span=1e8)
            assert a.contains(a.midpoint())

    def test_around_contains_radius(self):
        a = Interval.around(1.0, 0.25)
        assert a.contains(0.75) and a.contains(1.25)

    def test_bisect_tiles(self):
        lo, hi = Interval(0.0, 4.0).bisect()
        assert lo == Interval(0.0, 2.0)
        assert hi == Interval(2.0, 4.0)

    def test_hull_contains_both(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = _random_interval(rng), _random_interval(rng)
            h = a.hull(b)
            assert h.contains_interval(a) and h.contains_interval(b)

    def test_monotonicity(self):
        # A subset of A', B subset of B' implies op(A,B) subset of op(A',B')
        rng = random.Random(4)
        for _ in range(500):
            a_big = _random_interval(rng)
            b_big = _random_interval(rng)
            a = Interval(_member(rng, a_big), a_big.hi)
            b = Interval(b_big.lo, _member(rng, b_big))
            for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
                assert op(a_big, b_big).contains_interval(op(a, b))

    def test_fuzz_containment(self):
        rng = random.Random(5)
        for _ in range(5000):
            a, b = _random_interval(rng), _random_interval(rng)
            x, y = _member(rng, a), _member(rng, b)
            assert (a + b).contains(x + y)
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)
            assert a.sqr().contains(x * x)
            assert a.abs().contains(abs(x))
            assert a.abs().mag() >= abs(x)


class TestComplexBox:
    def test_conj_is_exact_involution(self):
        rng = random.Random(6)
        for _ in range(200):
            z = _random_box(rng)
            assert z.conj().conj() == z

    def test_conj_of_real_box_is_identity(self):
        z = ComplexBox(Interval(1.0, 2.0), Interval.point(0.0))
        assert z.conj() == z

    def test_conj_flips_imaginary(self):
        z = ComplexBox(Interval(1.0, 2.0), Interval(3.0, 4.0))
        assert z.conj() == ComplexBox(Interval(1.0, 2.0), Interval(-4.0, -3.0))

    def test_sqr_real_segment(self):
        z = ComplexBox(Interval(-1.0, 1.0), Interval.point(0.0))
        s = z.sqr()
        assert s.re.contains_interval(Interval(0.0, 1.0))
        # the tight real-square keeps the lower bound at 0 up to rounding
        assert s.re.lo >= -1e-300

    def test_sqr_of_i(self):
        s = ComplexBox.point(1j).sqr()
        assert s.contains(-1.0 + 0j)

    def test_abs_345(self):
        z = ComplexBox.point(3.0 + 4.0j)
        assert z.abs().contains(5.0)

    def test_abs_lower_bound_zero_when_containing_origin(self):
        z = ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        assert z.abs().lo == 0.0

    def test_recip_refuses_origin(self):
        with pytest.raises(ZeroDivisionBoxError):
            ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0)).recip()

    def test_recip_overflow_refused(self):
        # |z|^2 is positive but subnormal, so 1/|z|^2 overflows
        z = ComplexBox(Interval(0.0, 0.0), Interval(-1.0, -2.817337595393107e-160))
        with pytest.raises(ZeroDivisionBoxError):
            z.recip()
        with pytest.raises(ZeroDivisionBoxError):
            Interval(1e-320, 1.0).recip()
        with pytest.raises(ZeroDivisionBoxError):
            Interval(-1.0, -1e-320).recip()
        # 1/|z|^2 is finite, but its product with im z overflows
        wide = ComplexBox(Interval(0.0, 0.0), Interval(2.4125832194209025e-153, 1047.0))
        with pytest.raises(ZeroDivisionBoxError):
            wide.recip()
        r = BoxArray.of([z, wide, ComplexBox.point(2j)]).recip()
        assert r.finite().tolist() == [False, False, True]

    def test_width_outward(self):
        u = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))
        w = u.width()
        assert w >= 0.6
        assert w <= math.nextafter(math.nextafter(0.6, 1.0), 1.0)

    def test_quarter_tiles_exactly(self):
        box = ComplexBox(Interval(0.0, 4.0), Interval(0.0, 1.0))
        sw, se, nw, ne = box.quarter()
        assert sw.hull(se).hull(nw).hull(ne) == box
        assert sw.re.hi == se.re.lo and sw.im.hi == nw.im.lo

    def test_fuzz_containment(self):
        rng = random.Random(7)
        for _ in range(5000):
            a, b = _random_box(rng), _random_box(rng)
            z, w = _box_member(rng, a), _box_member(rng, b)
            assert (a + b).contains(z + w)
            assert (a - b).contains(z - w)
            assert (a * b).contains(z * w)
            assert a.sqr().contains(z * z)
            assert a.conj().contains(z.conjugate())
            assert a.abs().contains(abs(z))
            assert a.abs_sqr().contains(z.real * z.real + z.imag * z.imag)

    def test_recip_fuzz(self):
        rng = random.Random(8)
        done = 0
        while done < 500:
            a = _random_box(rng)
            try:
                r = a.recip()
            except ZeroDivisionBoxError:
                continue
            z = _box_member(rng, a)
            assert r.contains(1.0 / z)
            done += 1


_ENDPOINTS = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6))


@st.composite
def _intervals(draw, sign=0):
    """Intervals of any sign, or of the given strict sign."""
    a, b = sorted((draw(_ENDPOINTS), draw(_ENDPOINTS)))
    if sign:
        a, b = sorted((sign * max(abs(a), 1e-300), sign * max(abs(b), 1e-300)))
    return Interval(a, b)


def _boxes():
    return st.builds(ComplexBox, _intervals(), _intervals())


def _iv(x: Interval):
    return iv.mpf([x.lo, x.hi])


@contextlib.contextmanager
def _iv_digits(dps):
    saved, iv.dps = iv.dps, dps
    try:
        yield
    finally:
        iv.dps = saved


class TestAgainstMpmathIv:
    """The same formula in mpmath.iv at 60 digits lies inside tricert's
    enclosure: an independent oracle for each operation's rounding."""

    @settings(max_examples=300, deadline=None)
    @given(_intervals(), _intervals(), _intervals(sign=1), _intervals(sign=-1))
    def test_interval_ops(self, x, y, pos, neg):
        with _iv_digits(60):
            a, b = _iv(x), _iv(y)
            assert a + b in _iv(x + y)
            assert a - b in _iv(x - y)
            assert a * b in _iv(x * y)
            assert a ** 2 in _iv(x.sqr())
            assert iv.sqrt(_iv(pos)) in _iv(pos.sqrt())
            assert 1 / _iv(pos) in _iv(pos.recip())
            assert 1 / _iv(neg) in _iv(neg.recip())

    @settings(max_examples=300, deadline=None)
    @given(_boxes(), _boxes())
    def test_complex_box_ops(self, z, w):
        with _iv_digits(60):
            a, b, c, d = _iv(z.re), _iv(z.im), _iv(w.re), _iv(w.im)
            prod, sq = z * w, z.sqr()
            assert a * c - b * d in _iv(prod.re)
            assert a * d + b * c in _iv(prod.im)
            assert a ** 2 - b ** 2 in _iv(sq.re)
            assert 2 * a * b in _iv(sq.im)
            norm = a ** 2 + b ** 2
            assert iv.sqrt(norm) in _iv(z.abs())
            try:
                r = z.recip()
            except ZeroDivisionBoxError:
                return  # |z|^2 may be 0, or 1/|z|^2 overflows
            assert a / norm in _iv(r.re)
            assert -(b / norm) in _iv(r.im)


# endpoints of every scale, with signed zeros: tiny ones make |z|^2 subnormal
# and 1/|z|^2 overflow, huge ones overflow squares and products
_ANY_ENDPOINTS = st.one_of(
    st.floats(-1e6, 1e6), st.floats(-1e-155, 1e-155), st.floats(-1e160, 1e160),
    st.sampled_from((0.0, -0.0, 1.0, -1.0)),
)


@st.composite
def _any_boxes(draw):
    a, b = sorted((draw(_ANY_ENDPOINTS), draw(_ANY_ENDPOINTS)))
    c, d = sorted((draw(_ANY_ENDPOINTS), draw(_ANY_ENDPOINTS)))
    return ComplexBox(Interval(a, b), Interval(c, d))


def _hex(box: ComplexBox):
    return tuple(v.hex() for v in (box.re.lo, box.re.hi, box.im.lo, box.im.hi))


def _scalar_hex(op, *args):
    """The endpoints of the ComplexBox result, or None where it raises."""
    try:
        return _hex(op(*args))
    except (EmptyIntervalError, ZeroDivisionBoxError):
        return None


def _rows_hex(batch: BoxArray):
    """The endpoints of each row, or None for a row with a non-finite one."""
    cols = [v.tolist() for v in (*batch.re, *batch.im)]
    finite = batch.finite().tolist()
    return [tuple(c[i].hex() for c in cols) if finite[i] else None for i in range(len(batch))]


_BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
}
_UNARY = {
    "conj": lambda x: x.conj(),
    "sqr": lambda x: x.sqr(),
    "recip": lambda x: x.recip(),
    "scale 4": lambda x: x.scale(4.0),
    "scale -0.5": lambda x: x.scale(-0.5),
    "scale 0": lambda x: x.scale(0.0),
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_any_boxes(), _any_boxes()), min_size=1, max_size=6), _any_boxes())
def test_box_array_ops_match_complex_box(pairs, w):
    """Every BoxArray row has the endpoints (float.hex) of the ComplexBox
    result, and is non-finite exactly where ComplexBox raises; a ComplexBox
    operand broadcasts on either side."""
    xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
    x, y = BoxArray.of(xs), BoxArray.of(ys)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, op in _BINARY.items():
            assert _rows_hex(op(x, y)) == [_scalar_hex(op, a, b) for a, b in pairs], name
            assert _rows_hex(op(x, w)) == [_scalar_hex(op, a, w) for a in xs], name
            assert _rows_hex(op(w, x)) == [_scalar_hex(op, w, a) for a in xs], name
        for name, op in _UNARY.items():
            assert _rows_hex(op(x)) == [_scalar_hex(op, a) for a in xs], name
