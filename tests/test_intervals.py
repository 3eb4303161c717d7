"""Containment soundness and geometry of intervals and complex boxes: the
value types, the scalar reference arithmetic of tests/scalar.py, BoxArray
against both it and mpmath.iv, the last rounding of each BoxArray
operation against exact rationals, and the memory its stages hold."""

import contextlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

import scalar
from tricert import intervals
from tricert.dynamics import squared_modulus_rows
from tricert.intervals import (
    BoxArray,
    ComplexBox,
    EmptyIntervalError,
    Interval,
    _abs_pair,
    _add,
    _meet,
    _mid_arr,
    _mul,
    _outward,
    _round,
    _scale,
    _sqr_pair,
    _up_arr,
    _within,
)


def _random_interval(rng, span=4.0):
    """An interval in the scalar reference arithmetic."""
    a = rng.uniform(-span, span)
    b = rng.uniform(-span, span)
    return scalar.Interval(min(a, b), max(a, b))


def _random_box(rng, span=4.0):
    return scalar.ComplexBox(_random_interval(rng, span), _random_interval(rng, span))


def _member(rng, iv):
    return rng.uniform(iv.lo, iv.hi)


def _box_member(rng, box):
    return complex(_member(rng, box.re), _member(rng, box.im))


class TestInterval:
    def test_exact_integer_add(self):
        s = scalar.Interval(1.0, 2.0) + scalar.Interval(3.0, 4.0)
        assert s.contains_interval(Interval(4.0, 6.0))

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(EmptyIntervalError):
            Interval(2.0, 1.0)
        with pytest.raises(EmptyIntervalError):
            Interval(0.0, math.inf)

    def test_no_empty_interval(self):
        # [inf, -inf] is not an empty interval but non-finite endpoints
        with pytest.raises(EmptyIntervalError):
            Interval(math.inf, -math.inf)

    def test_sub_self_contains_zero(self):
        rng = random.Random(1)
        for _ in range(500):
            a = _random_interval(rng)
            assert (a - a).contains(0.0)

    def test_sqr_never_negative(self):
        s = scalar.Interval(-1.0, 1.0).sqr()
        assert s.lo == 0.0 and s.contains(1.0)
        assert scalar.Interval(-2.0, -1.0).sqr().lo >= 0.0

    def test_sqrt_domain(self):
        assert scalar.Interval(0.0, 4.0).sqrt().contains(2.0)
        with pytest.raises(EmptyIntervalError):
            scalar.Interval(-1.0, 1.0).sqrt()

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

    def test_monotonicity(self):
        # A subset of A', B subset of B' implies op(A,B) subset of op(A',B')
        rng = random.Random(4)
        for _ in range(500):
            a_big = _random_interval(rng)
            b_big = _random_interval(rng)
            a = scalar.Interval(_member(rng, a_big), a_big.hi)
            b = scalar.Interval(b_big.lo, _member(rng, b_big))
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


class TestComplexBox:
    def test_conj_is_exact_involution(self):
        rng = random.Random(6)
        for _ in range(200):
            z = _random_box(rng)
            assert z.conj().conj() == z

    def test_conj_of_real_box_is_identity(self):
        z = scalar.ComplexBox(Interval(1.0, 2.0), Interval.point(0.0))
        assert z.conj() == z

    def test_conj_flips_imaginary(self):
        z = scalar.ComplexBox(Interval(1.0, 2.0), Interval(3.0, 4.0))
        assert z.conj() == ComplexBox(Interval(1.0, 2.0), Interval(-4.0, -3.0))

    def test_sqr_real_segment(self):
        z = scalar.ComplexBox(Interval(-1.0, 1.0), Interval.point(0.0))
        s = z.sqr()
        assert s.re.contains_interval(Interval(0.0, 1.0))
        # the tight real-square keeps the lower bound at 0 up to rounding
        assert s.re.lo >= -1e-300

    def test_sqr_of_i(self):
        s = scalar.ComplexBox.point(1j).sqr()
        assert s.contains(-1.0 + 0j)

    def test_abs_345(self):
        z = scalar.ComplexBox.point(3.0 + 4.0j)
        assert z.abs().contains(5.0)

    def test_abs_lower_bound_zero_when_containing_origin(self):
        z = scalar.ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        assert z.abs().lo == 0.0

    def test_width_outward(self):
        u = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))
        w = u.width()
        assert w >= 0.6
        assert w <= math.nextafter(math.nextafter(0.6, 1.0), 1.0)

    def test_quarter_tiles_exactly(self):
        box = ComplexBox(Interval(0.0, 4.0), Interval(0.0, 1.0))
        sw, se, nw, ne = box.quarter()
        quads = (sw, se, nw, ne)
        assert min(q.re.lo for q in quads) == box.re.lo and max(q.re.hi for q in quads) == box.re.hi
        assert min(q.im.lo for q in quads) == box.im.lo and max(q.im.hi for q in quads) == box.im.hi
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


def test_value_types_carry_no_arithmetic():
    # BoxArray is the one arithmetic: Interval and ComplexBox are values
    arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__pos__", "__abs__",
                  "sqr", "sqrt", "scale", "conj", "abs", "abs_sqr", "recip")
    for cls in (Interval, ComplexBox):
        assert [name for name in arithmetic if hasattr(cls, name)] == []
    assert not hasattr(intervals, "ZeroDivisionBoxError")


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


def _pair(column):
    """The (lo, hi) endpoint arrays of a column of intervals."""
    return np.array([x.lo for x in column]), np.array([x.hi for x in column])


def _row(pair, i: int):
    """Row i of an endpoint pair as an mpmath interval."""
    return iv.mpf([float(pair[0][i]), float(pair[1][i])])


# exact scalars of BoxArray.scale and _scale
_FACTORS = st.sampled_from((4.0, 2.0, -0.5, 0.0, 0.1))


@contextlib.contextmanager
def _iv_digits(dps):
    saved, iv.dps = iv.dps, dps
    try:
        yield
    finally:
        iv.dps = saved


class TestAgainstMpmathIv:
    """The same formula in mpmath.iv at 60 digits lies inside the enclosure
    of every row of a batch, as the library computes it: an independent
    oracle for each operation's rounding."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_intervals(), _intervals(), _intervals(sign=1), _intervals(sign=-1)),
                    min_size=1, max_size=6), _FACTORS)
    def test_interval_ops(self, rows, k):
        # the real operations on endpoint pairs, and |u + iv| by _abs_pair
        # on boxes off both axes
        x, y, pos, neg = (_pair(column) for column in zip(*rows))
        add, mul, scaled = _round(_add(x, y), _mul(x, y), _scale(x, k))
        sq, modulus = _sqr_pair(x), _abs_pair(pos, neg)
        with _iv_digits(60):
            for i, ends in enumerate(rows):
                a, b, u, v = (_iv(t) for t in ends)
                assert a + b in _row(add, i)
                assert a * b in _row(mul, i)
                assert k * a in _row(scaled, i)
                assert a ** 2 in _row(sq, i)
                assert iv.sqrt(u ** 2 + v ** 2) in _row(modulus, i)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_boxes(), _boxes()), min_size=1, max_size=6), _FACTORS)
    def test_complex_box_ops(self, pairs, k):
        # BoxArray + - * sqr conj scale, |z| by _abs_pair, and the squared
        # modulus product (2|z| 2|w|)^2 of the period-2 orbit rows (z, w)
        z, w = BoxArray.of([p[0] for p in pairs]), BoxArray.of([p[1] for p in pairs])
        results = (z + w, z - w, z * w, z.sqr(), z.conj(), z.scale(k))
        modulus = _abs_pair(z.re, z.im)
        squared = squared_modulus_rows(np.stack((z.e, w.e), axis=2))
        with _iv_digits(60):
            for i, (zi, wi) in enumerate(pairs):
                a, b, c, d = _iv(zi.re), _iv(zi.im), _iv(wi.re), _iv(wi.im)
                exact = ((a + c, b + d), (a - c, b - d), (a * c - b * d, a * d + b * c),
                         (a ** 2 - b ** 2, 2 * a * b), (a, -b), (k * a, k * b))
                for got, (re, im) in zip(results, exact):
                    assert re in _row(got.re, i) and im in _row(got.im, i)
                norm, other = iv.sqrt(a ** 2 + b ** 2), iv.sqrt(c ** 2 + d ** 2)
                assert norm in _row(modulus, i)
                assert (2 * norm * 2 * other) ** 2 in _row(squared, i)


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
    """The endpoints of the scalar result on the boxes, or None where it
    raises."""
    try:
        return _hex(op(*(scalar.box(a) for a in args)))
    except EmptyIntervalError:
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
    "scale 4": lambda x: x.scale(4.0),
    "scale -0.5": lambda x: x.scale(-0.5),
    "scale 0": lambda x: x.scale(0.0),
}


def _assert_ops_match(pairs, w):
    """Every BoxArray row of the pairs' first and second boxes has the
    endpoints (float.hex) of the scalar result, and is non-finite exactly
    where the scalar evaluation raises; w broadcasts on either side."""
    xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
    x, y = BoxArray.of(xs), BoxArray.of(ys)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, op in _BINARY.items():
            assert _rows_hex(op(x, y)) == [_scalar_hex(op, a, b) for a, b in pairs], name
            assert _rows_hex(op(x, w)) == [_scalar_hex(op, a, w) for a in xs], name
            assert _rows_hex(op(w, x)) == [_scalar_hex(op, w, a) for a in xs], name
        for name, op in _UNARY.items():
            assert _rows_hex(op(x)) == [_scalar_hex(op, a) for a in xs], name


def _box(a, b, c, d):
    return ComplexBox(Interval(a, b), Interval(c, d))


# signed zeros: the upper bound of re * im in this box's sqr is -0.0
_SQR_NEG_ZERO = _box(0.0, 0.009375, -0.3, -0.3)
# + cancels exactly to 0 in the lower re and the upper im endpoint
_CANCELS = (_box(1.0, 2.0, -3.0, -1.0), _box(-1.0, 3.0, 0.5, 1.0))
# endpoints +-0.0: with x, y these boxes, x + x and x - y have -0.0 as the
# upper endpoint of re and of im before rounding
_ZEROS = (_box(-0.0, -0.0, -1.0, -0.0), _box(0.0, 0.0, 0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_any_boxes(), _any_boxes()), min_size=1, max_size=6), _any_boxes())
@example([(_SQR_NEG_ZERO, _ZEROS[0])], _ZEROS[0])
@example([_CANCELS], _SQR_NEG_ZERO)
@example([_ZEROS, _CANCELS], _ZEROS[0])
def test_box_array_ops_match_complex_box(pairs, w):
    """The scalar endpoints on every row, by np.nextafter (these batches
    are below _STEP_MIN) and by the integer step alone (_STEP_MIN 0)."""
    _assert_ops_match(pairs, w)
    with mock.patch.object(intervals, "_STEP_MIN", 0):
        _assert_ops_match(pairs, w)


@pytest.mark.parametrize("rows", sorted({-(-intervals._STEP_MIN // k) + d
                                         for k in (2, 4, 6, 8) for d in (-1, 0)}))
def test_box_array_ops_at_the_cutoff(rows):
    """The same at the row counts that put a stage of 2, 4, 6 or 8
    endpoints just below _STEP_MIN (np.nextafter) and at or just above it
    (the integer step), on rows drawn like _any_boxes with the signed-zero
    rows among them."""
    rng = random.Random(rows)
    scales = (1e6, 1e-155, 1e160)

    def endpoint():
        k = rng.randrange(4)
        return rng.choice((0.0, -0.0, 1.0, -1.0)) if k == 3 else rng.uniform(-scales[k], scales[k])

    def box():
        a, b, c, d = (endpoint() for _ in range(4))
        return _box(min(a, b), max(a, b), min(c, d), max(c, d))

    special = [(_SQR_NEG_ZERO, _ZEROS[0]), _CANCELS, _ZEROS]
    pairs = special + [(box(), box()) for _ in range(rows - len(special))]
    _assert_ops_match(pairs, _SQR_NEG_ZERO)


# ---------------------------------------------------------------------------
# the layout of the endpoint matrix
# ---------------------------------------------------------------------------


def _layouts(e):
    """The endpoint matrix e as a C-ordered, a column-major (the layout of
    the gather e[:, rows]) and a strided view, all with e's values."""
    strided = np.empty((4, 2 * e.shape[1]))[:, ::2]
    strided[...] = e
    return {"C": np.ascontiguousarray(e), "column-major": np.asfortranarray(e),
            "strided": strided}


_LAYOUT_OPS = {
    "+": lambda z, c: (z + c).e,
    "-": lambda z, c: (z - c).e,
    "*": lambda z, c: (z * c).e,
    "sqr": lambda z, c: z.sqr().e,
    "scale": lambda z, c: z.scale(-0.75).e,
    "conj": lambda z, c: z.conj().e,
    "width": lambda z, c: z.width(),
    "quarter": lambda z, c: z.quarter().e,
    "z.sqr().conj() + c": lambda z, c: (z.sqr().conj() + c).e,
}


def _assert_same_bits(a, b, what):
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b)), what
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)), what


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_any_boxes(), _any_boxes()), min_size=1, max_size=8),
       st.sampled_from([None, 0]))
@example([_CANCELS, _ZEROS, (_SQR_NEG_ZERO, _ZEROS[0])] + [_CANCELS] * 5, None)
def test_ops_give_the_same_bits_in_every_matrix_layout(pairs, step_min):
    """Every BoxArray operation gives the bits of its C-ordered operands on
    column-major and strided-view ones, by np.nextafter (these batches are
    below _STEP_MIN) and by the integer step alone (step_min 0)."""
    z, c = (BoxArray.of([p[k] for p in pairs]).e for k in (0, 1))
    zs, cs = _layouts(z), _layouts(c)
    with contextlib.ExitStack() as stack:
        stack.enter_context(np.errstate(over="ignore", invalid="ignore"))
        if step_min is not None:
            stack.enter_context(mock.patch.object(intervals, "_STEP_MIN", step_min))
        for name, op in _LAYOUT_OPS.items():
            want = op(BoxArray._of(zs["C"]), BoxArray._of(cs["C"]))
            for layout in ("column-major", "strided"):
                got = op(BoxArray._of(zs[layout]), BoxArray._of(cs[layout]))
                _assert_same_bits(got, want, f"{name} on {layout} matrices")


# ---------------------------------------------------------------------------
# the box tests: meets, within, contains
# ---------------------------------------------------------------------------


def _raw_box(a, b, c, d):
    """A ComplexBox of any endpoints, inf, nan and inverted pairs included,
    to run the scalar predicates on the rows that a BoxArray may carry."""

    def raw(lo, hi):
        x = object.__new__(Interval)
        object.__setattr__(x, "lo", lo)
        object.__setattr__(x, "hi", hi)
        return x

    return ComplexBox(raw(a, b), raw(c, d))


# few values, so that edges often touch; signed zeros, infinities and nan
_EDGE_VALUES = st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf, math.nan))
_EDGE_ROWS = st.lists(st.tuples(*[_EDGE_VALUES] * 4), min_size=1, max_size=6)


def _batch(rows):
    """The BoxArray of rows (re lo, re hi, im lo, im hi) and their scalar boxes."""
    return BoxArray._of(np.array(rows, dtype=float).T[[0, 2, 1, 3]]), [_raw_box(*r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(_EDGE_ROWS, _EDGE_ROWS, _any_boxes(), st.tuples(_EDGE_VALUES, _EDGE_VALUES))
@example([(0.0, 1.0, 0.0, 1.0), (-0.0, 0.0, 1.0, 1.0)],
         [(1.0, 1.0, -0.0, 0.0), (0.0, 1.0, 0.0, 1.0)], _box(0.0, 1.0, 0.0, 1.0), (1.0, -0.0))
def test_box_tests_match_complex_box(xs, ys, w, point):
    """meets and within (and strictly), row by row, pairwise (_meet and
    _within on (4, A, 1) against (4, 1, B) matrices) and against a
    ComplexBox operand, and contains, give the scalar predicates of every
    pair of boxes: touching edges, signed zeros, inf and nan included.  So
    do _meet and _within on (4, B, p) orbit matrices, rowwise and pairwise
    within each row ((4, B, p, 1) against (4, B, 1, p)), as the cycle code
    tests its orbit boxes."""
    (x, bx), (y, by) = _batch(xs), _batch(ys)
    n = min(len(xs), len(ys))
    x_n, y_n = x[:n], y[:n]
    assert x_n.meets(y_n).tolist() == [a.intersects(b) for a, b in zip(bx, by)]
    assert x_n.within(y_n).tolist() == [b.contains_box(a) for a, b in zip(bx, by)]
    assert x_n.within(y_n, strict=True).tolist() == [b.strictly_contains(a) for a, b in zip(bx, by)]
    pairs = x.e[:, :, None], y.e[:, None]
    assert _meet(*pairs).tolist() == [[a.intersects(b) for b in by] for a in bx]
    assert _within(*pairs, False).tolist() == [[b.contains_box(a) for b in by] for a in bx]
    assert _within(*pairs, True).tolist() == [[b.strictly_contains(a) for b in by] for a in bx]
    # orbits of p = 2 boxes a row: (x_i, y_i) against (y_i, x_i)
    orbits = list(zip(bx, by))
    zx, zy = np.stack((x_n.e, y_n.e), axis=2), np.stack((y_n.e, x_n.e), axis=2)
    assert _meet(zx, zy).tolist() == [[a.intersects(b), b.intersects(a)] for a, b in orbits]
    assert _within(zx, zy, False).tolist() == [
        [b.contains_box(a), a.contains_box(b)] for a, b in orbits]
    assert _within(zx, zy, True).tolist() == [
        [b.strictly_contains(a), a.strictly_contains(b)] for a, b in orbits]
    pairs = zx[..., :, None], zx[..., None, :]
    assert _meet(*pairs).tolist() == [[[a.intersects(b) for b in o] for a in o] for o in orbits]
    assert _within(*pairs, False).tolist() == [
        [[b.contains_box(a) for b in o] for a in o] for o in orbits]
    assert _within(*pairs, True).tolist() == [
        [[b.strictly_contains(a) for b in o] for a in o] for o in orbits]
    assert x.meets(w).tolist() == [a.intersects(w) for a in bx]
    assert x.within(w).tolist() == [w.contains_box(a) for a in bx]
    assert x.within(w, strict=True).tolist() == [w.strictly_contains(a) for a in bx]
    z = complex(*point)
    assert x.contains(z).tolist() == [a.contains(z) for a in bx]


def test_box_array_takes_only_row_indexes():
    """An int or a 2-D index would give a malformed batch, so it raises;
    a slice, a boolean mask and a 1-D array of row numbers select rows, and
    an empty index of any kind, the float np.asarray([]) of an empty list
    among them, selects none."""
    boxes = [_box(0.0, 1.0, 0.0, 1.0), _box(1.0, 2.0, -1.0, 0.0), _box(2.0, 3.0, 2.0, 4.0)]
    batch = BoxArray.of(boxes)
    for rows in (1, np.int64(1), np.array(1), np.array([[0, 1]]), np.ones((3, 1), dtype=bool)):
        with pytest.raises(TypeError):
            batch[rows]
    assert batch[1:].boxes() == boxes[1:]
    assert batch[[True, False, True]].boxes() == [boxes[0], boxes[2]]
    assert batch[np.array([2, 0])].boxes() == [boxes[2], boxes[0]]
    for rows in ([], (), np.array([]), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool),
                 slice(0, 0)):
        assert batch[rows].e.shape == (4, 0)


# ---------------------------------------------------------------------------
# outward rounding of endpoint arrays
# ---------------------------------------------------------------------------


def _bit_patterns():
    """Every exponent with the mantissas 0, 1, 2^51, 2^52 - 1 and four drawn
    ones, of both signs: the zeros, the subnormals (5e-324 among them), the
    normals up to max, the infinities and nans."""
    rng = np.random.default_rng(5)
    mantissas = np.array([0, 1, 2**51, 2**52 - 1, *rng.integers(0, 2**52, 4)], dtype=np.int64)
    bits = ((np.arange(2048, dtype=np.int64)[:, None] << 52) | mantissas).ravel()
    return np.concatenate((bits, bits | np.int64(-2**63))).view(np.float64)


def _assert_rounds_like_nextafter(x, view=lambda a: a):
    """_outward, given view(a copy of x) with its first k rows as lows, rounds
    that view in place for k of none, half and all of its rows: np.nextafter's
    bits toward -inf on the lows and toward +inf on the highs at every
    non-nan entry, and each nan kept a nan.  The view keeps its shape and
    strides, so a strided or transposed one reaches _outward as it is."""
    want = view(x)
    nan = np.isnan(want)
    with np.errstate(over="ignore", invalid="ignore"):  # signaling nans
        for k in (0, len(want) // 2, len(want)):
            buf = view(x.copy())
            assert buf.strides == want.strides
            assert _outward(buf, k) is buf
            theirs = np.concatenate((np.nextafter(want[:k], -math.inf),
                                     np.nextafter(want[k:], math.inf)))
            assert np.array_equal(np.isnan(buf), nan)
            assert np.array_equal(buf[~nan].view(np.int64), theirs[~nan].view(np.int64))


class TestOutwardRounding:
    def test_patterns_cover_the_special_values(self):
        x = _bit_patterns()
        for v in (0.0, 5e-324, sys.float_info.max, math.inf):
            assert (x.view(np.int64) == np.float64(v).view(np.int64)).any()
            assert (x.view(np.int64) == np.float64(-v).view(np.int64)).any()
        assert np.isnan(x).sum() == 2 * 7 and len(x) > 8 * intervals._STEP_MIN

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_both_sides_of_the_cutoff(self, offset):
        # every pattern in arrays of _STEP_MIN - 1 entries (nextafter) and of
        # _STEP_MIN entries (the integer step)
        x, n = _bit_patterns(), intervals._STEP_MIN + offset
        for k in range(0, len(x), n):
            _assert_rounds_like_nextafter(x[k:k + n] if k + n <= len(x) else x[-n:])

    @pytest.mark.parametrize("step_min", [0, None, pytest.param(1 << 62, id="nextafter")])
    def test_shapes_and_strides(self, monkeypatch, step_min):
        # one-entry, 3-D and non-contiguous arrays, by the integer step
        # alone (step_min 0), by the size rule, and by np.nextafter alone
        if step_min is not None:
            monkeypatch.setattr(intervals, "_STEP_MIN", step_min)
        x = _bit_patterns()
        for v in (0.0, -0.0, 5e-324, -5e-324, 1.5, -sys.float_info.max, math.inf, -math.inf,
                  math.nan):
            _assert_rounds_like_nextafter(np.array([v]))
        _assert_rounds_like_nextafter(x, lambda a: a.reshape(16, 32, -1))
        _assert_rounds_like_nextafter(x, lambda a: a[::3])
        _assert_rounds_like_nextafter(x, lambda a: a.reshape(64, -1)[:, 1::2])
        _assert_rounds_like_nextafter(x, lambda a: a.reshape(16, 32, -1).transpose(2, 0, 1))
        _assert_rounds_like_nextafter(x, lambda a: np.asfortranarray(a.reshape(64, -1)))

    def test_nan_stays_nan(self):
        # nans whose pattern one integer step would turn into -0.0 or -inf
        x = np.array([0x7FFFFFFFFFFFFFFF, -0x000FFFFFFFFFFFFF], dtype=np.int64).view(np.float64)
        x = np.resize(x, intervals._STEP_MIN)
        assert np.isnan(x).all()
        with np.errstate(invalid="ignore"):
            assert np.isnan(_outward(x.copy(), len(x))).all()
            assert np.isnan(_outward(x.copy(), 0)).all()


_TWIN_ENDPOINTS = st.one_of(
    _ANY_ENDPOINTS, st.sampled_from((sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TWIN_ENDPOINTS, _TWIN_ENDPOINTS), min_size=1, max_size=8))
def test_midpoint_and_width_arrays_match_interval(pairs):
    """_mid_arr and _up_arr(hi - lo) give the bits of Interval.midpoint and
    Interval.width, signed zeros and the overflowing lo + hi included."""
    ivs = [Interval(min(a, b), max(a, b)) for a, b in pairs]
    lo, hi = np.array([x.lo for x in ivs]), np.array([x.hi for x in ivs])
    with np.errstate(over="ignore"):
        mid, width = _mid_arr(lo, hi), _up_arr(hi - lo)
    assert [v.hex() for v in mid.tolist()] == [x.midpoint().hex() for x in ivs]
    assert [v.hex() for v in width.tolist()] == [x.width().hex() for x in ivs]


# ---------------------------------------------------------------------------
# the last rounding of each operation, against exact rationals
# ---------------------------------------------------------------------------


def _is_float(q: Fraction) -> bool:
    return math.isfinite(float(q)) and Fraction(float(q)) == q


def _assert_outside(got, lo: Fraction, hi: Fraction, what: str):
    """The rounded endpoints got = (lo, hi) enclose the exact [lo, hi], and
    each lies strictly outside its exact value wherever that value is not a
    float: a last stage that is not rounded outward lands inside about half
    the time."""
    g_lo, g_hi = Fraction(got[0]), Fraction(got[1])
    assert g_lo <= lo and hi <= g_hi, what
    assert _is_float(lo) or g_lo < lo, what
    assert _is_float(hi) or hi < g_hi, what


def _ends(batch: BoxArray, axis: int, i: int):
    """The endpoints of re (axis 0) or im (axis 1) of row i."""
    lo, hi = batch.re if axis == 0 else batch.im
    return lo[i], hi[i]


def _last_stage_rows(seed: int, rows: int = 400):
    """Pairs of boxes with endpoints of mixed scales, signs and zeros, whose
    products and squares stay finite and normal."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 1e-3, 1e3, 3.0], size=(rows, 8))
    ends = rng.uniform(-1.0, 1.0, size=(rows, 8)) * scale
    ends[rng.random(size=ends.shape) < 0.05] = 0.0
    ends = ends.reshape(rows, 4, 2)
    ends.sort(axis=2)
    return [tuple(_box(*r[0], *r[1]) for r in (row[:2], row[2:])) for row in ends]


class TestLastRounding:
    """The last stage of each BoxArray operation and of _abs_pair, rebuilt
    exactly in fractions.Fraction from its float inputs (the stages before
    it in the scalar arithmetic of tests/scalar.py), lies inside the
    operation's result, each endpoint strictly where the exact value is not
    a float.  Unlike the mpmath oracle above, this sees a dropped last
    rounding, which only moves an endpoint by the rounding error."""

    def test_add_sub_mul(self):
        pairs = _last_stage_rows(11)
        x, y = BoxArray.of([p[0] for p in pairs]), BoxArray.of([p[1] for p in pairs])
        add, sub, mul = x + y, x - y, x * y
        F = Fraction
        for i, (u, v) in enumerate(pairs):
            for axis, (p, q) in ((0, (u.re, v.re)), (1, (u.im, v.im))):
                _assert_outside(_ends(add, axis, i), F(p.lo) + F(q.lo), F(p.hi) + F(q.hi),
                                f"add row {i}")
                _assert_outside(_ends(sub, axis, i), F(p.lo) - F(q.hi), F(p.hi) - F(q.lo),
                                f"sub row {i}")
            a, b = scalar.Interval(u.re.lo, u.re.hi), scalar.Interval(u.im.lo, u.im.hi)
            c, d = scalar.Interval(v.re.lo, v.re.hi), scalar.Interval(v.im.lo, v.im.hi)
            ac, bd, ad, bc = a * c, b * d, a * d, b * c
            _assert_outside(_ends(mul, 0, i), F(ac.lo) - F(bd.hi), F(ac.hi) - F(bd.lo),
                            f"mul re row {i}")
            _assert_outside(_ends(mul, 1, i), F(ad.lo) + F(bc.lo), F(ad.hi) + F(bc.hi),
                            f"mul im row {i}")

    def test_sqr_scale_abs(self):
        pairs = _last_stage_rows(12)
        x = BoxArray.of([p[0] for p in pairs])
        sq, modulus = x.sqr(), _abs_pair(x.re, x.im)
        scaled = {k: x.scale(k) for k in (0.1, -3.0, 4.0)}
        F = Fraction
        for i, (u, _) in enumerate(pairs):
            a, b = scalar.Interval(u.re.lo, u.re.hi), scalar.Interval(u.im.lo, u.im.hi)
            a2, b2, ab = a.sqr(), b.sqr(), a * b
            _assert_outside(_ends(sq, 0, i), F(a2.lo) - F(b2.hi), F(a2.hi) - F(b2.lo),
                            f"sqr re row {i}")
            _assert_outside(_ends(sq, 1, i), 2 * F(ab.lo), 2 * F(ab.hi), f"sqr im row {i}")
            for k, got in scaled.items():
                for axis, p in ((0, u.re), (1, u.im)):
                    _assert_outside(_ends(got, axis, i), *sorted((F(p.lo) * F(k), F(p.hi) * F(k))),
                                    f"scale {k} row {i}")
            # |z| = sqrt(n) for n = |z|^2, compared through squares: a root
            # r is a float exactly where float(r)^2 = n
            n = a2 + b2
            lo, hi = F(modulus[0][i]), F(modulus[1][i])
            assert hi >= 0 and hi * hi >= F(n.hi), f"abs hi row {i}"
            assert F(math.sqrt(n.hi)) ** 2 == F(n.hi) or hi * hi > F(n.hi), f"abs hi row {i}"
            if n.lo > 0.0:
                assert 0 <= lo and lo * lo <= F(n.lo), f"abs lo row {i}"
                assert F(math.sqrt(n.lo)) ** 2 == F(n.lo) or lo * lo < F(n.lo), f"abs lo row {i}"
            else:
                assert lo == 0, f"abs lo row {i}"


# tracemalloc peaks at 4,096 rows, in bytes (numpy 2.4), when each stage
# was formed one endpoint array at a time and stacked into a fresh buffer
# to be rounded: the stage buffers must not hold more than those copies did
_STACKED_PEAKS = {
    "z.sqr().conj() + c": (lambda z, c: z.sqr().conj() + c, 552_048),
    "z * c": (lambda z, c: z * c, 625_296),
}


@pytest.mark.parametrize("expression", sorted(_STACKED_PEAKS))
def test_stage_buffers_stay_below_the_stacked_peaks(expression):
    evaluate, bound = _STACKED_PEAKS[expression]
    rng = np.random.default_rng(3)
    ends = np.sort(rng.uniform(-1.0, 1.0, size=(2, 4096, 4)), axis=2)
    z, c = (BoxArray((e[:, 0], e[:, 1]), (e[:, 2], e[:, 3])) for e in ends)
    evaluate(z, c)
    tracemalloc.start()
    try:
        evaluate(z, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
