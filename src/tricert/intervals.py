"""Outward-rounded complex interval arithmetic on batches of boxes.

Interval and ComplexBox are value types: a closed real interval and an
axis-aligned complex box, with predicates, width, midpoint and splits.
BoxArray holds a batch of boxes as one (4, B) float64 endpoint matrix and
carries the one arithmetic (Moore, Interval Analysis, 1966): every
operation is containment-sound, its result enclosing the exact image of
its inputs.  Endpoints are binary64; outward rounding is done by stepping
each computed endpoint to the adjacent representable value, never by
switching the FPU rounding mode: scalars by math.nextafter, endpoint
arrays by np.nextafter or, from _STEP_MIN entries on, by one integer step
on the bit pattern, which gives the same value.
A BoxArray operation rounds stage by stage: each stage (the two squares
and the product in sqr, then the difference and the doubled product; the
four endpoints of + and -) writes its unrounded lows and highs straight
into one buffer by a few whole-matrix ufunc calls, and the buffer is
rounded in place, lows down and highs up (_outward), whatever its memory
layout: an operand may be a column-major or strided view, and the result
has the same bits.  The _STEP_MIN rule applies to that buffer: a stage of
k endpoints takes the integer step from 1,024 / k rows on, about where the
step overtakes np.nextafter.  The box tests (meets, within, contains) are
written once, on endpoint matrices, and give rowwise or pairwise masks.
All values are immutable and safe to share between threads.  Intervals and
boxes are never empty: a non-finite or inverted endpoint pair raises
EmptyIntervalError.  A BoxArray row carries inf or nan instead, and no
operation needs an emptiness case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Interval", "ComplexBox", "BoxArray", "EmptyIntervalError"]

_INF = math.inf


class EmptyIntervalError(ValueError):
    """Raised when an interval would get a non-finite or an inverted endpoint
    pair."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed real interval [lo, hi] with finite binary64 endpoints, lo <= hi.

    An interval is never empty: any other endpoint pair raises
    EmptyIntervalError.
    """

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EmptyIntervalError(f"non-finite endpoints [{lo}, {hi}]")
        if lo > hi:
            raise EmptyIntervalError(f"inverted endpoints [{lo}, {hi}]")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        """Degenerate interval [x, x]."""
        return Interval(x, x)

    @staticmethod
    def around(x: float, r: float) -> "Interval":
        """Interval of radius r about x, rounded outward."""
        return Interval(_down(x - r), _up(x + r))

    # -- predicates ------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- measure ---------------------------------------------------------

    def width(self) -> float:
        return _up(self.hi - self.lo)

    def midpoint(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        # clamp so the midpoint is always a member
        return min(max(m, self.lo), self.hi)

    def bisect(self) -> tuple["Interval", "Interval"]:
        m = self.midpoint()
        return Interval(self.lo, m), Interval(m, self.hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True, slots=True)
class ComplexBox:
    """Axis-aligned rectangle re x im in the complex plane."""

    re: Interval
    im: Interval

    @staticmethod
    def point(z: complex) -> "ComplexBox":
        return ComplexBox(Interval.point(z.real), Interval.point(z.imag))

    @staticmethod
    def around(z: complex, r: float) -> "ComplexBox":
        return ComplexBox(Interval.around(z.real, r), Interval.around(z.imag, r))

    # -- geometry --------------------------------------------------------

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def contains_box(self, other: "ComplexBox") -> bool:
        return self.re.contains_interval(other.re) and self.im.contains_interval(other.im)

    def strictly_contains(self, other: "ComplexBox") -> bool:
        return self.re.strictly_contains(other.re) and self.im.strictly_contains(other.im)

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def width(self) -> float:
        return max(self.re.width(), self.im.width())

    def midpoint(self) -> complex:
        return complex(self.re.midpoint(), self.im.midpoint())

    def bisect(self) -> tuple["ComplexBox", "ComplexBox"]:
        """Split the wider coordinate at a representable midpoint."""
        if self.re.width() >= self.im.width():
            a, b = self.re.bisect()
            return ComplexBox(a, self.im), ComplexBox(b, self.im)
        a, b = self.im.bisect()
        return ComplexBox(self.re, a), ComplexBox(self.re, b)

    def quarter(self) -> tuple["ComplexBox", "ComplexBox", "ComplexBox", "ComplexBox"]:
        """Quad split, children in (SW, SE, NW, NE) order."""
        rl, rh = self.re.bisect()
        il, ih = self.im.bisect()
        return (
            ComplexBox(rl, il),
            ComplexBox(rh, il),
            ComplexBox(rl, ih),
            ComplexBox(rh, ih),
        )

    def __repr__(self) -> str:
        return f"ComplexBox({self.re!r} + {self.im!r} i)"


# ---------------------------------------------------------------------------
# endpoint arrays
# ---------------------------------------------------------------------------

# Every rounding is one call of _outward on a buffer whose lows come ahead
# of its highs: a BoxArray stage writes its unrounded endpoints straight
# into such a buffer, and _round stacks its pairs into one.  A buffer of at
# least this many entries is rounded by the integer step, a smaller one by
# np.nextafter, so a stage of k endpoints takes the step from 1,024 / k
# rows on.  Both give the same bits on every non-nan entry, and a nan stays
# a nan (the step leaves it alone; nextafter may return another nan).
# np.nextafter calls libm once per entry, while the step runs a fixed
# number of whole-buffer passes, which cost more on small buffers.
# _outward of a buffer of 2 lows and 2 highs a row (a stage of + or -) on
# a 2-vCPU VM (numpy 2.4, the CLI's malloc policy, best of 7) takes 5.2 us
# by nextafter against 7.3 us by the step at 512 entries, 7.0 against 7.2
# us at 768, 9.9 against 7.9 us at 1,024 and 19.7 against 9.1 us at 2,048.
_STEP_MIN = 1024
# the directions of the lows and of the highs, for np.nextafter
_TOWARD = np.array([[-_INF], [_INF]])


def _step_up(y):
    """y stepped up in place to the next binary64 value, by one integer step
    on its bit pattern: +1 for a value of sign bit 0, -1 for sign bit 1.
    y must hold no -0.0 (its +0.0 steps to 5e-324, as nextafter steps both
    zeros); +inf and nan entries are not stepped.  The steps are built in a
    1-byte array.  An 8-byte temporary as large as a stage buffer of
    8 x 4,096 entries was once timed 4 times slower, while glibc's dynamic
    thresholds mapped each such temporary anew and the kernel faulted it
    in.  Under the CLI's malloc policy (cli.main), which keeps it in the
    heap, an 8-byte temporary still makes the 418 steps of a depth-8 qlike
    scan 1.05 to 1.45 times slower (1.5 to 1.6 times without the policy;
    2-vCPU VM), for moving 8 times the bytes."""
    d = np.signbit(y).view(np.int8)
    d *= -2
    d += 1
    d *= y < _INF
    b = y.view(np.int64)
    b += d
    return y


def _outward(buf, k: int):
    """buf rounded outward in place and returned: each entry of its first k
    rows (the lows) down and each entry of the other rows (the highs) up,
    to the adjacent binary64 value, as np.nextafter toward -inf and +inf.
    buf may have any layout: only a C-contiguous buffer, whose halves
    reshape to a view of it, is rounded by one np.nextafter call, and any
    other by one call on each slice.

    The integer step only steps up, so there a lower endpoint x is rounded
    as -(-x rounded up), the same value: the lows become 0.0 - x, which is
    -x exactly with +0.0 for either zero, and are negated back at the end;
    the highs become x + 0.0, which maps -0.0 to +0.0, since the step turns
    a -0.0 into a nan.  np.nextafter steps both zeros alike."""
    if buf.size < _STEP_MIN:
        if 2 * k == len(buf) and buf.flags.c_contiguous:  # as many lows as highs: one call
            halves = buf.reshape(2, -1)
            np.nextafter(halves, _TOWARD, out=halves)
        else:
            np.nextafter(buf[:k], -_INF, out=buf[:k])
            np.nextafter(buf[k:], _INF, out=buf[k:])
        return buf
    lo, hi = buf[:k], buf[k:]
    np.subtract(0.0, lo, out=lo)
    np.add(hi, 0.0, out=hi)
    _step_up(buf)
    np.negative(lo, out=lo)
    return buf


def _round(*pairs):
    """The unrounded (lo, hi) endpoint pairs of one stage, stacked in one
    buffer and rounded outward together: each lo down and each hi up."""
    k = len(pairs)
    buf = _outward(np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=float), k)
    return [(buf[i], buf[k + i]) for i in range(k)]


def _up_arr(x):
    """The next binary64 value above each entry of x (nextafter toward +inf)."""
    return _outward(np.array((x,), dtype=float), 0)[0]


def _interleave(x, y):
    """Arrays x and y merged along their last axis: x_0, y_0, x_1, y_1, ..."""
    out = np.empty((*x.shape[:-1], 2 * x.shape[-1]))
    out[..., 0::2], out[..., 1::2] = x, y
    return out


def _mid_arr(lo, hi):
    """Interval.midpoint on endpoint arrays, bit for bit: on a tie np.maximum
    and np.minimum return their second argument and Python's max and min
    their first, so the arguments are swapped (this keeps a -0.0 midpoint)."""
    m = 0.5 * (lo + hi)
    m = np.where(np.isfinite(m), m, 0.5 * lo + 0.5 * hi)
    return np.minimum(hi, np.maximum(lo, m))


# The real interval operations on (lo, hi) pairs of float64 endpoint
# arrays, before rounding: each returns the pair to round outward, and
# _round rounds the pairs of one stage together.  The BoxArray operations
# below compute the same formulas on endpoint matrices.  An endpoint that a
# sign test would pick is taken by np.minimum or np.maximum: the value is
# the same and may differ only in the sign of a zero, which the outward
# step maps to the same endpoint.  np.minimum/np.maximum propagate nan, so
# the order in which they meet the candidates changes no rounded endpoint
# but the payload of a nan.


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _mul(a, b):
    (alo, ahi), (blo, bhi) = a, b
    p0, p1, p2, p3 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return (np.minimum(np.minimum(p0, p1), np.minimum(p2, p3)),
            np.maximum(np.maximum(p0, p1), np.maximum(p2, p3)))


def _scale(a, k):
    """The product with exact scalars k (an array or a float)."""
    x, y = a[0] * k, a[1] * k
    return np.minimum(x, y), np.maximum(x, y)


def _sqr(a):
    """The square {x^2 : x in a}: the smaller and the larger square of a's
    endpoints, row by row, and the mask of the rows that do not straddle 0,
    which _clamp needs after rounding.  The smaller square is the lower
    endpoint where a does not straddle 0, and the larger is always the
    upper one."""
    lo, hi = a
    ll, hh = lo * lo, hi * hi
    return (np.minimum(ll, hh), np.maximum(ll, hh)), (lo >= 0.0) | (hi <= 0.0)


def _clamp(a, keep):
    """The rounded pair of _sqr with its lower endpoint clamped at 0.0, and
    0.0 in the rows that straddle 0 (keep False).  The clamp sees no -0.0:
    a lower endpoint rounded down is never -0.0."""
    return np.where(keep, np.maximum(a[0], 0.0), 0.0), a[1]


def _sqr_pair(a):
    """The square of a pair, rounded: its lower endpoint never below 0."""
    raw, keep = _sqr(a)
    return _clamp(_round(raw)[0], keep)


def _abs_pair(re, im):
    """|z| on (re, im) pairs: the square root of |z|^2 (the rounded sum of
    the rounded squares), whose lower endpoint is exactly 0 where the one
    of |z|^2 is at most 0 (always so when the box contains 0).  np.sqrt is
    correctly rounded."""
    (a, keep_a), (b, keep_b) = _sqr(re), _sqr(im)
    a, b = _round(a, b)
    n_lo, n_hi = _round(_add(_clamp(a, keep_a), _clamp(b, keep_b)))[0]
    pos = n_lo > 0.0
    lo, hi = _round((np.sqrt(np.where(pos, n_lo, 0.0)), np.sqrt(n_hi)))[0]
    return np.where(pos, lo, 0.0), hi


# The complex operations on endpoint matrices: (4, B) float64 arrays whose
# rows are re lo, im lo, re hi, im hi, so that rows :2 are a row's lows and
# rows 2: its highs (a ComplexBox operand is a (4, 1) matrix and
# broadcasts).  A stage writes its unrounded endpoints, all its lows ahead
# of all its highs, into one fresh buffer by whole-block ufunc calls and
# rounds the buffer in place (_outward); each endpoint is the one that the
# pair operations above compute, from the same operands in the same order.


def _cadd(x, y):
    return _outward(np.add(x, y), 2)


def _csub(x, y):
    """The lows of x less the highs of y, and the highs of x less the lows
    of y, in one call."""
    return _outward(np.subtract(x.reshape(2, 2, -1), y.reshape(2, 2, -1)[::-1]).reshape(4, -1), 2)


def _cmul(x, y):
    """(a + bi)(c + di) in two stages: the real products ac, bd, ad and bc,
    then ac - bd and ad + bc.  The endpoint products of (a, b) with (c, d),
    then with (d, c), fill a block of 8 rows at a time, which is reduced
    into the stage's lows and highs; (d, c) waits in the rows of the stage
    that its products fill."""
    ends = x.reshape(2, 1, 2, -1)  # the lows and the highs of (a, b)
    n = y.shape[1] if x.shape[1] == 1 else x.shape[1]  # a (4, 1) operand broadcasts
    s = np.empty((2, 2, 2 * n))  # the lows, then the highs, of (ac, bd) and (ad, bc)
    swapped = s[:, 1].reshape(1, 2, 2, n)
    np.copyto(swapped, y.reshape(2, 2, -1)[:, ::-1])
    products = np.empty((4, 2 * n))
    block = products.reshape(2, 2, 2, n)
    for k, other in enumerate((y.reshape(1, 2, 2, -1), swapped)):
        np.multiply(ends, other, out=block)
        np.minimum.reduce(products, axis=0, out=s[0, k])
        np.maximum.reduce(products, axis=0, out=s[1, k])
    del products, block
    s = _outward(s.reshape(8, n), 4)  # rows ac, bd, ad, bc lows, then highs
    out = np.empty((4, n))
    np.subtract(s[0::4], s[5::-4], out=out[0::2])
    np.add(s[2::4], s[3::4], out=out[1::2])
    return _outward(out, 2)


def _csqr(x):
    """z^2 = (a^2 - b^2) + 2ab i in two stages: the squares of a and b and
    their product, then the difference of the squares (clamped at 0 as in
    _sqr_pair) and the doubled product."""
    n = x.shape[1]
    s = np.empty((2, 3, n))  # the lows, then the highs, of a^2, b^2, ab
    lo, hi = s
    squares = np.multiply(x, x).reshape(2, 2, n)
    np.minimum(squares[0], squares[1], out=lo[:2])
    np.maximum(squares[0], squares[1], out=hi[:2])
    np.multiply(x[0::2, None], x[None, 1::2], out=squares)  # a's ends times b's, in their place
    products = squares.reshape(4, n)
    np.minimum.reduce(products, axis=0, out=lo[2])
    np.maximum.reduce(products, axis=0, out=hi[2])
    straddle = (x[:2] >= 0.0) | (x[2:] <= 0.0)
    np.logical_not(straddle, out=straddle)
    _outward(s.reshape(6, n), 3)
    np.maximum(lo[:2], 0.0, out=lo[:2])
    np.putmask(lo[:2], straddle, 0.0)
    s = s.reshape(6, n)  # rows a^2, b^2, ab lows, then highs
    out = products
    np.subtract(s[0::3], s[4::-3], out=out[0::2])
    twice = np.multiply(s[2::3], 2.0)
    np.minimum(twice[0], twice[1], out=out[1])
    np.maximum(twice[0], twice[1], out=out[3])
    return _outward(out, 2)


def _cscale(x, k):
    ends = np.multiply(x, k).reshape(2, 2, -1)
    out = np.empty_like(ends)
    np.minimum(ends[0], ends[1], out=out[0])
    np.maximum(ends[0], ends[1], out=out[1])
    return _outward(out.reshape(4, -1), 2)


# The box tests on endpoint matrices, each a mask over the broadcast shape
# of x and y less their first axis: rowwise for two (4, B) matrices, or for
# a (4, B) and a (4, 1) one, and pairwise (A, B) for a (4, A, 1) matrix
# against a (4, 1, B) one.  A comparison with nan is false, so a row with a
# nan endpoint neither meets a box nor lies in one.


def _meet(x, y):
    """The mask of the boxes x that meet the boxes y (ComplexBox.intersects)."""
    return ((x[:2] <= y[2:]) & (y[:2] <= x[2:])).all(axis=0)


def _within(x, y, strict: bool):
    """The mask of the boxes x that lie in the boxes y (y.contains_box(x)),
    or strictly inside them (y.strictly_contains(x))."""
    below = np.less if strict else np.less_equal
    return (below(y[:2], x[:2]) & below(x[2:], y[2:])).all(axis=0)


def _matrix(x):
    """The endpoint matrix of a BoxArray or a ComplexBox, else None."""
    if isinstance(x, BoxArray):
        return x.e
    if isinstance(x, ComplexBox):
        return np.array([[x.re.lo], [x.im.lo], [x.re.hi], [x.im.hi]])
    return None


def _binary(op):
    """The forward and reflected methods of a BoxArray operator; the operand
    order of op is the order written in the expression."""

    def forward(self, other):
        o = _matrix(other)
        return NotImplemented if o is None else BoxArray._of(op(self.e, o))

    def reflected(self, other):
        o = _matrix(other)
        return NotImplemented if o is None else BoxArray._of(op(o, self.e))

    return forward, reflected


class BoxArray:
    """A batch of complex boxes held as one float64 endpoint matrix.

    `e` is a (4, B) matrix with rows re lo, im lo, re hi, im hi; row i of the
    batch is the box [e[0, i], e[2, i]] x [e[1, i], e[3, i]].  `re` and `im`
    are (lo, hi) pairs of views of it, and the constructor takes such
    pairs.  +, -, *, conj, sqr and scale enclose the complex operations row
    by row: (a + bi)(c + di) = (ac - bd) + (ad + bc)i from the four real
    products, z^2 = (a^2 - b^2) + 2ab i with the real squares clamped at 0,
    and each endpoint rounded outward.  A ComplexBox operand broadcasts on
    either side of +, - and *, and as the other box of meets and within.

    A row whose endpoint overflows carries inf or nan.  Every operation
    keeps a non-finite row non-finite, so a row whose result is finite is
    an enclosure.  No operation writes into the matrix of an operand.
    """

    __slots__ = ("e",)

    def __init__(self, re, im):
        self.e = np.array((re[0], im[0], re[1], im[1]), dtype=float)

    @staticmethod
    def _of(e) -> "BoxArray":
        """The batch of the (4, B) endpoint matrix e, not copied."""
        batch = object.__new__(BoxArray)
        batch.e = e
        return batch

    @property
    def re(self):
        return self.e[0], self.e[2]

    @property
    def im(self):
        return self.e[1], self.e[3]

    @staticmethod
    def of(boxes) -> "BoxArray":
        """The batch of the given ComplexBoxes, in order."""
        e = np.array([(b.re.lo, b.im.lo, b.re.hi, b.im.hi) for b in boxes], dtype=float)
        return BoxArray._of(np.ascontiguousarray(e.reshape(-1, 4).T))

    @staticmethod
    def concat(parts) -> "BoxArray":
        """The rows of the given BoxArrays, in order."""
        return BoxArray._of(np.concatenate([p.e for p in parts], axis=1))

    def __len__(self) -> int:
        return self.e.shape[1]

    def __getitem__(self, rows) -> "BoxArray":
        """The batch of the selected rows (a slice, a boolean mask or a 1-D
        array of row numbers); an empty index of any kind gives an empty
        batch, and any other index raises TypeError."""
        if isinstance(rows, slice):
            return BoxArray._of(self.e[:, rows])
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise TypeError("a BoxArray takes a slice, a boolean mask or a 1-D array of rows")
        if not rows.size:  # np.asarray([]) is float
            return BoxArray._of(self.e[:, :0])
        if rows.dtype == bool:
            return BoxArray._of(self.e.compress(rows, axis=1))
        return BoxArray._of(self.e.take(rows, axis=1))

    def boxes(self) -> list[ComplexBox]:
        """The rows as ComplexBoxes; raises EmptyIntervalError on a non-finite row."""
        return [ComplexBox(Interval(a, c), Interval(b, d)) for a, b, c, d in self.e.T.tolist()]

    def finite(self) -> np.ndarray:
        """Mask of the rows whose four endpoints are finite."""
        return np.isfinite(self.e).all(axis=0)

    def contains(self, z: complex) -> np.ndarray:
        """Mask of the rows that contain the point (ComplexBox.contains)."""
        return _within(np.array([[z.real], [z.imag]] * 2), self.e, False)

    def meets(self, other) -> np.ndarray:
        """Mask of the rows that meet the rows of other (ComplexBox.intersects)."""
        return _meet(self.e, _matrix(other))

    def within(self, other, strict: bool = False) -> np.ndarray:
        """Mask of the rows that lie in the rows of other (its contains_box),
        or strictly inside them (its strictly_contains)."""
        return _within(self.e, _matrix(other), strict)

    def width(self) -> np.ndarray:
        """ComplexBox.width of every row."""
        w = _outward(np.subtract(self.e[2:], self.e[:2]), 0)
        return np.maximum(w[0], w[1])

    def quarter(self) -> "BoxArray":
        """ComplexBox.quarter of every row, bit for bit: the children of row
        k, in (SW, SE, NW, NE) order, are rows 4k to 4k + 3."""
        a, c, b, d = self.e
        m, n = _mid_arr(self.e[:2], self.e[2:])
        out = np.empty((4, len(self), 4))
        np.stack((a, m, a, m), axis=1, out=out[0])
        np.stack((c, c, n, n), axis=1, out=out[1])
        np.stack((m, b, m, b), axis=1, out=out[2])
        np.stack((n, n, d, d), axis=1, out=out[3])
        return BoxArray._of(out.reshape(4, -1))

    __add__, __radd__ = _binary(_cadd)
    __sub__, __rsub__ = _binary(_csub)
    __mul__, __rmul__ = _binary(_cmul)

    def conj(self) -> "BoxArray":
        out = np.empty_like(self.e)
        out[0::2] = self.e[0::2]
        np.negative(self.e[3::-2], out=out[1::2])
        return BoxArray._of(out)

    def sqr(self) -> "BoxArray":
        return BoxArray._of(_csqr(self.e))

    def scale(self, k: float) -> "BoxArray":
        return BoxArray._of(_cscale(self.e, k))
