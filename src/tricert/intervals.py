"""Outward-rounded complex interval arithmetic on batches of boxes.

Interval and ComplexBox are value types: a closed real interval and an
axis-aligned complex box, with predicates, width, midpoint and splits.
BoxArray holds a batch of boxes as float64 endpoint arrays and carries the
one arithmetic (Moore, Interval Analysis, 1966): every operation is
containment-sound, its result enclosing the exact image of its inputs.
Endpoints are binary64; outward rounding is done by stepping each computed
endpoint to the adjacent representable value, never by switching the FPU
rounding mode: scalars by math.nextafter, endpoint arrays by np.nextafter
or, from _STEP_MIN entries on, by one integer step on the bit pattern,
which gives the same value.
A BoxArray operation rounds stage by stage: the endpoints of one stage
(the two squares and the product in sqr, then the difference and the
doubled product; the four endpoints of + and -) are stacked in one buffer
and rounded in one pass, and the _STEP_MIN rule applies to that buffer:
a stage of k endpoints takes the integer step from 1,024 / k rows on,
about where the step overtakes np.nextafter.
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

# A BoxArray operation rounds in stages: all the endpoints that one stage of
# its formula rounds are stacked into one buffer and rounded in one pass
# (_outward).  A buffer of at least this many entries is rounded
# by the integer step, a smaller one by np.nextafter, so a stage of k
# endpoints takes the step from 1,024 / k rows on.  Both give the same
# bits on every non-nan entry, and a nan stays a nan (the step leaves it
# alone; nextafter may return another nan).  np.nextafter calls libm once
# per entry, while the step runs a fixed number of whole-buffer passes,
# which cost more on small buffers.  _outward of a stage of 4 endpoints on
# a 2-vCPU VM (numpy 2.4) takes 8.3 us by nextafter against 10.6 us by the
# step at 512 entries, 13.0 against 12.5 us at 1,024 and 24.9 against
# 13.6 us at 2,048; for stages of 1 to 8 endpoints the two cross between
# 768 and 1,024 entries.
_STEP_MIN = 1024


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


def _outward(lows, highs):
    """The arrays of lows rounded down and those of highs rounded up, each
    entry to the adjacent binary64 value (np.nextafter toward -inf and
    +inf): two stacked arrays, one row per input, rounded in one pass.

    The inputs are equally shaped arrays.  A lower endpoint x is rounded
    as -(-x rounded up), the same value, so the whole buffer is rounded
    up: the lows go in as 0.0 - x, which is -x exactly with +0.0 for
    either zero, and are negated back at the end.  Before the integer step
    the highs become x + 0.0, which maps -0.0 to +0.0, since the step
    turns a -0.0 into a nan; np.nextafter steps both zeros alike."""
    k = len(lows)
    buf = np.array((*lows, *highs), dtype=float)
    lo, hi = buf[:k], buf[k:]
    np.subtract(0.0, lo, out=lo)
    if buf.size < _STEP_MIN:
        np.nextafter(buf, _INF, out=buf)
    else:
        np.add(hi, 0.0, out=hi)
        _step_up(buf)
    np.negative(lo, out=lo)
    return lo, hi


def _round(*pairs):
    """The unrounded (lo, hi) endpoint pairs of one stage, rounded outward
    together: each lo down and each hi up."""
    lo, hi = _outward([p[0] for p in pairs], [p[1] for p in pairs])
    return [(lo[i], hi[i]) for i in range(len(pairs))]


def _down_arr(x):
    """The next binary64 value below each entry of x (nextafter toward -inf)."""
    return _outward((x,), ())[0][0]


def _up_arr(x):
    """The next binary64 value above each entry of x (nextafter toward +inf)."""
    return _outward((), (x,))[1][0]


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
# _round rounds the pairs of one stage of a BoxArray operation together.
# An endpoint that a sign test would pick is taken by np.minimum or
# np.maximum: the value is the same and may differ only in the sign of a
# zero, which the outward step maps to the same endpoint.
# np.minimum/np.maximum propagate nan.


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[1], a[1] - b[0]


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


def _neg_pair(a):
    return -a[1], -a[0]


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


def _cadd(x, y):
    return _round(_add(x[0], y[0]), _add(x[1], y[1]))


def _csub(x, y):
    return _round(_sub(x[0], y[0]), _sub(x[1], y[1]))


def _cmul(x, y):
    (a, b), (c, d) = x, y
    ac, bd, ad, bc = _round(_mul(a, c), _mul(b, d), _mul(a, d), _mul(b, c))
    return _round(_sub(ac, bd), _add(ad, bc))


def _pairs(x):
    """The (re, im) endpoint pairs of a BoxArray or a ComplexBox, else None."""
    if isinstance(x, BoxArray):
        return x.re, x.im
    if isinstance(x, ComplexBox):
        return (x.re.lo, x.re.hi), (x.im.lo, x.im.hi)
    return None


def _binary(op):
    """The forward and reflected methods of a BoxArray operator; the operand
    order of op is the order written in the expression."""

    def forward(self, other):
        o = _pairs(other)
        return NotImplemented if o is None else BoxArray(*op((self.re, self.im), o))

    def reflected(self, other):
        o = _pairs(other)
        return NotImplemented if o is None else BoxArray(*op(o, (self.re, self.im)))

    return forward, reflected


class BoxArray:
    """A batch of complex boxes held as float64 endpoint arrays.

    `re` and `im` are (lo, hi) pairs of equally long arrays; row i is the
    box [re[0][i], re[1][i]] x [im[0][i], im[1][i]].  +, -, *, conj, sqr
    and scale enclose the complex operations row by row:
    (a + bi)(c + di) = (ac - bd) + (ad + bc)i from the four real products,
    z^2 = (a^2 - b^2) + 2ab i with the real squares clamped at 0, and each
    endpoint rounded outward.  A ComplexBox operand broadcasts on either
    side of +, - and *.

    A row whose endpoint overflows carries inf or nan.  Every operation
    keeps a non-finite row non-finite, so a row whose result is finite is
    an enclosure.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def of(boxes) -> "BoxArray":
        """The batch of the given ComplexBoxes, in order."""
        e = np.array([(b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in boxes], dtype=float)
        e = e.reshape(-1, 4).T
        return BoxArray((e[0], e[1]), (e[2], e[3]))

    @staticmethod
    def concat(parts) -> "BoxArray":
        """The rows of the given BoxArrays, in order."""
        return BoxArray(*(tuple(np.concatenate([getattr(p, axis)[k] for p in parts]) for k in (0, 1))
                          for axis in ("re", "im")))

    def __len__(self) -> int:
        return len(self.re[0])

    def __getitem__(self, rows) -> "BoxArray":
        """The batch of the selected rows (a numpy index)."""
        return BoxArray((self.re[0][rows], self.re[1][rows]),
                        (self.im[0][rows], self.im[1][rows]))

    def boxes(self) -> list[ComplexBox]:
        """The rows as ComplexBoxes; raises EmptyIntervalError on a non-finite row."""
        return [
            ComplexBox(Interval(a, b), Interval(c, d))
            for a, b, c, d in zip(*(v.tolist() for v in (*self.re, *self.im)))
        ]

    def finite(self) -> np.ndarray:
        """Mask of the rows whose four endpoints are finite."""
        return (np.isfinite(self.re[0]) & np.isfinite(self.re[1])
                & np.isfinite(self.im[0]) & np.isfinite(self.im[1]))

    def contains(self, z: complex) -> np.ndarray:
        """Mask of the rows that contain the point (ComplexBox.contains)."""
        (a, b), (c, d) = self.re, self.im
        return (a <= z.real) & (z.real <= b) & (c <= z.imag) & (z.imag <= d)

    def width(self) -> np.ndarray:
        """ComplexBox.width of every row."""
        return np.maximum(_up_arr(self.re[1] - self.re[0]), _up_arr(self.im[1] - self.im[0]))

    def quarter(self) -> "BoxArray":
        """ComplexBox.quarter of every row, bit for bit: the children of row
        k, in (SW, SE, NW, NE) order, are rows 4k to 4k + 3."""
        (a, b), (c, d) = self.re, self.im
        m, n = _mid_arr(a, b), _mid_arr(c, d)
        return BoxArray((np.stack((a, m, a, m), axis=1).ravel(), np.stack((m, b, m, b), axis=1).ravel()),
                        (np.stack((c, c, n, n), axis=1).ravel(), np.stack((n, n, d, d), axis=1).ravel()))

    __add__, __radd__ = _binary(_cadd)
    __sub__, __rsub__ = _binary(_csub)
    __mul__, __rmul__ = _binary(_cmul)

    def conj(self) -> "BoxArray":
        return BoxArray(self.re, _neg_pair(self.im))

    def sqr(self) -> "BoxArray":
        """Two stages: the squares of re and im and their product, then the
        difference of the squares and the doubled product."""
        (a, keep_a), (b, keep_b) = _sqr(self.re), _sqr(self.im)
        a, b, ab = _round(a, b, _mul(self.re, self.im))
        return BoxArray(*_round(_sub(_clamp(a, keep_a), _clamp(b, keep_b)), _scale(ab, 2.0)))

    def scale(self, k: float) -> "BoxArray":
        return BoxArray(*_round(_scale(self.re, k), _scale(self.im, k)))
