"""Outward-rounded real intervals and axis-aligned complex boxes.

Every arithmetic operation is containment-sound: the result encloses the
exact mathematical image of its inputs.  Endpoints are binary64; outward
rounding is done by stepping each computed endpoint to the adjacent
representable value (nextafter), never by switching the FPU rounding mode.
All values are immutable and safe to share between threads.

BoxArray holds a batch of boxes as float64 endpoint arrays and repeats the
ComplexBox arithmetic row by row with bit-identical endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = ["Interval", "ComplexBox", "BoxArray", "EmptyIntervalError", "ZeroDivisionBoxError"]

_INF = math.inf


class EmptyIntervalError(ValueError):
    """Raised when an operation requires a nonempty interval or box."""


class ZeroDivisionBoxError(ZeroDivisionError):
    """Raised by recip when the enclosure cannot exclude zero, or when the
    reciprocal overflows."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed real interval [lo, hi] with finite binary64 endpoints.

    The empty interval is the distinct singleton ``Interval.EMPTY``,
    recognizable via ``is_empty``; it is absorbing for arithmetic.
    """

    lo: float
    hi: float

    EMPTY: ClassVar["Interval"]

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo == _INF and hi == -_INF:
            return  # the EMPTY sentinel
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

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        return self.lo < other.lo and other.hi < self.hi

    def intersects(self, other: "Interval") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    # -- lattice ---------------------------------------------------------

    def intersection(self, other: "Interval") -> "Interval":
        if not self.intersects(other):
            return Interval.EMPTY
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- measure ---------------------------------------------------------

    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return _up(self.hi - self.lo)

    def midpoint(self) -> float:
        if self.is_empty:
            raise EmptyIntervalError("midpoint of empty interval")
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        # clamp so the midpoint is always a member
        return min(max(m, self.lo), self.hi)

    def bisect(self) -> tuple["Interval", "Interval"]:
        m = self.midpoint()
        return Interval(self.lo, m), Interval(m, self.hi)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        if self.is_empty:
            return Interval.EMPTY
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.EMPTY
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p0, p1, p2, p3 = a * c, a * d, b * c, b * d
        return Interval(_down(min(p0, p1, p2, p3)), _up(max(p0, p1, p2, p3)))

    def scale(self, k: float) -> "Interval":
        """Multiply by an exact scalar."""
        if self.is_empty:
            return Interval.EMPTY
        if k >= 0:
            return Interval(_down(self.lo * k), _up(self.hi * k))
        return Interval(_down(self.hi * k), _up(self.lo * k))

    def sqr(self) -> "Interval":
        """Tight enclosure of {x^2 : x in self} (never dips below 0)."""
        if self.is_empty:
            return Interval.EMPTY
        a, b = self.lo, self.hi
        if a >= 0:
            return Interval(max(_down(a * a), 0.0), _up(b * b))
        if b <= 0:
            return Interval(max(_down(b * b), 0.0), _up(a * a))
        return Interval(0.0, _up(max(a * a, b * b)))

    def sqrt(self) -> "Interval":
        if self.is_empty:
            return Interval.EMPTY
        if self.lo < 0:
            raise EmptyIntervalError(f"sqrt of interval with negative part: {self}")
        lo = 0.0 if self.lo == 0.0 else max(_down(math.sqrt(self.lo)), 0.0)
        return Interval(lo, _up(math.sqrt(self.hi)))

    def recip(self) -> "Interval":
        """Enclosure of {1/x}; refuses intervals containing 0 and intervals
        so close to 0 that the reciprocal overflows."""
        if self.is_empty:
            return Interval.EMPTY
        if self.lo <= 0.0 <= self.hi:
            raise ZeroDivisionBoxError(f"recip of interval containing 0: {self}")
        lo, hi = _down(1.0 / self.hi), _up(1.0 / self.lo)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ZeroDivisionBoxError(f"recip of interval overflows: {self}")
        return Interval(lo, hi)

    def abs(self) -> "Interval":
        if self.is_empty:
            return Interval.EMPTY
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def mag(self) -> float:
        """sup |x| over the interval."""
        if self.is_empty:
            return 0.0
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval.EMPTY"
        return f"[{self.lo!r}, {self.hi!r}]"


_empty = object.__new__(Interval)
object.__setattr__(_empty, "lo", _INF)
object.__setattr__(_empty, "hi", -_INF)
Interval.EMPTY = _empty
del _empty


@dataclass(frozen=True, slots=True)
class ComplexBox:
    """Axis-aligned rectangle re x im in the complex plane."""

    re: Interval
    im: Interval

    EMPTY: ClassVar["ComplexBox"]

    @staticmethod
    def point(z: complex) -> "ComplexBox":
        return ComplexBox(Interval.point(z.real), Interval.point(z.imag))

    @staticmethod
    def around(z: complex, r: float) -> "ComplexBox":
        return ComplexBox(Interval.around(z.real, r), Interval.around(z.imag, r))

    @staticmethod
    def rect(re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> "ComplexBox":
        return ComplexBox(Interval(re_lo, re_hi), Interval(im_lo, im_hi))

    @property
    def is_empty(self) -> bool:
        return self.re.is_empty or self.im.is_empty

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        if not isinstance(other, ComplexBox):
            return NotImplemented  # a BoxArray operand: BoxArray.__radd__
        if self.is_empty or other.is_empty:
            return ComplexBox.EMPTY
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexBox") -> "ComplexBox":
        if not isinstance(other, ComplexBox):
            return NotImplemented  # a BoxArray operand: BoxArray.__rsub__
        if self.is_empty or other.is_empty:
            return ComplexBox.EMPTY
        return ComplexBox(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexBox":
        if self.is_empty:
            return ComplexBox.EMPTY
        return ComplexBox(-self.re, -self.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        if not isinstance(other, ComplexBox):
            return NotImplemented  # a BoxArray operand: BoxArray.__rmul__
        if self.is_empty or other.is_empty:
            return ComplexBox.EMPTY
        a, b, c, d = self.re, self.im, other.re, other.im
        return ComplexBox(a * c - b * d, a * d + b * c)

    def conj(self) -> "ComplexBox":
        """Complex conjugate; the imaginary sign flip is exact."""
        if self.is_empty:
            return ComplexBox.EMPTY
        return ComplexBox(self.re, -self.im)

    def sqr(self) -> "ComplexBox":
        """Enclosure of {z^2}, using the tight real-square specialization."""
        if self.is_empty:
            return ComplexBox.EMPTY
        a, b = self.re, self.im
        return ComplexBox(a.sqr() - b.sqr(), (a * b).scale(2.0))

    def scale(self, k: float) -> "ComplexBox":
        if self.is_empty:
            return ComplexBox.EMPTY
        return ComplexBox(self.re.scale(k), self.im.scale(k))

    def abs_sqr(self) -> Interval:
        """Enclosure of {|z|^2}; the true value is nonnegative, so the
        outward-rounded lower bound is clamped at 0."""
        if self.is_empty:
            return Interval.EMPTY
        s = self.re.sqr() + self.im.sqr()
        return Interval(max(s.lo, 0.0), s.hi) if s.lo < 0.0 else s

    def abs(self) -> Interval:
        """Enclosure of {|z|}; lower bound exactly 0 when the box contains 0."""
        if self.is_empty:
            return Interval.EMPTY
        if self.contains(0j):
            m = self.abs_sqr()
            return Interval(0.0, m.sqrt().hi)
        return self.abs_sqr().sqrt()

    def recip(self) -> "ComplexBox":
        """Enclosure of {1/z}; refuses boxes whose |z|^2 cannot exclude 0
        and boxes whose enclosure overflows (1/|z|^2, or its products with
        the coordinates)."""
        if self.is_empty:
            return ComplexBox.EMPTY
        n = self.abs_sqr()
        if n.lo <= 0.0:
            raise ZeroDivisionBoxError(f"recip of box possibly containing 0: {self}")
        r = n.recip()
        try:
            return ComplexBox(self.re * r, -(self.im * r))
        except EmptyIntervalError:
            raise ZeroDivisionBoxError(f"recip of box overflows: {self}") from None

    # -- geometry --------------------------------------------------------

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def contains_box(self, other: "ComplexBox") -> bool:
        if other.is_empty:
            return True
        return self.re.contains_interval(other.re) and self.im.contains_interval(other.im)

    def strictly_contains(self, other: "ComplexBox") -> bool:
        if other.is_empty:
            return True
        return self.re.strictly_contains(other.re) and self.im.strictly_contains(other.im)

    def intersects(self, other: "ComplexBox") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def intersection(self, other: "ComplexBox") -> "ComplexBox":
        if not self.intersects(other):
            return ComplexBox.EMPTY
        return ComplexBox(self.re.intersection(other.re), self.im.intersection(other.im))

    def hull(self, other: "ComplexBox") -> "ComplexBox":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return ComplexBox(self.re.hull(other.re), self.im.hull(other.im))

    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return max(self.re.width(), self.im.width())

    def midpoint(self) -> complex:
        if self.is_empty:
            raise EmptyIntervalError("midpoint of empty box")
        return complex(self.re.midpoint(), self.im.midpoint())

    def bisect(self) -> tuple["ComplexBox", "ComplexBox"]:
        """Split the wider coordinate at a representable midpoint."""
        if self.is_empty:
            raise EmptyIntervalError("bisect of empty box")
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
        if self.is_empty:
            return "ComplexBox.EMPTY"
        return f"ComplexBox({self.re!r} + {self.im!r} i)"


ComplexBox.EMPTY = ComplexBox(Interval.EMPTY, Interval.EMPTY)


# ---------------------------------------------------------------------------
# endpoint arrays
# ---------------------------------------------------------------------------

# Array twins of the Interval operations, on float64 endpoint arrays.  Where
# Interval picks an endpoint by a sign test or by Python's min/max, these
# take np.minimum/np.maximum: the values are the same and may differ only in
# the sign of a zero, which the outward nextafter step maps to the same
# endpoint (and sqr clamps at 0.0 a value of _down_arr, which is never -0.0).
# np.minimum/np.maximum propagate nan.


def _down_arr(x):
    return np.nextafter(x, -_INF)


def _up_arr(x):
    return np.nextafter(x, _INF)


def _scale_arr(lo, hi, k):
    """Interval.scale on endpoint arrays, by exact scalars k (an array or a float)."""
    a, b = lo * k, hi * k
    return _down_arr(np.minimum(a, b)), _up_arr(np.maximum(a, b))


def _mul_arr(alo, ahi, blo, bhi):
    """Interval.__mul__ on endpoint arrays."""
    p0, p1, p2, p3 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(p0, p1), np.minimum(p2, p3))
    hi = np.maximum(np.maximum(p0, p1), np.maximum(p2, p3))
    return _down_arr(lo), _up_arr(hi)


# The same on (lo, hi) pairs, and the ComplexBox operations on (re, im)
# pairs of pairs.


def _add_pair(a, b):
    return _down_arr(a[0] + b[0]), _up_arr(a[1] + b[1])


def _sub_pair(a, b):
    return _down_arr(a[0] - b[1]), _up_arr(a[1] - b[0])


def _neg_pair(a):
    return -a[1], -a[0]


def _sqr_pair(a):
    """Interval.sqr: the branch on the signs of the endpoints, row by row."""
    lo, hi = a
    ll, hh = lo * lo, hi * hi
    pos, neg = lo >= 0.0, hi <= 0.0
    new_lo = np.where(pos, np.maximum(_down_arr(ll), 0.0),
                      np.where(neg, np.maximum(_down_arr(hh), 0.0), 0.0))
    new_hi = np.where(pos, _up_arr(hh), np.where(neg, _up_arr(ll), _up_arr(np.maximum(ll, hh))))
    return new_lo, new_hi


def _cadd(x, y):
    return _add_pair(x[0], y[0]), _add_pair(x[1], y[1])


def _csub(x, y):
    return _sub_pair(x[0], y[0]), _sub_pair(x[1], y[1])


def _cmul(x, y):
    (a, b), (c, d) = x, y
    return (_sub_pair(_mul_arr(*a, *c), _mul_arr(*b, *d)),
            _add_pair(_mul_arr(*a, *d), _mul_arr(*b, *c)))


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
    box [re[0][i], re[1][i]] x [im[0][i], im[1][i]].  +, -, *, conj, sqr,
    scale and recip are the ComplexBox operations row by row, in the same
    operation order and with the same outward rounding, so every endpoint
    of a row equals the one of the ComplexBox result.  A ComplexBox operand
    broadcasts on either side of +, - and *.

    Where ComplexBox raises, on a non-finite endpoint or in recip, the row
    carries inf or nan instead.  Every operation keeps a non-finite row
    non-finite, so a row whose result is finite is one on which the
    ComplexBox evaluation succeeds.
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

    __add__, __radd__ = _binary(_cadd)
    __sub__, __rsub__ = _binary(_csub)
    __mul__, __rmul__ = _binary(_cmul)

    def conj(self) -> "BoxArray":
        return BoxArray(self.re, _neg_pair(self.im))

    def sqr(self) -> "BoxArray":
        a, b = self.re, self.im
        return BoxArray(_sub_pair(_sqr_pair(a), _sqr_pair(b)), _scale_arr(*_mul_arr(*a, *b), 2.0))

    def scale(self, k: float) -> "BoxArray":
        return BoxArray(_scale_arr(*self.re, k), _scale_arr(*self.im, k))

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def recip(self) -> "BoxArray":
        """Enclosure of {1/z} per row; non-finite in the rows ComplexBox.recip
        refuses."""
        n_lo, n_hi = _add_pair(_sqr_pair(self.re), _sqr_pair(self.im))
        r = _down_arr(1.0 / n_hi), _up_arr(1.0 / n_lo)
        # nan where |z|^2 cannot exclude 0 (ComplexBox clamps |z|^2 at 0 only
        # there) or is non-finite; an overflow of 1/|z|^2 or of the products
        # below leaves an infinite endpoint
        ok = (n_lo > 0.0) & np.isfinite(n_hi)
        r = np.where(ok, r[0], np.nan), np.where(ok, r[1], np.nan)
        return BoxArray(_mul_arr(*self.re, *r), _neg_pair(_mul_arr(*self.im, *r)))
