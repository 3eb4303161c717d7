"""The scalar interval arithmetic, one operation at a time: the bitwise
reference of tricert's BoxArray.

Interval and ComplexBox subclass the value types of tricert.intervals and
add the interval formulas (Moore, Interval Analysis, 1966), each endpoint
rounded outward by math.nextafter as it is formed.  A BoxArray row has the
endpoints of the scalar result, and is not finite exactly where the scalar
evaluation raises EmptyIntervalError.  The tests' Krawczyk, boundary and
modulus oracles are written in this arithmetic.

A ComplexBox here holds intervals of this module whatever intervals it is
given; point, around and bisect return values of this module, and box()
lifts a tricert box into it.  Both types compare equal to a tricert
Interval or ComplexBox of the same endpoints.
"""

from __future__ import annotations

import math

from tricert import intervals
from tricert.intervals import EmptyIntervalError, _down, _up


class Interval(intervals.Interval):
    __slots__ = ()

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def around(x: float, r: float) -> "Interval":
        return Interval(_down(x - r), _up(x + r))

    def __eq__(self, other):
        if not isinstance(other, intervals.Interval):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    __hash__ = intervals.Interval.__hash__

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        p0, p1, p2, p3 = a * c, a * d, b * c, b * d
        return Interval(_down(min(p0, p1, p2, p3)), _up(max(p0, p1, p2, p3)))

    def scale(self, k: float) -> "Interval":
        """Multiply by an exact scalar."""
        if k >= 0:
            return Interval(_down(self.lo * k), _up(self.hi * k))
        return Interval(_down(self.hi * k), _up(self.lo * k))

    def sqr(self) -> "Interval":
        """Tight enclosure of {x^2 : x in self} (never dips below 0)."""
        a, b = self.lo, self.hi
        if a >= 0:
            return Interval(max(_down(a * a), 0.0), _up(b * b))
        if b <= 0:
            return Interval(max(_down(b * b), 0.0), _up(a * a))
        return Interval(0.0, _up(max(a * a, b * b)))

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise EmptyIntervalError(f"sqrt of interval with negative part: {self}")
        lo = 0.0 if self.lo == 0.0 else max(_down(math.sqrt(self.lo)), 0.0)
        return Interval(lo, _up(math.sqrt(self.hi)))


class ComplexBox(intervals.ComplexBox):
    __slots__ = ()

    def __init__(self, re: intervals.Interval, im: intervals.Interval):
        super().__init__(Interval(re.lo, re.hi), Interval(im.lo, im.hi))

    @staticmethod
    def point(z: complex) -> "ComplexBox":
        return ComplexBox(Interval.point(z.real), Interval.point(z.imag))

    @staticmethod
    def around(z: complex, r: float) -> "ComplexBox":
        return ComplexBox(Interval.around(z.real, r), Interval.around(z.imag, r))

    def bisect(self) -> tuple["ComplexBox", "ComplexBox"]:
        """The library's split, as boxes of this module."""
        return tuple(box(b) for b in super().bisect())

    def __eq__(self, other):
        if not isinstance(other, intervals.ComplexBox):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = intervals.ComplexBox.__hash__

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        a, b, c, d = self.re, self.im, other.re, other.im
        return ComplexBox(a * c - b * d, a * d + b * c)

    def conj(self) -> "ComplexBox":
        """Complex conjugate; the imaginary sign flip is exact."""
        return ComplexBox(self.re, -self.im)

    def sqr(self) -> "ComplexBox":
        """Enclosure of {z^2}, using the tight real-square specialization."""
        a, b = self.re, self.im
        return ComplexBox(a.sqr() - b.sqr(), (a * b).scale(2.0))

    def scale(self, k: float) -> "ComplexBox":
        return ComplexBox(self.re.scale(k), self.im.scale(k))

    def abs_sqr(self) -> Interval:
        """Enclosure of {|z|^2}; the true value is nonnegative, so the
        outward-rounded lower bound is clamped at 0."""
        s = self.re.sqr() + self.im.sqr()
        return Interval(max(s.lo, 0.0), s.hi) if s.lo < 0.0 else s

    def abs(self) -> Interval:
        """Enclosure of {|z|}; lower bound exactly 0 when the box contains 0."""
        if self.contains(0j):
            m = self.abs_sqr()
            return Interval(0.0, m.sqrt().hi)
        return self.abs_sqr().sqrt()


def box(b: intervals.ComplexBox) -> ComplexBox:
    """The box of b's endpoints in this arithmetic."""
    return ComplexBox(b.re, b.im)


def eval_f(c, z):
    """Enclosure of f_c(z) = conj(z)^2 + c, on boxes of this module or on
    BoxArray rows alike."""
    return z.sqr().conj() + c


def even_iterate(c: ComplexBox, z: ComplexBox, n: int) -> tuple[ComplexBox, ComplexBox]:
    """dynamics.even_iterate in this arithmetic: f_c^n(z) and (f_c^n)'(z)
    for even n, with (f_c^2)'(z) = 4 z (z^2 + conj(c))."""
    cbar, d = c.conj(), ComplexBox.point(1.0 + 0.0j)
    for _ in range(n // 2):
        w = z.sqr() + cbar
        d = d * (z * w).scale(4.0)
        z = w.sqr() + c
    return z, d


def cycle_multiplier(orbit: list[ComplexBox]) -> ComplexBox:
    """dynamics.cycle_multiplier in this arithmetic: the product of
    4 z_{2j} conj(z_{2j+1}) along the orbit boxes of an even period."""
    prod = ComplexBox.point(1.0 + 0.0j)
    for z, w in zip(orbit[0::2], orbit[1::2]):
        prod = prod * (z * w.conj()).scale(4.0)
    return prod
