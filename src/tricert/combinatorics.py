"""Exact angle dynamics under multiplication by -2 and the certified
period-3 centers.

Angles live in Q/Z as exact big-integer rationals; unlinkedness is a pure
circular-order test and must never touch floats.  The classical case
analysis of f_c^3(0) = 0 (writing s = c + conj(c) and t = |c|^2, the real
and imaginary residuals factor) gives the solutions 0, the real airplane
parameter c*, and its two rotations by the cube root of unity omega.  The
airplane root is certified by bisection on its real cubic; the rotations
follow from the exact symmetry f_{omega c}(omega z) = omega f_c(z), which
carries the critical orbit of c* onto that of omega c*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import OMEGA, eval_f
from .intervals import ComplexBox, Interval

__all__ = [
    "Angle",
    "CenterSolution",
    "angle_map",
    "periodic_angles",
    "unlinked",
    "per3_residuals",
    "real_root_enclosure",
    "solve_period3_centers",
    "AIRPLANE_CUBIC",
]


@dataclass(frozen=True, order=True)
class Angle:
    """A rational angle mod 1, always reduced with 0 <= value < 1."""

    value: Fraction

    def __init__(self, numerator, denominator: int | None = None):
        if denominator is None:
            frac = Fraction(numerator)
        else:
            frac = Fraction(numerator, denominator)
        object.__setattr__(self, "value", frac % 1)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def __repr__(self) -> str:
        return f"Angle({self.numerator}/{self.denominator})"


def angle_map(theta: Angle) -> Angle:
    """The angle action theta -> -2 theta mod 1."""
    return Angle(-2 * theta.value)


def periodic_angles(n: int) -> list[Angle]:
    """All angles with (angle_map)^n fixed, i.e. ((-2)^n - 1) theta in Z.

    Exact period divides n; the count is |(-2)^n - 1|.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    d = abs((-2) ** n - 1)
    return [Angle(k, d) for k in range(d)]


def unlinked(a: set[Angle] | list[Angle], b: set[Angle] | list[Angle]) -> bool:
    """True iff a lies in one component of the circle minus b.

    The sets must be disjoint.  An empty b leaves the circle connected.
    """
    avals = sorted({x.value for x in a})
    bvals = sorted({x.value for x in b})
    if set(avals) & set(bvals):
        raise ValueError("angle sets must be disjoint")
    if len(bvals) <= 1 or not avals:
        return True
    # count which gap between consecutive b-angles each a-angle falls in
    gaps = set()
    for x in avals:
        lo = 0
        hi = len(bvals)
        while lo < hi:
            midx = (lo + hi) // 2
            if bvals[midx] < x:
                lo = midx + 1
            else:
                hi = midx
        gaps.add(lo % len(bvals))
        if len(gaps) > 1:
            return False
    return True


def per3_residuals(s: Interval, t: Interval) -> tuple[Interval, Interval]:
    """Enclosures of 2 Re f_c^3(0) and the odd factor of 2 Im f_c^3(0).

    With s = c + conj(c) and t = |c|^2:
        2 Re f^3(0) = s^4 + (1 - 4t) s^2 + (1 + 2t) s + 2 t^2 - 2t
        2 Im f^3(0) = (c - conj(c)) * (s^3 - (s - 1)(1 + 2t))
    The first return value is the real residual, the second the factor
    s^3 - (s - 1)(1 + 2t).
    """
    one = Interval.point(1.0)
    s2 = s.sqr()
    re_part = (
        s2.sqr()
        + (one - t.scale(4.0)) * s2
        + (one + t.scale(2.0)) * s
        + t.sqr().scale(2.0)
        - t.scale(2.0)
    )
    im_factor = s * s2 - (s - one) * (one + t.scale(2.0))
    return re_part, im_factor


# real factor of f_c^3(0) for real c: c (c^3 + 2 c^2 + c + 1)
AIRPLANE_CUBIC = (1.0, 1.0, 2.0, 1.0)  # c^3 + 2c^2 + c + 1, ascending: 1 + c + 2c^2 + c^3


def _poly_enclosure(coeffs_ascending, x: Interval) -> Interval:
    acc = Interval.point(0.0)
    for a in reversed(coeffs_ascending):
        acc = acc * x + Interval.point(a)
    return acc


def real_root_enclosure(
    coeffs_ascending, bracket: Interval, tol: float = 1e-13
) -> Interval:
    """Certified bisection for a root of a real polynomial.

    The polynomial enclosures at the bracket endpoints must have opposite
    certified signs, else ValueError.
    """

    def sign_at(x: float) -> int:
        v = _poly_enclosure(coeffs_ascending, Interval.point(x))
        if v.lo > 0:
            return 1
        if v.hi < 0:
            return -1
        return 0

    lo, hi = bracket.lo, bracket.hi
    slo, shi = sign_at(lo), sign_at(hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("no certified sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        sm = sign_at(mid)
        if sm == 0:
            # cannot decide the sign; fall back to the enclosing interval
            break
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


@dataclass(frozen=True)
class CenterSolution:
    """A certified parameter where the critical orbit is periodic."""

    c: ComplexBox
    label: str  # "zero", "c*", "omega*c*", "omega2*c*"


def solve_period3_centers() -> list[CenterSolution]:
    """Certified enclosures of the four parameters with f_c^3(0) = 0.

    Returns c = 0 plus the real airplane parameter and its two rotations
    by omega = (-1 + sqrt(3) i)/2, each verified superattracting of exact
    period 3 (f^3(0) encloses 0 while f(0) and f^2(0) exclude it).  The
    rotations are the products OMEGA^k c*: f_{omega c}(omega z) =
    omega f_c(z) holds exactly, so the critical orbit of omega^k c* is
    omega^k times that of c*, and f^3(0) vanishes at omega^k c* as at c*.
    """
    root = real_root_enclosure(AIRPLANE_CUBIC, Interval(-1.8, -1.7))
    # Im(c*) is exactly 0: the real factor of f_c^3(0) is c (c^3+2c^2+c+1)
    c_star = ComplexBox(root, Interval.point(0.0))
    solutions = [CenterSolution(ComplexBox.point(0j), "zero"),
                 CenterSolution(c_star, "c*"),
                 CenterSolution(OMEGA * c_star, "omega*c*"),
                 CenterSolution(OMEGA * OMEGA * c_star, "omega2*c*")]
    for sol in solutions[1:]:
        _check_exact_period3(sol)
    return solutions


def _check_exact_period3(sol: CenterSolution) -> None:
    c = sol.c
    z1 = c  # f(0) = c
    z2 = eval_f(c, z1)
    z3 = eval_f(c, z2)
    if not z3.contains(0j):
        raise RuntimeError(f"{sol.label}: f^3(0) enclosure misses 0")
    if z1.contains(0j) or z2.contains(0j):
        raise RuntimeError(f"{sol.label}: period is not exactly 3")
