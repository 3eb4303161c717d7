"""The certified period-3 centers of the tricorn.

The classical case analysis of f_c^3(0) = 0 (writing s = c + conj(c) and
t = |c|^2, the real and imaginary residuals factor) gives the solutions 0,
the real airplane parameter c*, and its two rotations by the cube root of
unity omega.  The airplane root is certified by bisection on its real
cubic; the rotations follow from the exact symmetry
f_{omega c}(omega z) = omega f_c(z), which carries the critical orbit of
c* onto that of omega c*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import BoxArray, ComplexBox, Interval, _add, _down, _mul, _round, _up

__all__ = [
    "CenterSolution",
    "real_root_enclosure",
    "solve_period3_centers",
    "AIRPLANE_CUBIC",
    "OMEGA",
]


# real factor of f_c^3(0) for real c: c (c^3 + 2 c^2 + c + 1)
AIRPLANE_CUBIC = (1.0, 1.0, 2.0, 1.0)  # c^3 + 2c^2 + c + 1, ascending: 1 + c + 2c^2 + c^3

# enclosure of omega = (-1 + sqrt(3) i) / 2, the tricorn's rotational
# symmetry: math.sqrt is correctly rounded, so [down(r), up(r)] holds
# sqrt(3) for r = math.sqrt(3.0), and its halves, each stepped outward,
# hold sqrt(3) / 2
_R3 = math.sqrt(3.0)
OMEGA = ComplexBox(Interval.point(-0.5), Interval(_down(_down(_R3) * 0.5), _up(_up(_R3) * 0.5)))


def _poly_enclosure(coeffs_ascending, x: float):
    """Enclosure of the polynomial at the point x by Horner's rule: the
    rounded (lo, hi) endpoints of acc * x + a at each step."""
    acc, x = (0.0, 0.0), (x, x)
    for a in reversed(coeffs_ascending):
        acc = _round(_add(_round(_mul(acc, x))[0], (a, a)))[0]
    return acc


def real_root_enclosure(
    coeffs_ascending, bracket: Interval, tol: float = 1e-13
) -> Interval:
    """Certified bisection for a root of a real polynomial.

    The polynomial enclosures at the bracket endpoints must have opposite
    certified signs, else ValueError.
    """

    def sign_at(x: float) -> int:
        lo, hi = _poly_enclosure(coeffs_ascending, x)
        if lo > 0:
            return 1
        if hi < 0:
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
    star, omega = BoxArray.of([c_star]), BoxArray.of([OMEGA])
    solutions = [CenterSolution(ComplexBox.point(0j), "zero"),
                 CenterSolution(c_star, "c*"),
                 CenterSolution((omega * star).boxes()[0], "omega*c*"),
                 CenterSolution((omega * omega * star).boxes()[0], "omega2*c*")]
    for sol in solutions[1:]:
        _check_exact_period3(sol)
    return solutions


def _check_exact_period3(sol: CenterSolution) -> None:
    c = BoxArray.of([sol.c])
    z1 = c  # f(0) = c
    z2 = z1.sqr().conj() + c
    z3 = z2.sqr().conj() + c
    if not z3.contains(0j)[0]:
        raise RuntimeError(f"{sol.label}: f^3(0) enclosure misses 0")
    if z1.contains(0j)[0] or z2.contains(0j)[0]:
        raise RuntimeError(f"{sol.label}: period is not exactly 3")
