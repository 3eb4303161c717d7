"""Rigorous evaluation of the anti-quadratic family and its iterates.

The map is f_c(z) = conj(z)^2 + c.  Its second iterate
f_c^2(z) = (z^2 + conj(c))^2 + c is holomorphic, so even iterates carry an
ordinary complex derivative, accumulated through the factored chain-rule
form 4 z (z^2 + conj(c)).  Odd iterates are handled through the
holomorphic companion H with f_c^n(z) = conj(H(z)).  These evaluators use
only the ComplexBox arithmetic, so they also run on a BoxArray batch.

Fixed points of f_c^n and cycles of f_c have one certifier: the Krawczyk
operator on the coupled cyclic system G_i = f_c(z_i) - z_{i+1}, in which
each residual is a single map application, so the certifier never
evaluates an iterate of f.  Moduli and multipliers are read from the
certified orbit boxes.  The interval-Newton step on a 2x2 real Jacobian remains for the
parameter-space solves of the combinatorics module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .intervals import (
    ComplexBox,
    EmptyIntervalError,
    Interval,
    ZeroDivisionBoxError,
    _down_arr,
    _mul_arr,
    _scale_arr,
    _up_arr,
)

__all__ = [
    "EscapeResult",
    "NewtonStatus",
    "NewtonResult",
    "ConjHolomorphicForm",
    "OMEGA",
    "eval_f",
    "eval_f2",
    "escape_test",
    "even_iterate",
    "holo_derivative",
    "antiholo_modulus",
    "cycle_multiplier",
    "krawczyk_cycle",
    "krawczyk_absence",
    "float_f",
    "float_iterate",
    "float_newton_cycle",
]

# escape beyond this endpoint magnitude is treated as numeric blow-up
_BLOWUP = 1e100


class EscapeResult:
    """Outcome of escape_test: certified escape, bounded-so-far, or unknown."""

    __slots__ = ("kind", "iterations")

    ESCAPED = "escaped"
    BOUNDED = "bounded"
    UNKNOWN = "unknown"

    def __init__(self, kind: str, iterations: int):
        self.kind = kind
        self.iterations = iterations

    @property
    def escaped(self) -> bool:
        return self.kind == EscapeResult.ESCAPED

    def __repr__(self) -> str:
        return f"EscapeResult({self.kind}, {self.iterations})"


def eval_f(c: ComplexBox, z: ComplexBox) -> ComplexBox:
    """Enclosure of f_c(z) = conj(z)^2 + c."""
    return z.sqr().conj() + c


def eval_f2(c: ComplexBox, z: ComplexBox) -> ComplexBox:
    """Enclosure of the holomorphic second iterate (z^2 + conj(c))^2 + c."""
    return (z.sqr() + c.conj()).sqr() + c


def escape_test(c: ComplexBox, z0: ComplexBox, maxiter: int) -> EscapeResult:
    """Certified escape check for the orbit of z0.

    Escape at step k is certified when the enclosure of |z_k| has lower
    bound above both 2 and sup|c|; then |f_c(z)| >= |z|(1 + eps) for every
    point in the box, so divergence is proven.
    """
    cmag = c.abs().hi
    z = z0
    for k in range(maxiter + 1):
        a = z.abs()
        if a.lo > 2.0 and a.lo > cmag:
            return EscapeResult(EscapeResult.ESCAPED, k)
        if k == maxiter:
            break
        z = eval_f(c, z)
        if max(abs(z.re.lo), abs(z.re.hi), abs(z.im.lo), abs(z.im.hi)) > _BLOWUP:
            # enclosure blew up without a certified lower bound
            return EscapeResult(EscapeResult.UNKNOWN, k + 1)
        if z.width() > 8.0:
            return EscapeResult(EscapeResult.UNKNOWN, k + 1)
    return EscapeResult(EscapeResult.BOUNDED, maxiter)


def even_iterate(c: ComplexBox, z: ComplexBox, n: int) -> ComplexBox:
    """Enclosure of f_c^n(z) for even n >= 0."""
    if n % 2 != 0 or n < 0:
        raise ValueError("even_iterate needs even n >= 0")
    for _ in range(n // 2):
        z = eval_f2(c, z)
    return z


def holo_derivative(c: ComplexBox, z: ComplexBox, n: int) -> ComplexBox:
    """Enclosure of (f_c^n)'(z) for even n >= 2, via the f^2 chain rule.

    (f_c^2)'(w) = 4 w (w^2 + conj(c)), accumulated along the orbit of
    second iterates.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("holo_derivative needs even n >= 2")
    cbar = c.conj()
    d = ComplexBox.point(1.0 + 0.0j)
    for _ in range(n // 2):
        w = z.sqr() + cbar
        d = d * (z * w).scale(4.0)
        z = w.sqr() + c
    return d


def antiholo_modulus(orbit: list[ComplexBox]) -> Interval:
    """Enclosure of prod_i 2|z_i| along the orbit boxes."""
    prod = Interval.point(1.0)
    for z in orbit:
        prod = prod * z.abs().scale(2.0)
    return prod


def cycle_multiplier(orbit: list[ComplexBox]) -> ComplexBox:
    """Enclosure of (f_c^p)'(z_0) along the boxes of a cycle of even period p.

    (f_c^2)'(z) = 4 z conj(f_c(z)), so the multiplier is
    prod_j 4 z_{2j} conj(z_{2j+1}); its modulus is antiholo_modulus.
    """
    if len(orbit) % 2 != 0:
        raise ValueError("the multiplier of f_c^p is holomorphic only for even p")
    prod = ComplexBox.point(1.0 + 0.0j)
    for z, w in zip(orbit[0::2], orbit[1::2]):
        prod = prod * (z * w.conj()).scale(4.0)
    return prod


class ConjHolomorphicForm:
    """Holomorphic H with f_c^n(z) = conj(H(z)) for odd n.

    H(z) = (f_c^{n-1}(z))^2 + conj(c) and
    H'(z) = 2 f_c^{n-1}(z) (f_c^{n-1})'(z).
    """

    def __init__(self, c: ComplexBox, n: int):
        if n % 2 != 1 or n < 1:
            raise ValueError("conj-holomorphic form needs odd n >= 1")
        self.c = c
        self.n = n

    def value(self, z: ComplexBox) -> ComplexBox:
        e = even_iterate(self.c, z, self.n - 1)
        return e.sqr() + self.c.conj()

    def value_and_derivative(self, z: ComplexBox) -> tuple[ComplexBox, ComplexBox]:
        c, cbar = self.c, self.c.conj()
        d = ComplexBox.point(1.0 + 0.0j)
        for _ in range((self.n - 1) // 2):
            w = z.sqr() + cbar
            d = d * (z * w).scale(4.0)
            z = w.sqr() + c
        return z.sqr() + cbar, (z * d).scale(2.0)

    def derivative(self, z: ComplexBox) -> ComplexBox:
        return self.value_and_derivative(z)[1]


# ---------------------------------------------------------------------------
# interval Newton on the 2x2 real Jacobian
# ---------------------------------------------------------------------------


class NewtonStatus(enum.Enum):
    CERTIFIED = "certified"  # unique zero, Newton image interior to the seed
    NONE = "none"  # Newton image disjoint from the seed: no zero
    UNKNOWN = "unknown"  # singular Jacobian or inconclusive geometry


@dataclass(frozen=True)
class NewtonResult:
    status: NewtonStatus
    box: ComplexBox


def newton_step(
    value_mid: ComplexBox,
    wirtinger_a: ComplexBox,
    wirtinger_b: ComplexBox,
    mid: complex,
    seed: ComplexBox,
) -> NewtonResult:
    """One interval-Newton step for F(z) = 0 on the seed box.

    wirtinger_a encloses dF/dz over the seed, wirtinger_b encloses
    dF/dconj(z); value_mid encloses F at the midpoint.  The real Jacobian is
        [[Re A + Re B, -Im A + Im B],
         [Im A + Im B,  Re A - Re B]].
    """
    j11 = wirtinger_a.re + wirtinger_b.re
    j12 = -wirtinger_a.im + wirtinger_b.im
    j21 = wirtinger_a.im + wirtinger_b.im
    j22 = wirtinger_a.re - wirtinger_b.re
    det = j11 * j22 - j12 * j21
    try:
        inv_det = det.recip()
    except ZeroDivisionBoxError:
        return NewtonResult(NewtonStatus.UNKNOWN, seed)
    fx, fy = value_mid.re, value_mid.im
    dx = (fx * j22 - fy * j12) * inv_det
    dy = (fy * j11 - fx * j21) * inv_det
    image = ComplexBox(Interval.point(mid.real) - dx, Interval.point(mid.imag) - dy)
    if seed.strictly_contains(image):
        return NewtonResult(NewtonStatus.CERTIFIED, image.intersection(seed))
    if not seed.intersects(image):
        return NewtonResult(NewtonStatus.NONE, ComplexBox.EMPTY)
    return NewtonResult(NewtonStatus.UNKNOWN, image.intersection(seed))


def float_newton_cycle(
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


@np.errstate(over="ignore", invalid="ignore")
def _krawczyk_image(c: ComplexBox, boxes: list[ComplexBox]) -> list[ComplexBox] | None:
    """One Krawczyk step for the coupled cyclic system G_i = f(z_i) - z_{i+1}.

    Returns the componentwise image K(Z) or None when the midpoint
    Jacobian is singular.  The preconditioner is the floating-point
    inverse of the midpoint Jacobian; the matrix I - Y J(Z) is formed
    entrywise so Y J(mid) cancels against I before interval widths add.
    G is exactly linear in c, so the parameter enters once per row with a
    signed coefficient and the orbit's c-sensitivities can cancel.

    Intervals are held as float64 endpoint arrays over the coordinates
    (re z_0, im z_0, re z_1, ...), and every operation is that of
    `Interval`, rounded outward with nextafter.  Entries that do not
    depend on each other are computed at once; the sums along each row
    run column by column, in the order of the scalar formula
        K_r = m_r + sum_c M_rc (Z_c - m_c) - sum_c Y_rc G_c(m) - su_r cu - sv_r cv,
    so every endpoint equals the one of the scalar evaluation.
    """
    p = len(boxes)
    n = 2 * p
    mids = [b.midpoint() for b in boxes]
    mid = np.array([(m.real, m.imag) for m in mids]).ravel()
    x, yv = mid[0::2], mid[1::2]
    # float midpoint Jacobian: d f(z) / d(x, y) = [[2x, -2y], [-2y, -2x]]
    re, im = np.arange(0, n, 2), np.arange(1, n, 2)
    nxt = (re + 2) % n
    j0 = np.zeros((n, n))
    j0[re, re], j0[re, im] = 2.0 * x, -2.0 * yv
    j0[im, re], j0[im, im] = -2.0 * yv, -2.0 * x
    j0[re, nxt] -= 1.0
    j0[im, nxt + 1] -= 1.0
    try:
        y = np.linalg.inv(j0)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(y)):
        return None
    c_mid = c.midpoint()
    cu = c.re - Interval.point(c_mid.real)
    cv = c.im - Interval.point(c_mid.imag)
    # G(m): conj(m_i)^2 + c_mid - m_{i+1}, as eval_f on point boxes
    sq = x * x, yv * yv
    xx_lo, xx_hi = np.maximum(_down_arr(sq[0]), 0.0), _up_arr(sq[0])
    yy_lo, yy_hi = np.maximum(_down_arr(sq[1]), 0.0), _up_arr(sq[1])
    xy_lo, xy_hi = _scale_arr(_down_arr(x * yv), _up_arr(x * yv), 2.0)
    x_next, y_next = mid[nxt], mid[nxt + 1]
    g = np.empty((2, n))
    g[0, re] = _down_arr(_down_arr(_down_arr(xx_lo - yy_hi) + c_mid.real) - x_next)
    g[1, re] = _up_arr(_up_arr(_up_arr(xx_hi - yy_lo) + c_mid.real) - x_next)
    g[0, im] = _down_arr(_down_arr(-xy_hi + c_mid.imag) - y_next)
    g[1, im] = _up_arr(_up_arr(-xy_lo + c_mid.imag) - y_next)
    # raise where Interval would: an overflow elsewhere reaches K as a
    # non-finite endpoint, but a residual is skipped in rows where Y_rc == 0
    if not np.all(np.isfinite(g)):
        raise EmptyIntervalError("non-finite residual at the midpoint")
    lo = np.array([(b.re.lo, b.im.lo) for b in boxes]).ravel()
    hi = np.array([(b.re.hi, b.im.hi) for b in boxes]).ravel()
    r_lo, r_hi = _down_arr(lo - mid), _up_arr(hi - mid)
    # J(Z) blocks by column 2j + col: row 2j holds d0, row 2j + 1 holds d1
    z2_lo, z2_hi = _down_arr(lo * 2.0), _up_arr(hi * 2.0)
    x2, y2 = (z2_lo[re], z2_hi[re]), (z2_lo[im], z2_hi[im])
    d0_lo = np.column_stack((x2[0], -y2[1])).ravel()
    d0_hi = np.column_stack((x2[1], -y2[0])).ravel()
    d1_lo = np.column_stack((-y2[1], -x2[1])).ravel()
    d1_hi = np.column_stack((-y2[0], -x2[0])).ravel()
    # M = I - (Y_{:,2j} d0 + Y_{:,2j+1} d1 - Y_{:,2(j-1)+col}), entrywise
    s0 = _scale_arr(d0_lo, d0_hi, np.repeat(y[:, re], 2, axis=1))
    s1 = _scale_arr(d1_lo, d1_hi, np.repeat(y[:, im], 2, axis=1))
    prev = y[:, (np.arange(n) - 2) % n]
    t_lo = _down_arr(_down_arr(s0[0] + s1[0]) - prev)
    t_hi = _up_arr(_up_arr(s0[1] + s1[1]) - prev)
    eye = np.eye(n)
    prod = _mul_arr(_down_arr(eye - t_hi), _up_arr(eye - t_lo), r_lo, r_hi)
    gy = _scale_arr(g[0], g[1], y)
    # su, sv: the left-to-right float sums of each row's even and odd Y entries
    s = np.zeros((n, 2))
    for j in range(0, n, 2):
        s = s + y[:, j:j + 2]
    cs = _scale_arr(np.array([cu.lo, cv.lo]), np.array([cu.hi, cv.hi]), s)
    # the terms added to each row in order, a - [lo, hi] as a + [-hi, -lo]:
    # M (Z - m) by column, -Y G(m) by column where Y_rc != 0, -cu su, -cv sv, m
    terms = np.stack((
        np.column_stack((prod[0], -gy[1], -cs[1], mid)).T,
        np.column_stack((prod[1], -gy[0], -cs[0], mid)).T,
    ), axis=1)
    # the rows that take each term (None: all of them)
    nonzero = y != 0.0
    takers = [None] * (2 * n + 3)
    for cidx in np.flatnonzero(~nonzero.all(axis=0)):
        takers[n + cidx] = nonzero[:, cidx]
    # acc holds the lo row and the hi row, rounded down and up
    acc = np.zeros((2, n))
    outward = np.repeat([[-math.inf], [math.inf]], n, axis=1)
    for term, rows in zip(terms, takers):
        step = np.nextafter(acc + term, outward)
        acc = step if rows is None else np.where(rows, step, acc)
    k_lo, k_hi = acc.tolist()
    return [
        ComplexBox(Interval(k_lo[i], k_hi[i]), Interval(k_lo[i + 1], k_hi[i + 1]))
        for i in range(0, n, 2)
    ]


def krawczyk_cycle(
    c: ComplexBox,
    period: int,
    orbit_guess: list[complex],
    radius: float,
    tighten: int = 3,
) -> tuple[NewtonStatus, list[ComplexBox]]:
    """Krawczyk existence certification of a full cycle as a coupled system.

    Each residual involves a single map application, so there is no
    iterate-depth wrapping.  Starts from boxes of the given radius around
    the guess and grows them by epsilon inflation, which hands every orbit
    point a radius matched to its own parameter sensitivity.  Returns
    (CERTIFIED, tight enclosures) or (UNKNOWN, []); absence is the job of
    krawczyk_absence, where the searched region is explicit.
    """
    p = period
    if len(orbit_guess) != p:
        raise ValueError("orbit guess length must equal the period")
    boxes = [ComplexBox.around(z, radius) for z in orbit_guess]
    certified = False
    remaining = max(tighten, 1)
    for _ in range(24):
        images = _krawczyk_image(c, boxes)
        if images is None:
            return NewtonStatus.UNKNOWN, []
        inside = all(b.strictly_contains(k) for b, k in zip(boxes, images))
        if inside:
            # contract toward the fixed point, then hand back tight boxes
            boxes = [k.intersection(b) for b, k in zip(boxes, images)]
            certified = True
            remaining -= 1
            if remaining <= 0:
                return NewtonStatus.CERTIFIED, boxes
            continue
        if certified:
            return NewtonStatus.CERTIFIED, boxes
        if any(not b.intersects(k) for b, k in zip(boxes, images)):
            return NewtonStatus.UNKNOWN, []
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
            return NewtonStatus.UNKNOWN, []
        boxes = grown
    return (NewtonStatus.CERTIFIED, boxes) if certified else (NewtonStatus.UNKNOWN, [])


def krawczyk_absence(
    c: ComplexBox,
    period: int,
    orbit_guess: list[complex],
    radius: float,
) -> bool:
    """Prove no cycle of the given period lives near the guessed orbit.

    Single Krawczyk step on boxes of the stated radius: when some image
    component misses its box, the coupled system has no solution with
    every orbit point within `radius` of the guess, for any parameter in
    c.  The tracked region is exactly these boxes, so a True here is a
    statement about that neighborhood only.
    """
    if len(orbit_guess) != period:
        raise ValueError("orbit guess length must equal the period")
    boxes = [ComplexBox.around(z, radius) for z in orbit_guess]
    images = _krawczyk_image(c, boxes)
    if images is None:
        return False
    return any(not b.intersects(k) for b, k in zip(boxes, images))


# ---------------------------------------------------------------------------
# non-rigorous floating-point companions (seeds and oracles)
# ---------------------------------------------------------------------------


def float_f(c: complex, z: complex) -> complex:
    return z.conjugate() ** 2 + c


def float_iterate(c: complex, z: complex, n: int) -> complex:
    for _ in range(n):
        z = float_f(c, z)
    return z


_SQRT3 = Interval.point(3.0).sqrt()

# enclosure of omega = (-1 + sqrt(3) i) / 2, the tricorn's rotational symmetry
OMEGA = ComplexBox(Interval.point(-0.5), _SQRT3.scale(0.5))
