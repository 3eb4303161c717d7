"""Rigorous parameter-space predicates.

Four families of claims, each sound in one direction only (a Verified
answer is backed by containment-sound interval computation, Undetermined
is always legal):

* boundary disjointness of f_c^n(dU) from dU, the quadratic-like test;
* fixed-point counting by an argument-principle contour enclosure;
* attracting-cycle / parabolic-exclusion certification of a tracked cycle;
* non-realness of the multiplier of the certified fixed point of f_c^6.

The last two share one certifier: the Krawczyk operator on the coupled
cyclic system, whose orbit boxes must be pairwise disjoint (the exact
period).  The fixed point of f_c^6 is z_0 of a certified period-6 cycle,
and its box must lie in the region X.  Cycle claims use continuation: the
floating-point orbit refined at a parameter box seeds the Krawczyk
certification of its children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (
    ConjHolomorphicForm,
    NewtonStatus,
    antiholo_modulus,
    eval_f,
    even_iterate,
    float_f,
    cycle_multiplier,
    float_iterate,
    float_newton_cycle,
    holo_derivative,
    krawczyk_absence,
    krawczyk_cycle,
)
from .intervals import BoxArray, ComplexBox, Interval, _up_arr

__all__ = [
    "Status",
    "ClaimResult",
    "ContourEnclosure",
    "boundary_disjoint",
    "contour_integral",
    "count_fixed_points",
    "decide_count",
    "preimage_count",
    "attracting_cycle_box",
    "parabolic_excluded",
    "multiplier_im_excludes_zero",
    "BoundaryDisjointClaim",
    "FixedPointCountClaim",
    "ParabolicExclusionClaim",
    "AttractingCycleClaim",
    "MultiplierNonRealClaim",
    "find_superattracting_parameter",
    "float_orbit_of_zero",
    "anchor_orbit_bounded",
    "qlike_certificate",
    "count_certificate",
    "disjointness_certificate",
    "ANCHOR_ASSUMPTION",
]

TWO_PI = Interval(math.nextafter(math.tau, 0.0), math.nextafter(math.tau, 4.0 * math.pi))


class Status(Enum):
    TRUE = "T"
    FALSE = "F"
    UNDETERMINED = "U"


@dataclass(frozen=True)
class ClaimResult:
    status: Status
    effort: int = 0


@dataclass(frozen=True)
class ContourEnclosure:
    """Box enclosing a contour integral, with the segment count used."""

    value: ComplexBox
    segments: int


# ---------------------------------------------------------------------------
# quadratic-like boundary test
# ---------------------------------------------------------------------------


def _boundary_segments(u: ComplexBox) -> list[ComplexBox]:
    """The four edges of dU as degenerate boxes."""
    re, im = u.re, u.im
    return [
        ComplexBox(re, Interval.point(im.lo)),
        ComplexBox(re, Interval.point(im.hi)),
        ComplexBox(Interval.point(re.lo), im),
        ComplexBox(Interval.point(re.hi), im),
    ]


def boundary_disjoint(
    c: ComplexBox, u: ComplexBox, n: int, max_depth: int = 14
) -> ClaimResult:
    """Does f_c^n(dU) avoid dU, uniformly over the parameter box?

    TRUE: every piece of dU maps strictly inside U or strictly off the
    closure of U.  FALSE: some piece maps strictly inside while another
    maps strictly outside, so for every parameter in the box the image
    curve crosses dU.  UNDETERMINED otherwise.
    """
    if u.re.lo == u.re.hi or u.im.lo == u.im.hi:
        raise ValueError("dynamical rectangle must have positive area")
    if n < 1:
        raise ValueError("iterate must be >= 1")
    stack = [(seg, 0) for seg in _boundary_segments(u)]
    effort = 0
    saw_inside = saw_outside = saw_undet = False
    while stack:
        seg, depth = stack.pop()
        z = seg
        for _ in range(n):
            z = eval_f(c, z)
        effort += 1
        if u.strictly_contains(z):
            saw_inside = True
        elif not z.intersects(u):
            saw_outside = True
        elif depth < max_depth:
            a, b = seg.bisect()
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
        else:
            saw_undet = True
    if saw_inside and saw_outside:
        return ClaimResult(Status.FALSE, effort)
    if saw_undet:
        return ClaimResult(Status.UNDETERMINED, effort)
    return ClaimResult(Status.TRUE, effort)


# ---------------------------------------------------------------------------
# argument-principle counting
# ---------------------------------------------------------------------------


def _midpoint(a, b):
    """Interval(min(a, b), max(a, b)).midpoint(), row by row."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    m = 0.5 * (lo + hi)
    m = np.where(np.isfinite(m), m, 0.5 * lo + 0.5 * hi)
    return np.minimum(np.maximum(m, lo), hi)


def _interleave(x, y):
    return np.column_stack((x, y)).ravel()


@np.errstate(over="ignore", invalid="ignore")
def contour_integral(
    val_fn,
    der_fn,
    region: ComplexBox,
    tol: float = 1.0,
    max_depth: int = 16,
) -> ContourEnclosure | None:
    """Enclosure of the counterclockwise contour integral of der/val over
    the boundary of an axis-aligned rectangle.

    Each edge is cut into straight segments.  The average of the integrand
    over a segment a->b lies in its enclosure, so the segment contributes
    der(S) / val(S) * (b - a), S the hull of the segment.  A segment is
    kept when its contribution is at most the budget wide (tol / 4 per
    edge, halved at each level) or the depth is exhausted; otherwise it is
    split at its midpoint.  A segment whose integrand cannot be formed,
    because |val(S)|^2 cannot exclude 0 or an endpoint is non-finite, is
    split too, and at full depth makes the result None.

    The walk is level-synchronous: each level calls val_fn and der_fn once,
    on a BoxArray holding every live segment of the four edges.  They must
    take a BoxArray and use only the ComplexBox arithmetic (+, -, *, conj,
    sqr, scale), which BoxArray repeats row by row with the same endpoints.
    The kept contributions are summed bottom-up as left + right and the
    edges in order, so the enclosure and its segment count are those of a
    depth-first recursion over the same segments.  (A segment endpoint may
    hold a zero of the other sign than Python's min/max would pick; it
    reaches the enclosure only through rounded operations, which map both
    zeros to the same endpoint.)
    """
    re, im = region.re, region.im
    ax, ay = np.array([re.lo, re.hi, re.hi, re.lo]), np.array([im.lo, im.lo, im.hi, im.hi])
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    budget, depth = tol / 4.0, max_depth
    levels = []
    while len(ax):
        seg = BoxArray((np.minimum(ax, bx), np.maximum(ax, bx)),
                       (np.minimum(ay, by), np.maximum(ay, by)))
        der, val = der_fn(seg), val_fn(seg)
        if isinstance(val, ComplexBox):  # val_fn ignored its argument
            val = BoxArray.of([val] * len(seg))
        dx, dy = bx - ax, by - ay
        piece = der * val.recip() * BoxArray((dx, dx), (dy, dy))
        formed = piece.finite()
        if depth <= 0:
            if not formed.all():
                return None
            kept = formed
        else:
            width = np.maximum(_up_arr(piece.re[1] - piece.re[0]),
                               _up_arr(piece.im[1] - piece.im[0]))
            kept = formed & (width <= budget)
        levels.append((piece, kept))
        split = ~kept
        ax, ay, bx, by = ax[split], ay[split], bx[split], by[split]
        mx, my = _midpoint(ax, bx), _midpoint(ay, by)
        ax, ay, bx, by = (_interleave(ax, mx), _interleave(ay, my),
                          _interleave(mx, bx), _interleave(my, by))
        budget /= 2.0
        depth -= 1
    # bottom-up: a split segment's value is the sum of its two children,
    # which sit at 2k and 2k + 1 of the next level for its rank k
    value = count = None
    for piece, kept in reversed(levels):
        cnt = np.ones(len(kept), dtype=np.int64)
        if value is not None:
            summed = value[0::2] + value[1::2]
            for dst, src in zip((*piece.re, *piece.im), (*summed.re, *summed.im)):
                dst[~kept] = src
            cnt[~kept] = count[0::2] + count[1::2]
        value, count = piece, cnt
    total = ComplexBox.point(0j)
    for edge in value.boxes():
        total = total + edge
    return ContourEnclosure(total, int(count.sum()))


def decide_count(enclosure: ContourEnclosure, max_count: int = 16) -> int | None:
    """The integer k with 2 pi i k inside the enclosure, if unique."""
    box = enclosure.value
    if not box.re.contains(0.0):
        return None
    candidates = [
        k for k in range(max_count + 1) if box.im.intersects(TWO_PI.scale(float(k)))
    ]
    if len(candidates) == 1:
        return candidates[0]
    return None


def count_fixed_points(
    c: ComplexBox,
    region: ComplexBox,
    n: int,
    tol: float = 1.0,
    max_depth: int = 16,
) -> tuple[ContourEnclosure | None, int | None]:
    """Count fixed points of the even iterate f_c^n in the region.

    Uses the argument-principle integral of ((f^n)' - 1)/(f^n(z) - z);
    the count is decided when the enclosure isolates exactly one multiple
    of 2 pi i.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("fixed-point counting needs an even iterate")
    one = ComplexBox.point(1 + 0j)

    def val(z: ComplexBox) -> ComplexBox:
        return even_iterate(c, z, n) - z

    def der(z: ComplexBox) -> ComplexBox:
        return holo_derivative(c, z, n) - one

    enc = contour_integral(val, der, region, tol, max_depth)
    if enc is None:
        return None, None
    return enc, decide_count(enc)


def preimage_count(
    c: ComplexBox,
    w: complex,
    u: ComplexBox,
    n: int,
    tol: float = 1.0,
    max_depth: int = 16,
) -> int | None:
    """Certified number of solutions of f_c^n(z) = w in U, for odd n.

    Solutions are the zeros of the holomorphic companion H(z) - conj(w).
    """
    form = ConjHolomorphicForm(c, n)
    wbar = ComplexBox.point(w.conjugate())

    def val(z: ComplexBox) -> ComplexBox:
        return form.value(z) - wbar

    def der(z: ComplexBox) -> ComplexBox:
        return form.derivative(z)

    enc = contour_integral(val, der, u, tol, max_depth)
    if enc is None:
        return None
    return decide_count(enc)


# ---------------------------------------------------------------------------
# tracked-cycle claims
# ---------------------------------------------------------------------------


# float Newton on the coupled system counts as converged below this residual
_NEWTON_RESIDUAL_TOL = 1e-10
# the searched neighborhood for a certified-absence statement
_ABSENCE_RADIUS = 3e-4
# absence is only attempted when the cycle cannot outrun the tracked
# neighborhood across the box: |dz/dc| stays in the low hundreds here
_ABSENCE_MAX_WIDTH = 5e-6


def _refine_orbit(c_mid: complex, period: int, orbit_guess):
    """Coupled float-Newton refresh of the whole orbit at the box midpoint.

    Returns (orbit, converged); the orbit is returned even on failure so
    continuation can keep tracking through regions without a cycle.
    """
    orbit, residual = float_newton_cycle(c_mid, period, orbit_guess)
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in orbit):
        return list(orbit_guess), False
    return orbit, residual < _NEWTON_RESIDUAL_TOL


def _certify_tracked_cycle(
    c: ComplexBox, period: int, orbit_guess
) -> list[ComplexBox] | None:
    """Orbit boxes of the continued cycle, certified by Krawczyk; None when
    certification fails.  The multiplier of an odd-period cycle (the
    derivative of the doubled iterate) is the square of antiholo_modulus.

    The coupled system is also solved by a shorter cycle traversed several
    times, which puts one point in two boxes; pairwise disjoint boxes
    certify the exact period.
    """
    status, boxes = krawczyk_cycle(c, period, orbit_guess, max(1e-9, c.width()))
    if status is not NewtonStatus.CERTIFIED:
        return None
    for i in range(period):
        for j in range(i + 1, period):
            if boxes[i].intersects(boxes[j]):
                return None
    return boxes


def _cycle_absent(c: ComplexBox, period: int, orbit_guess) -> bool:
    if c.width() > _ABSENCE_MAX_WIDTH:
        return False
    return krawczyk_absence(c, period, orbit_guess, _ABSENCE_RADIUS)


def attracting_cycle_box(
    c: ComplexBox, period: int, orbit_guess
) -> tuple[ClaimResult, list[complex]]:
    """Is the tracked period-p cycle attracting over the whole box?

    TRUE when the Krawczyk operator recertifies the cycle and the squared
    modulus product is strictly below 1; FALSE when it certifies absence
    in the tracked neighborhood or the multiplier is strictly repelling.
    """
    refined, converged = _refine_orbit(c.midpoint(), period, orbit_guess)
    if converged:
        boxes = _certify_tracked_cycle(c, period, refined)
        if boxes is not None:
            m2 = antiholo_modulus(boxes).sqr()
            if m2.hi < 1.0:
                return ClaimResult(Status.TRUE), refined
            if m2.lo > 1.0:
                return ClaimResult(Status.FALSE), refined
            return ClaimResult(Status.UNDETERMINED), refined
    if _cycle_absent(c, period, refined):
        return ClaimResult(Status.FALSE), refined
    return ClaimResult(Status.UNDETERMINED), refined


def parabolic_excluded(
    c: ComplexBox, period: int, orbit_guess
) -> tuple[ClaimResult, list[complex]]:
    """Does the tracked cycle certifiably avoid multiplier one?

    TRUE when the squared modulus enclosure excludes 1 (either side) or
    the cycle is certified absent in the tracked neighborhood;
    UNDETERMINED otherwise.
    """
    refined, converged = _refine_orbit(c.midpoint(), period, orbit_guess)
    if converged:
        boxes = _certify_tracked_cycle(c, period, refined)
        if boxes is not None:
            m2 = antiholo_modulus(boxes).sqr()
            if m2.hi < 1.0 or m2.lo > 1.0:
                return ClaimResult(Status.TRUE), refined
            return ClaimResult(Status.UNDETERMINED), refined
    if _cycle_absent(c, period, refined):
        return ClaimResult(Status.TRUE), refined
    return ClaimResult(Status.UNDETERMINED), refined


def multiplier_im_excludes_zero(
    c: ComplexBox, orbit_guess, region: ComplexBox | None = None
) -> tuple[ClaimResult, list[complex]]:
    """Is the multiplier of the certified fixed point of f_c^6 non-real?

    The fixed point x_c is z_0 of the tracked period-6 cycle, certified by
    Krawczyk.  TRUE when the box of z_0 lies in the region and the
    enclosure of Im (f_c^6)'(x_c), read from the orbit boxes, excludes 0;
    UNDETERMINED (possibly real, the yellow band) otherwise.
    """
    refined, converged = _refine_orbit(c.midpoint(), 6, orbit_guess)
    if converged:
        boxes = _certify_tracked_cycle(c, 6, refined)
        if (boxes is not None
                and (region is None or region.contains_box(boxes[0]))
                and not cycle_multiplier(boxes).im.contains(0.0)):
            return ClaimResult(Status.TRUE), refined
    return ClaimResult(Status.UNDETERMINED), refined


# ---------------------------------------------------------------------------
# claim adapters for the subdivision engine
# ---------------------------------------------------------------------------


def _rect_text(r: ComplexBox) -> str:
    return f"{r.re.lo},{r.re.hi},{r.im.lo},{r.im.hi}"


class BoundaryDisjointClaim:
    """Scan claim: f_c^n(dU) disjoint from dU (the cyan/green/blue test)."""

    def __init__(self, u: ComplexBox, n: int, segment_depth: int = 14):
        self.u = u
        self.n = n
        self.segment_depth = segment_depth
        self.name = "qlike-boundary"

    def config(self) -> dict:
        return {
            "u": _rect_text(self.u),
            "n": str(self.n),
            "segment_depth": str(self.segment_depth),
        }

    def initial_seed(self, rect: ComplexBox):
        return None

    def evaluate(self, box: ComplexBox, seed):
        return boundary_disjoint(box, self.u, self.n, self.segment_depth), None


class FixedPointCountClaim:
    """Scan claim: the even iterate has exactly `expect` fixed points in
    the region, decided by the argument-principle enclosure.

    TRUE needs the enclosure to isolate 2 pi i expect alone: real part
    containing 0, imaginary part meeting only that one multiple of 2 pi.
    """

    def __init__(
        self,
        region: ComplexBox,
        n: int,
        expect: int = 1,
        tol: float = 2.0,
        contour_depth: int = 10,
    ):
        self.region = region
        self.n = n
        self.expect = expect
        self.tol = tol
        self.contour_depth = contour_depth
        self.name = f"fixed-point-count-f{n}"

    def config(self) -> dict:
        return {
            "region": _rect_text(self.region),
            "n": str(self.n),
            "expect": str(self.expect),
            "tol": repr(self.tol),
            "contour_depth": str(self.contour_depth),
        }

    def initial_seed(self, rect: ComplexBox):
        return None

    def evaluate(self, box: ComplexBox, seed):
        enc, count = count_fixed_points(
            box, self.region, self.n, self.tol, self.contour_depth
        )
        if enc is None:
            return ClaimResult(Status.UNDETERMINED), None
        status = Status.TRUE if count == self.expect else Status.UNDETERMINED
        return ClaimResult(status, enc.segments), None


class ParabolicExclusionClaim:
    """Scan claim: tracked period-p cycle avoids multiplier one (red = U)."""

    def __init__(self, period: int, initial_orbit: list[complex]):
        self.period = period
        self.initial_orbit = list(initial_orbit)
        self.name = f"parabolic-excluded-p{period}"

    def config(self) -> dict:
        return {"period": str(self.period)}

    def initial_seed(self, rect: ComplexBox):
        orbit, _ = _refine_orbit(rect.midpoint(), self.period, self.initial_orbit)
        return orbit

    def evaluate(self, box: ComplexBox, seed):
        return parabolic_excluded(box, self.period, seed)


class AttractingCycleClaim:
    """Scan claim: tracked period-p cycle is attracting over the box."""

    def __init__(self, period: int, initial_orbit: list[complex]):
        self.period = period
        self.initial_orbit = list(initial_orbit)
        self.name = f"attracting-cycle-p{period}"

    def config(self) -> dict:
        return {"period": str(self.period)}

    def initial_seed(self, rect: ComplexBox):
        orbit, _ = _refine_orbit(rect.midpoint(), self.period, self.initial_orbit)
        return orbit

    def evaluate(self, box: ComplexBox, seed):
        return attracting_cycle_box(box, self.period, seed)


class MultiplierNonRealClaim:
    """Scan claim: multiplier of the f^6 fixed point is non-real (yellow = U)."""

    def __init__(self, region: ComplexBox | None = None, guess: complex = 0.04 + 0.04j):
        self.region = region
        self.guess = guess
        self.name = "multiplier-nonreal-p6"

    def config(self) -> dict:
        config = {"guess": f"{self.guess.real},{self.guess.imag}"}
        if self.region is not None:
            config["region"] = _rect_text(self.region)
        return config

    def initial_seed(self, rect: ComplexBox):
        c = rect.midpoint()
        orbit, _ = _refine_orbit(c, 6, [float_iterate(c, self.guess, k) for k in range(6)])
        return orbit

    def evaluate(self, box: ComplexBox, seed):
        return multiplier_im_excludes_zero(box, seed, self.region)


# ---------------------------------------------------------------------------
# floating-point helpers for seeds and anchors
# ---------------------------------------------------------------------------


ANCHOR_ASSUMPTION = (
    "anchor renormalizability is a non-rigorous heuristic: "
    "the float orbit of the critical point stays in U for 200 steps"
)


def anchor_orbit_bounded(c: complex, u: ComplexBox, n: int, steps: int = 200) -> bool:
    """Non-rigorous: the critical orbit under f_c^n stays in U.

    This is the 'contains a renormalizable parameter' hypothesis of the
    quadratic-like certificate and is recorded as an assumption, never as
    a verified fact.
    """
    z = 0j
    for _ in range(steps):
        for _ in range(n):
            z = float_f(c, z)
        if not u.contains(z):
            return False
    return True


def qlike_certificate(
    param_rect: ComplexBox,
    u: ComplexBox,
    n: int,
    anchor: complex,
    max_depth: int = 14,
    min_width: float = 0.0,
    segment_depth: int = 14,
):
    """Certificate that f_c^n restricts quadratic-likely to U over the rect.

    Every leaf must pass the boundary-disjointness test; the anchor must
    pass the (non-rigorous, recorded) bounded-critical-orbit heuristic and
    a certified preimage count of 2.  Returns a ParamCertificate.
    """
    from .scan import adaptive_scan

    if not param_rect.contains(anchor):
        raise ValueError("anchor parameter must lie in the parameter rectangle")
    claim = BoundaryDisjointClaim(u, n, segment_depth)
    cert = adaptive_scan(param_rect, claim, max_depth, min_width)
    cert.assumptions.append(ANCHOR_ASSUMPTION)
    anchor_box = ComplexBox.point(anchor)
    degree = preimage_count(anchor_box, 0j, u, n)
    cert.config["anchor"] = f"{anchor.real!r},{anchor.imag!r}"
    cert.config["anchor_orbit_bounded"] = str(anchor_orbit_bounded(anchor, u, n))
    cert.config["anchor_preimage_count"] = str(degree)
    if degree != 2 or cert.config["anchor_orbit_bounded"] != "True":
        cert.leaves = [
            type(leaf)(leaf.depth, leaf.box, Status.UNDETERMINED, leaf.effort)
            if leaf.status is Status.TRUE
            else leaf
            for leaf in cert.leaves
        ]
    return cert


def count_certificate(
    param_rect: ComplexBox,
    region: ComplexBox,
    n: int = 6,
    expect: int = 1,
    min_depth: int = 1,
    max_depth: int = 4,
    tol: float = 2.0,
    contour_depth: int = 10,
):
    """Certificate that f_c^n has exactly `expect` fixed points in the
    region for every parameter in the rectangle.

    The rectangle is pre-split to min_depth before any contour runs: the
    integrand's parameter-width contribution shrinks with the boxes, so
    small leaves decide quickly where the root would crawl.
    """
    from .scan import adaptive_scan

    claim = FixedPointCountClaim(region, n, expect, tol, contour_depth)
    return adaptive_scan(param_rect, claim, max_depth, min_depth=min_depth)


def disjointness_certificate(
    param_rect: ComplexBox,
    period: int = 9,
    initial_orbit: list[complex] | None = None,
    x_region: ComplexBox | None = None,
    max_depth: int = 9,
    min_width: float = 0.0,
):
    """Certify that the possibly-real-multiplier locus and the possibly-
    parabolic locus occupy disjoint closed leaf unions over the rect.

    Returns (status, yellow_cert, red_cert): yellow leaves are the
    Undetermined leaves of the multiplier-realness scan, red leaves the
    Undetermined leaves of the parabolic-exclusion scan.
    """
    from .scan import adaptive_scan

    if initial_orbit is None:
        center = find_superattracting_parameter(period, param_rect.midpoint())
        if center is None or not param_rect.contains(center):
            raise ValueError("no superattracting seed parameter found in the rectangle")
        initial_orbit = float_orbit_of_zero(center, period)
    yellow_cert = adaptive_scan(
        param_rect, MultiplierNonRealClaim(x_region), max_depth, min_width
    )
    red_cert = adaptive_scan(
        param_rect, ParabolicExclusionClaim(period, initial_orbit), max_depth, min_width
    )
    yellow = [leaf.box for leaf in yellow_cert.leaves if leaf.status is not Status.TRUE]
    red = [leaf.box for leaf in red_cert.leaves if leaf.status is not Status.TRUE]
    if not yellow or not red:
        status = Status.TRUE  # one locus certified empty: vacuously disjoint
    elif any(a.intersects(b) for a in yellow for b in red):
        status = Status.UNDETERMINED  # closures touch at this budget
    else:
        status = Status.TRUE
    return status, yellow_cert, red_cert


def float_orbit_of_zero(c: complex, period: int) -> list[complex]:
    z = 0j
    orbit = [z]
    for _ in range(period - 1):
        z = float_f(c, z)
        orbit.append(z)
    return orbit


def find_superattracting_parameter(
    period: int, c0: complex, steps: int = 60
) -> complex | None:
    """Float Newton in the parameter for f_c^period(0) = 0 near c0.

    Finite-difference Jacobian on the underlying real 2-system; good
    enough for a continuation seed, never used in a certificate.
    """

    def g(c: complex) -> complex:
        z = 0j
        for _ in range(period):
            z = float_f(c, z)
        return z

    c = c0
    h = 1e-9
    for _ in range(steps):
        v = g(c)
        if abs(v) < 1e-14:
            return c
        gx = (g(c + h) - g(c - h)) / (2.0 * h)
        gy = (g(c + 1j * h) - g(c - 1j * h)) / (2.0 * h)
        det = gx.real * gy.imag - gx.imag * gy.real
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = (v.real * gy.imag - v.imag * gy.real) / det
        dy = (v.imag * gx.real - v.real * gx.imag) / det
        c = complex(c.real - dx, c.imag - dy)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            return None
    return c if abs(g(c)) < 1e-10 else None
