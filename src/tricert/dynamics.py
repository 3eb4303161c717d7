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
certified orbit boxes, a batch of cycles at a time.

The certifier and its float Newton seed run on a leading batch axis: one
call takes B rows, each a parameter box and an orbit, as (B, 2p) endpoint
arrays, and decides every row as it would decide it alone, bit for bit.
The (B, 2p, 2p) Jacobians, preconditioners and interval matrices go
through _CHUNK rows at a time, so a call's memory does not grow with B.
The one-box functions krawczyk_cycle, krawczyk_absence and
float_newton_cycle are one-row calls of the batch.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .intervals import (
    BoxArray,
    ComplexBox,
    EmptyIntervalError,
    Interval,
    _abs_pair,
    _down_arr,
    _interleave,
    _mid_arr,
    _mul_arr,
    _scale_arr,
    _sqr_pair,
    _up_arr,
)

__all__ = [
    "NewtonStatus",
    "OMEGA",
    "eval_f",
    "even_iterate",
    "conj_holomorphic_form",
    "cycle_multiplier",
    "squared_modulus_rows",
    "multiplier_rows",
    "krawczyk_cycle",
    "krawczyk_cycle_rows",
    "krawczyk_absence",
    "krawczyk_absence_rows",
    "float_f",
    "float_iterate",
    "float_newton_cycle",
    "float_newton_rows",
]


def eval_f(c: ComplexBox, z: ComplexBox) -> ComplexBox:
    """Enclosure of f_c(z) = conj(z)^2 + c."""
    return z.sqr().conj() + c


def even_iterate(c: ComplexBox, z: ComplexBox, n: int) -> tuple[ComplexBox, ComplexBox]:
    """Enclosures of f_c^n(z) and (f_c^n)'(z) for even n >= 0, from one orbit walk.

    f_c^2(z) = (z^2 + conj(c))^2 + c has (f_c^2)'(z) = 4 z (z^2 + conj(c)),
    accumulated along the orbit of second iterates.
    """
    if n % 2 != 0 or n < 0:
        raise ValueError("even_iterate needs even n >= 0")
    cbar = c.conj()
    d = ComplexBox.point(1.0 + 0.0j)
    for _ in range(n // 2):
        w = z.sqr() + cbar
        d = d * (z * w).scale(4.0)
        z = w.sqr() + c
    return z, d


def cycle_multiplier(orbit: list[ComplexBox]) -> ComplexBox:
    """Enclosure of (f_c^p)'(z_0) along the boxes of a cycle of even period p.

    (f_c^2)'(z) = 4 z conj(f_c(z)), so the multiplier is
    prod_j 4 z_{2j} conj(z_{2j+1}); its modulus is prod_i 2|z_i|.  The
    boxes may be BoxArray columns, one row per cycle.
    """
    if len(orbit) % 2 != 0:
        raise ValueError("the multiplier of f_c^p is holomorphic only for even p")
    prod = ComplexBox.point(1.0 + 0.0j)
    for z, w in zip(orbit[0::2], orbit[1::2]):
        prod = prod * (z * w.conj()).scale(4.0)
    return prod


def _orbit_columns(lo, hi) -> list[BoxArray]:
    """The orbit boxes of (B, 2p) endpoint rows as p BoxArray columns."""
    return [BoxArray((lo[:, i], hi[:, i]), (lo[:, i + 1], hi[:, i + 1]))
            for i in range(0, lo.shape[1], 2)]


def squared_modulus_rows(lo, hi):
    """Enclosures of (prod_i 2|z_i|)^2, the squared modulus of the
    multiplier of f_c^p along a cycle, for the orbit boxes of each row of
    (B, 2p) endpoints over (re z_0, im z_0, re z_1, ...).

    Returns (lo, hi) arrays, each endpoint that of the Interval product
    [1, 1] * 2|z_0| * ... * 2|z_{p-1}| squared, with |z| = ComplexBox.abs.
    """
    prod = np.ones(len(lo)), np.ones(len(lo))
    for z in _orbit_columns(lo, hi):
        prod = _mul_arr(*prod, *_scale_arr(*_abs_pair(z.re, z.im), 2.0))
    return _sqr_pair(prod)


def multiplier_rows(lo, hi) -> BoxArray:
    """cycle_multiplier of the orbit boxes of each row of (B, 2p) endpoints."""
    return cycle_multiplier(_orbit_columns(lo, hi))


def conj_holomorphic_form(
    c: ComplexBox, z: ComplexBox, n: int
) -> tuple[ComplexBox, ComplexBox]:
    """Enclosures of H(z) and H'(z) for the holomorphic H with
    f_c^n(z) = conj(H(z)), n odd.

    H(z) = (f_c^{n-1}(z))^2 + conj(c) and
    H'(z) = 2 f_c^{n-1}(z) (f_c^{n-1})'(z).
    """
    if n % 2 != 1 or n < 1:
        raise ValueError("conj-holomorphic form needs odd n >= 1")
    e, d = even_iterate(c, z, n - 1)
    return e.sqr() + c.conj(), (e * d).scale(2.0)


# ---------------------------------------------------------------------------
# Krawczyk certification of cycles
# ---------------------------------------------------------------------------


class NewtonStatus(enum.Enum):
    CERTIFIED = "certified"  # unique zero, Krawczyk image interior to the seed
    UNKNOWN = "unknown"  # singular Jacobian or inconclusive geometry


# rows of one Krawczyk kernel or float Newton call: the (rows, 2p, 2p)
# matrices of a call stay this small however large the level's frontier
_CHUNK = 32
# float Newton steps, and the epsilon-inflation rounds and tightening
# steps of the Krawczyk certification
_NEWTON_STEPS = 50
_ROUNDS = 24
_TIGHTEN = 3


def _chunked(fn, *rows):
    """fn over the leading axis of its arguments, _CHUNK rows at a time; the
    arrays it returns are joined back in row order."""
    if len(rows[0]) <= _CHUNK:
        return fn(*rows)
    parts = [fn(*(a[k:k + _CHUNK] for a in rows)) for k in range(0, len(rows[0]), _CHUNK)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _stacked(solver, a, *b):
    """solver on a stack of matrices, and the mask of the rows it solved.

    numpy raises LinAlgError for the whole stack when one matrix is
    singular; the rows are then solved one at a time, bit for bit as in
    the stack, and only the singular ones are lost.
    """
    try:
        return solver(a, *b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out, solved = np.zeros_like(b[0] if b else a), np.ones(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            out[i] = solver(a[i], *(x[i] for x in b))
        except np.linalg.LinAlgError:
            solved[i] = False
    return out, solved


def _next(x):
    """The (B, p) orbit coordinates of z_{i+1} in column i."""
    return np.concatenate((x[:, 1:], x[:, :1]), axis=1)


@functools.lru_cache(maxsize=None)
def _jacobian_entries(p: int):
    """Flat indices into a 2p x 2p matrix: of the 2x2 blocks [[a, b], [c, d]]
    of the orbit points, in the order (a..., b..., c..., d...), and of the
    entries (2i, 2i + 2) and (2i + 1, 2i + 3) mod 2p."""
    n = 2 * p
    re = np.arange(0, n, 2)
    im, nxt = re + 1, (re + 2) % n
    return (np.concatenate((re * n + re, re * n + im, im * n + re, im * n + im)),
            np.concatenate((re * n + nxt, im * n + nxt + 1)))


def _jacobian(x, y):
    """The float Jacobian of G_i = f(z_i) - z_{i+1} at the orbits x + iy,
    row by row: blocks d f(z) / d(x, y) = [[2x, -2y], [-2y, -2x]] on the
    diagonal, then -1 added at (2i, 2i + 2) and (2i + 1, 2i + 3) mod 2p."""
    b, p = x.shape
    blocks, shift = _jacobian_entries(p)
    j0 = np.zeros((b, 4 * p * p))
    j0[:, blocks] = np.concatenate((2.0 * x, -2.0 * y, -2.0 * y, -2.0 * x), axis=1)
    j0[:, shift] -= 1.0
    return j0.reshape(b, 2 * p, 2 * p)


def _float_f_rows(c_re, c_im, x, y):
    """float_f on coordinate arrays, operation for operation: CPython
    computes conj(z) ** 2 as 1 * (conj(z) * conj(z)).  Where CPython raises
    OverflowError, the rows carry inf or nan instead."""
    a, b = x, -y
    re, im = a * a - b * b, a * b + b * a
    return (1.0 * re - 0.0 * im) + c_re, (1.0 * im + 0.0 * re) + c_im


def _newton_steps(x, y, g):
    """The Newton steps of a chunk of rows at the orbits x + iy, whose
    residuals are g, and the mask of the rows with a regular Jacobian."""
    delta, solved = _stacked(np.linalg.solve, _jacobian(x, y), g[..., None])
    return delta[..., 0], solved


@np.errstate(over="ignore", invalid="ignore")
def float_newton_rows(c, orbits):
    """Floating-point Newton on the coupled cyclic system, row by row.

    c is a (B,) complex array of parameters and orbits a (B, p) complex
    array of orbit guesses.  Each step solves the stacked Jacobians of the
    rows still live, _CHUNK rows at a time; a row stops on its own when
    its step is singular or not finite (keeping its orbit) or below 1e-14
    (after taking it), so every row is refined as by itself.  Returns the
    refined orbits and the residuals max_i |f(z_i) - z_{i+1}|, both bit for
    bit as in Python's complex arithmetic wherever that does not overflow
    (see _float_f_rows); callers decide whether a residual is small enough
    to call the row converged.
    """
    x, y = orbits.real.copy(), orbits.imag.copy()
    c_re, c_im = c.real[:, None], c.imag[:, None]
    live = np.arange(len(c))
    for _ in range(_NEWTON_STEPS):
        if not len(live):
            break
        lx, ly = x[live], y[live]
        fx, fy = _float_f_rows(c_re[live], c_im[live], lx, ly)
        g = _interleave(fx - _next(lx), fy - _next(ly))
        delta, solved = _chunked(_newton_steps, lx, ly, g)
        ok = solved & np.isfinite(delta).all(axis=1)
        live, delta = live[ok], delta[ok]
        x[live] -= delta[:, 0::2]
        y[live] -= delta[:, 1::2]
        live = live[np.abs(delta).max(axis=1) >= 1e-14]
    fx, fy = _float_f_rows(c_re, c_im, x, y)
    dist = np.hypot(fx - _next(x), fy - _next(y))
    residual = dist[:, 0]
    for i in range(1, dist.shape[1]):  # Python's max: the first of equals, nan kept first
        residual = np.where(dist[:, i] > residual, dist[:, i], residual)
    orbits = np.empty(x.shape, dtype=complex)
    orbits.real, orbits.imag = x, y
    return orbits, residual


def float_newton_cycle(
    c: complex,
    period: int,
    orbit_guess: list[complex],
) -> tuple[list[complex], float]:
    """Floating-point Newton on the coupled cyclic system.

    Refines the whole orbit at once, which stays stable where per-point
    iteration of f^period would wrap.  Returns the refined orbit and the
    final residual; the one-row call of float_newton_rows.
    """
    if len(orbit_guess) != period:
        raise ValueError("orbit guess length must equal the period")
    orbits, residual = float_newton_rows(np.array([c], dtype=complex),
                                         np.array([orbit_guess], dtype=complex))
    return orbits[0].tolist(), float(residual[0])


@np.errstate(over="ignore", invalid="ignore")
def _krawczyk_rows(c: BoxArray, lo, hi):
    """The kernel of _krawczyk_image on one chunk of rows."""
    b, n = lo.shape
    mid = _mid_arr(lo, hi)
    x, yv = mid[:, 0::2], mid[:, 1::2]
    y, ok = _stacked(np.linalg.inv, _jacobian(x, yv))
    ok &= np.isfinite(y).all(axis=(1, 2))
    y[~ok] = 0.0
    c_re, c_im = _mid_arr(*c.re)[:, None], _mid_arr(*c.im)[:, None]
    cu = _down_arr(c.re[0][:, None] - c_re), _up_arr(c.re[1][:, None] - c_re)
    cv = _down_arr(c.im[0][:, None] - c_im), _up_arr(c.im[1][:, None] - c_im)
    # G(m): conj(m_i)^2 + c_mid - m_{i+1}, as eval_f on point boxes
    sq = x * x, yv * yv
    xx_lo, xx_hi = np.maximum(_down_arr(sq[0]), 0.0), _up_arr(sq[0])
    yy_lo, yy_hi = np.maximum(_down_arr(sq[1]), 0.0), _up_arr(sq[1])
    xy_lo, xy_hi = _scale_arr(_down_arr(x * yv), _up_arr(x * yv), 2.0)
    x_next, y_next = _next(x), _next(yv)
    g = np.stack((
        _interleave(_down_arr(_down_arr(_down_arr(xx_lo - yy_hi) + c_re) - x_next),
                    _down_arr(_down_arr(-xy_hi + c_im) - y_next)),
        _interleave(_up_arr(_up_arr(_up_arr(xx_hi - yy_lo) + c_re) - x_next),
                    _up_arr(_up_arr(-xy_lo + c_im) - y_next)),
    ))
    # raise where Interval would: an overflow elsewhere reaches K as a
    # non-finite endpoint, but a residual is skipped in rows where Y_rc == 0
    if not np.isfinite(g[:, ok]).all():
        raise EmptyIntervalError("non-finite residual at the midpoint")
    r_lo, r_hi = _down_arr(lo - mid), _up_arr(hi - mid)
    # J(Z) blocks by column 2j + col: row 2j holds d0, row 2j + 1 holds d1
    z2_lo, z2_hi = _down_arr(lo * 2.0), _up_arr(hi * 2.0)
    x2, y2 = (z2_lo[:, 0::2], z2_hi[:, 0::2]), (z2_lo[:, 1::2], z2_hi[:, 1::2])
    d0 = _interleave(x2[0], -y2[1]), _interleave(x2[1], -y2[0])
    d1 = _interleave(-y2[1], -x2[1]), _interleave(-y2[0], -x2[0])
    # M = I - (Y_{:,2j} d0 + Y_{:,2j+1} d1 - Y_{:,2(j-1)+col}), entrywise
    s0 = _scale_arr(d0[0][:, None], d0[1][:, None], np.repeat(y[:, :, 0::2], 2, axis=2))
    s1 = _scale_arr(d1[0][:, None], d1[1][:, None], np.repeat(y[:, :, 1::2], 2, axis=2))
    prev = y[:, :, (np.arange(n) - 2) % n]
    t_lo = _down_arr(_down_arr(s0[0] + s1[0]) - prev)
    t_hi = _up_arr(_up_arr(s0[1] + s1[1]) - prev)
    eye = np.eye(n)
    prod = _mul_arr(_down_arr(eye - t_hi), _up_arr(eye - t_lo), r_lo[:, None], r_hi[:, None])
    gy = _scale_arr(g[0][:, None], g[1][:, None], y)
    # su, sv: the left-to-right float sums of each row's even and odd Y entries
    s = np.zeros((b, n, 2))
    for j in range(0, n, 2):
        s = s + y[:, :, j:j + 2]
    cs = _scale_arr(np.stack((cu[0], cv[0]), axis=2), np.stack((cu[1], cv[1]), axis=2), s)
    # the terms added to each row in order, a - [lo, hi] as a + [-hi, -lo]:
    # M (Z - m) by column, -Y G(m) by column where Y_rc != 0, -cu su, -cv sv, m;
    # the lo sums run negated, so both rows round up (-down(a + b) is
    # up(-a + -b): round to nearest is symmetric, and up and down step
    # either zero alike)
    terms = np.stack((
        np.concatenate((-prod[0], gy[1], cs[1], -mid[:, :, None]), axis=2),
        np.concatenate((prod[1], -gy[0], -cs[0], mid[:, :, None]), axis=2),
    ))
    # the rows that take the term -Y_rc G_c(m) of a column c with a zero
    # Y_rc (every row takes every other term)
    nonzero = y != 0.0
    takers = {n + cidx: nonzero[:, :, cidx]
              for cidx in np.flatnonzero(~nonzero.all(axis=(0, 1))).tolist()}
    # acc holds the negated lo rows and the hi rows
    acc = np.zeros((2, b, n))
    for t in range(terms.shape[3]):
        step = _up_arr(acc + terms[..., t])
        acc = np.where(takers[t], step, acc) if t in takers else step
    if not np.isfinite(acc[:, ok]).all():
        raise EmptyIntervalError("non-finite Krawczyk image")
    return -acc[0], acc[1], ok


def _krawczyk_image(c, boxes):
    """One Krawczyk step for the coupled cyclic system G_i = f(z_i) - z_{i+1},
    for B rows at once.

    c is a BoxArray of B parameter rows and boxes a pair (lo, hi) of
    (B, 2p) endpoint arrays over the coordinates (re z_0, im z_0, re z_1,
    ...) of each row's orbit boxes.  Returns the endpoints of the
    componentwise images K(Z) and the mask of the rows whose midpoint
    Jacobian is regular; the other rows carry no image.  The rows go
    through _CHUNK at a time.  Called with a ComplexBox c and a list of p
    ComplexBoxes, the form of the scalar evaluation, it returns the image
    boxes, or None when the Jacobian is singular.

    The preconditioner is the floating-point inverse of the midpoint
    Jacobian, from one stacked np.linalg.inv; the matrix I - Y J(Z) is
    formed entrywise so Y J(mid) cancels against I before interval widths
    add.  G is exactly linear in c, so the parameter enters once per row
    with a signed coefficient and the orbit's c-sensitivities can cancel.

    Every operation is that of `Interval`, rounded outward to the adjacent
    binary64 value.
    Entries that do not depend on each other are computed at once; the
    sums along each row run column by column, in the order of the scalar
    formula
        K_r = m_r + sum_c M_rc (Z_c - m_c) - sum_c Y_rc G_c(m) - su_r cu - sv_r cv,
    so every endpoint equals the one of the scalar evaluation.  Where that
    evaluation raises EmptyIntervalError, on an overflow in a row with a
    regular Jacobian, so does the batch.
    """
    if isinstance(c, ComplexBox):
        lo = np.array([[(b.re.lo, b.im.lo) for b in boxes]]).reshape(1, -1)
        hi = np.array([[(b.re.hi, b.im.hi) for b in boxes]]).reshape(1, -1)
        k_lo, k_hi, ok = _krawczyk_image(BoxArray.of([c]), (lo, hi))
        return _orbit_boxes(k_lo[0], k_hi[0]) if ok[0] else None
    return _chunked(_krawczyk_rows, c, *boxes)


def _orbit_boxes(lo, hi) -> list[ComplexBox]:
    """The orbit boxes of one (2p,) endpoint row."""
    return BoxArray((lo[0::2], hi[0::2]), (lo[1::2], hi[1::2])).boxes()


def _around(orbits, radius):
    """The endpoint rows of ComplexBox.around(z, radius) for each orbit point."""
    mid = _interleave(orbits.real, orbits.imag)
    return _down_arr(mid - radius), _up_arr(mid + radius)


@np.errstate(over="ignore", invalid="ignore")
def krawczyk_cycle_rows(c: BoxArray, orbits, radius):
    """krawczyk_cycle for B rows at once.

    c is a BoxArray of B parameter rows, orbits a (B, p) complex array of
    orbit guesses and radius a (B,) array.  Each round evaluates the
    images of the rows still open, which decide by the rules of
    krawczyk_cycle, so every row ends as it would by itself.  Returns
    (certified, lo, hi, images): the mask of certified rows, the (B, 2p)
    endpoints of their orbit boxes, and the number of Krawczyk images each
    row ran.
    """
    p = orbits.shape[1]
    lo, hi = _around(orbits, radius[:, None])
    count = len(lo)
    certified = np.zeros(count, dtype=bool)
    remaining = np.full(count, _TIGHTEN)
    images = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    for _ in range(_ROUNDS):
        if not len(live):
            break
        images[live] += 1
        z_lo, z_hi = lo[live], hi[live]
        k_lo, k_hi, regular = _krawczyk_image(c[live], (z_lo, z_hi))
        # an image strictly inside its boxes certifies the cycle: contract
        # toward the fixed point, then hand back tight boxes; each image
        # lies strictly inside its box, so it is what the two share
        inside = regular & ((z_lo < k_lo) & (k_hi < z_hi)).all(axis=1)
        won = live[inside]
        lo[won], hi[won] = k_lo[inside], k_hi[inside]
        certified[won] = True
        remaining[won] -= 1
        # any other image ends a certified row; an uncertified row fails
        # when its image misses its boxes, else grows by epsilon inflation
        # unless that makes a box wider than 0.5
        grow = regular & ~certified[live] & ((z_lo <= k_hi) & (k_lo <= z_hi)).all(axis=1)
        width = _up_arr(k_hi - k_lo).reshape(-1, p, 2).max(axis=2)
        pad = np.repeat(0.125 * width + 4.0 * radius[live, None], 2, axis=1)
        g_lo, g_hi = k_lo - pad, k_hi + pad
        if not (np.isfinite(g_lo[grow]).all() and np.isfinite(g_hi[grow]).all()):
            raise EmptyIntervalError("non-finite inflated box")
        grow &= _up_arr(g_hi - g_lo).max(axis=1) <= 0.5
        lo[live[grow]], hi[live[grow]] = g_lo[grow], g_hi[grow]
        # a singular Jacobian fails, even after a certified round
        certified[live[~regular]] = False
        live = live[grow | (inside & (remaining[live] > 0))]
    return certified, lo, hi, images


def krawczyk_cycle(
    c: ComplexBox,
    period: int,
    orbit_guess: list[complex],
    radius: float,
) -> tuple[NewtonStatus, list[ComplexBox]]:
    """Krawczyk existence certification of a full cycle as a coupled system.

    Each residual involves a single map application, so there is no
    iterate-depth wrapping.  Starts from boxes of the given radius around
    the guess and grows them by epsilon inflation, which hands every orbit
    point a radius matched to its own parameter sensitivity: an image
    strictly inside its boxes certifies the cycle and is tightened up to
    _TIGHTEN times; an image that misses its boxes, a singular Jacobian
    or an inflated box wider than 0.5 fails.  Returns (CERTIFIED, tight
    enclosures) or (UNKNOWN, []); absence is the job of krawczyk_absence,
    where the searched region is explicit.  The one-row call of
    krawczyk_cycle_rows.
    """
    if len(orbit_guess) != period:
        raise ValueError("orbit guess length must equal the period")
    certified, lo, hi, _ = krawczyk_cycle_rows(
        BoxArray.of([c]), np.array([orbit_guess], dtype=complex), np.array([radius]))
    if not certified[0]:
        return NewtonStatus.UNKNOWN, []
    return NewtonStatus.CERTIFIED, _orbit_boxes(lo[0], hi[0])


def krawczyk_absence_rows(c: BoxArray, orbits, radius: float):
    """krawczyk_absence for B rows at once: one Krawczyk image per row.
    Returns the mask of the rows with certified absence."""
    lo, hi = _around(orbits, radius)
    k_lo, k_hi, regular = _krawczyk_image(c, (lo, hi))
    return regular & ~((lo <= k_hi) & (k_lo <= hi)).all(axis=1)


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
    statement about that neighborhood only.  The one-row call of
    krawczyk_absence_rows.
    """
    if len(orbit_guess) != period:
        raise ValueError("orbit guess length must equal the period")
    return bool(krawczyk_absence_rows(
        BoxArray.of([c]), np.array([orbit_guess], dtype=complex), radius)[0])


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
