"""Rigorous evaluation of the anti-quadratic family and its iterates.

The map is f_c(z) = conj(z)^2 + c.  Its second iterate
f_c^2(z) = (z^2 + conj(c))^2 + c is holomorphic, so even iterates carry an
ordinary complex derivative, accumulated through the factored chain-rule
form 4 z (z^2 + conj(c)).  Odd iterates are handled through the
holomorphic companion H with f_c^n(z) = conj(H(z)).  These evaluators run
on BoxArray batches, one box per row; the map itself is z.sqr().conj() + c.

Fixed points of f_c^n and cycles of f_c have one certifier: the Krawczyk
operator on the coupled cyclic system G_i = f_c(z_i) - z_{i+1}, in which
each residual is a single map application, so the certifier never
evaluates an iterate of f.  Its preconditioner is the closed-form inverse
of the block-cyclic Jacobian, in plain float64 arithmetic with no LAPACK,
taken once per row at the midpoints of its start boxes and kept through
its epsilon-inflation rounds.  A float orbit starts from boxes sized by
the spread of its image over the parameter box.  Its image is one
midpoint-radius evaluation in round to nearest, whose radius carries a
priori bounds of every rounding error for any preconditioner.
Moduli and multipliers are read from the certified orbit boxes, a batch of
cycles at a time.

The certifier and its float Newton seed run on a leading batch axis: one
call takes B rows, each a parameter box and an orbit, as (B, 2p) endpoint
arrays, and decides every row as it would decide it alone, bit for bit.
The (B, 2p, 2p) Jacobians, preconditioners and matrices I - Y J go
through _CHUNK rows at a time, so a call's memory does not grow with B:
the cycle certifier runs all the rounds of one chunk before the next, so
it holds one chunk's preconditioners at a time.  The one-box function
krawczyk_absence is a one-row call of the batch.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .intervals import (
    BoxArray,
    ComplexBox,
    _abs_pair,
    _interleave,
    _mid_arr,
    _mul,
    _round,
    _scale,
    _sqr_pair,
    _up_arr,
)

__all__ = [
    "even_iterate",
    "conj_holomorphic_form",
    "cycle_multiplier",
    "squared_modulus_rows",
    "multiplier_rows",
    "krawczyk_cycle_rows",
    "krawczyk_absence",
    "float_f",
    "float_iterate",
    "float_newton_rows",
]


def even_iterate(c: BoxArray, z: BoxArray, n: int) -> tuple[BoxArray, BoxArray]:
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


def cycle_multiplier(orbit: list[BoxArray]) -> BoxArray:
    """Enclosure of (f_c^p)'(z_0) along the boxes of a cycle of even period p.

    (f_c^2)'(z) = 4 z conj(f_c(z)), so the multiplier is
    prod_j 4 z_{2j} conj(z_{2j+1}); its modulus is prod_i 2|z_i|.  The
    boxes are BoxArray columns, one row per cycle.
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

    Returns (lo, hi) arrays, the endpoints of the interval product
    [1, 1] * 2|z_0| * ... * 2|z_{p-1}| squared, with |z| from _abs_pair.
    """
    # the factors 2|z_i| of all orbit points at once, then their product in
    # orbit order
    (twice,) = _round(_scale(_abs_pair((lo[:, 0::2], hi[:, 0::2]), (lo[:, 1::2], hi[:, 1::2])),
                             2.0))
    prod = np.ones(len(lo)), np.ones(len(lo))
    for i in range(lo.shape[1] // 2):
        (prod,) = _round(_mul(prod, (twice[0][:, i], twice[1][:, i])))
    return _sqr_pair(prod)


def multiplier_rows(lo, hi) -> BoxArray:
    """cycle_multiplier of the orbit boxes of each row of (B, 2p) endpoints."""
    return cycle_multiplier(_orbit_columns(lo, hi))


def conj_holomorphic_form(
    c: BoxArray, z: BoxArray, n: int
) -> tuple[BoxArray, BoxArray]:
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


# rows of one Krawczyk kernel or float Newton call: the (rows, 2p, 2p)
# matrices of a call stay this small however large the level's frontier.
# A period-9 Krawczyk round costs about 0.13 ms plus 4 us a row, and the
# preconditioners of a chunk, formed once, about as much, so fewer calls
# pay off.  Under the CLI's malloc policy (cli.main), which keeps a call's
# freed temporaries in the heap, verify-disjoint at depth 6 took a median
# 0.257 s at 128 rows and 0.242 s at 256 (256 faster in 10 of 10
# alternating fresh-process runs, 2-vCPU VM), at a peak RSS of 34.97 and
# 35.89 MB; the traced peak of the red scan's level 6 (then 536 boxes)
# was 1.7 MB at 128 rows and 3.1 MB at 256
_CHUNK = 256
# float Newton steps, and the epsilon-inflation rounds of the Krawczyk
# certification
_NEWTON_STEPS = 50
_ROUNDS = 24
# the images a certified row runs: the one that certifies and one that
# tightens its boxes.  A third kept every paper certificate byte-identical
# and ran 23% more images in verify-disjoint at depth 6 (4,189 against
# 3,417); without the second, the yellow children that start from the
# boxes leave 79 U leaves at depth 6 instead of 78
_TIGHTEN = 2


def _chunked(fn, *rows):
    """fn over the leading axis of its arguments, _CHUNK rows at a time; the
    arrays it returns are joined back in row order."""
    if len(rows[0]) <= _CHUNK:
        return fn(*rows)
    parts = [fn(*(a[k:k + _CHUNK] for a in rows)) for k in range(0, len(rows[0]), _CHUNK)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _stacked(a, b):
    """np.linalg.solve on a stack of systems a x = b, and the mask of the
    rows it solved.

    numpy raises LinAlgError for the whole stack when one matrix is
    singular; the rows are then solved one at a time, bit for bit as in
    the stack, and only the singular ones are lost.
    """
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out, solved = np.zeros_like(b), np.ones(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            out[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return out, solved


def _next(x):
    """The (B, p) orbit coordinates of z_{i+1} in column i."""
    return np.concatenate((x[:, 1:], x[:, :1]), axis=1)


def _minus_ones(b: int, p: int):
    """b flat row-major 2p x 2p Jacobians of G_i = f(z_i) - z_{i+1} that
    hold only the entries that do not depend on the orbit: -1 at (2i, 2i +
    2) and (2i + 1, 2i + 3) mod 2p, and 0 elsewhere.  The orbit's blocks
    d f(z) / d(x, y) = [[2x, -2y], [-2y, -2x]] go on the diagonal, where
    entry (r, s) of block (i, i) lies at i (4p + 2) + 2p r + s; so each -1
    with i < p - 1 is one strided slice, two entries off its row's block.
    For p = 1 the -1 entries wrap round onto the diagonal block, which
    _jacobians writes as 2x - 1 and -2x - 1."""
    n = 2 * p
    step, last = 2 * n + 2, (p - 1) * (2 * n + 2)
    j0 = np.zeros((b, n * n))
    j0[:, 2:last:step] = -1.0
    j0[:, n + 3:last:step] = -1.0
    # i = p - 1 wraps round to (2p - 2, 0) and (2p - 1, 1)
    j0[:, (n - 2) * n] = -1.0
    j0[:, (n - 1) * n + 1] = -1.0
    return j0


def _jacobians(j, x, y):
    """The Jacobians at the orbits x + iy of (b, p) coordinates: their
    diagonal blocks written over the first b rows of j, from _minus_ones,
    as (b, 2p, 2p) matrices."""
    b, p = x.shape
    n, step = 2 * p, 4 * p + 2
    j = j[:b]
    j[:, 0::step], j[:, 1::step] = 2.0 * x, -2.0 * y
    j[:, n::step], j[:, n + 1::step] = -2.0 * y, -2.0 * x
    if p == 1:
        j[:, 0] -= 1.0
        j[:, 3] -= 1.0
    return j.reshape(b, n, n)


@functools.lru_cache(maxsize=None)
def _cyclic_gather(p: int):
    """Flat indices into the (p, 2, 2, p) products [m, r, s, j] of a p-cycle
    in the order (i, r, j, s) of Y's rows and columns: the m = i - j - 1
    mod p maps L_{j+1}, ..., L_{i-1} lead from z_{j+1} to z_i."""
    i, r, j, s = np.indices((p, 2, p, 2))
    return (((i - j - 1) % p * 2 + r) * 2 + s) * p + j


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cyclic_inverse(x, y):
    """The inverses of the Jacobians of the coupled system (_minus_ones)
    at the orbits x + iy, as a C-contiguous (B, 2p, 2p) array, from their
    block-cyclic structure alone.

    Block row i of J reads L_i d_i - d_{i+1}, where L_k d = w_k conj(d),
    w_k = 2 conj(z_k), is the real 2x2 block D_k = [[2x, -2y], [-2y, -2x]].
    A residual g_j alone solves to d_{j+1} = (M_j - I)^-1 g_j, where M_j =
    L_j L_{j-1} ... L_{j+1} is the map once round the cycle, and then d_i =
    L_{i-1} ... L_{j+1} d_{j+1}: that product times (M_j - I)^-1 is block
    (i, j) of Y.  One loop of p steps forms the products of m = 0, ..., p
    maps for every j at once; the last is M_j.  M_j is d -> mu d for even
    p and d -> mu conj(d) for odd p, so (M_j - I)^-1 is d / (mu - 1) or
    (d + mu conj(d)) / (|mu|^2 - 1); here it is the adjugate over the
    determinant.  Only real float64 multiply, add, subtract and divide run,
    and each sum has two terms, so Y has the same bits on every machine.
    A singular cycle (mu = 1, or |mu| = 1 for odd p) divides by a zero
    determinant and leaves the row non-finite.  Any Y keeps the Krawczyk
    image sound.
    """
    b, p = x.shape
    # the rows run along the last axis, so every step below is a pass over
    # whole contiguous blocks of rows
    # [r, t, k, row]: entry (r, t) of D_{k mod p}, k = 0, ..., 2p - 1
    d = np.empty((2, 2, 2 * p, b))
    d[0, 0, :p], d[0, 1, :p], d[1, 1, :p] = 2.0 * x.T, -2.0 * y.T, -2.0 * x.T
    d[1, 0, :p] = d[0, 1, :p]
    d[:, :, p:] = d[:, :, :p]
    # [m, r, t, j, row]: L_{j+m} ... L_{j+1}, the identity for m = 0
    chain = np.empty((p + 1, 2, 2, p, b))
    chain[0] = np.eye(2)[:, :, None, None]
    for m in range(p):
        np.sum(d[:, :, None, m + 1:m + 1 + p] * chain[m], axis=1, out=chain[m + 1])
    a, e = chain[p, 0, 0] - 1.0, chain[p, 1, 1] - 1.0
    det = a * e - chain[p, 0, 1] * chain[p, 1, 0]
    inv = np.stack((np.stack((e, -chain[p, 0, 1])), np.stack((-chain[p, 1, 0], a)))) / det
    # [m, r, s, j, row]: the products times (M_j - I)^-1; each array is
    # freed once read, so at most two row-sized ones live at a time
    blocks = chain[:p, :, 0, None] * inv[0]
    blocks += chain[:p, :, 1, None] * inv[1]
    del chain, inv
    y_t = blocks.reshape(-1, b).take(_cyclic_gather(p).ravel(), axis=0)
    del blocks
    return np.ascontiguousarray(y_t.T).reshape(b, 2 * p, 2 * p)


def _float_f_rows(c_re, c_im, x, y):
    """float_f on coordinate arrays, operation for operation: CPython
    computes conj(z) ** 2 as 1 * (conj(z) * conj(z)).  Where CPython raises
    OverflowError, the rows carry inf or nan instead."""
    a, b = x, -y
    re, im = a * a - b * b, a * b + b * a
    return (1.0 * re - 0.0 * im) + c_re, (1.0 * im + 0.0 * re) + c_im


@np.errstate(over="ignore", invalid="ignore")
def float_newton_rows(c, orbits):
    """Floating-point Newton on the coupled cyclic system, row by row.

    c is a (B,) complex array of parameters and orbits a (B, p) complex
    array of orbit guesses.  Each step solves the stacked Jacobians of the
    rows still live, _CHUNK rows at a time, in one buffer of a chunk's
    Jacobians that the call allocates once (_minus_ones); a row stops on
    its own when its step is singular or not finite (keeping its orbit) or
    below 1e-14 (after taking it), so every row is refined as by itself.  Returns the
    refined orbits and the residuals max_i |f(z_i) - z_{i+1}|, both bit for
    bit as in Python's complex arithmetic wherever that does not overflow
    (see _float_f_rows); callers decide whether a residual is small enough
    to call the row converged.
    """
    x, y = orbits.real.copy(), orbits.imag.copy()
    b, p = x.shape
    c_re, c_im = c.real[:, None], c.imag[:, None]
    # the Jacobians of one chunk, whose constant entries are written once:
    # each step writes a chunk's diagonal blocks over them in place
    jac = _minus_ones(min(b, _CHUNK), p)

    def steps(lx, ly, g):  # the Newton steps of a chunk, and its regular rows
        delta, solved = _stacked(_jacobians(jac, lx, ly), g[..., None])
        return delta[..., 0], solved

    # the live rows are held compacted and stepped in place; a row is
    # written back to x, y when it stops
    rows, lx, ly, l_re, l_im = np.arange(b), x, y, c_re, c_im
    for _ in range(_NEWTON_STEPS):
        if not len(rows):
            break
        fx, fy = _float_f_rows(l_re, l_im, lx, ly)
        g = np.empty((len(rows), 2 * p))
        np.subtract(fx, _next(lx), out=g[:, 0::2])
        np.subtract(fy, _next(ly), out=g[:, 1::2])
        delta, solved = _chunked(steps, lx, ly, g)
        size = np.abs(delta).max(axis=1)
        ok = solved & np.isfinite(size)
        np.subtract(lx, delta[:, 0::2], out=lx, where=ok[:, None])
        np.subtract(ly, delta[:, 1::2], out=ly, where=ok[:, None])
        live = ok & (size >= 1e-14)
        if not live.all():
            stop = rows[~live]
            x[stop], y[stop] = lx[~live], ly[~live]
            rows, lx, ly, l_re, l_im = rows[live], lx[live], ly[live], l_re[live], l_im[live]
    x[rows], y[rows] = lx, ly
    fx, fy = _float_f_rows(c_re, c_im, x, y)
    dist = np.hypot(fx - _next(x), fy - _next(y))
    residual = dist[:, 0]
    for i in range(1, dist.shape[1]):  # Python's max: the first of equals, nan kept first
        residual = np.where(dist[:, i] > residual, dist[:, i], residual)
    orbits = np.empty(x.shape, dtype=complex)
    orbits.real, orbits.imag = x, y
    return orbits, residual


# binary64 round to nearest: the unit roundoff u (gamma_k <= (k + 1) u), the
# smallest subnormal eta, and the largest 2p that _krawczyk_rows's bounds cover
_U, _ETA, _MAX_N = 2.0 ** -53, 2.0 ** -1074, 400
# a v row by row, for (B, n, n) a and (B, n) v; einsum picks its summation
# order from the operand strides, so a row sums alike in any batch only
# when both operands are C-ordered
_matvec = functools.partial(np.einsum, "brc,bc->br")


class _Pre(NamedTuple):
    """The terms of the Krawczyk image of a chunk of rows that its rounds
    keep: those of its preconditioner and of its parameter boxes.  Every
    array is C-ordered, and so is any selection of its rows."""

    y: np.ndarray  # (B, 2p, 2p) preconditioners, zeroed where not ok
    abs_y: np.ndarray  # |Y|
    s_rho: np.ndarray  # (B, 2p) |s| rho
    cu: np.ndarray  # (B, 1) float midpoints of the parameters' real parts
    cv: np.ndarray  # (B, 1) and of their imaginary parts
    rho_t: np.ndarray  # (B, 2p) (p + 1) u tile(rho, p), a term of t
    ok: np.ndarray  # (B,) the rows with a regular Jacobian


@np.errstate(over="ignore", invalid="ignore")
def _preconditioner(c: BoxArray, lo, hi) -> _Pre:
    """The _Pre of a chunk of rows of parameters c and boxes (lo, hi).

    Y is the float inverse of the Jacobian at the boxes' midpoints
    (_cyclic_inverse), zeroed on the rows whose Jacobian is singular, s =
    fl(su, sv) the sums of each row's even and odd entries of Y, added in
    column order, and rho the parameter radii about their float
    midpoints, rounded up.
    """
    n = lo.shape[1]
    m = _mid_arr(lo, hi)
    y = _cyclic_inverse(m[:, 0::2], m[:, 1::2])
    ok = np.isfinite(y).all(axis=(1, 2))
    y[~ok] = 0.0
    su, sv = y[..., 0].copy(), y[..., 1].copy()
    for j in range(2, n, 2):
        su += y[..., j]
        sv += y[..., j + 1]
    c_lo, c_hi = np.stack((c.re[0], c.im[0]), axis=1), np.stack((c.re[1], c.im[1]), axis=1)
    c_mid = _mid_arr(c_lo, c_hi)
    rho = _up_arr(np.maximum(c_hi - c_mid, c_mid - c_lo))
    s_rho = _matvec(np.abs(np.stack((su, sv), axis=2)), rho)
    p = n // 2
    return _Pre(y, np.abs(y), s_rho, c_mid[:, :1].copy(), c_mid[:, 1:].copy(),
                (p + 1) * _U * np.tile(rho, p), ok)


@np.errstate(over="ignore", invalid="ignore")
def _krawczyk_rows(lo, hi, pre: _Pre):
    """The Krawczyk images of one chunk of rows of boxes (lo, hi), with the
    terms pre of _preconditioner, whose preconditioners may come from
    other boxes of the same rows: the one kernel of _krawczyk_image and of
    the rounds of krawczyk_cycle_rows.

    For z in Z and c in C, with d = z - m, |d| <= r and (du, dv) = c -
    c_mid, |du|, |dv| <= rho, the Krawczyk point is
        K = m - Y G(m) - su du - sv dv + (A - Y (J(z) - J(m))) d,
    with G at c_mid, A = I - Y J(m) and su, sv the exact sums of each
    row's even and odd entries of Y.  The bounds below treat Y as a given
    float matrix, so they hold for a Y taken at any point.  A float sum of
    products whose terms each pass at most k roundings is within gamma_k =
    k u / (1 - k u) times their moduli's sum, in any order and with or
    without FMA (Higham, Accuracy and Stability, ch. 3), plus eta/2 per
    product that underflows:
    - g = fl(G(m)): x^2 passes 4 roundings, so |G(m) - g| <= gamma_4 g_sum
      + eta, g_sum = x^2 + y^2 + |c_re| + |x_next| or 2|xy| + |c_im| + |y_next|;
    - center = fl(m - fl(Y g)) is within gamma_n |Y| |g| + n eta + u |center|
      of m - Y g, and s = fl(su, sv) within gamma_p sum_j |Y_{r,2j}| (or
      |Y_{r,2j+1}|) of su (or sv);
    - a = fl(I - ((Y_{:,2j} d0 + Y_{:,2j+1} d1) - Y_{:,prev})) passes 4
      roundings: |A - a| <= gamma_4 (I + |Y| |J(m)|) + 2 eta, |J(m)| in that
      3-term form;
    - |J(z) - J(m)| has the blocks 2 [[|dx|, |dy|], [|dy|, |dx|]], so it
      takes r to (2 (rx^2 + ry^2), 4 rx ry) on each orbit point.
    Altogether |K - center| <= |Y| t + |a| r + |s| rho + gamma_4 r
    + 2 eta sum(r) + u |center| + n eta, with
        t = gamma_4 (g_sum + |J(m)| r) + gamma_n |g| + |J(Z) - J(m)| r + gamma_p rho.
    The float evaluation of this bound passes each nonnegative term through
    at most n + 20 roundings, each losing a relative u or, on a product,
    eta/2 to underflow.  (1 - u)^k (1 + 2^-44) >= 1 for k <= 511 covers the
    relative losses while n <= _MAX_N; the floor 2^-1060 on t covers the
    at most 8 eta an entry of t loses before |Y| multiplies it, 2u |center|
    the center's rounding and 2^-1000 the other underflows.  The endpoints
    center -+ rad are then stepped outward once.  Returns (k_lo, k_hi,
    ok), ok the regular rows of pre whose image is finite, which alone
    carry an image: a row whose image overflows fails like a singular one.
    """
    b, n = lo.shape
    if n > _MAX_N:
        raise ValueError(f"the Krawczyk bounds hold up to period {_MAX_N // 2}")
    p = n // 2
    # every operand of _matvec is C-ordered, so each row's sums run in the
    # order of its one-row batch
    y, cu, cv = pre.y, pre.cu, pre.cv
    m = _mid_arr(lo, hi)
    x, yv = m[:, 0::2], m[:, 1::2]
    r = _up_arr(np.maximum(hi - m, m - lo))
    xx, yy, xy = x * x, yv * yv, 2.0 * (x * yv)
    x_next, y_next = _next(x), _next(yv)
    g = _interleave(((xx - yy) + cu) - x_next, (cv - xy) - y_next)
    g_sum = _interleave((xx + yy) + (np.abs(cu) + np.abs(x_next)),
                        (np.abs(xy) + np.abs(cv)) + np.abs(y_next))
    # column 2j + col of J(m) holds d0 in row 2j, d1 in row 2j + 1 and -1 in
    # row 2(j - 1) + col; A = I - Y J(m) entrywise, so Y J(m) cancels against I.
    # Each column parity of Y J(m) is written in place from views of Y, and
    # the -1 entries subtract Y shifted by two columns: on complex128 views,
    # whose subtraction is the two real ones, one pass over the flat batch
    # shifts every column pair but the first, which wraps round.  Only |A|
    # is read, which is |Y J(m)| off the diagonal: no (B, 2p, 2p) temporary
    a = np.empty((b, n, n))
    a4, y4 = a.reshape(b, n, p, 2), y.reshape(b, n, p, 2)
    for col, (d0, d1) in enumerate(((2.0 * x, -2.0 * yv), (-2.0 * yv, -2.0 * x))):
        np.multiply(y4[..., 0], d0[:, None], out=a4[..., col])
        a4[..., col] += y4[..., 1] * d1[:, None]
    a_pairs, y_pairs = a.view(np.complex128), y.view(np.complex128)
    first = a_pairs[..., 0] - y_pairs[..., -1]
    flat = a_pairs.reshape(-1)
    np.subtract(flat[1:], y_pairs.reshape(-1)[:-1], out=flat[1:])
    a_pairs[..., 0] = first
    diagonal = a.reshape(b, -1)[:, ::n + 1]
    one_minus = 1.0 - diagonal
    np.abs(a, out=a)
    np.abs(one_minus, out=diagonal)  # a is |A| from here on
    ax, ay, rx, ry = np.abs(x), np.abs(yv), r[:, 0::2], r[:, 1::2]
    jr = _interleave(2.0 * (ax * rx + ay * ry) + _next(rx), 2.0 * (ay * rx + ax * ry) + _next(ry))
    dj = _interleave(2.0 * (rx * rx + ry * ry), (2.0 * rx) * (2.0 * ry))
    t = (5 * _U * (g_sum + jr) + (n + 1) * _U * np.abs(g)) + (dj + pre.rho_t)
    center = m - _matvec(y, g)
    rad = ((_matvec(pre.abs_y, t + 2.0 ** -1060) + _matvec(a, r))
           + (pre.s_rho + (5 * _U * r + 2.0 * _ETA * r.sum(axis=1)[:, None])))
    rad = (rad * (1.0 + 2.0 ** -44) + 2.0 * _U * np.abs(center)) + 2.0 ** -1000
    [(k_lo, k_hi)] = _round((center - rad, center + rad))
    return k_lo, k_hi, pre.ok & (np.isfinite(k_lo) & np.isfinite(k_hi)).all(axis=1)


def _krawczyk_image(c: BoxArray, boxes):
    """One Krawczyk step for the coupled cyclic system G_i = f(z_i) - z_{i+1},
    for B rows at once, _CHUNK at a time, each preconditioned at the
    midpoints of its own boxes: the one-shot image of absence.

    c is a BoxArray of B parameter rows and boxes a pair (lo, hi) of
    (B, 2p) endpoint arrays over the coordinates (re z_0, im z_0, re z_1,
    ...) of each row's orbit boxes.  Returns the endpoints of the images
    K(Z) and the mask of the rows whose midpoint Jacobian is regular; the
    other rows carry no image.

    Y is a float inverse of the midpoint Jacobian, from its block-cyclic
    structure (_cyclic_inverse), with the same bits on every machine.  The
    image is one midpoint-radius evaluation in round to nearest (Rump,
    BIT 39, 1999; Acta Numerica 19, 2010): the center m - Y G(m, c_mid),
    and a radius bounding a priori the spread of K over C and Z and every
    rounding error (derived in _krawczyk_rows).  I - Y J(m) is formed
    entrywise, so Y J(m) cancels against I before radii add; G is exactly
    linear in c, so c enters through the signed sums of Y's even and odd
    columns, and the orbit's c-sensitivities can cancel.  Each row's sums
    see that row alone, so its image has the same bits in any batch.  A
    row whose image overflows goes without one, like a singular row.
    """
    return _chunked(lambda c, lo, hi: _krawczyk_rows(lo, hi, _preconditioner(c, lo, hi)),
                    c, *boxes)


def _around(orbits, radius):
    """The endpoint rows of ComplexBox.around(z, radius) for each orbit point."""
    mid = _interleave(orbits.real, orbits.imag)
    return _round((mid - radius, mid + radius))[0]


def _inflation_round(lo, hi, pre: _Pre, pad, certified, remaining):
    """One round of krawczyk_cycle_rows on the open rows of a chunk, held
    compacted: updates their boxes (lo, hi), certified and remaining in
    place, and returns the mask of the rows still open.  pad is 4 times
    each row's radius, as a (rows, 1) column.  The round's images live in
    this call alone and are freed on return."""
    p = lo.shape[1] // 2
    k_lo, k_hi, regular = _krawczyk_rows(lo, hi, pre)
    # an image strictly inside its boxes certifies the cycle: contract
    # toward the fixed point, then hand back tight boxes; each image lies
    # strictly inside its box, so it is what the two share
    inside = regular & ((lo < k_lo) & (k_hi < hi)).all(axis=1)
    lo[inside], hi[inside] = k_lo[inside], k_hi[inside]
    certified |= inside
    remaining[inside] -= 1
    # any other image ends a certified row; an uncertified row fails when
    # its image misses its boxes, else grows by epsilon inflation unless
    # that makes a box wider than 0.5
    grow = regular & ~certified & ((lo <= k_hi) & (k_lo <= hi)).all(axis=1)
    width = _up_arr(k_hi - k_lo).reshape(-1, p, 2).max(axis=2)
    g_pad = np.repeat(0.125 * width + pad, 2, axis=1)
    g_lo, g_hi = k_lo - g_pad, k_hi + g_pad
    # a box that is not finite has an inf or nan width
    grow &= _up_arr(g_hi - g_lo).max(axis=1) <= 0.5
    lo[grow], hi[grow] = g_lo[grow], g_hi[grow]
    return grow | (inside & (remaining > 0))


def _sized_start(lo, hi, pre: _Pre, pad):
    """The start boxes of the rows of a chunk whose boxes are points, a
    float orbit each: written over them in place as the orbit -+ (2 |s|
    rho + pad), each coordinate rounded outward.  Returns the mask of the
    rows that go on to the rounds: all but the sized ones whose boxes are
    not finite or wider than 0.5."""
    sized = (lo == hi).all(axis=1)
    if not sized.any():
        return ~sized
    reach = 2.0 * pre.s_rho[sized] + pad[sized]
    [(s_lo, s_hi)] = _round((lo[sized] - reach, lo[sized] + reach))
    lo[sized], hi[sized] = s_lo, s_hi
    keep = ~sized
    # a box that is not finite has an inf or nan width
    keep[sized] = _up_arr(s_hi - s_lo).max(axis=1) <= 0.5
    return keep


@np.errstate(over="ignore", invalid="ignore")
def krawczyk_cycle_rows(c: BoxArray, boxes, radius):
    """Krawczyk existence certification of a full cycle as a coupled
    system, for B rows at once.

    Each residual involves a single map application, so there is no
    iterate-depth wrapping.  c is a BoxArray of B parameter rows, boxes the
    (lo, hi) pair of (B, 2p) endpoint arrays of the start boxes, and
    radius the (B,) array of the rows' inflation radii.  A row whose boxes
    are points is a float orbit (a Newton seed): it starts from the boxes
    orbit -+ (2 |s| rho + 4 radius) per coordinate (_sized_start), where
    |s| rho is the parameter term of its Krawczyk radius, the spread of
    the image over the parameter box.  The first image of a point-like
    box would only measure that term, which _Pre holds before any image
    runs.  With the factor 2 the sized box, of radius r, holds its image
    whenever the contraction term |I - Y J(m)| r of the image is at most
    r / 2 and its other terms (the center's offset from the orbit, the
    quadratic and the rounding terms) stay below 2 radius.  A sized
    start that is not finite or wider than 0.5 fails its row with no
    image.  Any other row (the certified orbit boxes of a box that holds
    the row's cycle, or any boxes) starts from its boxes as given.  Any
    start box is sound: K(Z) strictly inside Z is the proof (Rump, Acta
    Numerica 19, 2010).
    The boxes grow by epsilon inflation, which hands every orbit point a
    radius matched to its own parameter sensitivity: an image strictly
    inside its boxes certifies the cycle, and a certified row runs up to
    _TIGHTEN images in all, the later ones tightening its boxes; an image
    that misses its boxes, a singular Jacobian or an inflated box wider
    than 0.5 fails.  Absence is the job of krawczyk_absence, where the
    searched region is explicit.

    Each row takes its preconditioner Y once, at the midpoints of its start
    boxes as given (a sized row's orbit), and keeps it through all its
    rounds: any Y keeps the image sound (see _krawczyk_rows), so a row
    whose Jacobian is singular there fails in its first round, and a
    regular one is never found singular later.  The rows go _CHUNK at a
    time, and each chunk runs all its rounds before the next: it forms Y,
    |Y| and the parameter terms once (_Pre), sizes its float orbits'
    start boxes, and each round (_inflation_round) evaluates the images
    of its rows still open, held compacted, which decide by these rules
    and update their boxes.  A row is written back once, when it closes.
    Every row ends as it would by itself, and no array holds more than a
    chunk's preconditioners or a round's images.  Returns (certified, lo,
    hi, images): the mask of certified rows, the endpoint arrays of boxes,
    refined in place (the tight orbit boxes of the certified rows), and
    the number of Krawczyk images each row ran.
    """
    lo, hi = boxes
    certified = np.zeros(len(lo), dtype=bool)
    images = np.zeros(len(lo), dtype=np.int64)
    for start in range(0, len(lo), _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, len(lo)))
        z_lo, z_hi, pad = lo[rows], hi[rows], 4.0 * radius[rows, None]
        won, remaining = np.zeros(len(rows), dtype=bool), np.full(len(rows), _TIGHTEN)
        pre = _preconditioner(c[rows], z_lo, z_hi)
        still = _sized_start(z_lo, z_hi, pre, pad)
        for done in range(_ROUNDS + 1):
            if done:
                still = _inflation_round(z_lo, z_hi, pre, pad, won, remaining)
            if done == _ROUNDS:
                still[:] = False
            # rows leave a chunk's arrays only when some close: a copy that
            # keeps every row would only raise the peak
            if not still.all():
                out = ~still
                gone = rows[out]
                lo[gone], hi[gone] = z_lo[out], z_hi[out]
                certified[gone], images[gone] = won[out], done
                rows, z_lo, z_hi, pad, won, remaining = (
                    a[still] for a in (rows, z_lo, z_hi, pad, won, remaining))
                pre = pre._make(a[still] for a in pre)
            if not len(rows):
                break
    return certified, lo, hi, images


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
    lo, hi = _around(np.array([orbit_guess], dtype=complex), radius)
    [k_lo], [k_hi], [regular] = _krawczyk_image(BoxArray.of([c]), (lo, hi))
    return bool(regular and not ((lo[0] <= k_hi) & (k_lo <= hi[0])).all())


# ---------------------------------------------------------------------------
# non-rigorous floating-point companions (seeds and oracles)
# ---------------------------------------------------------------------------


def float_f(c: complex, z: complex) -> complex:
    return z.conjugate() ** 2 + c


def float_iterate(c: complex, z: complex, n: int) -> complex:
    for _ in range(n):
        z = float_f(c, z)
    return z

