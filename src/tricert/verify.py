"""Rigorous parameter-space predicates.

Four families of claims, each sound in one direction only (a Verified
answer is backed by containment-sound interval computation, Undetermined
is always legal):

* boundary disjointness of f_c^n(dU) from dU, the quadratic-like test;
* zero counting by exclusion and Krawczyk boxes (fixed points of f_c^n);
* attracting-cycle / parabolic-exclusion certification of a tracked cycle;
* non-realness of the multiplier of the certified fixed point of f_c^6.

The last two share one certifier: the Krawczyk operator on the coupled
cyclic system, whose orbit boxes must be pairwise disjoint (the exact
period).  The fixed point of f_c^6 is z_0 of a certified period-6 cycle,
and its box must lie in the region X.  Cycle claims hand each box's
findings on to its children.  A child of a box whose cycle was held
(certified, in pairwise disjoint boxes) starts Krawczyk from the parent's
orbit boxes X: those hold the parent's cycle for every c of the child's
box, so an image K(X) inside X proves the one cycle in X to be the
parent's, with no float Newton (Moore, SIAM J. Numer. Anal. 14, 1977;
Rump, Acta Numerica 19, 2010).  Every other box, and a child whose image
from X is not held, uses continuation: the floating-point orbit handed
on, refined by Newton at its midpoint, seeds its Krawczyk certification.

Every claim evaluates a whole quadtree level, one BoxArray, at once, to
arrays of status letters and efforts and the seeds of its rows (see
tricert.scan).  The qlike claim subdivides the edges of U in one
depth-first walk (_walk) over BoxArray batches of at most _ROW_CAP
segment rows, each row tagged with its box, which decides where each
segment's image lies; each child box resumes it from its parent's open
blocks (see boundary_disjoint_level).  The count claim and the qlike
anchor's preimage count run count_zeros: for every box of a level at
once, a quadtree over the region drops the cells where the function
excludes 0 and those inside one-variable Krawczyk boxes, each holding one
simple zero.  The two cycle claims read their statuses from
tracked_cycle_level, which certifies from inherited boxes, refines and
certifies on the whole level in batched Krawczyk and float Newton calls,
their rows dynamics._CHUNK at a time.  Each row's Krawczyk
preconditioner is formed once, at its start boxes, and serves all its
epsilon-inflation rounds.  The two witnesses of
component_witnesses are one-box calls of it.

Each scan claim is a dataclass of its certificate parameters, which
config() writes into the header; its root seed is a function of the
header's rect and config alone.

The quadratic-like certificate proves its anchor with the same kernels:
the boundary walk and a preimage count make g = f_c^n quadratic-like at
the anchor, and a certified attracting cycle of g in U makes its filled
Julia set connected (see qlike_certificate).  The anchor's float critical
orbit only seeds that cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .dynamics import (
    conj_holomorphic_form,
    even_iterate,
    float_f,
    float_iterate,
    float_newton_rows,
    krawczyk_cycle_rows,
    multiplier_rows,
    squared_modulus_rows,
)
from .intervals import (BoxArray, ComplexBox, Interval, _interleave, _matrix, _meet, _mid_arr,
                        _within)
from .scan import ClaimResult, Status, _hex, adaptive_scan, component_rollup

__all__ = [
    "Status",
    "ClaimResult",
    "ZeroCount",
    "boundary_disjoint",
    "boundary_disjoint_level",
    "count_zeros",
    "preimage_count",
    "tracked_cycle_level",
    "component_witnesses",
    "BoundaryDisjointClaim",
    "FixedPointCountClaim",
    "ParabolicExclusionClaim",
    "MultiplierNonRealClaim",
    "find_superattracting_parameter",
    "float_orbit_of_zero",
    "qlike_certificate",
    "disjointness_certificate",
]

# ---------------------------------------------------------------------------
# boundary segment walks and the quadratic-like boundary test
# ---------------------------------------------------------------------------


# rows of one segment batch, and of the starts of one walk; a walk recurses
# on the halves of a batch's split rows _ROW_CAP // 2 parents at a time, so
# it holds at most one batch per segment level.  Under the CLI's malloc
# policy (cli.main), 8,192 rows left a depth-8 qlike scan of 3,469 leaves
# unchanged (0.077 against 0.076 s, faster in 6 of 10 alternating
# fresh-process runs, 2-vCPU VM), so the cap stays at 4,096.  It also caps
# the live cells of one parameter row of count_zeros
_ROW_CAP = 4096

# the deepest segment depth at which a segment's node number 2^depth +
# index (see _Segments) stays an exact int64; it also bounds the recursion
# of a walk at 63 frames
_MAX_SEGMENT_DEPTH = 62


def _bisect_rows(seg: BoxArray) -> BoxArray:
    """ComplexBox.bisect on rows of boundary segments: the halves of row k
    sit at 2k and 2k + 1.  One coordinate of a segment is a point whose
    endpoints are the same float, and the midpoint of such a point is that
    float, so halving both coordinates splits the other one as bisect
    does.  Only where im has width 0 does bisect split re (it splits re on
    a tie) and copy im, whose endpoints may be -0.0 and 0.0 there."""
    lo, hi = seg.e[:2], seg.e[2:]
    m = _mid_arr(lo, hi)
    halves = np.concatenate((_interleave(lo, m), _interleave(m, hi)))
    flat = np.repeat(seg.e[1] == seg.e[3], 2)
    halves[1::2] = np.where(flat, np.repeat(seg.e[1::2], 2, axis=1), halves[1::2])
    return BoxArray._of(halves)


class _Segments:
    """Segments on the edges of a rectangle, one a row.  Row k is the box
    seg[k], walked for owner[k], and node[k] = 2^depth + index places it in
    the walk tree of its edge: depth bisections of the edge make 2^depth
    pieces, index counts them from the edge's lower end, and the halves of
    node m are 2m and 2m + 1."""

    __slots__ = ("seg", "owner", "node")

    def __init__(self, seg: BoxArray, owner, node):
        self.seg, self.owner, self.node = seg, owner, node

    @staticmethod
    def edges(u: ComplexBox) -> "_Segments":
        """The four edges of U, counterclockwise from the bottom, for owner 0."""
        re, im = u.re, u.im
        e = np.array([(re.lo, re.hi, im.lo, im.lo), (re.hi, re.hi, im.lo, im.hi),
                      (re.lo, re.hi, im.hi, im.hi), (re.lo, re.lo, im.lo, im.hi)]).T
        return _Segments(BoxArray((e[0], e[1]), (e[2], e[3])), np.zeros(4, dtype=np.int64),
                         np.ones(4, dtype=np.int64))

    @staticmethod
    def concat(parts: list["_Segments"]) -> "_Segments":
        if len(parts) == 1:
            return parts[0]
        return _Segments(BoxArray.concat([p.seg for p in parts]),
                         np.concatenate([p.owner for p in parts]),
                         np.concatenate([p.node for p in parts]))

    def __len__(self) -> int:
        return len(self.owner)

    def __getitem__(self, rows) -> "_Segments":
        return _Segments(self.seg[rows], self.owner[rows], self.node[rows])

    def halves(self) -> "_Segments":
        """The halves of every row, at 2k and 2k + 1."""
        node = np.repeat(2 * self.node, 2)
        node[1::2] += 1
        return _Segments(_bisect_rows(self.seg),
                         np.repeat(self.owner, 2), node)


def _walk(rows: _Segments, decide, merge):
    """The results of the depth-first walk from rows, at most _ROW_CAP.

    decide(rows) returns the results of the rows, an array with one entry
    a row along its last axis, and the mask of the rows to split.  The
    halves of the split rows are walked _ROW_CAP // 2 parents at a time,
    and each parent's result becomes merge(halves, results of the halves),
    the halves of the j-th parent at 2j and 2j + 1.  A walk recurses one
    frame per segment level and holds one batch and its halves in each."""
    result, grow = decide(rows)
    split = np.flatnonzero(grow)
    for k in range(0, len(split), _ROW_CAP // 2):
        parents = split[k:k + _ROW_CAP // 2]
        halves = rows[parents].halves()
        result[..., parents] = merge(halves, _walk(halves, decide, merge))
    return result


@dataclass(frozen=True)
class _Walked:
    """What the boundary walks of a level hand on: per parameter row its
    inside and outside flags, and its open blocks, the rows
    offsets[i]:offsets[i + 1] of blocks, whose owner is i."""

    blocks: _Segments
    offsets: np.ndarray
    inside: np.ndarray
    outside: np.ndarray

    @staticmethod
    def edges(u: ComplexBox, count: int) -> "_Walked":
        """count rows that walk the four edges of dU with no flag set."""
        no = np.zeros(1, dtype=bool)
        return _Walked(_Segments.edges(u), np.array([0, 4]), no, no)[np.zeros(count, dtype=np.int64)]

    def __getitem__(self, rows) -> "_Walked":
        """The walks of the given rows, in turn: row j of the result is row
        rows[j], its blocks renumbered to owner j."""
        start, size = self.offsets[rows], np.diff(self.offsets)[rows]
        # block k of the result is block k - (blocks before its row) + start of its row
        blocks = self.blocks[np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)]
        blocks.owner = np.repeat(np.arange(len(size)), size)
        return _Walked(blocks, np.concatenate(([0], np.cumsum(size))),
                       self.inside[rows], self.outside[rows])


def _walk_level(cs: BoxArray, u: ComplexBox, n: int, max_depth: int, seeds: _Walked | None):
    """The boundary walks of a level's parameter rows cs, resumed from
    seeds, the _Walked of a level whose row i each row i resumes (None:
    from the four edges of dU, with no flag set): each row's segment count
    and the _Walked that its children resume from.  A segment row's owner
    is its parameter row.  The starts go _ROW_CAP at a time through _walk,
    shallowest first, so that the deep ones, which end within a few
    segment levels, share their walks.

    A segment is open when it is an open leaf (undecided at max_depth, or
    not finite) or when both its halves are open; an open start is a
    block, and so is an open half whose sibling is not open.  A parameter
    row that has found the flag opposite to one it inherited is FALSE
    (crossed), so its split rows are not halved; a walk from the edges
    inherits no flag and runs whole.  A walk recurses at most max_depth + 1
    deep."""
    if u.re.lo == u.re.hi or u.im.lo == u.im.hi:
        raise ValueError("dynamical rectangle must have positive area")
    if n < 1:
        raise ValueError("iterate must be >= 1")
    if not 0 <= max_depth <= _MAX_SEGMENT_DEPTH:
        raise ValueError(f"segment depth must lie in [0, {_MAX_SEGMENT_DEPTH}]")
    deepest = 1 << max_depth  # the first node at max_depth
    if seeds is None:
        seeds = _Walked.edges(u, len(cs))
    starts = seeds.blocks[np.argsort(seeds.blocks.node, kind="stable")]
    inherited = seeds.inside, seeds.outside
    inside, outside = seeds.inside.copy(), seeds.outside.copy()
    effort = np.zeros(len(cs), dtype=np.int64)
    blocks = [starts[:0]]

    @np.errstate(over="ignore", invalid="ignore")
    def decide(rows: _Segments):
        """Evaluates rows (at most _ROW_CAP), counts them into effort, sets
        the flags of their parameter rows, and returns the masks of the
        open rows and of the rows to halve."""
        owner = rows.owner
        z, c = rows.seg, cs[owner]
        for _ in range(n):
            z = z.sqr().conj() + c
        effort[:] += np.bincount(owner, minlength=len(effort))
        finite = z.finite()
        # a row strictly inside U is finite and meets U
        strict = z.within(u, strict=True)
        meets = finite & z.meets(u)
        inside[owner[strict]] = True
        outside[owner[finite ^ meets]] = True
        split = meets ^ strict
        crossed = (inherited[0] & outside) | (inherited[1] & inside)
        grow = split & (rows.node < deepest) & ~crossed[owner]
        return ~finite | (split ^ grow), grow

    def merge(halves: _Segments, opened):
        """A parent is open when both its halves are; a lone open half goes
        to blocks."""
        first, second = opened.reshape(-1, 2).T
        pair = np.flatnonzero(first ^ second)
        if len(pair):
            blocks.append(halves[2 * pair + second[pair]])
        return first & second

    for k in range(0, len(starts), _ROW_CAP):
        rows, at = starts[k:k + _ROW_CAP], len(blocks)
        blocks.insert(at, rows[_walk(rows, decide, merge)])  # before the lone halves below them
    blocks = _Segments.concat(blocks)
    blocks = blocks[np.argsort(blocks.owner, kind="stable")]
    offsets = np.searchsorted(blocks.owner, np.arange(len(cs) + 1))
    return effort, _Walked(blocks, offsets, inside, outside)


def boundary_disjoint_level(
    boxes: BoxArray, u: ComplexBox, n: int, max_depth: int = 14, seeds: _Walked | None = None
) -> tuple[np.ndarray, np.ndarray, _Walked]:
    """boundary_disjoint for each parameter row, evaluated in batches:
    the status letters and segment counts of the rows, and the _Walked
    that the children of each row resume from.

    A segment row is one boundary segment of one box, with that box's c row.
    Without seeds every box starts from the four edges of dU; with seeds,
    the _Walked returned for a level, row i starts from the open blocks and
    flags of its row i, which must be a box that contains it (its parent;
    the scan passes walked[parents]).  Rows go _ROW_CAP at a time through
    the BoxArray map z.sqr().conj() + c, n times.  A row strictly inside U
    or off U is decided; any other row is bisected below max_depth, and at
    max_depth is an open leaf.  A row that is not finite, where the
    evaluation overflows, is an open leaf and is not split.  A box with an
    open leaf is Undetermined unless it is FALSE.  The flags of a box are a
    union over its rows, so they do not depend on the order of evaluation,
    and from the edges neither does its segment count.  A box that finds the
    flag opposite to one it inherited is FALSE whatever else it finds, so
    its split rows are no longer halved, and its count depends on the order
    of evaluation.

    A box's open blocks are the maximal nodes of its walk trees with no
    decided node below them: sibling halves that are both open merge into
    their parent, recursively.  Its children walk only those.  The
    BoxArray operations are inclusion-isotonic (each endpoint is an
    outward rounding of a monotone formula; Moore, Interval Analysis,
    1966), and a child's c lies in its parent's, so the child's image of a
    segment lies in the parent's.  So the child decides every node that
    the parent decided, with the same flag; a node that is not finite for
    the child was not finite for the parent, which did not split it; and
    where the child's walk from the edges decides a node above a block,
    that node holds a node the parent decided, and the resumed walk
    decides the block at once, with the same flag.  So a resumed walk
    gives every box the flags, open leaves and status of a walk from the
    four edges; its segment count is that of its own evaluations.
    """
    effort, walked = _walk_level(boxes, u, n, max_depth, seeds)
    status = np.where(walked.inside & walked.outside, "F",
                      np.where(np.diff(walked.offsets) > 0, "U", "T"))
    return status, effort, walked


def boundary_disjoint(
    c: ComplexBox, u: ComplexBox, n: int, max_depth: int = 14
) -> ClaimResult:
    """Does f_c^n(dU) avoid dU, uniformly over the parameter box?

    TRUE: every piece of dU maps strictly inside U or strictly off the
    closure of U.  FALSE: some piece maps strictly inside while another
    maps strictly outside, so for every parameter in the box the image
    curve crosses dU.  UNDETERMINED otherwise, also when the enclosure of
    some piece overflows.  The one-box call of boundary_disjoint_level.
    """
    [status], [effort], _ = boundary_disjoint_level(BoxArray.of([c]), u, n, max_depth)
    return ClaimResult(Status(status), int(effort))


# ---------------------------------------------------------------------------
# zero counting by exclusion and Krawczyk
# ---------------------------------------------------------------------------


# parameter rows of one count batch: a row holds at most _ROW_CAP live
# cells, so a batch holds at most _COUNT_ROWS * _ROW_CAP
_COUNT_ROWS = 16
# a row with more survivors than this tries no Krawczyk start at that
# depth, which bounds the touch matrix of the starts
_START_CELLS = 64
# a group of survivors starts Krawczyk only when the hull D of its cells'
# derivative enclosures has radius below this share of |mid D|, so that
# 1 - y der(C, Z) may contract: on the four boxes of the paper's count no
# start above it held, and skipping them made the count about 30% faster
_START_SPREAD = 0.5
# the epsilon-inflation rounds of one Krawczyk start
_START_ROUNDS = 4
_ONE = ComplexBox.point(1 + 0j)


class ZeroCount(NamedTuple):
    """What count_zeros finds for B parameter rows."""

    count: np.ndarray  # (B,) zeros in the region, -1 where undetermined
    effort: np.ndarray  # (B,) box evaluations of fn for each row
    owner: np.ndarray  # the row of each counted Krawczyk box, ascending
    boxes: BoxArray  # the Krawczyk boxes Z counted by the decided rows
    images: BoxArray  # their images K(Z), each inside its Z and the region


def _starts(cells: BoxArray, owner, der: BoxArray):
    """The hulls of the components of touching cells of each row, their
    rows, and the hulls of the components' derivative enclosures der.  A
    cell's label ends as the least index in its component."""
    touch = (owner[:, None] == owner[None, :]) & _meet(cells.e[:, :, None], cells.e[:, None])
    labels = np.arange(len(owner))
    while len(labels):
        least = np.where(touch, labels[None, :], len(labels)).min(axis=1)
        if (least == labels).all():
            break
        labels = least
    order = np.argsort(labels, kind="stable")
    first = np.flatnonzero(np.diff(labels[order], prepend=-1))

    def hulls(box: BoxArray) -> BoxArray:
        e = box.e.take(order, axis=1)
        return BoxArray._of(np.concatenate((np.minimum.reduceat(e[:2], first, axis=1),
                                            np.maximum.reduceat(e[2:], first, axis=1))))

    return hulls(cells), owner[order[first]], hulls(der)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _zero_image(fn, cs: BoxArray, z: BoxArray):
    """The one-variable Krawczyk image K(Z) = m - y val(C, m) + (1 - y
    der(C, Z)) (Z - m) of each row Z of z over its parameter row C of cs,
    m the midpoint of Z, and the float y = 1 / mid der(C, m) of each row
    (not finite where mid der(C, m) is 0)."""
    mid = _mid_arr(z.e[:2], z.e[2:])
    m = BoxArray._of(np.concatenate((mid, mid)))
    val, der = fn(BoxArray.concat([cs, cs]), BoxArray.concat([m, z]))
    k = len(z)
    d = _mid_arr(der.e[:2, :k], der.e[2:, :k])
    y = 1.0 / (d[0] + 1j * d[1])
    point = BoxArray._of(np.array((y.real, y.imag) * 2))
    return m - point * val[:k] + (_ONE - point * der[k:]) * (z - m), y


def _krawczyk_starts(fn, cs: BoxArray, start: BoxArray):
    """Krawczyk with epsilon inflation from the start boxes, row k over
    the parameter row cs[k]: the mask of the rows held, their boxes Z and
    images K(Z) (_zero_image; strictly inside Z where held), and the box
    evaluations of each row.  A round that does not hold fails its row
    when the image is not finite, misses Z or is no narrower than Z;
    otherwise Z becomes the image grown by an eighth of its width, for at
    most _START_ROUNDS rounds."""
    box = start.e.copy()
    image = np.full_like(box, np.nan)
    effort = np.zeros(len(start), dtype=np.int64)
    rows = np.arange(len(start))
    for _ in range(_START_ROUNDS):
        z = BoxArray._of(box.take(rows, axis=1))
        found, _ = _zero_image(fn, cs[rows], z)
        effort[rows] += 2
        finite = found.finite()
        inside = finite & found.within(z, strict=True)
        image[:, rows[inside]] = found[inside].e
        # unrounded: width() rounds up, which would move the grown boxes
        width = (found.e[2:] - found.e[:2]).max(axis=0)
        grow = finite & ~inside & found.meets(z) & (width < (z.e[2:] - z.e[:2]).max(axis=0))
        box[:, rows[grow]] = found[grow].e + np.outer([-0.125, -0.125, 0.125, 0.125], width[grow])
        rows = rows[grow]
        if not len(rows):
            break
    return ~np.isnan(image[0]), BoxArray._of(box), BoxArray._of(image), effort


@np.errstate(over="ignore", invalid="ignore")
def _count_batch(fn, cs: BoxArray, region: ComplexBox, max_depth: int) -> ZeroCount:
    """count_zeros of at most _COUNT_ROWS parameter rows, breadth-first:
    each depth evaluates the live cells of every row in one call of fn."""
    rows = len(cs)
    effort = np.zeros(rows, dtype=np.int64)
    undecided = np.zeros(rows, dtype=bool)
    owner = np.arange(rows)
    cells = BoxArray._of(np.repeat(_matrix(region), rows, axis=1))
    # the Krawczyk boxes so far, their images and rows, and which are counted
    zs, images, z_owner, counted = cells[:0], cells[:0], owner[:0], np.zeros(0, dtype=bool)

    def outside_boxes(cells, owner):
        """The mask of the cells that lie in none of their row's boxes."""
        inside = _within(cells.e[:, :, None], zs.e[:, None], False)
        return ~(inside & (owner[:, None] == z_owner[None, :])).any(axis=1)

    for depth in range(max_depth + 1):
        val, der = fn(cs[owner], cells)
        effort += np.bincount(owner, minlength=rows)
        finite = val.finite()
        undecided[owner[~finite]] = True
        keep = finite & val.contains(0j) & ~undecided[owner] & outside_boxes(cells, owner)
        cells, owner, der = cells[keep], owner[keep], der[keep]
        few = np.bincount(owner, minlength=rows)[owner] <= _START_CELLS
        start, start_owner, slope = _starts(cells[few], owner[few], der[few])
        mid = _mid_arr(slope.e[:2], slope.e[2:])
        spread = np.hypot(*(slope.e[2:] - slope.e[:2]))
        fresh = spread < 2.0 * _START_SPREAD * np.hypot(*mid)
        fresh &= ~(_meet(start.e[:, :, None], zs.e[:, None])
                   & (start_owner[:, None] == z_owner[None, :])).any(axis=1)
        if fresh.any():
            held, z, image, tries = _krawczyk_starts(fn, cs[start_owner[fresh]], start[fresh])
            np.add.at(effort, start_owner[fresh], tries)
            # a zero lies in the region when its image does, and off it
            # when its image misses the region; otherwise the box is dropped
            within = image.within(region)
            held &= within | ~image.meets(region)
            zs, images = BoxArray.concat([zs, z[held]]), BoxArray.concat([images, image[held]])
            z_owner = np.concatenate((z_owner, start_owner[fresh][held]))
            counted = np.concatenate((counted, within[held]))
            keep = outside_boxes(cells, owner)
            cells, owner = cells[keep], owner[keep]
        if not len(owner):
            break
        if depth == max_depth:
            undecided[owner] = True
            break
        crowded = np.bincount(owner, minlength=rows) * 4 > _ROW_CAP
        undecided |= crowded
        cells, owner = cells[~crowded[owner]].quarter(), np.repeat(owner[~crowded[owner]], 4)
    overlap = _meet(zs.e[:, :, None], zs.e[:, None]) & (z_owner[:, None] == z_owner[None, :])
    undecided[z_owner[overlap.sum(axis=1) > 1]] = True
    counted &= ~undecided[z_owner]
    order = np.argsort(z_owner[counted], kind="stable")
    found = z_owner[counted][order]
    count = np.where(undecided, -1, np.bincount(found, minlength=rows))
    return ZeroCount(count, effort, found, zs[counted][order], images[counted][order])


def count_zeros(fn, cs: BoxArray, region: ComplexBox, max_depth: int) -> ZeroCount:
    """The number of zeros of z -> fn(c, z) in the region, for every c of
    each parameter row C of cs, by a quadtree of exclusion closed by
    Krawczyk boxes.

    fn(c, z) returns BoxArray enclosures (val, der) of a function
    holomorphic in z and of its derivative, row by row.  A cell B of the
    quadtree is dropped when val(C, B) excludes 0, or when it lies in a
    box Z of its row with K(Z) (_zero_image) strictly inside Z: then for
    every c in C, Z holds exactly one zero, a simple one, in K(Z)
    (Krawczyk, Computing 4, 1969; Rump, Acta Numerica 19, 2010), as the
    mean value form of a holomorphic function on the convex Z lies in the
    outward-rounded image.  A box is kept when K(Z) lies in the region
    (its zero is counted) or misses it.  The boxes start from the hulls of
    the touching survivors of a row that meet none of its boxes
    (_START_CELLS, _START_SPREAD); the other survivors are quartered.

    A row's count is its number of counted boxes once no cell is left and
    its boxes are pairwise disjoint.  It is -1 (undetermined) at once
    when a cell's enclosure is not finite, and when a cell survives
    max_depth (at most 62), the row would hold more than _ROW_CAP live
    cells, or two of its boxes meet; a multiple zero is never held.  Rows
    go _COUNT_ROWS at a time, and each row's results are its own.
    """
    if not 0 <= max_depth <= _MAX_SEGMENT_DEPTH:
        raise ValueError(f"count depth must lie in [0, {_MAX_SEGMENT_DEPTH}]")
    firsts = range(0, max(len(cs), 1), _COUNT_ROWS)  # one batch of no rows for none
    parts = [_count_batch(fn, cs[k:k + _COUNT_ROWS], region, max_depth) for k in firsts]
    return ZeroCount(np.concatenate([p.count for p in parts]),
                     np.concatenate([p.effort for p in parts]),
                     np.concatenate([p.owner + k for p, k in zip(parts, firsts)]),
                     BoxArray.concat([p.boxes for p in parts]),
                     BoxArray.concat([p.images for p in parts]))


def _fixed_points(n: int):
    """fn of count_zeros for the fixed points of the even iterate f_c^n:
    f_c^n(z) - z and its derivative."""
    if n % 2 != 0 or n < 2:
        raise ValueError("fixed-point counting needs an even iterate")

    def fn(c, z):
        value, derivative = even_iterate(c, z, n)
        return value - z, derivative - _ONE

    return fn


def preimage_count(c: ComplexBox, w: complex, u: ComplexBox, n: int,
                   max_depth: int = 16) -> int | None:
    """Certified number of solutions of f_c^n(z) = w in U, for odd n and
    every c of the box, or None: count_zeros of the holomorphic companion
    H(z) - conj(w) (conj_holomorphic_form).  A multiple solution, such as
    the one of z^8 = 0 at c = 0 for n = 3, leaves it undetermined."""
    wbar = ComplexBox.point(w.conjugate())

    def fn(c, z):
        value, derivative = conj_holomorphic_form(c, z, n)
        return value - wbar, derivative

    [k] = count_zeros(fn, BoxArray.of([c]), u, max_depth).count.tolist()
    return None if k < 0 else k


# ---------------------------------------------------------------------------
# tracked-cycle claims
# ---------------------------------------------------------------------------


# float Newton on the coupled system counts as converged below this residual
_NEWTON_RESIDUAL_TOL = 1e-10


def _refine_orbit(c_mids, guesses):
    """Coupled float-Newton refresh of each orbit at its box midpoint.

    c_mids is a (B,) and guesses a (B, p) complex array.  Returns (orbits,
    converged); a row keeps its refined orbit even on failure, so
    continuation can keep tracking through regions without a cycle, and
    its guess when the refined orbit is not finite.
    """
    orbits, residual = float_newton_rows(c_mids, guesses)
    finite = np.isfinite(orbits).all(axis=1)
    orbits[~finite] = guesses[~finite]
    return orbits, finite & (residual < _NEWTON_RESIDUAL_TOL)


def _pairwise_disjoint(z):
    """The rows of (4, B, p) orbit boxes whose p boxes are pairwise
    disjoint."""
    return ~np.triu(_meet(z[..., :, None], z[..., None, :]), 1).any(axis=(1, 2))


@dataclass(frozen=True)
class _CycleSeeds:
    """What a tracked-cycle level finds and hands on, row by row: its orbit
    guess, whether its cycle was held, and its orbit boxes, nan on every
    row not held."""

    orbits: np.ndarray  # (B, p) orbit guesses, refined where Newton ran
    held: np.ndarray  # (B,) mask of the rows whose cycle was held
    boxes: np.ndarray  # (4, B, p) endpoint matrix of their orbit boxes

    @staticmethod
    def of(orbits) -> "_CycleSeeds":
        """Orbit guesses alone, with no cycle held."""
        orbits = np.asarray(orbits, dtype=complex)
        return _CycleSeeds(orbits, np.zeros(len(orbits), dtype=bool),
                           np.full((4, *orbits.shape), np.nan))

    def __getitem__(self, rows) -> "_CycleSeeds":
        """The seeds of the given rows, in turn: row j of the result is row
        rows[j]."""
        return _CycleSeeds(self.orbits[rows], self.held[rows], self.boxes[:, rows])


def tracked_cycle_level(boxes: BoxArray, period: int, seeds) -> tuple[_CycleSeeds, np.ndarray]:
    """The tracked period-p cycle over each parameter row of a level: the
    _CycleSeeds of the level's rows, which its children inherit, and the
    Krawczyk images run for each row.

    seeds is the _CycleSeeds of the level's rows, or a (B, p) orbit guess
    per row, with no cycle held.  A row whose parent's cycle was held
    starts Krawczyk from the parent's orbit boxes.  An image strictly
    inside them proves a unique cycle in them for every c of the row's
    box, and they hold the parent's cycle at every such c, so it is the
    parent's cycle (Krawczyk uniqueness: Moore, SIAM J. Numer. Anal. 14,
    1977; Rump, Acta Numerica 19, 2010), found with no float Newton.  Every
    other row, and every row whose inherited certification is not held,
    refines its orbit guess by float Newton at its box midpoint, and
    where Newton converges, Krawczyk certifies the cycle over the whole
    box from the refined orbit given as points, which krawczyk_cycle_rows
    widens to boxes sized by the row's parameter spread.  The coupled
    system is also solved by a shorter cycle traversed several times,
    which puts one point in two boxes, so only pairwise disjoint orbit
    boxes are held (the exact period).  Both Krawczyk calls take the row's
    box width, at least 1e-9, as its inflation radius.  Every step runs on
    the whole level, its kernel and Newton rows _CHUNK at a time, is
    skipped when it has no rows, and decides each row as it would by
    itself.  The orbit boxes are a (4, B, p) endpoint matrix, rows re lo,
    im lo, re hi, im hi, with the orbit point on the last axis.
    """
    count = len(boxes)
    if not isinstance(seeds, _CycleSeeds):
        seeds = _CycleSeeds.of(seeds)
    if seeds.orbits.shape != (count, period):
        raise ValueError("orbit guess length must equal the period")
    radius = np.maximum(1e-9, boxes.width())
    effort = np.zeros(count, dtype=np.int64)
    held = np.zeros(count, dtype=bool)
    z = np.full((4, count, period), np.nan)

    def certify(rows, start):
        """Krawczyk from the start boxes of rows: marks the held rows among
        them and writes their orbit boxes into place."""
        if len(rows):
            certified, k, images = krawczyk_cycle_rows(boxes[rows], start, radius[rows])
            effort[rows] += images
            won = certified & _pairwise_disjoint(k)
            held[rows], z[:, rows[won]] = won, k[:, won]

    rows = np.flatnonzero(seeds.held)
    certify(rows, seeds.boxes[:, rows])
    mids = np.empty(count, dtype=complex)
    mids.real, mids.imag = _mid_arr(*boxes.re), _mid_arr(*boxes.im)
    rows = np.flatnonzero(~held)
    if len(rows) == count > 0:  # Newton takes the guesses whole, with no copy
        orbits, converged = _refine_orbit(mids, seeds.orbits)
    else:
        orbits, converged = seeds.orbits.copy(), np.zeros(count, dtype=bool)
        if len(rows):
            orbits[rows], converged[rows] = _refine_orbit(mids[rows], orbits[rows])
    rows = np.flatnonzero(converged)
    # the start boxes are the converged orbits as points, which
    # krawczyk_cycle_rows sizes by each row's parameter spread
    points = orbits[rows]
    certify(rows, np.stack([points.real, points.imag] * 2))
    return _CycleSeeds(orbits, held, z), effort


# The statuses of a level are read at once from the endpoint matrix of its
# orbit boxes, in the BoxArray arithmetic and its endpoint-pair helpers.  A
# read with a non-finite endpoint, where an enclosure overflowed or a row
# holds no cycle (its boxes are nan), decides nothing.


def _modulus_statuses(cycles: _CycleSeeds) -> np.ndarray:
    """Per row of a level: 'T' for a strictly attracting and 'F' for a
    strictly repelling certified cycle, by its squared modulus product;
    'U' when that enclosure holds 1, or with no cycle held."""
    m_lo, m_hi = squared_modulus_rows(cycles.boxes)
    finite = np.isfinite(m_lo) & np.isfinite(m_hi)
    return np.where(finite & (m_hi < 1.0), "T", np.where(finite & (m_lo > 1.0), "F", "U"))


def _excluded_statuses(cycles: _CycleSeeds) -> np.ndarray:
    """Per row of a level: 'T' when the squared modulus enclosure of the
    certified cycle excludes 1 (either side)."""
    return np.where(_modulus_statuses(cycles) == "U", "U", "T")


def _nonreal_statuses(cycles: _CycleSeeds, region: ComplexBox | None) -> np.ndarray:
    """Per row of a level: 'T' when the box of z_0 of the certified period-6
    cycle lies in the region and the enclosure of Im (f_c^6)'(z_0) excludes
    0."""
    m = multiplier_rows(cycles.boxes)
    ok = m.finite() & ((m.im[0] > 0.0) | (m.im[1] < 0.0))
    if region is not None:
        ok &= _within(cycles.boxes[:, :, 0], _matrix(region), False)
    return np.where(ok, "T", "U")


def _witness(c: ComplexBox, period: int, orbit) -> Status:
    """The modulus status of the tracked cycle on one box (_modulus_statuses);
    UNDETERMINED without a certified cycle."""
    cycles, _ = tracked_cycle_level(BoxArray.of([c]), period, [orbit])
    return Status(_modulus_statuses(cycles)[0])


def component_witnesses(red_cert, period: int, center: complex) -> tuple[int, Status, Status]:
    """The checks that a parabolic-exclusion certificate shows the two
    period-p components of its rect.

    Returns the number of connected TRUE components of red_cert, then the
    _witness statuses of the cycle through the critical orbit of the
    superattracting center: on a 1e-10 box about the center (the
    attracting witness, TRUE), and on the lower-left 1/16 corner of the
    rect (the repelling witness, FALSE).  Either is FALSE only for a
    certified cycle with squared modulus above 1.
    """
    rect = red_cert.root
    orbit = float_orbit_of_zero(center, period)
    attracting = _witness(ComplexBox.around(center, 1e-10), period, orbit)
    corner = ComplexBox(
        Interval(rect.re.lo, rect.re.lo + rect.re.width() / 16.0),
        Interval(rect.im.lo, rect.im.lo + rect.im.width() / 16.0),
    )
    repelling = _witness(corner, period, orbit)
    return len(component_rollup(red_cert, Status.TRUE)), attracting, repelling


# ---------------------------------------------------------------------------
# claim adapters for the subdivision engine
# ---------------------------------------------------------------------------


def _text(value) -> str:
    """A claim parameter as its certificate header writes it."""
    if isinstance(value, ComplexBox):
        return f"{value.re.lo},{value.re.hi},{value.im.lo},{value.im.hi}"
    if isinstance(value, complex):
        return f"{value.real},{value.imag}"
    return str(value)


class _Claim:
    """Base of the scan claims, dataclasses whose fields are their
    certificate parameters: config() is the header text of each field that
    is set, and a claim without continuation seeds its root with None."""

    def config(self) -> dict:
        return {field.name: _text(value) for field in fields(self)
                if (value := getattr(self, field.name)) is not None}

    def initial_seed(self, rect: ComplexBox):
        return None


@dataclass
class BoundaryDisjointClaim(_Claim):
    """Scan claim: f_c^n(dU) disjoint from dU (the cyan/green/blue test).

    A level's seeds are the _Walked of its boundary walks: each row's
    inside and outside flags and open blocks, which the scan hands to the
    children as the rows of their parents.  The root starts from the four
    edges of dU.  Each box's status is the one of a walk from the edges
    (see boundary_disjoint_level), and its effort counts the segments
    that its own level evaluated."""

    u: ComplexBox
    n: int
    segment_depth: int = 14
    name = "qlike-boundary"

    def evaluate_level(self, boxes, seeds):
        return boundary_disjoint_level(boxes, self.u, self.n, self.segment_depth, seeds)


@dataclass
class FixedPointCountClaim(_Claim):
    """Scan claim: the even iterate has exactly `expect` fixed points in
    the region, all simple, for every parameter of the box.

    A level is one count_zeros call on f_c^n(z) - z, with contour_depth
    as the depth cap of its quadtree over the region: a box is TRUE when
    its count is expect, and its effort is the count's box evaluations.
    It seeds nothing.  Pre-split scans of it (min_depth) keep each box's
    fixed point within reach of one Krawczyk box.
    """

    region: ComplexBox
    n: int
    expect: int = 1
    contour_depth: int = 10

    @property
    def name(self) -> str:
        return f"fixed-point-count-f{self.n}"

    def evaluate_level(self, boxes, seeds):
        found = count_zeros(_fixed_points(self.n), boxes, self.region, self.contour_depth)
        return np.where(found.count == self.expect, "T", "U"), found.effort, None


def _initial_seed(rect: ComplexBox, orbit: list[complex]) -> np.ndarray:
    """The orbit refined at the rect's midpoint: the (1, p) root seed of a
    tracked scan."""
    orbits, _ = _refine_orbit(np.array([rect.midpoint()]), np.array([orbit], dtype=complex))
    return orbits


@dataclass
class ParabolicExclusionClaim(_Claim):
    """Scan claim: tracked period-p cycle avoids multiplier one (red = U).
    A level is one tracked_cycle_level call, and its seeds are the
    _CycleSeeds it hands on.  A box is TRUE exactly where its certified
    cycle's squared modulus product excludes 1 (_excluded_statuses).  The
    root is seeded by the critical orbit of the period-p center that Newton
    finds from the rect's midpoint, so the certificate's rect and period
    fix the seed; the center need not lie in the rect."""

    period: int

    @property
    def name(self) -> str:
        return f"parabolic-excluded-p{self.period}"

    def initial_seed(self, rect: ComplexBox):
        center = find_superattracting_parameter(self.period, rect.midpoint())
        if center is None:
            raise ValueError("no superattracting seed parameter found from the midpoint")
        return _initial_seed(rect, float_orbit_of_zero(center, self.period))

    def evaluate_level(self, boxes, seeds):
        cycles, effort = tracked_cycle_level(boxes, self.period, seeds)
        return _excluded_statuses(cycles), effort, cycles


@dataclass
class MultiplierNonRealClaim(_Claim):
    """Scan claim: multiplier of the f^6 fixed point is non-real (yellow = U).
    A level is one tracked_cycle_level call of period 6, and its seeds
    are the _CycleSeeds it hands on.  A guess whose float orbit overflows
    seeds orbits of nan, which track no cycle."""

    region: ComplexBox | None = None
    guess: complex = 0.04 + 0.04j
    name = "multiplier-nonreal-p6"

    def initial_seed(self, rect: ComplexBox):
        c = rect.midpoint()
        try:
            orbit = [float_iterate(c, self.guess, k) for k in range(6)]
        except OverflowError:
            orbit = [complex(math.nan, math.nan)] * 6
        return _initial_seed(rect, orbit)

    def evaluate_level(self, boxes, seeds):
        cycles, effort = tracked_cycle_level(boxes, 6, seeds)
        return _nonreal_statuses(cycles, self.region), effort, cycles


# ---------------------------------------------------------------------------
# the qlike and disjointness certificates, and the proof of the qlike anchor
# ---------------------------------------------------------------------------


# the anchor's float critical orbit seeds its cycle: p is the least return
# up to _SEED_MAX_PERIOD within _SEED_TOL of the point _SEED_STEPS steps out
_SEED_STEPS, _SEED_MAX_PERIOD, _SEED_TOL = 4096, 64, 1e-6
# why an anchor proof fails, by the status of its cycle's squared modulus
_MODULUS_FAILURES = {None: "uncertified", "F": "repelling", "U": "modulus-straddles-1"}


def _critical_seed(c: complex) -> list[complex] | None:
    """One period of the float critical orbit of f_c past its transient, in
    the phase of the critical point: its entry i is the point reached after
    a multiple of p plus i steps.  None when the orbit leaves the disk of
    radius max(2, |c|), from which it escapes, or shows no period."""
    orbit, escape = [0j], max(2.0, abs(c))
    for _ in range(_SEED_STEPS + _SEED_MAX_PERIOD):
        orbit.append(float_f(c, orbit[-1]))
        if not abs(orbit[-1]) <= escape:
            return None
    tail = orbit[_SEED_STEPS:]
    for p in range(1, len(tail)):
        if abs(tail[p] - tail[0]) < _SEED_TOL:
            shift = -_SEED_STEPS % p
            return tail[shift:p] + tail[:shift]
    return None


def _anchor_cycle(point: ComplexBox, u: ComplexBox, n: int, seed) -> dict[str, str]:
    """Condition (iv) of qlike_certificate at the anchor's point box, from
    the float seed of a cycle: anchor_proof, and with a proof the cycle's
    entries (see _anchor_proof)."""
    p = len(seed)
    cycles, _ = tracked_cycle_level(BoxArray.of([point]), p, [seed])
    modulus = _modulus_statuses(cycles)[0] if cycles.held[0] else None
    if modulus != "T":
        return {"anchor_proof": _MODULUS_FAILURES[modulus]}
    z = cycles.boxes[:, 0]
    inside = _within(z, _matrix(u), True)
    residue = next((r for r in range(n) if inside[r::n].all()), None)
    if residue is None:
        return {"anchor_proof": "cycle-leaves-u"}
    m_lo, m_hi = squared_modulus_rows(cycles.boxes)
    # (re lo, re hi, im lo, im hi) of each box of z_r, z_{r+n}, ... in turn
    ends = z[[0, 2, 1, 3], residue::n].T.ravel()
    return {"anchor_proof": "proven", "anchor_period": str(p), "anchor_residue": str(residue),
            "anchor_cycle": " ".join(map(_hex, ends)),
            "anchor_modulus": f"{_hex(m_lo[0])} {_hex(m_hi[0])}"}


@np.errstate(over="ignore", invalid="ignore")
def _anchor_proof(c: complex, u: ComplexBox, n: int, segment_depth: int) -> dict[str, str]:
    """The #config entries of the anchor proof of qlike_certificate at c.

    anchor_preimage_count is the count of (ii), and anchor_proof is
    'proven' or the first condition that fails: 'boundary' (i),
    'preimage-count' (ii), 'critical-value' (iii), 'seed' (the float
    critical orbit gives no period that n divides), then 'uncertified',
    'repelling', 'modulus-straddles-1' or 'cycle-leaves-u' (iv).  A proof
    also records the cycle of (iv): anchor_period p, anchor_residue r,
    anchor_cycle the hex endpoints (re lo, re hi, im lo, im hi) of the
    boxes of z_r, z_{r+n}, ... in turn, and anchor_modulus the hex
    endpoints of the squared modulus enclosure.  z_i is the cycle point
    that the critical orbit nears after a multiple of p plus i steps, so
    residue 0 is the g-cycle that the g-orbit of 0 follows.
    """
    point = ComplexBox.point(c)
    cs = BoxArray.of([point])
    entries = {"anchor_preimage_count": str(preimage_count(point, 0j, u, n))}
    _, walked = _walk_level(cs, u, n, segment_depth, None)
    z = BoxArray.of([ComplexBox.point(0j)])
    for _ in range(n):
        z = z.sqr().conj() + cs
    if walked.inside[0] or not walked.outside[0] or len(walked.blocks):
        reason = "boundary"
    elif entries["anchor_preimage_count"] != "2":
        reason = "preimage-count"
    elif not z.within(u, strict=True)[0]:
        reason = "critical-value"
    elif (seed := _critical_seed(c)) is None or len(seed) % n:
        reason = "seed"
    else:
        return {**entries, **_anchor_cycle(point, u, n, seed)}
    return {**entries, "anchor_proof": reason}


def qlike_certificate(
    param_rect: ComplexBox,
    u: ComplexBox,
    n: int,
    anchor: complex,
    max_depth: int,
    min_width: float = 0.0,
    segment_depth: int = BoundaryDisjointClaim.segment_depth,
):
    """Certificate that f_c^n restricts quadratic-likely to U over the rect,
    about a renormalizable anchor.  Returns a ParamCertificate.

    Every leaf must pass the boundary-disjointness test.  TRUE leaves stay
    TRUE only when, with g = f_c^n at c = anchor (a point box):
    (i) every piece of dU maps strictly off the closure of U (the boundary
        walk decides all of dU outside);
    (ii) preimage_count of 0 in U is 2;
    (iii) g(0) lies strictly in U;
    (iv) one tracked_cycle_level row certifies a cycle z_0, ..., z_{p-1}
        of f_c, seeded by the float critical orbit: p is a multiple of n,
        the boxes are pairwise disjoint, the squared modulus product
        (prod 2|z_i|)^2 is below 1, and the boxes of z_r, z_{r+n}, ... (a
        cycle of g) lie strictly in U for one residue r.
    Then K(g) is connected (Douady and Hubbard, "On the dynamics of
    polynomial-like mappings", Ann. Sci. ENS 18, 1985):
    - g is a polynomial map (the conjugate of one for odd n), so each
      component V of g^-1(U) maps properly onto U and holds a preimage of
      0; preimages count with multiplicity.  By (i), g(dU) misses the
      closure of U, so no V meets dU: each V lies in U or off its closure.
    - By (iii), 0 lies in a component U' inside U, where the critical
      point 0 gives g local degree 2.  By (ii), U' holds both preimages of
      0 in U, so it is the only component inside U: g^-1(U) and U meet in
      U' alone, and g: U' -> U is quadratic-like (a point of dU' on dU
      would map into dU, against (i)).
    - The cycle of (iv) lies in U and maps into U, so it lies in U' and
      in K(g).  The holomorphic g o g is polynomial-like of degree 4 with
      K(g o g) = K(g), and the cycle is attracting for it: its multiplier
      modulus is prod 2|z_i| or its square, and (prod 2|z_i|)^2 < 1.  So
      its immediate basin, part of K(g), holds a critical point of g o g:
      0 or a g-preimage of 0.  Either way 0, the only critical point of g
      on U', lies in K(g), so K(g) is connected.
    The proof speaks for the anchor's own component of TRUE leaves
    (component_rollup): a component none of whose closed boxes holds the
    anchor has no anchor, and its leaves become UNDETERMINED.  The header
    records the anchor and the entries of _anchor_proof, so the proof can
    be checked again from the certificate.
    """
    if not param_rect.contains(anchor):
        raise ValueError("anchor parameter must lie in the parameter rectangle")
    claim = BoundaryDisjointClaim(u, n, segment_depth)
    cert = adaptive_scan(param_rect, claim, max_depth, min_width)
    cert.config["anchor"] = f"{anchor.real!r},{anchor.imag!r}"
    cert.config.update(_anchor_proof(anchor, u, n, segment_depth))
    anchored = np.zeros(len(cert.status), dtype=bool)
    if cert.config["anchor_proof"] == "proven":
        holds = cert.boxes.contains(anchor)
        for part in component_rollup(cert):
            anchored[part] = holds[part].any()
    cert.status = np.where((cert.status == "T") & ~anchored, "U", cert.status)
    return cert


def disjointness_certificate(
    param_rect: ComplexBox,
    period: int,
    x_region: ComplexBox | None,
    max_depth: int,
    min_width: float = 0.0,
):
    """Certify that the possibly-real-multiplier locus and the possibly-
    parabolic locus occupy disjoint closed leaf unions over the rect.

    Returns (status, yellow_cert, red_cert): yellow leaves are the
    Undetermined leaves of the multiplier-realness scan in x_region, red
    leaves the Undetermined leaves of the period parabolic-exclusion scan.
    """
    yellow_cert, red_cert = (
        adaptive_scan(param_rect, claim, max_depth, min_width)
        for claim in (MultiplierNonRealClaim(x_region), ParabolicExclusionClaim(period)))
    yellow, red = (cert.boxes[cert.status != "T"] for cert in (yellow_cert, red_cert))
    # every yellow box against every red box; closures that touch at this
    # budget are Undetermined, and with one locus certified empty the two
    # are vacuously disjoint
    touch = _meet(yellow.e[:, :, None], red.e[:, None]).any()
    status = Status.UNDETERMINED if touch else Status.TRUE
    return status, yellow_cert, red_cert


# ---------------------------------------------------------------------------
# floating-point seeds
# ---------------------------------------------------------------------------


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
    enough for a continuation seed, never used in a certificate.  None when
    Newton fails, also when an iterate overflows the complex power of
    float_f.
    """

    def g(c: complex) -> complex:
        z = 0j
        for _ in range(period):
            z = float_f(c, z)
        return z

    c = c0
    h = 1e-9
    try:
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
    except OverflowError:
        return None
