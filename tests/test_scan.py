"""Adaptive subdivision, component rollup, and certificate round-trips."""

import itertools
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricert.cli import PAPER_U
from tricert.intervals import BoxArray, ComplexBox, Interval
from tricert.scan import (
    Leaf,
    ParamCertificate,
    _hex,
    adaptive_scan,
    component_rollup,
    parse,
    serialize,
)
from tricert.verify import BoundaryDisjointClaim, ClaimResult, Status

UNIT = ComplexBox(Interval(0.0, 1.0), Interval(0.0, 1.0))


def _objects(values) -> np.ndarray:
    """The values as a 1-D object array, which the scan indexes by rows."""
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


class _PerBox:
    """Base of the synthetic claims, which evaluate one box at a time:
    evaluate_level maps evaluate(box, seed) -> (result, seed) over the rows
    of a level, to arrays of status letters and efforts and an object
    array of seeds."""

    def initial_seed(self, rect):
        return _objects([self.root_seed])

    def evaluate_level(self, boxes, seeds):
        pairs = [self.evaluate(box, seed) for box, seed in zip(boxes.boxes(), seeds)]
        return (np.array([result.status.value for result, _ in pairs], dtype="<U1"),
                np.array([result.effort for result, _ in pairs], dtype=np.int64),
                _objects([seed for _, seed in pairs]))


class _GridClaim(_PerBox):
    """Synthetic claim: refine to target_depth, then classify by a grid
    function of the box midpoint.  Deterministic and cheap."""

    def __init__(self, target_depth, classify):
        self.target_depth = target_depth
        self.classify = classify
        self.name = "synthetic-grid"
        self.calls = 0

    root_seed = None

    def config(self):
        return {"target_depth": str(self.target_depth)}

    def evaluate(self, box, seed):
        self.calls += 1
        if box.width() > (1.0 / 2 ** self.target_depth) * 1.001:
            return ClaimResult(Status.UNDETERMINED), None
        return ClaimResult(self.classify(box.midpoint())), None


def _checkerboard(depth):
    def classify(z):
        i = int(z.real * 2 ** depth)
        j = int(z.imag * 2 ** depth)
        return Status.TRUE if (i + j) % 2 == 0 else Status.FALSE

    return _GridClaim(depth, classify)


def _flood_fill_components(cells):
    """Brute-force 4-neighbor component count over a set of (i, j) cells."""
    remaining = set(cells)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    stack.append(nb)
    return count


def _depth_first_scan(rect, claim, max_depth, min_width=0.0, min_depth=0):
    """The depth-first walk that preceded the level-synchronous one in
    tricert.scan, kept as the oracle of its leaves and their order."""
    leaves = []
    stack = [(0, rect, claim.initial_seed(rect)[0])]
    while stack:
        depth, box, seed = stack.pop()
        result = None
        if depth >= min_depth:
            result, seed = claim.evaluate(box, seed)
        refine = result is None or (
            result.status is Status.UNDETERMINED
            and depth < max_depth
            and box.width() > min_width
        )
        if refine:
            # reversed, so the first quadrant is popped first
            for child in reversed(box.quarter()):
                stack.append((depth + 1, child, seed))
        else:
            leaves.append(Leaf(depth, box, result.status, result.effort))
    return leaves


class _SeedClaim(_PerBox):
    """Synthetic claim that hands each box itself as its children's seed,
    records the seed every box receives, and classifies by a hash of the
    box midpoint, Undetermined on about a third of the boxes."""

    name = "synthetic-seed"
    root_seed = "root"

    def __init__(self):
        self.received = []

    def config(self):
        return {}

    def evaluate(self, box, seed):
        self.received.append((box, seed))
        m = box.midpoint()
        k = int(m.real * 1009 + m.imag * 2003)
        return ClaimResult(list(Status)[k % 3], k % 17), box


def _per_box_scan(rect, claim, max_depth, min_width=0.0, min_depth=0):
    """The level-synchronous scan on per-box objects that preceded the
    array scan in tricert.scan, kept verbatim (but for building the
    certificate from its Leaf list) as the bitwise oracle of its leaves
    and their order.  Its claims evaluate lists of boxes and seeds to
    ClaimResults (see _PerBoxProtocol)."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not 0 <= min_depth <= max_depth:
        raise ValueError("min_depth must lie in [0, max_depth]")
    leaves: list[tuple[tuple[int, ...], Leaf]] = []
    frontier = [((), rect, claim.initial_seed(rect))]
    depth = 0
    while frontier:
        paths, boxes, seeds = (list(column) for column in zip(*frontier))
        results = [None] * len(boxes)
        if depth >= min_depth:
            results, seeds = claim.evaluate_level(boxes, seeds)
        frontier = []
        for path, box, result, seed in zip(paths, boxes, results, seeds):
            if result is None or (
                result.status is Status.UNDETERMINED
                and depth < max_depth
                and box.width() > min_width
            ):
                frontier += [(path + (k,), child, seed)
                             for k, child in enumerate(box.quarter())]
            else:
                leaves.append((path, Leaf(depth, box, result.status, result.effort)))
        depth += 1
    leaves.sort(key=lambda item: item[0])

    config = {
        "max_depth": str(max_depth),
        "min_depth": str(min_depth),
        "min_width": repr(min_width),
    }
    config.update(claim.config())
    return ParamCertificate.of(claim.name, rect, config, [leaf for _, leaf in leaves])


def _per_box_serialize(cert: ParamCertificate) -> bytes:
    """The serialize that wrote one leaf line per Leaf object, kept verbatim
    as the bitwise oracle of the array serialize."""
    lines = [
        f"#claim={cert.claim}",
        "#rect=" + " ".join(
            _hex(v)
            for v in (cert.root.re.lo, cert.root.re.hi, cert.root.im.lo, cert.root.im.hi)
        ),
        f"#tool={cert.tool}",
    ]
    for key in sorted(cert.config):
        lines.append(f"#config.{key}={cert.config[key]}")
    lines.append(f"#leaves={len(cert.leaves)}")
    for index, leaf in enumerate(cert.leaves):
        b = leaf.box
        lines.append(
            f"{leaf.depth} {index} {leaf.status.value} "
            f"{_hex(b.re.lo)} {_hex(b.re.hi)} {_hex(b.im.lo)} {_hex(b.im.hi)}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


class _PerBoxProtocol:
    """A claim of the array protocol seen through the per-box protocol of
    _per_box_scan: a level is a list of boxes and one of seeds, its results
    are ClaimResults, and a box's seed is the pair (seeds of a level, row).
    Every box of a level holds a row of the same seeds: the root's above
    the first evaluated level, its parent level's below."""

    def __init__(self, claim):
        self.claim, self.name = claim, claim.name

    def config(self):
        return self.claim.config()

    def initial_seed(self, rect):
        return self.claim.initial_seed(rect), 0

    def evaluate_level(self, boxes, seeds):
        [level] = {id(level): level for level, _ in seeds}.values()
        rows = np.array([row for _, row in seeds], dtype=np.int64)
        status, effort, children = self.claim.evaluate_level(
            BoxArray.of(boxes), None if level is None else level[rows])
        return ([ClaimResult(Status(s), e) for s, e in zip(status.tolist(), effort.tolist())],
                [(children, row) for row in range(len(boxes))])


def _scan_settings():
    for min_depth, max_depth in itertools.product(range(3), range(5)):
        if min_depth <= max_depth:
            for min_width in (0.0, 0.2, 0.07):
                yield max_depth, min_width, min_depth


class TestScanOrderOracle:
    @pytest.mark.parametrize("max_depth,min_width,min_depth", list(_scan_settings()))
    def test_grid_claim_matches_depth_first(self, max_depth, min_width, min_depth):
        mixed = lambda z: list(Status)[int(z.real * 7 + z.imag * 13) % 3]
        level, oracle = _GridClaim(3, mixed), _GridClaim(3, mixed)
        cert = adaptive_scan(UNIT, level, max_depth, min_width, min_depth)
        assert cert.leaves == _depth_first_scan(UNIT, oracle, max_depth, min_width, min_depth)
        assert level.calls == oracle.calls

    @pytest.mark.parametrize("max_depth,min_width,min_depth", list(_scan_settings()))
    def test_seeds_match_depth_first(self, max_depth, min_width, min_depth):
        level, oracle = _SeedClaim(), _SeedClaim()
        cert = adaptive_scan(UNIT, level, max_depth, min_width, min_depth)
        assert cert.leaves == _depth_first_scan(UNIT, oracle, max_depth, min_width, min_depth)
        assert len(level.received) == len(oracle.received)
        assert Counter(level.received) == Counter(oracle.received)
        # a box receives the root seed above the first evaluated level, and
        # its parent box below it
        top = UNIT.width() / 2 ** min_depth
        for box, seed in level.received:
            if seed == "root":
                assert box.width() == top
            else:
                assert box in seed.quarter()


# rects of any size on both sides of the origin, and about the qlike-wide
# rect, where the boundary walks give all three statuses
_RECTS = st.builds(lambda x, y, w, h: ComplexBox(Interval(x, x + w), Interval(y, y + h)),
                   st.floats(-2.0, 1.0), st.floats(-1.0, 1.0),
                   st.floats(1e-9, 2.0), st.floats(1e-9, 2.0))
_QLIKE_RECTS = st.builds(lambda x, y, w, h: ComplexBox(Interval(x, x + w), Interval(y, y + h)),
                         st.floats(-1.85, -1.65), st.floats(-0.1, 0.1),
                         st.floats(1e-4, 0.15), st.floats(1e-4, 0.15))


@st.composite
def _scan_args(draw, rects):
    """A rect with max_depth, min_width (none, or a fraction of the rect's
    width) and min_depth."""
    rect = draw(rects)
    max_depth = draw(st.integers(0, 5))
    min_width = draw(st.sampled_from((0.0, 0.3, 0.1, 0.02))) * rect.width()
    return rect, max_depth, min_width, draw(st.integers(0, max_depth))


def _hashed(z):
    return list(Status)[int(abs(z.real) * 1009 + abs(z.imag) * 2003) % 3]


@pytest.mark.parametrize("make, rects", [
    (lambda: _GridClaim(3, _hashed), _RECTS),
    (_SeedClaim, _RECTS),
    (lambda: BoundaryDisjointClaim(PAPER_U, 3, 6), _QLIKE_RECTS),
], ids=["grid", "seed", "qlike"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_scan_matches_per_box_scan(make, rects, data):
    # leaves, leaf order and certificate bytes are those of the per-box scan
    rect, max_depth, min_width, min_depth = data.draw(_scan_args(rects))
    cert = adaptive_scan(rect, make(), max_depth, min_width, min_depth)
    oracle = _per_box_scan(rect, _PerBoxProtocol(make()), max_depth, min_width, min_depth)
    assert cert.leaves == oracle.leaves
    assert serialize(cert) == _per_box_serialize(oracle)


class _PointClaim:
    """Synthetic claim of the array protocol: Undetermined on the boxes that
    hold the point, elsewhere TRUE left of re = 1/2 and FALSE right of it."""

    name = "synthetic-point"

    def __init__(self, point):
        self.point = point

    def config(self):
        return {}

    def initial_seed(self, rect):
        return None

    def evaluate_level(self, boxes, seeds):
        status = np.where(boxes.contains(self.point), "U", np.where(boxes.re[0] < 0.5, "T", "F"))
        return status, np.arange(len(boxes), dtype=np.int64), None


def _unit_path(box: ComplexBox, depth: int) -> tuple[int, ...]:
    """The quadtree path in UNIT of a box at the depth, read off the bits of
    its lower-left corner: quadrant 1 is east, 2 north."""
    i, j = int(box.re.lo * 2 ** depth), int(box.im.lo * 2 ** depth)
    return tuple(((i >> k) & 1) + 2 * ((j >> k) & 1) for k in reversed(range(depth)))


@pytest.mark.parametrize("point", [0j, 1 + 0j, 1j, 1 + 1j, complex(1 / 3, 2 / 3)])
def test_deep_scan_keeps_path_order(point):
    # 40 levels along the path of one point (a corner, or one with mixed
    # quadrants): deeper than a path key of 2 bits a level packed in an
    # int64 could go
    cert = adaptive_scan(UNIT, _PointClaim(point), 40)
    leaves = cert.leaves
    assert (len(leaves), max(leaf.depth for leaf in leaves)) == (121, 40)
    paths = [_unit_path(leaf.box, leaf.depth) for leaf in leaves]
    assert paths == sorted(paths) and len(set(paths)) == len(paths)
    oracle = _per_box_scan(UNIT, _PerBoxProtocol(_PointClaim(point)), 40)
    assert leaves == oracle.leaves
    data = serialize(cert)
    assert data == _per_box_serialize(oracle)
    back = parse(data)
    assert serialize(back) == data
    assert ([(leaf.depth, leaf.box, leaf.status) for leaf in back.leaves]
            == [(leaf.depth, leaf.box, leaf.status) for leaf in leaves])


class TestAdaptiveScan:
    def test_depth_zero_single_leaf(self):
        claim = _GridClaim(0, lambda z: Status.TRUE)
        tree = adaptive_scan(UNIT, claim, 0)
        assert len(tree.leaves) == 1
        assert tree.rollup() is Status.TRUE

    def test_budget_exhaustion_keeps_undetermined(self):
        claim = _GridClaim(5, lambda z: Status.TRUE)
        tree = adaptive_scan(UNIT, claim, 2)
        assert tree.rollup() is Status.UNDETERMINED
        assert all(leaf.depth == 2 for leaf in tree.leaves)

    def test_min_depth_splits_without_evaluating(self):
        claim = _GridClaim(0, lambda z: Status.TRUE)
        tree = adaptive_scan(UNIT, claim, 3, min_depth=2)
        assert claim.calls == 16
        assert len(tree.leaves) == 16
        assert all(leaf.depth == 2 for leaf in tree.leaves)

    def test_min_depth_bounds_checked(self):
        claim = _GridClaim(0, lambda z: Status.TRUE)
        with pytest.raises(ValueError):
            adaptive_scan(UNIT, claim, 2, min_depth=3)

    def test_tiling_is_exact(self):
        tree = adaptive_scan(UNIT, _checkerboard(3), 3)
        area = sum(
            (leaf.box.re.hi - leaf.box.re.lo) * (leaf.box.im.hi - leaf.box.im.lo)
            for leaf in tree.leaves
        )
        assert area == 1.0
        boxes = [leaf.box for leaf in tree.leaves]
        assert min(b.re.lo for b in boxes) == UNIT.re.lo and max(b.re.hi for b in boxes) == UNIT.re.hi
        assert min(b.im.lo for b in boxes) == UNIT.im.lo and max(b.im.hi for b in boxes) == UNIT.im.hi

    def test_leaf_at_prefers_deepest(self):
        tree = adaptive_scan(UNIT, _checkerboard(2), 2)
        leaf = tree.leaf_at(0.1 + 0.1j)
        assert leaf.box.contains(0.1 + 0.1j)
        with pytest.raises(ValueError):
            tree.leaf_at(5 + 5j)


class TestComponentRollup:
    def test_all_true_single_component(self):
        claim = _GridClaim(2, lambda z: Status.TRUE)
        tree = adaptive_scan(UNIT, claim, 2)
        assert len(component_rollup(tree, Status.TRUE)) == 1

    def test_checkerboard_matches_flood_fill(self):
        for depth in (2, 3):
            tree = adaptive_scan(UNIT, _checkerboard(depth), depth)
            components = component_rollup(tree, Status.TRUE)
            cells = set()
            for leaf in (l for l in tree.leaves if l.status is Status.TRUE):
                m = leaf.box.midpoint()
                cells.add((int(m.real * 2 ** depth), int(m.imag * 2 ** depth)))
            assert len(components) == _flood_fill_components(cells)
            # corner contact does not merge diagonal neighbors
            assert len(components) == 2 ** (2 * depth - 1)

    def test_mixed_depth_adjacency(self):
        # one deep TRUE leaf next to a shallow TRUE leaf sharing an edge
        left = Leaf(2, ComplexBox(Interval(0.0, 0.25), Interval(0.0, 0.25)), Status.TRUE)
        right = Leaf(1, ComplexBox(Interval(0.25, 0.5), Interval(0.0, 0.5)), Status.TRUE)
        far = Leaf(1, ComplexBox(Interval(0.5, 1.0), Interval(0.75, 1.0)), Status.TRUE)
        tree = ParamCertificate.of("synthetic", UNIT, {}, [left, right, far])
        assert len(component_rollup(tree, Status.TRUE)) == 2


class TestCertificates:
    def _sample(self):
        return adaptive_scan(UNIT, _checkerboard(3), 3)

    def test_round_trip_is_byte_identical(self):
        cert = self._sample()
        data = serialize(cert)
        again = serialize(parse(data))
        assert data == again

    def test_round_trip_preserves_content(self):
        cert = self._sample()
        back = parse(serialize(cert))
        assert back.claim == cert.claim
        assert back.root == cert.root
        assert back.config == cert.config
        assert len(back.leaves) == len(cert.leaves)
        for a, b in zip(back.leaves, cert.leaves):
            assert a.depth == b.depth
            assert a.box == b.box
            assert a.status is b.status

    def test_hex_endpoints_are_bit_exact(self):
        cert = self._sample()
        back = parse(serialize(cert))
        for a, b in zip(back.leaves, cert.leaves):
            assert struct.pack(">d", a.box.re.lo) == struct.pack(">d", b.box.re.lo)

    def test_leaf_count_mismatch_detected(self):
        data = serialize(self._sample()).decode()
        lines = data.splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        tampered = "\n".join(
            ln for ln in lines if ln != body[-1]
        ) + "\n"
        with pytest.raises(ValueError):
            parse(tampered.encode())

    @pytest.mark.parametrize("field, value, error", [
        (1, "7", "index"), (1, "0_1", "index"), (0, "-1", "depth")])
    def test_mutated_leaf_line_rejected(self, field, value, error):
        # the second leaf's line with index 7 or 0_1 (which int() reads as
        # 1), or depth -1, in place of its own
        lines = serialize(self._sample()).decode().splitlines()
        second = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1]
        fields = lines[second].split(" ")
        fields[field] = value
        lines[second] = " ".join(fields)
        with pytest.raises(ValueError, match=error) as raised:
            parse(("\n".join(lines) + "\n").encode())
        assert lines[second] in str(raised.value)

    def test_empty_leaf_rejected(self):
        # [inf, -inf] endpoints are no box: such a leaf must not parse, let
        # alone as a TRUE leaf that rollup counts
        inf, ninf = "7ff0000000000000", "fff0000000000000"
        rect = " ".join(struct.pack(">d", v).hex() for v in (0.0, 1.0, 0.0, 1.0))
        data = f"#claim=x\n#rect={rect}\n#leaves=1\n0 0 T {inf} {ninf} {inf} {ninf}\n"
        with pytest.raises(ValueError):
            parse(data.encode())

    def test_unknown_header_rejected(self):
        # certificates record no assumptions: a legacy #assumption= line is
        # refused like any unknown header
        for header in (b"#mystery=1", b"#assumption=x"):
            with pytest.raises(ValueError):
                parse(b"#claim=x\n" + header + b"\n")

    def test_all_true_leaves_roll_up_true(self):
        claim = _GridClaim(1, lambda z: Status.TRUE)
        cert = adaptive_scan(UNIT, claim, 1)
        assert cert.rollup() is Status.TRUE
        assert component_rollup(cert, Status.TRUE) == [[0, 1, 2, 3]]
