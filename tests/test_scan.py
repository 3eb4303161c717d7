"""Adaptive subdivision, component rollup, and certificate round-trips."""

import itertools
import struct
from collections import Counter

import pytest

from tricert.intervals import ComplexBox, Interval
from tricert.scan import (
    Leaf,
    ParamCertificate,
    adaptive_scan,
    component_rollup,
    parse,
    serialize,
)
from tricert.verify import ClaimResult, Status

UNIT = ComplexBox(Interval(0.0, 1.0), Interval(0.0, 1.0))


class _PerBox:
    """Base of the synthetic claims, which evaluate one box at a time:
    evaluate_level maps evaluate(box, seed) -> (result, seed) over a level."""

    def evaluate_level(self, boxes, seeds):
        pairs = [self.evaluate(box, seed) for box, seed in zip(boxes, seeds)]
        return [result for result, _ in pairs], [seed for _, seed in pairs]


class _GridClaim(_PerBox):
    """Synthetic claim: refine to target_depth, then classify by a grid
    function of the box midpoint.  Deterministic and cheap."""

    def __init__(self, target_depth, classify):
        self.target_depth = target_depth
        self.classify = classify
        self.name = "synthetic-grid"
        self.calls = 0

    def config(self):
        return {"target_depth": str(self.target_depth)}

    def initial_seed(self, rect):
        return None

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
    stack = [(0, rect, claim.initial_seed(rect))]
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

    def __init__(self):
        self.received = []

    def config(self):
        return {}

    def initial_seed(self, rect):
        return "root"

    def evaluate(self, box, seed):
        self.received.append((box, seed))
        m = box.midpoint()
        k = int(m.real * 1009 + m.imag * 2003)
        return ClaimResult(list(Status)[k % 3], k % 17), box


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
        tree = ParamCertificate("synthetic", UNIT, {}, [left, right, far])
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
