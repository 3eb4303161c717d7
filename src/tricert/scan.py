"""Adaptive quadtree subdivision of parameter rectangles.

The engine is generic over claims: a claim evaluates a whole level of
parameter boxes at once to ClaimResults and hands each box's continuation
seed to the children of that box.  Only Undetermined boxes are refined,
children always in (SW, SE, NW, NE) order, and the leaves are listed in
the order of their quadtree paths, so two runs with the same configuration
produce bit-identical certificates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from .intervals import ComplexBox, Interval

__all__ = [
    "TOOL_VERSION",
    "Status",
    "ClaimResult",
    "Leaf",
    "ParamCertificate",
    "adaptive_scan",
    "component_rollup",
    "serialize",
    "parse",
]

TOOL_VERSION = "tricert-0.1.0"


def _hex(x: float) -> str:
    return struct.pack(">d", x).hex()


def _unhex(s: str) -> float:
    return struct.unpack(">d", bytes.fromhex(s))[0]


class Status(Enum):
    TRUE = "T"
    FALSE = "F"
    UNDETERMINED = "U"


@dataclass(frozen=True)
class ClaimResult:
    status: Status
    effort: int = 0


@dataclass(frozen=True)
class Leaf:
    depth: int
    box: ComplexBox
    status: Status
    effort: int = 0


@dataclass
class ParamCertificate:
    """Leaves of an adaptive scan, tiling the root rectangle exactly, with
    the claim metadata that makes them reproducible."""

    claim: str
    root: ComplexBox
    config: dict
    leaves: list[Leaf]
    tool: str = TOOL_VERSION

    def rollup(self) -> Status:
        """TRUE only if every leaf is TRUE; FALSE if some leaf is FALSE."""
        if all(leaf.status is Status.TRUE for leaf in self.leaves):
            return Status.TRUE
        if any(leaf.status is Status.FALSE for leaf in self.leaves):
            return Status.FALSE
        return Status.UNDETERMINED

    def leaf_at(self, z: complex) -> Leaf:
        """Deepest leaf containing the point; first in leaf order on ties."""
        best = None
        for leaf in self.leaves:
            if leaf.box.contains(z) and (best is None or leaf.depth > best.depth):
                best = leaf
        if best is None:
            raise ValueError(f"point {z} outside the scanned rectangle")
        return best


def adaptive_scan(
    rect: ComplexBox,
    claim,
    max_depth: int,
    min_width: float = 0.0,
    min_depth: int = 0,
) -> ParamCertificate:
    """Classify rect by the claim, refining Undetermined boxes quadwise.

    The walk is level-synchronous: the live boxes of each depth from
    min_depth on are evaluated by one claim.evaluate_level(boxes, seeds)
    call, which returns their results and the seeds of their children.
    Boxes above min_depth are split without being evaluated.  Budget
    exhaustion leaves Undetermined leaves in place, never failure.  The
    leaves are sorted by quadtree path (quadrant indices from the root),
    the order in which a depth-first walk would emit them.
    """
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
    return ParamCertificate(
        claim=claim.name, root=rect, config=config, leaves=[leaf for _, leaf in leaves]
    )


def component_rollup(
    cert: ParamCertificate, status: Status = Status.TRUE
) -> list[list[int]]:
    """Connected components of same-status leaves under 4-adjacency.

    Two leaves are adjacent when they share an edge segment of positive
    length.  Returns lists of indices into cert.leaves.
    """
    idx = [i for i, leaf in enumerate(cert.leaves) if leaf.status is status]
    parent = {i: i for i in idx}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    def sweep(lo_key, hi_key, span):
        starts: dict[float, list[int]] = {}
        ends: dict[float, list[int]] = {}
        for i in idx:
            b = cert.leaves[i].box
            starts.setdefault(lo_key(b), []).append(i)
            ends.setdefault(hi_key(b), []).append(i)
        for v, left in ends.items():
            right = starts.get(v)
            if not right:
                continue
            for i in left:
                si = span(cert.leaves[i].box)
                for j in right:
                    sj = span(cert.leaves[j].box)
                    if max(si.lo, sj.lo) < min(si.hi, sj.hi):
                        union(i, j)

    sweep(lambda b: b.re.lo, lambda b: b.re.hi, lambda b: b.im)
    sweep(lambda b: b.im.lo, lambda b: b.im.hi, lambda b: b.re)

    groups: dict[int, list[int]] = {}
    for i in idx:
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def serialize(cert: ParamCertificate) -> bytes:
    """Line-oriented UTF-8 certificate; bit-exact round-trip via hex endpoints."""
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


def parse(data: bytes) -> ParamCertificate:
    claim = tool = None
    rect = None
    config: dict = {}
    leaves: list[Leaf] = []
    declared = None
    for line in data.decode("utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key == "claim":
                claim = value
            elif key == "rect":
                a, b, c, d = (_unhex(tok) for tok in value.split())
                rect = ComplexBox(Interval(a, b), Interval(c, d))
            elif key == "tool":
                tool = value
            elif key == "leaves":
                declared = int(value)
            elif key.startswith("config."):
                config[key[len("config."):]] = value
            else:
                raise ValueError(f"unknown header key: {key}")
            continue
        depth, _index, token, a, b, c, d = line.split()
        leaves.append(
            Leaf(
                int(depth),
                ComplexBox(
                    Interval(_unhex(a), _unhex(b)), Interval(_unhex(c), _unhex(d))
                ),
                Status(token),
            )
        )
    if claim is None or rect is None:
        raise ValueError("certificate missing claim or rect header")
    if declared is not None and declared != len(leaves):
        raise ValueError(f"leaf count mismatch: header {declared}, found {len(leaves)}")
    return ParamCertificate(
        claim=claim,
        root=rect,
        config=config,
        leaves=leaves,
        tool=tool or TOOL_VERSION,
    )
