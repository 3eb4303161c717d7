"""Adaptive quadtree subdivision of parameter rectangles.

The engine is generic over claims and runs on endpoint arrays.  Each
level of the quadtree is one BoxArray, which a claim evaluates at once:
claim.evaluate_level(boxes, seeds) returns (status, effort, seeds), the
status letters (the Status values 'T', 'F', 'U') and efforts of its rows
as arrays, and the continuation seeds of its rows, which the scan hands
to the children as seeds[parents], the rows of their parents (None for a
claim without continuation).  Only Undetermined boxes are refined,
children always in (SW, SE, NW, NE) order, and the leaves are listed in
the order of their quadtree paths, so two runs with the same
configuration produce bit-identical certificates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .intervals import BoxArray, ComplexBox, EmptyIntervalError, Interval

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
    """The result of a one-box claim call, such as verify.boundary_disjoint."""

    status: Status
    effort: int = 0


@dataclass(frozen=True)
class Leaf:
    depth: int
    box: ComplexBox
    status: Status
    effort: int = 0


@dataclass(eq=False)
class ParamCertificate:
    """Leaves of an adaptive scan, tiling the root rectangle exactly, with
    the claim metadata that makes them reproducible.

    The leaves are stored once, as arrays in leaf order: leaf i is the box
    boxes[i] at quadtree depth depth[i], with the status letter status[i]
    (a Status value) and effort[i]."""

    claim: str
    root: ComplexBox
    config: dict
    boxes: BoxArray
    depth: np.ndarray
    status: np.ndarray
    effort: np.ndarray
    tool: str = TOOL_VERSION

    @staticmethod
    def of(claim: str, root: ComplexBox, config: dict, leaves, tool: str = TOOL_VERSION):
        """The certificate of the given Leaf objects, in order."""
        return ParamCertificate(
            claim, root, config, BoxArray.of([leaf.box for leaf in leaves]),
            np.array([leaf.depth for leaf in leaves], dtype=np.int64),
            np.array([leaf.status.value for leaf in leaves], dtype="<U1"),
            np.array([leaf.effort for leaf in leaves], dtype=np.int64), tool)

    def _leaves(self, rows) -> list[Leaf]:
        return [Leaf(depth, box, Status(status), effort) for depth, box, status, effort in zip(
            self.depth[rows].tolist(), self.boxes[rows].boxes(), self.status[rows].tolist(),
            self.effort[rows].tolist())]

    @property
    def leaves(self) -> list[Leaf]:
        """The leaves as Leaf objects, built from the arrays on each access:
        a copy, which the certificate never reads back."""
        return self._leaves(slice(None))

    def rollup(self) -> Status:
        """TRUE only if every leaf is TRUE; FALSE if some leaf is FALSE."""
        if (self.status == "T").all():
            return Status.TRUE
        if (self.status == "F").any():
            return Status.FALSE
        return Status.UNDETERMINED

    def leaf_at(self, z: complex) -> Leaf:
        """Deepest leaf containing the point; first in leaf order on ties."""
        hits = np.flatnonzero(self.boxes.contains(z))
        if not len(hits):
            raise ValueError(f"point {z} outside the scanned rectangle")
        return self._leaves([hits[np.argmax(self.depth[hits])]])[0]


def _path_order(paths: list[np.ndarray]) -> np.ndarray:
    """The order by quadtree path of the leaves whose paths, the quadrant
    indices from the root, are the rows of the given (rows, depth) arrays
    in turn.  The paths are compared zero-padded to the deepest: no leaf's
    path is a prefix of another's, so the padding never decides."""
    deepest = max(p.shape[1] for p in paths)
    if not deepest:
        return np.arange(sum(map(len, paths)))
    keys, start = np.zeros((sum(map(len, paths)), deepest), dtype=np.uint8), 0
    for p in paths:
        keys[start:start + len(p), :p.shape[1]] = p
        start += len(p)
    return np.lexsort(keys.T[::-1])  # the last key of lexsort is its first


def adaptive_scan(
    rect: ComplexBox,
    claim,
    max_depth: int,
    min_width: float = 0.0,
    min_depth: int = 0,
) -> ParamCertificate:
    """Classify rect by the claim, refining Undetermined boxes quadwise.

    The walk is level-synchronous: the live boxes of each depth from
    min_depth on are one BoxArray, evaluated by one
    claim.evaluate_level(boxes, seeds) call (see the module docstring);
    its Undetermined rows above max_depth and wider than min_width are
    quartered at once (BoxArray.quarter), and each child takes its
    parent's row of the returned seeds.  Boxes above min_depth are split
    without being evaluated and hand the root seed on.  Budget exhaustion
    leaves Undetermined leaves in place, never failure.  The leaves of
    all levels are put in the order of their quadtree paths, the order in
    which a depth-first walk would emit them.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not 0 <= min_depth <= max_depth:
        raise ValueError("min_depth must lie in [0, max_depth]")
    boxes = BoxArray(*((np.array([i.lo]), np.array([i.hi])) for i in (rect.re, rect.im)))
    paths = np.zeros((1, 0), dtype=np.uint8)
    seeds = claim.initial_seed(rect)
    found = []  # per evaluated level: the paths, boxes, statuses and efforts of its leaves
    for depth in range(max_depth + 1):
        split = np.ones(len(boxes), dtype=bool)
        if depth >= min_depth:
            status, effort, seeds = claim.evaluate_level(boxes, seeds)
            split = (status == "U") & (depth < max_depth) & (boxes.width() > min_width)
            leaf = ~split
            found.append((paths[leaf], boxes[leaf], status[leaf], effort[leaf]))
        rows = np.flatnonzero(split)
        if not len(rows):
            break
        parents = np.repeat(rows, 4)
        boxes = boxes[rows].quarter()
        paths = np.column_stack((paths[parents], np.tile(np.arange(4, dtype=np.uint8), len(rows))))
        if seeds is not None:
            seeds = seeds[parents]
    order = _path_order([p for p, _, _, _ in found])

    config = {
        "max_depth": str(max_depth),
        "min_depth": str(min_depth),
        "min_width": repr(min_width),
    }
    config.update(claim.config())
    return ParamCertificate(
        claim=claim.name, root=rect, config=config,
        boxes=BoxArray.concat([b for _, b, _, _ in found])[order],
        depth=np.concatenate([np.full(len(p), p.shape[1]) for p, _, _, _ in found])[order],
        status=np.concatenate([s for _, _, s, _ in found])[order],
        effort=np.concatenate([e for _, _, _, e in found])[order],
    )


def component_rollup(
    cert: ParamCertificate, status: Status = Status.TRUE
) -> list[list[int]]:
    """Connected components of same-status leaves under 4-adjacency.

    Two leaves are adjacent when they share an edge segment of positive
    length.  Returns lists of indices into the leaves.
    """
    idx = np.flatnonzero(cert.status == status.value).tolist()
    re_lo, re_hi, im_lo, im_hi = (v.tolist() for v in (*cert.boxes.re, *cert.boxes.im))
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

    def sweep(lo, hi, span_lo, span_hi):
        """Joins the leaves whose hi edge lies on another's lo edge, where
        their spans across the edge overlap."""
        starts: dict[float, list[int]] = {}
        ends: dict[float, list[int]] = {}
        for i in idx:
            starts.setdefault(lo[i], []).append(i)
            ends.setdefault(hi[i], []).append(i)
        for v, left in ends.items():
            right = starts.get(v)
            if not right:
                continue
            for i in left:
                for j in right:
                    if max(span_lo[i], span_lo[j]) < min(span_hi[i], span_hi[j]):
                        union(i, j)

    sweep(re_lo, re_hi, im_lo, im_hi)
    sweep(im_lo, im_hi, re_lo, re_hi)

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
    lines.append(f"#leaves={len(cert.status)}")
    # the big-endian hex of each leaf's (re lo, re hi, im lo, im hi), a space
    # after each: 68 characters a leaf
    ends = np.stack((*cert.boxes.re, *cert.boxes.im), axis=1).astype(">f8")
    text = ends.tobytes().hex(" ", 8)
    lines.extend(f"{depth} {index} {status} {text[68 * index:68 * index + 67]}"
                 for index, (depth, status) in enumerate(zip(cert.depth.tolist(),
                                                             cert.status.tolist())))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse(data: bytes) -> ParamCertificate:
    claim = tool = None
    rect = None
    config: dict = {}
    depth, status, ends = [], [], []
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
        level, index, token, *hexes = line.split()
        if len(hexes) != 4 or any(len(h) != 16 for h in hexes):
            raise ValueError(f"a leaf needs four 16-digit hex endpoints: {line!r}")
        if index != str(len(depth)):  # as serialize writes it
            raise ValueError(f"leaf index is not the leaf's position {len(depth)}: {line!r}")
        depth.append(int(level))
        if depth[-1] < 0:
            raise ValueError(f"leaf depth is negative: {line!r}")
        status.append(Status(token).value)
        ends.extend(hexes)
    if claim is None or rect is None:
        raise ValueError("certificate missing claim or rect header")
    if declared is not None and declared != len(depth):
        raise ValueError(f"leaf count mismatch: header {declared}, found {len(depth)}")
    e = np.frombuffer(bytes.fromhex("".join(ends)), dtype=">f8").astype(float).reshape(-1, 4).T
    # the endpoints of a box, as Interval requires: finite, lo <= hi
    bad = np.flatnonzero(~(np.isfinite(e).all(axis=0) & (e[0] <= e[1]) & (e[2] <= e[3])))
    if len(bad):
        raise EmptyIntervalError(f"leaf {bad[0]} has non-finite or inverted endpoints")
    return ParamCertificate(
        claim=claim,
        root=rect,
        config=config,
        boxes=BoxArray((e[0], e[1]), (e[2], e[3])),
        depth=np.array(depth, dtype=np.int64),
        status=np.array(status, dtype="<U1"),
        effort=np.zeros(len(depth), dtype=np.int64),
        tool=tool or TOOL_VERSION,
    )
