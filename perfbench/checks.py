"""Checks on the certificates a workload wrote.

A certificate fails when it does not parse, when re-serializing the parsed
certificate does not give back the same bytes, or when its leaves do not
tile `#rect`: every leaf a nondegenerate box inside the root, no two leaf
interiors overlapping, and the leaf areas summing exactly to the root area.
Areas are exact rationals of the binary64 endpoints.

The sha256, the status histogram by depth and the Undetermined count are
recorded, never failed on: a change may legitimately alter the bytes.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from tricert.scan import parse, serialize


def _area(box) -> Fraction:
    return (Fraction(box.re.hi) - Fraction(box.re.lo)) * (
        Fraction(box.im.hi) - Fraction(box.im.lo)
    )


def _first_overlap(boxes) -> tuple[int, int] | None:
    """Two boxes whose interiors meet, by a sweep over the real axis."""
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda k: boxes[k].re.lo):
        b = boxes[i]
        active = [j for j in active if boxes[j].re.hi > b.re.lo]
        for j in active:
            a = boxes[j]
            if a.im.lo < b.im.hi and b.im.lo < a.im.hi:
                return j, i
        active.append(i)
    return None


def _tiling_problem(cert) -> str | None:
    root = cert.root
    boxes = [leaf.box for leaf in cert.leaves]
    if not boxes:
        return "no leaves"
    for i, b in enumerate(boxes):
        if not (b.re.lo < b.re.hi and b.im.lo < b.im.hi):
            return f"leaf {i} is degenerate"
        if not (root.re.lo <= b.re.lo and b.re.hi <= root.re.hi
                and root.im.lo <= b.im.lo and b.im.hi <= root.im.hi):
            return f"leaf {i} lies outside #rect"
    overlap = _first_overlap(boxes)
    if overlap is not None:
        return f"leaves {overlap[0]} and {overlap[1]} overlap"
    if sum(map(_area, boxes)) != _area(root):
        return "leaf areas do not sum to the #rect area"
    return None


def inspect(data: bytes) -> dict:
    """Problems found in one certificate, plus the recorded values."""
    try:
        cert = parse(data)
    except ValueError as exc:
        return {"problems": [f"parse failed: {exc}"]}
    problems = []
    if serialize(cert) != data:
        problems.append("re-serializing does not give the same bytes")
    tiling = _tiling_problem(cert)
    if tiling:
        problems.append(tiling)
    histogram: dict[str, dict[str, int]] = {}
    decided = Fraction(0)
    for leaf in cert.leaves:
        row = histogram.setdefault(str(leaf.depth), {})
        row[leaf.status.value] = row.get(leaf.status.value, 0) + 1
        if leaf.status.value != "U":
            decided += _area(leaf.box)
    return {
        "problems": problems,
        "sha256": hashlib.sha256(data).hexdigest(),
        "leaves": len(cert.leaves),
        "u_leaves": sum(row.get("U", 0) for row in histogram.values()),
        "histogram": dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))),
        "decided_area": decided,
        "root_area": _area(cert.root),
    }


def without_last_leaf(data: bytes) -> bytes:
    """The certificate with its last leaf deleted and `#leaves` adjusted."""
    lines = data.decode("utf-8").splitlines()
    leaf_lines = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    del lines[leaf_lines[-1]]
    lines = [f"#leaves={len(leaf_lines) - 1}" if line.startswith("#leaves=") else line
             for line in lines]
    return ("\n".join(lines) + "\n").encode("utf-8")
