"""The certificate workloads: one tricert command line each.

Each command is a run from the paper, pinned flag by flag so that a later
change of a CLI default does not change the workload.  `exit_code` is the
expected answer under the CLI's stable exit-code contract; `certificates`
are the files the command writes, relative to its working directory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    exit_code: int
    certificates: tuple[str, ...]


WORKLOADS = {
    # Few expensive boxes: Krawczyk on the period-9 cycle, numpy inv/solve and
    # interval Newton on f^6.  Depth 6 is the smallest depth that reproduces
    # the paper verdict (at depth 5 the closures touch); at depth 7 red alone
    # takes 85-101 s, too long to repeat.
    "disjoint": Workload(
        ("verify-disjoint", "--max-depth", "6", "-o", "Y", "--red-out", "R",
         "--image", "Y.ppm"),
        exit_code=0,
        certificates=("Y", "R"),
    ),
    # The argument-principle recursion through even_iterate, holo_derivative
    # and ComplexBox.recip; the scan does almost nothing and Krawczyk never
    # runs, so this bypasses Krawczyk and scan changes.
    "count": Workload(
        ("verify-count", "--min-depth", "1", "--max-depth", "4", "--tol", "2",
         "--contour-depth", "10", "-o", "C"),
        exit_code=0,
        certificates=("C",),
    ),
    # PAPER_R scaled 256x about its midpoint: the paper's cyan/green/blue
    # picture.  Many cheap boxes, the largest certificate and raster; no numpy,
    # Krawczyk or contour.  Rollup FALSE (exit 1) is the expected answer.
    "qlike-wide": Workload(
        ("scan", "--claim", "qlike", "--rect", "-1.8025,-1.6745,-0.0482,0.0798",
         "--max-depth", "8", "--segment-depth", "8", "-o", "Q", "--image", "Q.ppm"),
        exit_code=1,
        certificates=("Q",),
    ),
}
