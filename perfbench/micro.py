"""Micro units: single operations of each layer, timed in their own loops.

Each unit is timed over several passes with tracing off, after a warm-up
pass; the median pass is reported.  Operands come from the seed.
A unit whose function no longer exists reads 0 and is reported as absent.
"""

from __future__ import annotations

import random
import statistics
import time

from tricert import dynamics, render, scan, verify
from tricert.intervals import ComplexBox, Interval

# the paper's parameter window R, dynamical square U and search region X
PAPER_R = ComplexBox(Interval(-1.73875, -1.73825), Interval(0.01555, 0.01605))
PAPER_U = ComplexBox(Interval(-0.3, 0.3), Interval(-0.3, 0.3))
PAPER_X = ComplexBox(Interval(0.0, 0.08), Interval(0.0, 0.08))
PERIOD = 9
ABSENCE_RADIUS = 3e-4


def _median_seconds(fn, operands, passes: int) -> float:
    """Median time of one call over the passes; the first pass is a warm-up
    and is dropped when there is more than one."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for args in operands:
            fn(*args)
        times.append((time.perf_counter() - start) / len(operands))
    return statistics.median(times[1:] or times)


def _interval(rng: random.Random, scale: float) -> Interval:
    a, b = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
    return Interval(min(a, b), max(a, b))


def _box(rng: random.Random, center: complex, radius: float) -> ComplexBox:
    z = complex(center.real + rng.uniform(-radius, radius),
                center.imag + rng.uniform(-radius, radius))
    return ComplexBox.around(z, rng.uniform(0.0, radius))


def run(seed: int, certificates: list[bytes]) -> tuple[dict, list[str]]:
    """Micro metrics and the names of units whose code is absent."""
    rng = random.Random(seed)
    pairs = [(_interval(rng, 2.0), _interval(rng, 2.0)) for _ in range(4096)]
    singles = [(a,) for a, _ in pairs]
    boxes = [(_box(rng, 0j, 0.3), _box(rng, 0j, 0.3)) for _ in range(2048)]
    box_singles = [(a,) for a, _ in boxes]
    # boxes away from 0, so recip succeeds
    far = [(_box(rng, 0.5 + 0.5j, 0.2),) for _ in range(2048)]
    cz = [(_box(rng, PAPER_R.midpoint(), 2.5e-4), _box(rng, 0j, 0.3))
          for _ in range(1024)]
    metrics: dict[str, float] = {}
    absent: list[str] = []

    def unit(name: str, scale: float, owner, attr: str, operands, passes: int):
        fn = getattr(owner, attr, None)
        if fn is None:
            absent.append(name)
            metrics[name] = 0.0
        else:
            metrics[name] = _median_seconds(fn, operands, passes) * scale

    unit("intervals.mul_ns", 1e9, Interval, "__mul__", pairs, 10)
    unit("intervals.add_ns", 1e9, Interval, "__add__", pairs, 10)
    unit("intervals.sqr_ns", 1e9, Interval, "sqr", singles, 10)
    unit("intervals.box_mul_ns", 1e9, ComplexBox, "__mul__", boxes, 10)
    unit("intervals.box_sqr_ns", 1e9, ComplexBox, "sqr", box_singles, 10)
    unit("intervals.box_recip_ns", 1e9, ComplexBox, "recip", far, 10)
    unit("dynamics.eval_f_us", 1e6, dynamics, "eval_f", cz, 8)
    unit("dynamics.eval_f2_us", 1e6, dynamics, "eval_f2", cz, 8)

    center = verify.find_superattracting_parameter(PERIOD, PAPER_R.midpoint())
    orbit = verify.float_orbit_of_zero(center, PERIOD)
    unit("dynamics.krawczyk_image_ms", 1e3, dynamics, "krawczyk_absence",
         [(ComplexBox.around(center, 1e-7), PERIOD, orbit, ABSENCE_RADIUS)] * 4, 6)
    unit("verify.boundary_box_ms", 1e3, verify, "boundary_disjoint",
         [(PAPER_R, PAPER_U, 3, 14)] * 20, 4)
    first_count_leaf = PAPER_R.quarter()[0]
    unit("verify.contour_ms", 1e3, verify, "count_fixed_points",
         [(first_count_leaf, PAPER_X, 6, 2.0, 10)], 1)

    # serialize and parse cover all of the workload's certificates together
    parsed = [scan.parse(data) for data in certificates]
    per_workload = 1e3 * len(parsed)
    unit("scan.serialize_ms", per_workload, scan, "serialize", [(c,) for c in parsed], 6)
    unit("scan.parse_ms", per_workload, scan, "parse", [(d,) for d in certificates], 6)
    unit("render.rasterize_ms", 1e3, render, "rasterize_scan",
         [(parsed[0], render.PALETTE, 600, 600)], 4)
    return metrics, absent
