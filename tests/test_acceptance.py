"""End-to-end acceptance gate.

One test per shipped claim, each reporting a single PASS/FAIL line on the
terminal.  The heavy parabolic/multiplier scans run once in a module
fixture and are shared by the disjointness and component checks.
"""

import hashlib
import random
import time

import numpy as np
import pytest

import scalar
from tricert.cli import PAPER_N, PAPER_PERIOD, PAPER_R, PAPER_U, PAPER_X_REGION
from tricert.dynamics import (
    _around,
    even_iterate,
    float_newton_rows,
    krawczyk_cycle_rows,
    squared_modulus_rows,
)
from tricert.intervals import (
    BoxArray,
    ComplexBox,
    Interval,
    _abs_pair,
    _add,
    _mul,
    _round,
    _sqr_pair,
)
from tricert.render import MULTIPLIER_PALETTE, rasterize_scan, render_escape, write_ppm
from tricert.scan import adaptive_scan, serialize
from tricert import verify
from tricert.verify import (
    FixedPointCountClaim,
    MultiplierNonRealClaim,
    Status,
    component_witnesses,
    count_zeros,
    disjointness_certificate,
    find_superattracting_parameter,
    qlike_certificate,
)

def _report(capsys, number, title, ok):
    with capsys.disabled():
        print(f"\nacceptance {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def disjoint_run():
    start = time.time()
    status, yellow_tree, red_tree = disjointness_certificate(
        PAPER_R, PAPER_PERIOD, PAPER_X_REGION, 7
    )
    return status, yellow_tree, red_tree, time.time() - start


def test_acceptance_1_quadratic_like(capsys):
    start = time.time()
    anchor = find_superattracting_parameter(PAPER_PERIOD, PAPER_R.midpoint())
    cert = qlike_certificate(PAPER_R, PAPER_U, PAPER_N, anchor, max_depth=14)
    elapsed = time.time() - start
    ok = (
        cert.rollup() is Status.TRUE
        and all(leaf.status is Status.TRUE for leaf in cert.leaves)
        and all(leaf.depth <= 14 for leaf in cert.leaves)
        and cert.config["anchor_preimage_count"] == "2"
        and cert.config["anchor_proof"] == "proven"
        and elapsed < 600.0
    )
    _report(capsys, 1, "quadratic-like restriction over R", ok)


def test_acceptance_2_unique_fixed_point(capsys):
    start = time.time()
    cert = adaptive_scan(PAPER_R, FixedPointCountClaim(PAPER_X_REGION, 6), 4, min_depth=1)
    leaves_ok = len(cert.leaves) > 0 and all(
        leaf.status is Status.TRUE for leaf in cert.leaves
    )
    # re-count every leaf box to inspect the evidence: its quadtree over X
    # emptied (the count is decided) with one Krawczyk box Z, whose image
    # K(Z), formed again in the scalar arithmetic, lies strictly inside Z
    # and inside X, so Z holds one fixed point for every c of the leaf
    fn = verify._fixed_points(6)
    found = count_zeros(fn, cert.boxes, PAPER_X_REGION, 10)
    enclosures_ok = (found.count.tolist() == [1] * len(cert.leaves)
                     and found.owner.tolist() == list(range(len(cert.leaves))))
    point, one = scalar.ComplexBox.point, scalar.ComplexBox.point(1 + 0j)
    for leaf, z in zip(cert.leaves, found.boxes.boxes()):
        [y] = verify._zero_image(fn, BoxArray.of([leaf.box]), BoxArray.of([z]))[1]
        c, z = scalar.box(leaf.box), scalar.box(z)
        m = point(complex(z.re.midpoint(), z.im.midpoint()))
        (val, _), (_, der) = scalar.even_iterate(c, m, 6), scalar.even_iterate(c, z, 6)
        y = point(y)
        image = m - y * (val - m) + (one - y * (der - one)) * (z - m)
        enclosures_ok &= z.strictly_contains(image) and PAPER_X_REGION.contains_box(image)
    elapsed = time.time() - start
    ok = leaves_ok and enclosures_ok and elapsed < 900.0
    _report(capsys, 2, "unique fixed point of the sixth iterate", ok)


def test_acceptance_3_disjoint_loci(capsys, disjoint_run):
    status, yellow_tree, red_tree, elapsed = disjoint_run
    yellow = [l for l in yellow_tree.leaves if l.status is not Status.TRUE]
    red = [l for l in red_tree.leaves if l.status is not Status.TRUE]
    # the yellow certificate's bytes, pinned: Y is the same under every
    # OpenBLAS kernel tried (R depends on the kernel through the float seeds)
    digest = hashlib.sha256(serialize(yellow_tree)).hexdigest()
    # and its image in the multiplier palette, as verify-disjoint writes it
    image = write_ppm(rasterize_scan(yellow_tree, MULTIPLIER_PALETTE, 600, 600))
    ok = (
        status is Status.TRUE
        and len(yellow) > 0
        and len(red) > 0
        and digest == "9087dfed2c785cd11eb618aea2a060cad06ec2d9d09c2d30acf64a54b35aea39"
        and hashlib.sha256(image).hexdigest()
        == "8406bed26e81a9163699fe2bf970d9783d89a87fb74b89683882a786a0d1948d"
        and elapsed < 1800.0
    )
    _report(capsys, 3, "real-multiplier and parabolic loci disjoint", ok)


def test_acceptance_4_component_witnesses(capsys, disjoint_run):
    _, _, red_tree, _ = disjoint_run
    center = find_superattracting_parameter(PAPER_PERIOD, PAPER_R.midpoint())
    components, attracting, repelling = component_witnesses(red_tree, PAPER_PERIOD, center)
    ok = components == 2 and attracting is Status.TRUE and repelling is Status.FALSE
    _report(capsys, 4, "period-9 component witnesses", ok)


def test_acceptance_5_period3_centers(capsys):
    from tricert.combinatorics import solve_period3_centers

    # independent bisection oracle for the real root of c^3 + 2c^2 + c + 1
    def cubic(c):
        return ((c + 2.0) * c + 1.0) * c + 1.0

    lo, hi = -1.8, -1.7
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if cubic(lo) * cubic(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)

    start = time.time()
    solutions = solve_period3_centers()
    elapsed = time.time() - start
    by_label = {s.label: s for s in solutions}
    real = by_label["c*"].c.midpoint().real
    base = abs(by_label["c*"].c.midpoint())
    ok = (
        len(solutions) == 4
        and set(by_label) == {"zero", "c*", "omega*c*", "omega2*c*"}
        and f"{real:.10f}".startswith("-1.7548")
        and abs(real - oracle) < 1e-10
        and abs(abs(by_label["omega*c*"].c.midpoint()) - base) < 1e-9
        and abs(abs(by_label["omega2*c*"].c.midpoint()) - base) < 1e-9
        and elapsed < 1.0
    )
    _report(capsys, 5, "period-3 centers", ok)


def _fuzz_containment(cases):
    """The number of misses of the library's interval operations on `cases`
    drawn rows of intervals a, b, each checked at a member x of a and y of
    b: the real + and * and the square on endpoint pairs, and the square,
    conjugate and modulus of the box a + bi as BoxArray rows."""
    rng = random.Random(61)
    rows = []
    for _ in range(cases):
        a = sorted((rng.uniform(-4, 4), rng.uniform(-4, 4)))
        b = sorted((rng.uniform(-4, 4), rng.uniform(-4, 4)))
        rows.append((*a, *b, rng.uniform(*a), rng.uniform(*b)))
    a_lo, a_hi, b_lo, b_hi, x, y = np.array(rows).T
    a, b = (a_lo, a_hi), (b_lo, b_hi)
    box = BoxArray(a, b)
    z = x + 1j * y
    square, conj = box.sqr(), box.conj()

    def held(pair, v):
        return (pair[0] <= v) & (v <= pair[1])

    checks = (
        *(held(got, v) for got, v in zip(_round(_add(a, b), _mul(a, b)), (x + y, x * y))),
        held(_sqr_pair(a), x * x),
        held(square.re, (z * z).real) & held(square.im, (z * z).imag),
        held(conj.re, x) & held(conj.im, -y),
        held(_abs_pair(a, b), np.sqrt(x * x + y * y)),
    )
    return int(sum((~c).sum() for c in checks))


def _poly_oracle_suite(count):
    region = ComplexBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    rng = random.Random(62)
    done = 0
    while done < count:
        degree = rng.randint(1, 4)
        roots = [
            complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
            for _ in range(degree)
        ]
        if any(
            min(abs(r.real - 1.0), abs(r.real + 1.0)) < 0.1
            or min(abs(r.imag - 1.0), abs(r.imag + 1.0)) < 0.1
            for r in roots
        ):
            continue
        inside = sum(1 for r in roots if abs(r.real) < 1.0 and abs(r.imag) < 1.0)

        def fn(c, z):
            factors = [z - ComplexBox.point(r) for r in roots]
            val = der = None
            for k, factor in enumerate(factors):
                val = factor if val is None else val * factor
                rest = factors[:k] + factors[k + 1:]
                term = rest[0] if rest else z.scale(0.0) + ComplexBox.point(1 + 0j)
                for other in rest[1:]:
                    term = term * other
                der = term if der is None else der + term
            return val, der

        [found] = count_zeros(fn, BoxArray.of([ComplexBox.point(0j)]), region, 12).count.tolist()
        if found != inside:
            return False
        done += 1
    return True


def _odd_multiplier_suite(count):
    # one Newton call on all draws and one Krawczyk call on the converged
    # ones; the first `count` certified fixed points in draw order are checked
    rng = random.Random(63)
    c = np.array([complex(rng.uniform(-0.7, 0.4), rng.uniform(-0.6, 0.6))
                  for _ in range(4 * count)])
    orbits, residual = float_newton_rows(c, np.full((len(c), 1), 0.1 + 0.1j))
    converged = residual <= 1e-10
    cbox = BoxArray.of([ComplexBox.point(v) for v in c[converged].tolist()])
    radius = np.full(len(cbox), 1e-8)
    certified, z, _ = krawczyk_cycle_rows(cbox, _around(orbits[converged], radius[:, None]), radius)
    rows = np.flatnonzero(certified)[:count]
    z = z[:, rows]
    m_lo, m_hi = squared_modulus_rows(z)  # a fixed point: one orbit box
    _, d = even_iterate(cbox[rows], BoxArray._of(z[:, :, 0]), 2)
    # the odd-cycle multiplier is real and nonnegative, and equals the
    # derivative of the doubled iterate
    ok = ((m_lo >= 0.0) & (d.im[0] <= 0.0) & (0.0 <= d.im[1])
          & (d.re[0] <= m_hi) & (m_lo <= d.re[1]))
    return len(rows) == count and bool(ok.all())


def test_acceptance_6_property_suites(capsys):
    from tricert.scan import parse

    fuzz_ok = _fuzz_containment(12500) == 0  # 12500 draws x 7 checked ops
    poly_ok = _poly_oracle_suite(100)
    multiplier_ok = _odd_multiplier_suite(1000)
    cert = adaptive_scan(PAPER_R, MultiplierNonRealClaim(), 3)
    data = serialize(cert)
    round_trip_ok = serialize(parse(data)) == data
    ok = fuzz_ok and poly_ok and multiplier_ok and round_trip_ok
    _report(capsys, 6, "property suites", ok)


def test_acceptance_7_rendering(capsys):
    region = ComplexBox(Interval(-2.0, 2.0), Interval(-2.0, 2.0))
    start = time.time()
    img = render_escape(region, 600, 600, 500)
    elapsed = time.time() - start
    row_bytes = 3 * 600
    symmetric = all(
        img.pixels[y * row_bytes:(y + 1) * row_bytes]
        == img.pixels[(599 - y) * row_bytes:(600 - y) * row_bytes]
        for y in range(300)
    )
    data = write_ppm(img)
    format_ok = data.startswith(b"P6\n600 600\n255\n") and len(data) == len(
        b"P6\n600 600\n255\n"
    ) + 3 * 600 * 600
    ok = elapsed < 5.0 and symmetric and format_ok
    _report(capsys, 7, "escape-time rendering", ok)
