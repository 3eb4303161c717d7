"""Command-line surface for certification runs and rendering.

Exit codes are a stable contract: 0 verified-true rollup, 1 undetermined
(or falsified), 2 usage error.  Each certificate subcommand declares its
parameters once, with their defaults (read from the claim field that
declares one); a parameter is set by its flag, else by the same key in an
optional flat key = value file, else by its default, and the effective
value is echoed into certificate headers so every artifact is
reproducible from its own header.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import re
import struct
import sys

from .combinatorics import solve_period3_centers
from .intervals import ComplexBox, Interval
from .render import (
    MULTIPLIER_PALETTE,
    PALETTE,
    PARABOLIC_PALETTE,
    rasterize_scan,
    render_escape,
    write_ppm,
)
from .scan import ParamCertificate, Status, adaptive_scan, serialize
from .verify import (
    BoundaryDisjointClaim,
    FixedPointCountClaim,
    MultiplierNonRealClaim,
    ParabolicExclusionClaim,
    _MAX_SEGMENT_DEPTH,
    component_witnesses,
    disjointness_certificate,
    find_superattracting_parameter,
    qlike_certificate,
)

__all__ = ["main"]

_HEX64 = re.compile(r"^[0-9a-f]{16}$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read a token that starts with a minus sign and a digit, or a minus
        # sign, a dot and a digit (-2,2,-2,2, -1e-3,0 or -.5,0), as the
        # value of --region / --rect / --anchor / --c, not as a flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _parse_endpoint(token: str) -> float:
    token = token.strip()
    if _HEX64.match(token):
        return struct.unpack(">d", bytes.fromhex(token))[0]
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"bad numeric endpoint: {token!r}") from None


def _parse_rect(text: str) -> ComplexBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"rectangle needs 4 comma-separated endpoints: {text!r}")
    a, b, c, d = (_parse_endpoint(p) for p in parts)
    if not (a < b and c < d):
        raise UsageError(f"rectangle endpoints must be ordered: {text!r}")
    # render's pixel centres need finite sides and midpoints
    if not all(map(math.isfinite, (b - a, d - c, a + b, c + d))):
        raise UsageError(f"rectangle sides and midpoint must be finite: {text!r}")
    return ComplexBox(Interval(a, b), Interval(c, d))


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"complex number needs re,im: {text!r}")
    return complex(_parse_endpoint(parts[0]), _parse_endpoint(parts[1]))


def _parse_size(text: str) -> tuple[int, int]:
    m = re.match(r"^0*([1-9]\d*)x0*([1-9]\d*)$", text)
    if not m:
        raise UsageError(f"size must look like 600x600: {text!r}")
    return int(m.group(1)), int(m.group(2))


# the paper-preset rectangles: parameter window R around the period-9
# component, the dynamical square U of the candidate restriction and the
# region X searched for the fixed point of f^6
_R_TEXT = "-1.73875,-1.73825,0.01555,0.01605"
_U_TEXT = "-0.3,0.3,-0.3,0.3"
_X_TEXT = "0.0,0.08,0.0,0.08"
PAPER_R = _parse_rect(_R_TEXT)
PAPER_U = _parse_rect(_U_TEXT)
PAPER_X_REGION = _parse_rect(_X_TEXT)
PAPER_N = 3
PAPER_PERIOD = 9

# the parser of every parameter: its flag is --key with '-' for '_', and
# a flag and a config-file value are text for the same parser
_PARSERS = {
    "rect": _parse_rect, "region": _parse_rect, "anchor": _parse_complex,
    "min_width": float, "tol": float, "n": int, "period": int, "expect": int,
    "max_depth": int, "min_depth": int, "segment_depth": int, "contour_depth": int,
}
_FORMATS = {_parse_rect: "RE_LO,RE_HI,IM_LO,IM_HI", _parse_complex: "RE,IM"}
_HELP = {
    "contour_depth": "depth cap of the count's exclusion quadtree over the region",
    "tol": "no longer affects the count; checked and echoed as cli.tol",
}


def _read_config(path: str, defaults: dict) -> dict[str, str]:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in defaults:
                    raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _resolve(args, defaults: dict[str, str | None]) -> dict[str, str]:
    """Replace each parameter's text in args by its value: the flag, else
    the config file, else the default (None: unset).  Returns the texts."""
    for key in args.flags - defaults.keys():
        # only scan has flags that apply to some runs and not to others
        if getattr(args, key) is not None:
            raise UsageError(f"--{key.replace('_', '-')} does not apply to "
                             f"--claim {args.claim}")
    config = _read_config(args.config, defaults) if args.config else {}
    texts = {}
    for key, default in defaults.items():
        text = getattr(args, key)
        if text is None:
            text = config.get(key, default)
        if text is not None:
            try:
                setattr(args, key, _PARSERS[key](text))
            except ValueError:
                raise UsageError(f"bad value for {key}: {text!r}") from None
            texts[key] = text
    _check_ranges(args)
    return texts


# the largest --expect, kept as verify-count's contract; count_zeros
# itself sets no bound on the zeros it counts
_MAX_COUNT = 16
# the least meaningful value of each integer parameter
_LEAST = {"max_depth": 0, "min_depth": 0, "segment_depth": 0, "contour_depth": 0,
          "n": 1, "period": 1}


def _check_ranges(args) -> None:
    """Refuse out-of-range values as usage errors.  The claims reject some of
    them with ValueError, which main must not catch: EmptyIntervalError is a
    ValueError too."""
    for key, least in _LEAST.items():
        value = getattr(args, key, None)
        if value is not None and value < least:
            raise UsageError(f"{key} must be >= {least}")
    min_width, tol = getattr(args, "min_width", None), getattr(args, "tol", None)
    if min_width is not None and not math.isfinite(min_width):
        raise UsageError("min_width must be finite")  # box.width() > nan never splits
    if tol is not None and not 0.0 < tol < math.inf:
        raise UsageError("tol must be finite and > 0")
    for key in ("segment_depth", "contour_depth"):
        if (getattr(args, key, None) or 0) > _MAX_SEGMENT_DEPTH:
            raise UsageError(f"{key} must be <= {_MAX_SEGMENT_DEPTH}")
    if getattr(args, "min_depth", None) is not None and args.min_depth > args.max_depth:
        raise UsageError("min_depth must not exceed max_depth")
    if getattr(args, "anchor", None) is not None and not args.rect.contains(args.anchor):
        raise UsageError("anchor must lie in rect")
    if getattr(args, "period", None) is not None:  # the parabolic claim's seed
        _paper_center(args.rect, args.period)
    counts = args.command == "verify-count" or getattr(args, "claim", None) == "count"
    if counts and args.n % 2:
        raise UsageError("n must be even: the count claim counts fixed points of f^n")
    if not 0 <= getattr(args, "expect", 0) <= _MAX_COUNT:
        raise UsageError(f"expect must lie in [0, {_MAX_COUNT}], the counts that can be isolated")


_PALETTES = {"multiplier": MULTIPLIER_PALETTE, "parabolic": PARABOLIC_PALETTE}


def _emit(cert: ParamCertificate, texts: dict[str, str], out, image=None) -> None:
    for key, text in texts.items():
        cert.config[f"cli.{key}"] = text
    if out:
        with open(out, "wb") as fh:
            fh.write(serialize(cert))
    if image:
        palette = _PALETTES.get(cert.claim.split("-")[0], PALETTE)
        img = rasterize_scan(cert, palette, 600, 600)
        with open(image, "wb") as fh:
            write_ppm(img, fh)


def _rollup_exit(label: str, cert: ParamCertificate) -> int:
    status = cert.rollup()
    print(f"{label}: {status.name} over {len(cert.status)} leaves")
    return 0 if status is Status.TRUE else 1


def _paper_center(rect: ComplexBox, period: int) -> complex:
    center = find_superattracting_parameter(period, rect.midpoint())
    if center is None or not rect.contains(center):
        raise UsageError("no superattracting seed parameter found in the rectangle")
    return center


def _cmd_render(args) -> int:
    region = _parse_rect(args.region)
    width, height = _parse_size(args.size)
    if args.maxiter < 1:
        raise UsageError("maxiter must be >= 1")
    img = render_escape(region, width, height, args.maxiter, args.mode,
                        _parse_complex(args.c))
    with open(args.out, "wb") as fh:
        write_ppm(img, fh)
    return 0


def _cmd_scan(args, texts) -> int:
    claim = _SCAN_CLAIMS[args.claim][1](args)
    cert = adaptive_scan(args.rect, claim, args.max_depth, args.min_width, args.min_depth)
    _emit(cert, {"claim": args.claim, **texts}, args.out, args.image)
    return _rollup_exit(f"scan {args.claim}", cert)


def _cmd_verify_qlike(args, texts) -> int:
    anchor = args.anchor
    if anchor is None:
        anchor = _paper_center(args.rect, PAPER_PERIOD)
    cert = qlike_certificate(args.rect, args.region, args.n, anchor, args.max_depth,
                             args.min_width, args.segment_depth)
    _emit(cert, texts, args.out, args.image)
    return _rollup_exit("verify-qlike", cert)


def _cmd_verify_count(args, texts) -> int:
    claim = FixedPointCountClaim(args.region, args.n, args.expect, args.contour_depth)
    cert = adaptive_scan(args.rect, claim, args.max_depth, min_depth=args.min_depth)
    _emit(cert, texts, args.out, args.image)
    return _rollup_exit("verify-count", cert)


def _cmd_verify_arcs(args, texts) -> int:
    rect, period = args.rect, args.period
    cert = adaptive_scan(rect, ParabolicExclusionClaim(period), args.max_depth, args.min_width)
    _emit(cert, texts, args.out, args.image)
    components, attracting, repelling = component_witnesses(
        cert, period, _paper_center(rect, period))
    print(f"verify-arcs: {components} verified components, "
          f"attracting witness {attracting.name}, "
          f"repelling witness {repelling.name}")
    ok = components == 2 and attracting is Status.TRUE and repelling is Status.FALSE
    return 0 if ok else 1


def _cmd_verify_disjoint(args, texts) -> int:
    status, yellow_cert, red_cert = disjointness_certificate(
        args.rect, args.period, PAPER_X_REGION, args.max_depth, args.min_width)
    _emit(yellow_cert, texts, args.out, args.image)
    _emit(red_cert, texts, args.red_out)
    yellow, red = (int((cert.status != "T").sum()) for cert in (yellow_cert, red_cert))
    print(f"verify-disjoint: {status.name} "
          f"(yellow leaves {yellow}, red leaves {red})")
    if yellow == 0 or red == 0:
        return 1
    return 0 if status is Status.TRUE else 1


# defaults of the claims' own parameters, shared with the verify commands
_QLIKE = {"region": _U_TEXT, "n": str(PAPER_N),
          "segment_depth": str(BoundaryDisjointClaim.segment_depth)}
# tol, the width budget of the contour that count_zeros replaced, is only
# checked and echoed as cli.tol while the benchmark's count workload passes it
_COUNT = {"region": _X_TEXT, "n": "6", "tol": "2.0",
          "contour_depth": str(FixedPointCountClaim.contour_depth)}
_CYCLE = {"period": str(PAPER_PERIOD)}
_AREA = {"rect": _R_TEXT, "max_depth": "7", "min_width": "0.0"}

# scan --claim NAME: (the claim's own parameters, the claim built from args)
_SCAN_CLAIMS = {
    "qlike": (_QLIKE, lambda a: BoundaryDisjointClaim(a.region, a.n, a.segment_depth)),
    "count": (_COUNT, lambda a: FixedPointCountClaim(a.region, a.n, contour_depth=a.contour_depth)),
    "parabolic": (_CYCLE, lambda a: ParabolicExclusionClaim(a.period)),
    "multiplier": ({"region": None}, lambda a: MultiplierNonRealClaim(a.region)),
}

# name: (handler, help, parameter defaults)
_COMMANDS = {
    "scan": (_cmd_scan, "run one claim over a rectangle", {**_AREA, "min_depth": "0"}),
    "verify-qlike": (_cmd_verify_qlike, "quadratic-like restriction certificate",
                     {**_AREA, **_QLIKE, "max_depth": "14", "anchor": None}),
    "verify-count": (_cmd_verify_count, "unique fixed point of the even iterate",
                     {"rect": _R_TEXT, **_COUNT, "expect": str(FixedPointCountClaim.expect),
                      "min_depth": "1", "max_depth": "4"}),
    "verify-arcs": (_cmd_verify_arcs, "parabolic-exclusion scan and witnesses",
                    {**_AREA, **_CYCLE}),
    "verify-disjoint": (_cmd_verify_disjoint, "real-multiplier locus vs parabolic arcs",
                        {**_AREA, **_CYCLE}),
}


# the commands, in the order that tricert -h lists them
_NAMES = ("render", *_COMMANDS, "centers")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given the name of one, of that
    command alone: a run parses its own command's arguments only."""
    parser = _Parser(
        prog="tricert",
        description="Certified renormalization structure checks for z -> conj(z)^2 + c",
    )
    # a parser of one command still names every command in its usage line,
    # which an error in that command's arguments prints
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def wanted(name: str) -> bool:
        return command in (None, name)

    if wanted("render"):
        p = subs.add_parser("render", help="escape-time image")
        p.add_argument("--mode", choices=["tricorn", "mandelbrot", "julia"],
                       default="tricorn")
        p.add_argument("--region", default="-2,2,-2,2")
        p.add_argument("--size", default="600x600")
        p.add_argument("--maxiter", type=int, default=500)
        p.add_argument("--c", default="0,0", help="Julia parameter re,im")
        p.add_argument("-o", "--out", required=True)

    for name, (_, help_text, defaults) in _COMMANDS.items():
        if not wanted(name):
            continue
        p = subs.add_parser(name, help=help_text)
        flags = list(defaults)
        if name == "scan":
            p.add_argument("--claim", required=True, choices=list(_SCAN_CLAIMS))
            flags += [key for own, _ in _SCAN_CLAIMS.values() for key in own]
        p.set_defaults(flags=set(flags))
        p.add_argument("--config", help="flat key = value file; keys as the flags below")
        for key in dict.fromkeys(flags):
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar=_FORMATS.get(_PARSERS[key]), help=_HELP.get(key))
        p.add_argument("-o", "--out", help="certificate output path")
        p.add_argument("--image", help="rasterized scan image output path (P6)")
        if name == "verify-disjoint":
            p.add_argument("--red-out", dest="red_out", help="parabolic certificate path")

    if wanted("centers"):
        subs.add_parser("centers", help="report the certified period-3 centers")
    return parser


def _cmd_centers() -> int:
    solutions = solve_period3_centers()
    for sol in solutions:
        mid = sol.c.midpoint()
        print(f"{sol.label}: {mid.real:+.12f} {mid.imag:+.12f}  "
              f"(width {sol.c.width():.2e})")
    return 0


# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Set glibc's malloc policy for this process; a no-op on other libcs."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):  # a libc that does not know the name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    # Setting either threshold turns off glibc's dynamic ones, under which
    # the scans' per-batch numpy temporaries (up to about 660 KB) went back
    # to the kernel when freed and were faulted in again by the next batch.
    # Under 1 MB they are now served and reused from the heap, and the heap
    # is trimmed only past 64 MB free; one-off arrays over 1 MB, such as the
    # 600 x 600 raster, stay mapped, so peak RSS barely moves.
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "centers":
            return _cmd_centers()
        handler, _, defaults = _COMMANDS[args.command]
        if args.command == "scan":
            defaults = {**defaults, **_SCAN_CLAIMS[args.claim][0]}
        return handler(args, _resolve(args, defaults))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
