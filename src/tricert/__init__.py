"""Validated numerics for the anti-quadratic family f_c(z) = conj(z)^2 + c.

Interval-certified predicates over parameter rectangles: quadratic-like
restriction, fixed-point counting by Krawczyk boxes, attracting-cycle
and parabolic-exclusion certification, plus the certified period-3
centers, escape-time rendering, and a line-oriented certificate format.
"""

from .intervals import ComplexBox, EmptyIntervalError, Interval
from .scan import ClaimResult, Leaf, ParamCertificate, Status, adaptive_scan, component_rollup

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "ComplexBox",
    "EmptyIntervalError",
    "Status",
    "ClaimResult",
    "Leaf",
    "ParamCertificate",
    "adaptive_scan",
    "component_rollup",
    "__version__",
]
