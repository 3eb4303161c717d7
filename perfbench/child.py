"""One benchmark sample in a fresh interpreter; run by run.py, not by hand.

    child.py MODE WORKLOAD SEED        (working directory: the workload's outputs)

MODE is `setup` (import and build argv only), `baseline` (import numpy
only), `run` (call tricert's `main(argv)`), `traced` (the same with spans
around the public functions) or `micro` (time the micro units on the
certificates a `run` left behind).  The parent passes its clock reading at
spawn in PERFBENCH_T0, so setup_s counts interpreter start, `import
tricert.cli` (numpy included) and building argv.  The last line printed is
one JSON object.

The time of `main(argv)` is reported raw and speed-adjusted.  The cores
this runs on are shared, and their speed drifts by tens of percent over
seconds to minutes, on each core separately.  So a SpeedProbe times a fixed
unit of pure-Python work on this process's own core, on timer ticks while
`main` runs, and the adjusted time is the raw time, less the probes',
scaled by REFERENCE_PROBE_S / (mean probe time): seconds at the speed at
which one probe takes REFERENCE_PROBE_S.  The probe does not track set-up,
which is mostly loading shared libraries; run.py adjusts set-up against the
`baseline` mode instead.
"""

import json
import math
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass

# about one probe's time on a 2-vCPU Xeon VM at 2.0 GHz (Python 3.11)
REFERENCE_PROBE_S = 1.5e-3


@dataclass(frozen=True, slots=True)
class _Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise ValueError("bad interval")

    def __mul__(self, other: "_Interval") -> "_Interval":
        a, b = self.lo * other.lo, self.lo * other.hi
        c, d = self.hi * other.lo, self.hi * other.hi
        return _Interval(math.nextafter(min(a, b, c, d), -math.inf),
                         math.nextafter(max(a, b, c, d), math.inf))


def _probe_unit() -> _Interval:
    """Fixed work shaped like tricert's interval arithmetic: a frozen, slotted,
    validated dataclass.  Of the probes tried, this one tracked the drift of
    the certificate runs best."""
    x, y = _Interval(0.5, 0.75), _Interval(0.999, 1.001)
    for _ in range(700):
        x = x * y
    return x


class SpeedProbe:
    """Times one probe unit on every SIGALRM tick until stopped."""

    def __init__(self, interval_s: float):
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        _probe_unit()
        self.times.append(time.perf_counter() - start)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def adjusted(self, elapsed: float) -> float:
        """`elapsed`, which contains the probes so far, at reference speed."""
        spent = sum(self.times)
        self._tick()  # at least one reading, outside the timed phase
        return (elapsed - spent) * REFERENCE_PROBE_S * len(self.times) / sum(self.times)


def _inspect_outputs(workload) -> dict:
    import checks

    report = {}
    decided = root = 0
    for name in workload.certificates:
        try:
            with open(name, "rb") as fh:
                found = checks.inspect(fh.read())
        except OSError as exc:
            found = {"problems": [f"cannot read certificate: {exc}"]}
        decided += found.pop("decided_area", 0)
        root += found.pop("root_area", 0)
        report[name] = found
    return {"certificates": report,
            "decided_area_frac": float(decided / root) if root else 0.0}


def main() -> int:
    mode, workload_name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "baseline":
        import numpy  # noqa: F401

        print(json.dumps({"setup_s": time.monotonic() - float(os.environ["PERFBENCH_T0"])}))
        return 0
    import tricert.cli
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    argv = list(workload.argv)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    result = {"setup_s": setup_s, "tricert": tricert.cli.__file__}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    if mode == "micro":
        import micro

        certificates = []
        for name in workload.certificates:
            with open(name, "rb") as fh:
                certificates.append(fh.read())
        result["metrics"], result["absent"] = micro.run(seed, certificates)
        print(json.dumps(result))
        return 0

    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        result["traced"] = sorted(recorder.install())
    probe = SpeedProbe(0.1)
    start = time.perf_counter()
    exit_code = tricert.cli.main(argv)
    probe.stop()
    wall_raw_s = time.perf_counter() - start
    result["wall_s"], result["wall_raw_s"] = probe.adjusted(wall_raw_s), wall_raw_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["exit_code"] = exit_code
    if recorder is not None:
        # the checks below are traced as their own phase: parse runs only there
        calls, self_s = recorder.totals()
        result["main"] = {"calls": calls, "self_s": self_s,
                          "counters": dict(recorder.counters)}
        first = len(recorder.spans)
    result.update(_inspect_outputs(workload))
    if recorder is not None:
        calls, self_s = recorder.totals(first)
        result["check"] = {"calls": calls, "self_s": self_s}
        recorder.write("spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
