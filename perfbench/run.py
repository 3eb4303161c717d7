"""End-to-end certificate benchmark for tricert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; tricert is imported from its `src/`.
NAME is a workload of workloads.py, or `all` to run each in turn.  Every
sample is a fresh interpreter (child.py) that imports `tricert.cli` and
calls `main(argv)` in-process with TRICERT_WORKERS=1; outputs go to
`.perfbench/NAME/` at the checkout root.

--trace 0 takes samples one after another while the next one is expected
to end within S seconds (always at least one) and reports the end-to-end
metrics of BENCHMARK.json: the medians of wall_s, setup_s (over separate
set-up runs) and peak_rss_mb, and the exact decided_area_frac.  wall_s and
setup_s are speed-adjusted (see child.py and REFERENCE_BASELINE_S); the raw
medians are printed beside them.
--trace 1 ignores S: it takes one untraced sample, one traced sample
(spans.py) and one micro-unit pass (micro.py), and reports the per-layer
metrics of BENCHMARK.json.

A sample fails when its exit code differs from the workload's, or a
certificate it wrote fails checks.py.  Every run also checks the checker:
its first certificate with the last leaf deleted, and a wrong exit code,
must each count as a failure.  The certificate commands are fixed by the
paper, so the seed only draws the micro units' operands.  The last line
printed is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 12
# set-up drifts with the machine's speed at starting processes, which the
# wall-time probe does not track; so each set-up run is paired with a
# baseline run that only starts the interpreter and imports numpy, and
# setup_s is the median set-up time scaled by REFERENCE_BASELINE_S over the
# median baseline time: seconds at the speed at which the baseline takes
# REFERENCE_BASELINE_S (about its time on a 2-vCPU Xeon VM at 2.0 GHz)
REFERENCE_BASELINE_S = 0.13
CHILD_TIMEOUT_S = 170

# traced functions reported as <name>.calls and <name>.self_s
TRACED_CALLS = (
    "dynamics.krawczyk_cycle", "dynamics.krawczyk_absence",
    "dynamics.float_newton_cycle", "dynamics.interval_newton_fixed",
    "dynamics.float_newton_fixed", "dynamics.even_iterate",
    "dynamics.holo_derivative",
    "verify.parabolic_excluded", "verify.multiplier_im_excludes_zero",
    "verify.boundary_disjoint", "verify.count_fixed_points",
    "verify.find_superattracting_parameter",
)
TRACED_SELF = (
    "scan.adaptive_scan", "scan.serialize", "scan.component_rollup",
    "render.rasterize_scan", "cli.main",
)
# <counter> / <name>.calls, reported as the key
RATIOS = {
    "dynamics.krawczyk_cycle.certified_frac": "dynamics.krawczyk_cycle.certified",
    "dynamics.interval_newton_fixed.certified_frac":
        "dynamics.interval_newton_fixed.certified",
    "verify.parabolic_excluded.true_frac": "verify.parabolic_excluded.true",
    "verify.multiplier_im_excludes_zero.true_frac":
        "verify.multiplier_im_excludes_zero.true",
}
COUNTERS = {
    "verify.boundary_disjoint.segments": "verify.boundary_disjoint.segments",
    "verify.count_fixed_points.segments": "verify.count_fixed_points.segments",
    "scan.leaves": "scan.adaptive_scan.leaves",
    "scan.u_leaves": "scan.adaptive_scan.u_leaves",
    "scan.serialize.bytes": "scan.serialize.bytes",
    "render.write_ppm.bytes": "render.write_ppm.bytes",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _spawn(mode: str, workload: str, seed: int, workdir: Path) -> dict:
    """Run child.py once; its parsed result, or {"error": ...}."""
    env = dict(os.environ, PYTHONPATH=str(SRC), TRICERT_WORKERS="1")
    # set-up is timed with the bytecode cache warm, as an installed tricert has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed)],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} sample exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} sample exited {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(lines[-1])
    if mode != "baseline" and not Path(result["tricert"]).resolve().is_relative_to(SRC):
        raise BenchError(f"tricert was imported from {result['tricert']}, not {SRC}")
    result["stdout"] = lines[:-1]
    return result


def _problems(sample: dict, workload) -> list[str]:
    if "error" in sample:
        return [sample["error"]]
    found = []
    if sample["exit_code"] != workload.exit_code:
        found.append(f"exit code {sample['exit_code']}, expected {workload.exit_code}")
    for name, cert in sample["certificates"].items():
        found.extend(f"{name}: {problem}" for problem in cert["problems"])
    return found


def _checker_faults(sample: dict, workload, workdir: Path) -> list[str]:
    """Mutations the checker must count as failed runs, and did not."""
    import checks

    faults = []
    first = (workdir / workload.certificates[0]).read_bytes()
    if not checks.inspect(checks.without_last_leaf(first))["problems"]:
        faults.append("a certificate with its last leaf deleted passed the checks")
    if not _problems(dict(sample, exit_code=workload.exit_code + 1), workload):
        faults.append("a wrong exit code passed the checks")
    return faults


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"median of {n}; no percentile has 10 samples beyond it"
    p = math.floor(100 * (n - 10) / n)
    return f"median of {n}; p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"


def _environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "TRICERT_WORKERS": "1"}


def _report_outputs(name: str, sample: dict, env: dict) -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    if env != reference["environment"]:
        print(f"  environment {env} (seed reference {reference['environment']})")
    ref = reference["workloads"].get(name, {})
    print(f"  exit code {sample['exit_code']}; " + " / ".join(sample["stdout"]))
    for cert_name, cert in sample["certificates"].items():
        expected = ref.get("certificates", {}).get(cert_name, {})
        differs = [key for key in ("sha256", "u_leaves", "histogram")
                   if key in cert and cert[key] != expected.get(key)]
        note = ("matches the seed reference" if not differs else
                "differs from the seed reference in " + ", ".join(differs)
                + " (recorded, not a failure)")
        print(f"  {cert_name}: {cert.get('leaves')} leaves, {cert.get('u_leaves')} U, "
              f"sha256 {cert.get('sha256', '?')[:16]}, {note}")
        print(f"  {cert_name} by depth: {json.dumps(cert.get('histogram'))}")


def _untraced(name: str, seed: int, seconds: float, workdir: Path):
    workload = WORKLOADS[name]
    _spawn("setup", name, seed, workdir)  # compiles bytecode; not measured

    def setup_pairs() -> list[tuple[dict, dict]]:
        return [(_spawn("setup", name, seed, workdir), _spawn("baseline", name, seed, workdir))
                for _ in range(SETUP_RUNS // 2)]

    # half the set-up runs before the samples and half after, so that their
    # median spans the run's drift in machine speed
    pairs = setup_pairs()
    samples = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(_spawn("run", name, seed, workdir))
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            break
    pairs += setup_pairs()
    measured = [s for s in samples if "error" not in s]
    if not measured:
        raise BenchError(_problems(samples[0], workload)[0])
    walls = [s["wall_s"] for s in measured]
    raw_wall = statistics.median(s["wall_raw_s"] for s in measured)
    setups = [setup["setup_s"] for setup, _ in pairs if "error" not in setup]
    baselines = [base["setup_s"] for _, base in pairs if "error" not in base]
    if not (setups and baselines):
        raise BenchError("no set-up run succeeded")
    raw_setup, baseline = statistics.median(setups), statistics.median(baselines)
    metrics = {
        "wall_s": (statistics.median(walls), f"{_tail(walls)}; raw {raw_wall:.6g} s"),
        "setup_s": (raw_setup * REFERENCE_BASELINE_S / baseline,
                    f"median of {len(setups)}; raw {raw_setup:.6g} s,"
                    f" baseline {baseline:.6g} s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in measured),
                        f"median of {len(measured)}"),
        "decided_area_frac": (statistics.median(s["decided_area_frac"] for s in measured),
                              "exact"),
    }
    return samples, metrics


def _traced(name: str, seed: int, workdir: Path):
    _spawn("setup", name, seed, workdir)
    plain = _spawn("run", name, seed, workdir)
    traced = _spawn("traced", name, seed, workdir)
    samples = [plain, traced]
    for sample in samples:
        if "error" in sample:
            raise BenchError(sample["error"])
    micro = _spawn("micro", name, seed, workdir)
    if "error" in micro:
        raise BenchError(micro["error"])

    main, check = traced["main"], traced["check"]
    calls, self_s, counters = main["calls"], main["self_s"], main["counters"]
    metrics = {}
    for fn in TRACED_CALLS:
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in TRACED_SELF:
        metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    metrics["scan.parse.self_s"] = check["self_s"].get("scan.parse", 0.0)
    for key, counter in RATIOS.items():
        fn = counter.rsplit(".", 1)[0]
        metrics[key] = counters.get(counter, 0) / calls[fn] if calls.get(fn) else 0.0
    for key, counter in COUNTERS.items():
        metrics[key] = counters.get(counter, 0)
    leaves = metrics["scan.leaves"]
    metrics["scan.u_frac"] = metrics["scan.u_leaves"] / leaves if leaves else 0.0
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics.update(micro["metrics"])

    wanted = set(TRACED_CALLS) | set(TRACED_SELF) | {"scan.parse"}
    absent = sorted(wanted - set(traced["traced"])) + micro["absent"]
    if absent:
        print(f"  absent from the program (reported as 0): {', '.join(absent)}")
    print(f"  wall_s untraced {plain['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s;"
          f" spans in {workdir / 'spans.jsonl'}")
    return samples, {key: (value, "") for key, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = _environment()
    print(f"perfbench {name}: seed {seed}, trace {int(trace)}, python {env['python']},"
          f" numpy {env['numpy']}, nproc {env['nproc']}")
    measure = _traced(name, seed, workdir) if trace else _untraced(
        name, seed, seconds, workdir)
    samples, metrics = measure

    failed = 0
    for index, sample in enumerate(samples):
        problems = _problems(sample, workload)
        failed += bool(problems)
        for problem in problems:
            print(f"  FAILED sample {index}: {problem}")
    first = next(s for s in samples if "error" not in s)
    _report_outputs(name, first, env)
    (workdir / "outputs.json").write_text(json.dumps(
        {"environment": env, "exit_code": first["exit_code"],
         "certificates": first["certificates"]}, indent=1, sort_keys=True))
    faults = _checker_faults(first, workload, workdir)
    for fault in faults:
        print(f"  CHECKER FAULT: {fault}")
    if not faults:
        print("  checker self-test: a deleted leaf and a wrong exit code both fail")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in listed:
        value, note = metrics[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<46} {value:>14.6g} {metric['unit']:<6} {note}")
    print(f"  fail_rate {failed / len(samples):g} ({failed} of {len(samples)} samples failed)")
    return {"correct": failed == 0 and not faults, "attempted": len(samples),
            "failed": failed, "metrics": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tricert" / "cli.py").is_file():
        print(f"perfbench: no tricert sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
