#!/usr/bin/env python3
"""Verdict benchmark for eulercc: one closed-loop caller, one thread.

    python3 perfbench/run.py --workload tube_morse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tube_morse --seed 1 --seconds 10 --trace 1

Run from the root of a checkout; the package is imported from ``src/``.
Untraced (``--trace 0``), the benchmark runs samples of three passes over the
workload's verdict list, each pass on freshly built inputs, until at least
``--seconds`` of verdict time has passed, and reports the end-to-end metrics.
Traced (``--trace 1``), it runs exactly one pass untraced and the same pass
again, on fresh inputs, with per-layer wrappers installed, and reports the
per-layer metrics.  Verdict and setup times are wall-clock times scaled to a
fixed machine speed by a reference kernel timed between verdicts; see
README.md.  Every verdict is checked against an answer the verifier does not
compute.  The last line of stdout is one JSON object; the exit code is 1 when
any verdict was wrong or raised, 2 when the checkout has no sources.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cut_support", "tube_morse", "refined_index")
SETUP_PROBES = 7
PASSES_PER_SAMPLE = 3
# reference_kernel() at full speed on the 2-core VM this was written on (its
# 1st percentile over 3000 runs); only a fixed scale, identical on both sides
# of any comparison
REFERENCE_S = 1.6e-3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum verdict time of an untraced run; whole samples are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="import and build the inputs, print 'ready', exit (setup timing)")
    return ap.parse_args(argv)


def build(workload: str, seed: int):
    from workloads import BUILDERS

    return BUILDERS[workload](seed)


def outcome(verdict, tracer=None) -> tuple:
    """Run one verdict: (ok, comparable result) with any exception caught."""
    try:
        rep = verdict.call()
        ok = verdict.check(rep)
    except Exception as exc:  # a raise on admissible input is a failed verdict
        print(f"verdict raised: {verdict.label}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False, (type(exc).__name__,)
    if not ok:
        print(f"wrong verdict: {verdict.label}: lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}",
              file=sys.stderr)
    if tracer is not None:
        tracer.observe_report(rep)
    return ok, (rep.name, rep.lhs, rep.rhs, rep.holds)


def reference_kernel() -> int:
    """A fixed slice of exact, object-heavy Python that never calls the package.

    Its running time tracks the momentary speed of the machine: on a shared
    VM, load from other tenants slows every Python instruction alike, in
    spells from well under a second to minutes.
    """
    acc: dict[frozenset, int] = {}
    x = Fraction(0)
    for i in range(1, 200):
        q = Fraction(i % 17 - 8, i % 5 + 1)
        x += q * q - Fraction(1, i)
        key = frozenset((i % 7, i % 11, i % 13))
        acc[key] = acc.get(key, 0) + (1 if q > 0 else -1)
    return len(acc) + x.denominator


def reference_seconds() -> float:
    """The reference kernel's time right now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(verdicts, tracer=None) -> tuple[float, list[float], list[float], list[bool], list[tuple]]:
    """One closed-loop pass over the verdicts.

    Returns the summed wall time of the verdicts, each verdict's wall time,
    each verdict's time at reference speed, the oks and the results.  The
    reference kernel runs between verdicts, outside their timings; a verdict's
    time at reference speed is its wall time scaled by REFERENCE_S over the
    mean kernel time just before and just after it.
    """
    wall: list[float] = []
    scaled: list[float] = []
    oks: list[bool] = []
    results: list[tuple] = []
    gc.collect()
    before = reference_seconds()
    for v in verdicts:
        t0 = time.perf_counter()
        ok, result = outcome(v, tracer)
        dt = time.perf_counter() - t0
        after = reference_seconds()
        wall.append(dt)
        scaled.append(dt * REFERENCE_S * 2 / (before + after))
        oks.append(ok)
        results.append(result)
        before = after
    return sum(wall), wall, scaled, oks, results


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Process start to built inputs at reference speed, in fresh processes.

    Each probe is timed from outside, from spawn until it prints ``ready``,
    and scaled like a verdict by the reference kernel just before and after.
    """
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        before = reference_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        out.append(dt * REFERENCE_S * 2 / (before + reference_seconds()))
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def hd_quantile(values: list[float], p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all the order statistics; rank i of n weighs the mass
    of the Beta(p(n+1), (1-p)(n+1)) density on [(i-1)/n, i/n], integrated
    here by the midpoint rule.  Verdict times come in clusters, one per
    fixture and function, and a single order statistic jumps across the gap
    between two clusters when a few verdicts change sides; this estimate
    moves by a fraction of the gap.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = [a * math.log(u) + b * math.log1p(-u)
            for u in ((i + (j + 0.5) / steps) / n for i in range(n) for j in range(steps))]
    top = max(logs)
    weights = [sum(math.exp(x - top) for x in logs[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summarize(seconds: list[float]) -> dict[str, float]:
    """The timing metrics of one sample, from per-verdict seconds."""
    ms = [t * 1000 for t in seconds]
    return {
        "verdicts_per_s": len(seconds) / sum(seconds),
        "verdict_ms_p50": hd_quantile(ms, 0.5),
        "verdict_ms_p90": hd_quantile(ms, 0.9),
    }


def untraced(args: argparse.Namespace) -> tuple[dict, int, int]:
    """Samples of PASSES_PER_SAMPLE passes until --seconds of verdict time.

    Within a sample a verdict's time is the median over the passes of its
    time at reference speed.  The metrics are medians over samples.
    """
    verdicts = build(args.workload, args.seed)
    setup_in_process = time.perf_counter() - START
    samples: list[dict[str, float]] = []
    wall_samples: list[dict[str, float]] = []
    pass_seconds: list[float] = []
    attempted = failed = 0
    while True:
        walls: list[list[float]] = []
        scaled: list[list[float]] = []
        for _ in range(PASSES_PER_SAMPLE):
            if verdicts is None:
                verdicts = build(args.workload, args.seed)
            dt, wall, at_ref, oks, _ = run_pass(verdicts)
            verdicts = None  # release the pass and its caches before the next build
            pass_seconds.append(dt)
            walls.append(wall)
            scaled.append(at_ref)
            attempted += len(oks)
            failed += oks.count(False)
        samples.append(summarize([statistics.median(ts) for ts in zip(*scaled)]))
        wall_samples.append(summarize([statistics.median(ts) for ts in zip(*walls)]))
        if sum(pass_seconds) >= args.seconds:
            break
    probes = setup_seconds(args)
    units = {"verdicts_per_s": "1/s", "verdict_ms_p50": "ms", "verdict_ms_p90": "ms"}
    metrics = {name: metric(statistics.median(s[name] for s in samples), unit)
               for name, unit in units.items()}
    metrics["setup_s"] = metric(statistics.median(probes), "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n = len(walls[0])

    print(f"workload {args.workload}  seed {args.seed}  {n} verdicts a pass  "
          f"{len(samples)} sample(s) of {PASSES_PER_SAMPLE} passes  verdict wall time a pass "
          + " ".join(f"{t:.3f}" for t in pass_seconds) + " s")
    for name, m in metrics.items():
        wall = (f"   wall clock {statistics.median(s[name] for s in wall_samples):.4f}"
                if name in units else "")
        print(f"  {name:<16} {m['value']:14.4f} {m['unit']}{wall}")
    print(f"  {'failed_share':<16} {failed / attempted:14.4f} ratio  "
          f"({failed} of {attempted} verdicts attempted)")
    print(f"  latency samples: {n} verdicts a pass, {n - math.ceil(0.9 * n)} of them beyond p90")
    print("  setup probes " + " ".join(f"{p:.3f}" for p in probes)
          + f" s; in-process setup {setup_in_process:.3f} s")
    return metrics, attempted, failed


def traced(args: argparse.Namespace) -> tuple[dict, int, int]:
    from spans import Tracer

    _, _, plain_at_ref, plain_ok, plain_results = run_pass(build(args.workload, args.seed))
    verdicts = build(args.workload, args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced_at_ref, traced_ok, traced_results = run_pass(verdicts, tracer)
    finally:
        tracer.uninstall()
    n = len(traced_results)
    mismatched = sum(1 for a, b in zip(plain_results, traced_results) if a != b)
    failed = sum(
        1
        for pair in zip(plain_ok, traced_ok, plain_results, traced_results)
        if not (pair[0] and pair[1] and pair[2] == pair[3])
    )
    totals = tracer.totals()
    metrics: dict[str, dict] = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    metrics["intersect.self_s"] = metric(
        sum(self_s for name, (_, self_s) in totals.items() if name.startswith("intersect.")), "s"
    )
    for key, value in tracer.report_counts.items():
        metrics[f"intersect.{key}"] = metric(value, "count")
    if "charcycle.multiplicity" in totals and "charcycle.multiplicity_at" in totals:
        base = totals["charcycle.multiplicity"][0]
        if base:
            misses = totals["charcycle.multiplicity_at"][0]
            metrics["charcycle.memo_hit_ratio"] = metric(1 - misses / base, "ratio")
    if any(name.startswith("subdivision.") for name in totals):
        metrics["subdivision.simplices_out"] = metric(tracer.simplices_out, "count")
    plain_s, traced_s = sum(plain_at_ref), sum(traced_at_ref)
    metrics["trace_overhead_ratio"] = metric(traced_s / plain_s, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  verdicts {n}  "
          f"at reference speed: untraced {plain_s:.3f} s  traced {traced_s:.3f} s")
    for line in tracer.breakdown():
        print(f"  span {line}")
    for name, (calls, self_s) in totals.items():
        print(f"  total {name} calls {calls} self_s {self_s:.4f}")
    for key, value in sorted(tracer.report_counts.items()):
        print(f"  report {key} {value}")
    if tracer.absent:
        print("  absent (not in this version of the package): " + " ".join(tracer.absent))
    idle = tracer.never_fired()
    if idle:
        print("  never fired on this workload: " + " ".join(idle))
    if mismatched:
        print(f"  {mismatched} verdicts differ between the untraced and the traced pass",
              file=sys.stderr)
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    return {k: v for k, v in metrics.items() if k in declared}, n, failed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulercc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    metrics, attempted, failed = (traced if args.trace else untraced)(args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
