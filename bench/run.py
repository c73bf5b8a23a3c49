"""Benchmark of the hankellift checker: one workload, one seed, one client.

    python3 bench/run.py --workload dichotomy --seed 1 --seconds 40 --trace 0

Inputs come from ``--seed`` (see workloads.py); a timed run never sends the
same input twice.  Set-up, a fresh import of the package with one warm-up check
on a fixed input, runs SETUP_REPS times; its median is ``setup_s``.  With
``--trace 0`` the run sends inputs 0, 1, ... as a closed loop for
``--seconds`` and reports the end-to-end metrics over every check.  With
``--trace 1`` it sends a fixed prefix of the inputs untraced (after a
warm-up pass over it) and then with every function in layers.py wrapped,
and reports the per-layer metrics, whose counts repeat exactly for a seed; ``--seconds`` is not used
there.

Every check is judged against the paper's prediction.  Wrong verdicts,
named refusals and crashes count as failed and never abort the run.  The
result is correct when no verdict contradicts the prediction and nothing
crashed: a named refusal is the package's documented answer to an input it
cannot decide.  The last line of standard output is the result object; the
line before it is the full report with the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

import layers
from environment import (
    ROOT,
    CheckoutError,
    environment_record,
    import_package,
    pin_blas_threads,
    pin_quietest_cpu,
)
from tracing import Tracer
from workloads import CRASHED, OK, REFUSED, WARMUP_SEED, WORKLOADS, WRONG

OUT_DIR = ROOT / "bench" / "_out"
SETUP_REPS = 15
TAIL_BEYOND = 10
REPIN_S = 5.0


def tail_latency(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples above it).  With too few samples the
    maximum is returned at percentile 100 with nothing above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Tally:
    """Latencies of the timed checks and the outcomes of every check."""

    def __init__(self):
        self.latencies = []
        self.status = Counter()
        self.failures = []

    def add(self, seconds, status, detail):
        if seconds is not None:
            self.latencies.append(seconds)
        self.status[status] += 1
        if status != OK and len(self.failures) < 5:
            self.failures.append(f"{status}: {detail}")

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.status[OK]

    def ratios(self) -> dict:
        return {
            "failed_ratio": self.failed / self.attempted,
            "wrong_ratio": self.status[WRONG] / self.attempted,
        }


def run_check(hl, workload, item):
    """Time one check and judge it: (seconds, status, detail).  Only the call is timed."""
    start = time.perf_counter()
    try:
        result = workload.call(item)
    except hl.errors.HankelLiftError as exc:
        return time.perf_counter() - start, REFUSED, f"{type(exc).__name__}: {exc}"
    except Exception:  # a crash is counted and the run goes on
        return time.perf_counter() - start, CRASHED, traceback.format_exc()
    seconds = time.perf_counter() - start
    verdict = workload.judge(item, result)
    return (seconds, OK, "") if verdict is None else (seconds, *verdict)


def send_repeats(hl, workload, tally):
    """Send inputs 0 .. repeats-1 again, untimed; their judge compares the outputs."""
    for index in range(workload.repeats):
        _, status, detail = run_check(hl, workload, workload.item(index))
        tally.add(None, status, detail)


def set_up(workload_cls, seed, workdir):
    """Import and one warm-up check, SETUP_REPS times.

    Each repetition imports hankellift afresh (numpy stays loaded), builds
    the workload and checks input 0 of WARMUP_SEED, the same input in every
    repetition and every run.  Returns the last package and workload with
    the set-up times.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        hl = import_package(fresh=True)
        workload = workload_cls(hl, seed, workdir)
        run_check(hl, workload, workload.item(0, seed=WARMUP_SEED))
        times.append(time.perf_counter() - start)
    return hl, workload, times


def end_to_end(hl, workload, seconds):
    """Send inputs 0, 1, ... one at a time until ``seconds`` elapse.

    Machine speed on a small shared host drifts by +-20 % and more, so every
    REPIN_S seconds the process moves to the CPU that currently runs
    fastest.  Input generation, the oracle and that probe are harness work:
    they run between the check timers, and checks_per_s divides the checks
    by the time spent inside them.
    """
    tally = Tally()
    start = time.perf_counter()
    repin = start + REPIN_S
    index = 0
    while time.perf_counter() - start < seconds:
        if time.perf_counter() >= repin:
            pin_quietest_cpu()
            repin = time.perf_counter() + REPIN_S
        tally.add(*run_check(hl, workload, workload.item(index)))
        index += 1
    latencies = tally.latencies
    send_repeats(hl, workload, tally)
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "checks_per_s": len(latencies) / sum(latencies),
        "check_p50_ms": statistics.median(latencies) * 1e3,
        "check_tail_ms": tail * 1e3,
        **tally.ratios(),
    }
    tail_record = {"percentile": percentile, "samples_beyond": beyond, "samples": len(latencies)}
    return tally, metrics, tail_record


def traced(hl, workload, spans_path, header):
    items = [workload.item(i) for i in range(workload.trace_checks)]
    for _ in range(2):  # the first pass warms up, the second is timed untraced
        start = time.perf_counter()
        for item in items:
            run_check(hl, workload, item)
        plain_s = time.perf_counter() - start

    tracer = Tracer(layers.targets())
    tally = Tally()
    with tracer.installed():
        start = time.perf_counter()
        for check_id, item in enumerate(items):
            tracer.check = check_id
            tally.add(*run_check(hl, workload, item))
        traced_s = time.perf_counter() - start
    tracer.write_spans(spans_path, header)
    send_repeats(hl, workload, tally)

    metrics = tracer.layer_metrics(layers.layer_extras())
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    metrics.update(tally.ratios())
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    nproc = len(os.sched_getaffinity(0))
    cpu, probes = pin_quietest_cpu()
    record = environment_record(args.seed, nproc, cpu, probes)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            hl, workload, setup_times = set_up(WORKLOADS[args.workload], args.seed, workdir)
        except CheckoutError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2
        tail_record = None
        if args.trace:
            header = {"workload": args.workload, "environment": record}
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tally, metrics = traced(hl, workload, spans_path, header)
        else:
            tally, metrics, tail_record = end_to_end(hl, workload, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "attempted": tally.attempted,
        "outcomes": dict(tally.status),
        "failures": tally.failures,
        "setup_times_s": setup_times,
        "metrics": metrics,
        "check_tail": tail_record,
        "environment": record,
    }
    print(json.dumps(report, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.status[WRONG] == 0 and tally.status[CRASHED] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
