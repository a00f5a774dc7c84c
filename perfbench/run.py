"""Benchmark for priodpa: seeded closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process, one thread, one item at a time.  Set-up (import, input
generation, instance files, warm-up) is repeated SETUP_REPS times and its
median is ``setup_s``.  With ``--trace 0`` the timed phase cycles through
the workload's items until ``--seconds`` have passed and reports the
end-to-end metrics.  A calibration kernel runs between items, and every
time, set-up included, is scaled to the kernel's reference speed (see
``speed.py``), so a stretch in which the whole host runs slow does not read
as a slower program.  With ``--trace 1`` it alternates untraced and traced
passes over a fixed item set and reports the per-layer metrics.  Outputs
are checked outside the timed item span.  The last line of stdout is the
result as JSON; the exit code is 1 when any check failed, and 2 (with no
result) when set-up or warm-up fails.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import HostSpeed  # noqa: E402
from tracer import DETERMINISTIC, PER_LAYER, Tracer, median_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

END_TO_END = {
    "throughput": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPS = 15
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
SHOWN_FAILURES = 3
HASH_SEED = "0"


class SetupError(Exception):
    pass


def import_priodpa():
    """Import priodpa from this checkout's src/, afresh each call."""
    if not os.path.isfile(os.path.join(SRC, "priodpa", "__init__.py")):
        raise SetupError(f"no priodpa package under {SRC}")
    for name in [m for m in sys.modules if m == "priodpa" or m.startswith("priodpa.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pd = importlib.import_module("priodpa")
    importlib.import_module("priodpa.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pd.__file__))) != SRC:
        raise SetupError(f"priodpa was imported from {pd.__file__}, not from {SRC}")
    return pd


class Tally:
    """Item times and failures of one stretch of items."""

    def __init__(self):
        self.times_ns = array("q")
        # the host-speed sample count when each item ran
        self.tags = array("q")
        self.failed = 0
        self.check_ns = 0

    def attempt(self, wl, item, tag=0):
        self.tags.append(tag)
        clock = time.perf_counter_ns
        start = clock()
        try:
            output = wl.run(item)
        except Exception:
            self.times_ns.append(clock() - start)
            self._fail(traceback.format_exc())
            return
        self.times_ns.append(clock() - start)
        start = clock()
        try:
            wl.check(item, output)
        except CheckFailed as exc:
            self._fail(f"check failed: {exc}\n")
        self.check_ns += clock() - start

    def _fail(self, message):
        if self.failed < SHOWN_FAILURES:
            sys.stderr.write(message)
        self.failed += 1

    @property
    def item_s(self):
        return sum(self.times_ns) / 1e9


def set_up(workload, seed, workdir):
    start = time.perf_counter()
    pd = import_priodpa()
    wl = WORKLOADS[workload](pd, seed, workdir)
    warm = Tally()
    for item in wl.warmup_schedule:
        warm.attempt(wl, item)
    if warm.failed:
        raise SetupError(f"{warm.failed} warm-up items failed")
    return time.perf_counter() - start, pd, wl


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n, preferred):
    """The workload's tail percentile if at least MIN_BEYOND of ``n`` values
    lie beyond it, else the highest one on the ladder that has them."""
    fits = [p for p in PERCENTILES if p <= preferred and n * (100 - p) / 100 >= MIN_BEYOND]
    return max(fits) if fits else PERCENTILES[0]


def timed_phase(wl, seconds, setup_s):
    """Cycle through the schedule, sampling host speed between items; each
    item time is scaled by the speed measured around it."""
    tally = Tally()
    speed = HostSpeed()
    schedule = wl.schedule
    speed.sample()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        speed.due()
        tally.attempt(wl, schedule[i % len(schedule)], speed.index)
        i += 1
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = speed.scales()
    item_ms = sorted(t * scales[tag] / 1e6 for t, tag in zip(tally.times_ns, tally.tags))
    n = len(item_ms)
    tail_pct = tail_percentile(n, wl.tail_pct)
    metrics = {
        "throughput": n / (sum(item_ms) / 1e3),
        "item_ms.p50": percentile(item_ms, 50),
        "item_ms.tail": percentile(item_ms, tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "distinct_items": min(n, len(schedule)),
        "item_ms.p50": {"percentile": 50, "samples": n},
        "item_ms.tail": {"percentile": tail_pct, "samples": n,
                         "beyond": n - math.ceil(tail_pct / 100 * n)},
        "unscaled_items_per_s": n / tally.item_s,
        "host_scale": {"samples": len(speed.samples_ns), "mean": speed.mean_scale(),
                       "min": min(scales), "max": max(scales)},
        "bench.check_s": tally.check_ns / 1e9,
        "failed_frac": tally.failed / n,
    }
    return tally, metrics, detail


def traced_phase(wl, pd, seconds):
    """Alternate untraced and traced passes over the fixed trace items."""
    items = wl.trace_schedule
    passes = []
    attempted = failed = 0
    first_counts = None
    deterministic = True
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        plain = Tally()
        for item in items:
            plain.attempt(wl, item)
        tracer = Tracer(pd)
        traced = Tally()
        tracer.install()
        try:
            for item in items:
                traced.attempt(wl, item)
        finally:
            tracer.uninstall()
        metrics, calls = tracer.metrics()
        metrics["bench.items"] = len(items)
        metrics["bench.check_s"] = traced.check_ns / 1e9
        metrics["trace.untraced_s"] = plain.item_s
        metrics["trace.overhead_s"] = traced.item_s - plain.item_s
        counts = ({name: metrics[name] for name in DETERMINISTIC}, calls)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            deterministic = False
            sys.stderr.write(f"counts differ between traced passes: {counts} vs {first_counts}\n")
        passes.append(metrics)
        attempted += 2 * len(items)
        failed += plain.failed + traced.failed
    metrics = median_metrics(passes)
    detail = {
        "trace_passes": len(passes),
        "trace_overhead_s": metrics["trace.overhead_s"],
        "deterministic_counts": deterministic,
        "failed_frac": failed / attempted,
        "span_calls": first_counts[1],
    }
    return attempted, failed, deterministic, metrics, detail


def run_one(args):
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        speed = HostSpeed()
        for _ in range(SETUP_REPS):
            speed.sample()
            elapsed, pd, wl = set_up(args.workload, args.seed, workdir)
            setups.append(elapsed)
        speed.sample()
        # each set-up is scaled by the kernel samples just before and after it
        scales = speed.scales(half_window=1)
        setup_s = statistics.median(t * scales[rep + 1] for rep, t in enumerate(setups))
        setup_scale = speed.mean_scale()
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "setup_reps_s": setups,
            "setup_host_scale": setup_scale,
        }
        if args.trace:
            attempted, failed, ok, metrics, extra = traced_phase(wl, pd, args.seconds)
            units = PER_LAYER
        else:
            tally, metrics, extra = timed_phase(wl, args.seconds, setup_s)
            attempted, failed, ok = len(tally.times_ns), tally.failed, True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    detail.update(extra)
    correct = ok and failed == 0
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process and print each metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            if len(lines) < 2:
                continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            extra = detail.get(metric, "")
            print(f"  {metric:32} {entry['value']:>14.6g} {entry['unit']:16} {extra}")
    return status


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Requests hash a str, so set iteration order, and with it how many
        # comparisons a comparator-built order makes, follows the hash seed.
        # Pinning it makes the traced counts repeat across processes.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
