"""One workload in a fresh interpreter: set up, warm up, measure, then check.

``run.py`` starts this script with the workload's environment pinned.  It
prints ``ready`` on stdout once set-up is done (import, first input, one
untimed warm-up call), then ``scale <factor> <seconds>``: the reference
kernel's scale around set-up and the time its runs before set-up took.  Then,
unless ``--mode setup``, it prints one JSON object with the raw measurements.
Every call goes in-process into ``spinorkit.cli.main`` with stdin, stdout and
stderr redirected, one call after the other (a closed loop with one caller).
Outputs are kept and checked only after the timed phase.
"""

from __future__ import annotations

import argparse
import array
import bisect
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MAX_REASONS = 20

# Median time of Reference.run on the machine the benchmark was defined on
# (a 2-core x86-64 virtual machine with shared cores, CPython 3.11.7), when
# that machine ran fast.
REF_NOMINAL_S = 0.00055
REF_EVERY_S = 0.025
REF_WINDOW_S = 0.25
REF_SETUP_SAMPLES = 20


class Reference:
    """A fixed kernel of the benchmark's own exact arithmetic, timed between calls.

    The shared machine's speed swings by a third and more within minutes, and
    it moves the program and this kernel alike: while the latency of one fixed
    ``check`` call went from 9.8 ms to 18.8 ms, its ratio to this kernel's time
    stayed within 1.40-1.46.  Each latency is therefore also reported scaled by
    ``REF_NOMINAL_S`` over the kernel's median time within ``REF_WINDOW_S`` of
    the call: the time the call would take on a machine running at the speed
    where the kernel takes ``REF_NOMINAL_S``.
    """

    def __init__(self):
        rng = random.Random(0)
        self._operands = [(workloads.random_q(rng), workloads.random_q(rng)) for _ in range(12)]
        self.starts = []
        self.costs = []
        self._last = -math.inf

    def run(self):
        t0 = time.perf_counter()
        acc = (Fraction(0),) * 4
        for x, y in self._operands:
            acc = workloads.q_add(acc, workloads.q_mul(x, y))
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.costs.append(t1 - t0)
        self._last = t1

    def run_due(self):
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.run()

    def scale_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.starts, t - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + REF_WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.costs[lo:hi] or self.costs)

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.costs)


def run_call(cli, call):
    """(exit code, stdout, stderr, seconds) of one ``spinor-kit`` call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(call.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # reported like the traceback a shell user would see
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), seconds


def run_calls(cli, calls, ref: Reference, keep, deadline: float = math.inf):
    """Run `calls` in order until `deadline`, handing each (exit code, stdout,
    stderr) to `keep`; returns the latencies and the reference scale at each call."""
    latencies, starts = array.array("d"), array.array("d")
    for call in calls:
        if time.perf_counter() >= deadline:
            break
        starts.append(time.perf_counter())
        rc, out, err, seconds = run_call(cli, call)
        latencies.append(seconds)
        keep((rc, out, err))
        ref.run_due()
    return latencies, [ref.scale_at(t) for t in starts]


def digest(results) -> str:
    h = hashlib.sha256()
    for rc, out, *_ in results:
        h.update(f"{rc}\n{out}\x00".encode())
    return h.hexdigest()


class Checks:
    """Counts the calls attempted and the ones whose exit code or output is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def calls(self, calls, results, with_sympy=False):
        for call, (rc, out, err, *_) in zip(calls, results):
            self.attempted += 1
            reason = workloads.check(call, rc, out, err, with_sympy)
            if reason:
                self.fail(f"{call.kind} {' '.join(call.argv)}: {reason}")

    def golden(self, cli, workload: str, label: str) -> str:
        """Run the default-seed prefix, check it, compare its digest with the stored one."""
        calls = workloads.make_calls(workload, workloads.DEFAULT_SEED, workloads.GOLDEN_CALLS[workload])
        results = [run_call(cli, c) for c in calls]
        self.calls(calls, results, with_sympy=True)
        got = digest(results)
        want = json.loads((HERE / "digests.json").read_text())[workload]
        if got != want:
            self.attempted += 1
            self.fail(f"{label}: stdout digest at seed {workloads.DEFAULT_SEED} is {got}, stored {want}")
        return got


def environment() -> dict:
    from spinorkit import exactfield

    rat = exactfield._rat
    return {
        "python": sys.version.split()[0],
        "rational_backend": f"{rat.__module__}.{rat.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "SPINORKIT_THREADS": os.environ.get("SPINORKIT_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()
    proto = sys.stdout

    # Set-up is bracketed by kernel runs, which run.py subtracts from its time.
    ref = Reference()
    t0 = time.perf_counter()
    for _ in range(REF_SETUP_SAMPLES):
        ref.run()
    bracket = time.perf_counter() - t0

    import spinorkit.cli as cli

    stream = workloads.iter_calls(args.workload, args.seed)
    # Warm-up, the same call for every seed: lazy imports and first-call costs.
    run_call(cli, workloads.make_calls(args.workload, workloads.DEFAULT_SEED, 1)[0])
    print("ready", file=proto, flush=True)
    for _ in range(REF_SETUP_SAMPLES):
        ref.run()
    print(f"scale {ref.scale()!r} {bracket!r}", file=proto, flush=True)
    if args.mode == "setup":
        return 0

    checks = Checks()
    report = {"env": environment()}
    if args.mode == "run":
        # Outputs wait in a file, so the process's peak memory does not grow
        # with the number of calls a faster program completes.
        (HERE / ".out").mkdir(exist_ok=True)
        with tempfile.TemporaryFile("w+", dir=HERE / ".out") as log:
            latencies, scales = run_calls(
                cli, stream, ref, lambda r: log.write(json.dumps(r) + "\n"), time.perf_counter() + args.seconds
            )
            report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            log.seek(0)
            results = [json.loads(line) for line in log]
        calls = workloads.make_calls(args.workload, args.seed, len(results))
        report["latencies"] = latencies.tolist()
        report["scales"] = scales
        report["items"] = sum(c.items for c in calls)
        report["kinds"] = dict(collections.Counter(c.kind for c in calls))
        t0 = time.perf_counter()
        checks.calls(calls, results)
        report["digest"] = checks.golden(cli, args.workload, "untraced")
        report["check_s"] = time.perf_counter() - t0
    else:
        calls = list(itertools.islice(stream, workloads.TRACE_CALLS[args.workload]))
        for call in calls:  # fill the program's own caches (sympy's sieve) before either timed pass
            run_call(cli, call)
        plain, traced = [], []
        plain_lat, plain_scales = run_calls(cli, calls, ref, plain.append)
        tracer = spans.Tracer()
        with tracer:
            traced_lat, traced_scales = run_calls(cli, calls, ref, traced.append)
        with spans.Tracer():
            report["digest"] = checks.golden(cli, args.workload, "traced")
        leftovers = spans.leftover_wrappers()
        if leftovers:
            checks.fail(f"span wrappers left after uninstall: {leftovers}")
        checks.calls(calls, plain)
        checks.calls(calls, traced)
        for call, a, b in zip(calls, plain, traced):
            if a[:2] != b[:2]:  # exit code and stdout; stderr carries elapsed times
                checks.fail(f"traced output differs from untraced for {call.kind} {' '.join(call.argv)}")
        layer = tracer.layer_metrics(statistics.median(traced_scales))
        # traced items/s over untraced items/s on the same calls, both scaled
        layer["trace.overhead_ratio"] = sum(t * k for t, k in zip(plain_lat, plain_scales)) / sum(
            t * k for t, k in zip(traced_lat, traced_scales)
        )
        report["layer"] = layer
        report["spans"] = tracer.dump()
    report.update(attempted=checks.attempted, failed=checks.failed, reasons=checks.reasons)
    print(json.dumps(report), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
