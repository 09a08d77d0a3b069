"""Benchmark of the ``spinor-kit`` CLI: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload spinor --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the repository root.  Each workload runs in fresh interpreters
(``bench/worker.py``) with ``PYTHONHASHSEED`` fixed and ``SPINORKIT_THREADS``
removed, so the suites run in one thread.  One caller sends each call into
``spinorkit.cli.main`` only after the last one returned (a closed loop).

``--trace 0`` measures the end-to-end metrics.  Set-up is measured in
``SETUPS`` fresh interpreters and reported as their median; the last of them
then runs the timed phase for ``--seconds``.  Times are reported scaled to a
fixed machine speed by a reference kernel timed between calls
(``worker.Reference``); the unscaled figures are printed too.  ``--trace 1`` instead runs a
fixed prefix of the call stream untraced and then traced (``bench/spans.py``),
and reports the per-layer metrics; for a fixed seed its ``.calls`` counts
repeat exactly.  Either way every output is checked after measuring, and the
default-seed prefix must reproduce ``bench/digests.json``.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every check passed.  ``bench/WORKLOADS.md`` gives the reason for each
workload and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9
WORKER_TIMEOUT = 150  # seconds a worker may take beyond --seconds
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Percentile that call_tail_ms stands for: the highest of 90, 95, 99 and 99.9
# with at least ten calls beyond it in a 25 s run at the defining commit.
TAIL_PERCENTILE = {"spinor": 95, "forms": 95, "fock": 95, "dsl": 99}


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINORKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start a worker; returns (process, seconds from start to 'ready', reference scale)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    scale = proc.stdout.readline().split()
    if line != "ready\n" or scale[:1] != ["scale"]:
        stop(proc)
        raise BenchError(f"{workload} worker exited during set-up (exit {proc.returncode})")
    return proc, setup - float(scale[2]), float(scale[1])


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit {proc.returncode}")
    return out


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its metrics, check counts and notes."""
    setups = []  # (seconds, reference scale)
    if not trace:
        for _ in range(SETUPS - 1):
            proc, setup, scale = start_worker(workload, seed, seconds, "setup")
            finish_worker(proc, WORKER_TIMEOUT)
            setups.append((setup, scale))
    proc, setup, scale = start_worker(workload, seed, seconds, "trace" if trace else "run")
    try:
        report = json.loads(finish_worker(proc, seconds + WORKER_TIMEOUT).splitlines()[-1])
    finally:
        stop(proc)
    setups.append((setup, scale))
    notes = [f"env python={report['env']['python']} rational_backend={report['env']['rational_backend']}"
             f" nproc={report['env']['nproc']} git_commit={git_commit()}"
             f" PYTHONHASHSEED={report['env']['PYTHONHASHSEED']} SPINORKIT_THREADS={report['env']['SPINORKIT_THREADS']}",
             f"stdout sha256 at seed {workloads.DEFAULT_SEED}: {report['digest']}"]
    notes += [f"FAILED: {r}" for r in report["reasons"]]
    if trace:
        metrics = report["layer"]
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(report["spans"], indent=1) + "\n")
        notes.append(f"traced {workloads.TRACE_CALLS[workload]} calls; span tree in {trace_file.relative_to(ROOT)}")
        units = dict(spans.LAYER_METRICS)
    else:
        p = TAIL_PERCENTILE[workload]
        raw = sorted(report["latencies"])
        lat = sorted(t * k for t, k in zip(report["latencies"], report["scales"]))
        beyond = sum(1 for v in lat if v > percentile(lat, p))
        attempted = report["attempted"]
        metrics = {
            "setup_s": statistics.median(t * k for t, k in setups),
            "items_per_s": report["items"] / sum(lat),
            "call_p50_ms": percentile(lat, 50) * 1e3,
            "call_tail_ms": percentile(lat, p) * 1e3,
            "ok_ratio": (attempted - report["failed"]) / attempted,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
        units = dict(END_TO_END)
        notes.append(f"{len(lat)} timed calls {report['kinds']}; call_tail_ms is p{p} with {beyond} calls beyond it;"
                     f" fail_ratio {report['failed']}/{attempted}; checks took {report['check_s']:.1f} s")
        notes.append(f"unscaled: setup_s {statistics.median(t for t, _ in setups):.4f} s,"
                     f" items_per_s {report['items'] / sum(raw):.4g},"
                     f" call_p50_ms {percentile(raw, 50) * 1e3:.4g}, call_tail_ms {percentile(raw, p) * 1e3:.4g};"
                     f" reference scale median {statistics.median(report['scales']):.4f},"
                     f" setup scales {', '.join(f'{k:.3f}' for _, k in setups)}")
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": report["attempted"],
        "failed": report["failed"],
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25, help="length of the timed phase (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinorkit" / "cli.py").is_file():
        print(f"error: no spinorkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for note in result["notes"]:
            print(f"[{name}] {note}")
        for metric, entry in result["metrics"].items():
            print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = entry
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
