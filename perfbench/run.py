"""qsymk benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  verify-batch      fresh `qsymk verify ...` / `qsymk dims` processes
  query-stream      one warm library server answering a seeded request stream
  shuffle-products  fresh `qsymk verify ideal` / `qsymk shufflecheck` processes

One client drives each workload in a closed loop: the next job or request
starts only after the previous one finished and its output was checked.
Time metrics are scaled to a reference host speed measured while the
program works (see "host speed" below and README.md).
A run repeats passes over the workload's fixed work until the next pass
would overrun --seconds.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the run environment and a readable summary.

Exit code 0 when the run completed (whether or not every output was
correct); 1 when the program under test cannot even be started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from workloads import (
    QUICK_STREAM_LENGTH,
    STREAM_LENGTH,
    Job,
    batch_jobs,
    check_job,
    check_reply,
    make_stream,
    repeat_share,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-batch", "shuffle-products", "query-stream")
CHILD_TIMEOUT_S = 120.0
SETUP_PROBES_PER_PASS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Traced function -> the quantities reported for it.
TRACED_QUANTITIES = {
    "linalg.reduce": ("calls", "self_s", "in_vectors", "in_nonzeros", "rank"),
    "linalg.spans_equal": ("calls", "self_s"),
    "linalg.in_span": ("calls", "self_s", "true_share"),
    "qsym.m_to_f": ("calls", "self_s", "out_terms"),
    "qsym.f_to_m": ("calls", "self_s", "out_terms"),
    "qsym.multiply_f": ("calls", "self_s"),
    "qsym.psi": ("calls", "self_s"),
    "qsym.rho": ("calls", "self_s"),
    "kernel.is_ideal_upto": ("calls", "self_s"),
    "kernel.kernel_space": ("calls", "distinct", "self_s"),
    "kernel.relation_edges": ("calls", "distinct", "self_s", "edges"),
    "statistics.shuffles": ("calls", "self_s", "words"),
    "statistics.check_shuffle_compatible": ("calls", "self_s"),
    "statistics.equivalence_classes": ("calls", "self_s"),
    "compositions.compositions_of": ("calls",),
}
MODULES = ("compositions", "statistics", "linalg", "qsym", "kernel")
QUANTITY_UNITS = {"self_s": "s", "true_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{fn}.{q}": QUANTITY_UNITS.get(q, "count")
        for fn, quantities in TRACED_QUANTITIES.items()
        for q in quantities
    }
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units.update({
        "cli.self_s": "s",
        "cli.cpu_s": "s",
        "cli.pool_overlap": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
        "workload.repeat_share": "ratio",
    })
    return units


# -- host speed -------------------------------------------------------------------
# The speed a shared host gives a process drifts by 20 to 50 % over seconds
# to minutes, which moves every timing of the program as much as a real
# regression would.  The benchmark therefore times a fixed slice of
# pure-Python work of its own while the program works, and scales each
# timing by REFERENCE_S / (mean measured time of that slice): a time
# metric reads what it would on a host where one slice takes REFERENCE_S.
# The slice does what qsymk spends its time on (dict updates with Fraction
# arithmetic) and shares no code with qsymk, so a change to the program
# moves the scaled times and a change of host speed does not.
#
# The query stream runs one slice after each request, on the server's CPU,
# and scales each request by the slices around it.  A CLI job cannot be
# interrupted, so SpeedSampler runs slices on a background thread, on the
# job's CPU, while the job runs; each job is scaled by its own samples.

REFERENCE_S = 200e-6  # nominal time of one reference_work() call
STREAM_WINDOW = 64  # a request is scaled by the slices of 64 requests either side
SAMPLE_SLICES = 5  # slices per sample of SpeedSampler, about 1 ms
SAMPLE_EVERY_S = 0.02


def reference_work() -> None:
    acc: dict[int, Fraction] = {}
    for i in range(40):
        key = (i * 37) % 16
        acc[key] = acc.get(key, 0) + Fraction(i % 13 + 1, i % 7 + 1)


def _slices() -> float:
    """Mean seconds of one of SAMPLE_SLICES reference_work() calls, now."""
    start = time.perf_counter()
    for _ in range(SAMPLE_SLICES):
        reference_work()
    return (time.perf_counter() - start) / SAMPLE_SLICES


def local_scales(reference: list[float]) -> list[float]:
    """The scale of each stream request, from the reference slices timed
    after the requests within STREAM_WINDOW of it.  The host's speed
    changes within a pass, so a local window follows it better than the
    mean over the pass."""
    prefix = [0.0, *accumulate(reference)]
    n = len(reference)
    scales = []
    for i in range(n):
        lo, hi = max(0, i - STREAM_WINDOW), min(n, i + STREAM_WINDOW + 1)
        scales.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales


def running_cpu(pid: int) -> int | None:
    """The CPU that a running thread of process `pid` is on, if one runs."""
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if fields[0] == "R":
                return int(fields[36])  # field 39 of stat, "processor"
    except (OSError, IndexError, ValueError):
        pass
    return None


class SpeedSampler:
    """Samples host speed while child process `pid` runs.

    Every SAMPLE_EVERY_S a background thread moves to the CPU that a
    running thread of the child is on and times SAMPLE_SLICES reference
    slices there, so the samples see the speed the child gets.  (Samples
    taken on another CPU follow the child's speed poorly: the host's CPUs
    drift independently.)  The child waits about 1 ms per sample, the same
    5 % on every commit.
    """

    def __init__(self, pid: int) -> None:
        self._pid = pid
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        tid = threading.get_native_id()
        while not self._stop.wait(SAMPLE_EVERY_S):
            cpu = running_cpu(self._pid)
            if cpu is None:
                continue
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:
                continue
            self._samples.append(_slices())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """REFERENCE_S over the mean slice time (one taken now if the
        child ended before the first sample)."""
        return REFERENCE_S / statistics.mean(self._samples or [_slices()])


# -- child processes ------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # a fixed hash seed keeps set and dict layouts, and so timings, the
    # same from process to process
    env["PYTHONHASHSEED"] = "0"
    return env


def wait_child(proc: subprocess.Popen) -> os.struct_rusage:
    """Reap `proc` with its own resource usage, killing it on timeout."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


@dataclass
class PassResult:
    """One pass.  `solve_s` is unscaled: the pass's wall time for a batch,
    the sum of its request latencies for the stream.  `latencies` and
    `per_item` are scaled to the reference host speed."""

    traced: bool
    solve_s: float
    scale: float = 1.0  # REFERENCE_S over the measured reference time
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    peak_rss_kb: int = 0
    per_item: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, work: Path, quick: bool):
        self.work = work
        self.quick = quick
        self.env = child_env()
        self.setup_samples: list[float] = []

    def probe_setup(self) -> None:
        """Time a cold interpreter start plus `import qsymk.cli`, the
        part of every CLI job that precedes its own work."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import qsymk.cli"], env=self.env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        with SpeedSampler(proc.pid) as speed:
            err = proc.stderr.read()
            wait_child(proc)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise StartError(f"cannot import qsymk from {ROOT / 'src'}:\n{err.decode(errors='replace')}")
        self.setup_samples.append(elapsed * speed.scale())

    # -- batch workloads --------------------------------------------------------

    def batch_pass(self, jobs: list[Job], traced: bool) -> PassResult:
        result = PassResult(traced, 0.0)
        traces = []
        out_path = self.work / "job.out"
        err_path = self.work / "job.err"
        trace_path = self.work / "job.trace"
        scales = []
        pass_start = time.perf_counter()
        for job in jobs:
            if traced:
                trace_path.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "traced_job.py"), str(trace_path), *job.argv]
            else:
                argv = [sys.executable, "-m", "qsymk.cli", *job.argv]
            start = time.perf_counter()
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
                with SpeedSampler(proc.pid) as speed:
                    usage = wait_child(proc)
            elapsed = time.perf_counter() - start
            scales.append(speed.scale())
            stdout = out_path.read_text(encoding="utf-8", errors="replace")
            try:
                reason = check_job(job, proc.returncode, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {exc}"
            result.per_item[job.label] = elapsed * scales[-1]
            result.attempted += 1
            result.peak_rss_kb = max(result.peak_rss_kb, usage.ru_maxrss)
            if reason is not None:
                stderr_tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
                result.failures.append(f"{job.label}: {reason} {stderr_tail}".strip())
            if traced and trace_path.exists():
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
                trace["cpu_s"] = usage.ru_utime + usage.ru_stime
                traces.append(trace)
            elif traced:
                result.failures.append(f"{job.label}: traced job wrote no trace")
        result.solve_s = time.perf_counter() - pass_start
        result.scale = statistics.median(scales)
        if traced:
            result.layers = layer_metrics(traces, cli=True)
        return result

    def run_batch(self, workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[PassResult], list[str]]:
        jobs = batch_jobs(workload, self.quick)
        rng = random.Random(seed)
        modes = (False, True) if trace else (False,)
        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for traced in modes:
                if not traced:
                    for _ in range(SETUP_PROBES_PER_PASS):
                        self.probe_setup()
                passes.append(self.batch_pass(rng.sample(jobs, len(jobs)), traced))
            cycle = time.perf_counter() - cycle_start
            if time.perf_counter() - start + cycle > seconds:
                break
        return passes, [job.label for job in jobs]

    # -- query stream -------------------------------------------------------------

    def stream_pass(self, lines: list[str], requests: list[dict], traced: bool) -> PassResult:
        result = PassResult(traced, 0.0)
        argv = [sys.executable, str(BENCH_DIR / "serve.py")] + (["--trace"] if traced else [])
        start = time.perf_counter()
        with open(self.work / "serve.err", "wb") as err:
            proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=ROOT, text=True, bufsize=1,
            )
        # a hung server is killed, which ends the pass with failures
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        final = {}
        try:
            ready = proc.stdout.readline()
            if not ready:
                raise StartError("query server exited before it was ready:\n"
                                 + (self.work / "serve.err").read_text(errors="replace"))
            ready_s = time.perf_counter() - start
            write, readline = proc.stdin.write, proc.stdout.readline
            perf_counter = time.perf_counter
            raw: list[float] = []
            reference: list[float] = []
            for line, req in zip(lines, requests):
                sent = perf_counter()
                write(line)
                proc.stdin.flush()
                answer = readline()
                received = perf_counter()
                # one reference slice per request, on the server's CPU,
                # samples the host's speed all through the pass
                reference_work()
                reference.append(perf_counter() - received)
                result.attempted += 1
                raw.append(received - sent)
                try:
                    reason = check_reply(req, json.loads(answer))
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable reply {answer[:80]!r}: {exc}"
                if reason is not None:
                    result.failures.append(f"{line.strip()}: {reason}")
                    if not answer:
                        break
            result.solve_s = sum(raw)
            result.scale = REFERENCE_S * len(reference) / sum(reference)
            result.latencies = [t * k for t, k in zip(raw, local_scales(reference))]
            if not traced:
                self.setup_samples.append(ready_s * result.scale)
            write(json.dumps({"op": "quit"}) + "\n")
            proc.stdin.flush()
            final = json.loads(readline() or "{}")
        except BrokenPipeError:
            result.failures.append("query server closed its input")
        finally:
            watchdog.cancel()
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            usage = wait_child(proc)
            proc.stdout.close()
        result.peak_rss_kb = usage.ru_maxrss
        if traced:
            trace = final.get("trace")
            if trace is None:
                result.failures.append("traced server returned no trace")
            else:
                result.layers = layer_metrics([trace], cli=False)
        return result

    def run_stream(self, seed: int, seconds: float, trace: bool) -> tuple[list[PassResult], int, float]:
        requests = make_stream(seed, QUICK_STREAM_LENGTH if self.quick else STREAM_LENGTH)
        lines = [json.dumps(req, sort_keys=True) + "\n" for req in requests]
        modes = (False, True) if trace else (False,)
        passes: list[PassResult] = []
        # The client and the server it starts share one CPU.  Only one
        # request is ever in flight, and on a virtual machine waking an
        # idle CPU for every hand-over would add noisy latency.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            start = time.perf_counter()
            while True:
                cycle_start = time.perf_counter()
                for traced in modes:
                    passes.append(self.stream_pass(lines, requests, traced))
                cycle = time.perf_counter() - cycle_start
                enough_setup = len(self.setup_samples) >= 3
                if enough_setup and time.perf_counter() - start + cycle > seconds:
                    break
        finally:
            os.sched_setaffinity(0, cpus)
        return passes, len(lines), repeat_share(lines)


class StartError(Exception):
    """The program under test could not be started at all."""


# -- metrics ------------------------------------------------------------------------

def layer_metrics(traces: list[dict], cli: bool) -> dict[str, float]:
    """Per-layer metrics of one pass, from the tracer reports of its
    processes (one per CLI job, or the one server)."""
    totals: dict[str, dict[str, float]] = {}
    for trace in traces:
        for fn, entry in trace["functions"].items():
            into = totals.setdefault(fn, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    out: dict[str, float] = {}
    for fn, quantities in TRACED_QUANTITIES.items():
        entry = totals.get(fn, {})
        for q in quantities:
            if q == "true_share":
                out[f"{fn}.{q}"] = entry.get("true", 0) / entry["calls"] if entry.get("calls") else 0.0
            else:
                out[f"{fn}.{q}"] = entry.get(q, 0)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            entry["self_s"] for fn, entry in totals.items() if fn.split(".")[0] == module
        )
    wall = sum(t.get("wall_s", 0.0) for t in traces) if cli else 0.0
    out["cli.self_s"] = sum(t["wall_s"] - t["covered_wall_s"] for t in traces) if cli else 0.0
    out["cli.cpu_s"] = sum(t["cpu_s"] for t in traces) if cli else 0.0
    out["cli.pool_overlap"] = sum(t["top_cpu_s"] for t in traces) / wall if wall else 0.0
    return out


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[PassResult], setup: list[float], per_pass_items: int,
               batch_labels: list[str] | None) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    # Medians over the passes damp a noisy moment of the host.
    if batch_labels is not None:
        # each job at its median; one job is in flight at a time, so a
        # pass takes the sum of its jobs
        jobs = [statistics.median(p.per_item[label] for p in plain) for label in batch_labels]
        solve = sum(jobs)
        p50, p99 = statistics.median(jobs), percentile(jobs, 99)
    else:
        # the same stream in every pass: each request at its median over
        # the passes, as the batch jobs
        per_request = [statistics.median(times) for times in zip(*(p.latencies for p in plain))]
        solve = sum(per_request)
        p50, p99 = statistics.median(per_request), percentile(per_request, 99)
    return {
        "setup_s": statistics.median(setup),
        "solve_s": solve,
        "req_per_s": per_pass_items / solve,
        "latency_p50_ms": 1000 * p50,
        "latency_p99_ms": 1000 * p99,
        "peak_rss_mb": max(p.peak_rss_kb for p in plain) / 1024,
    }


def per_layer(passes: list[PassResult], repeat: float) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {
        name: statistics.median(p.layers.get(name, 0.0) for p in traced)
        for name in per_layer_units()
        if not name.startswith(("trace.", "workload."))
    }
    # pass lengths scaled to the reference host speed, like solve_s
    traced_solve = statistics.median(sum(p.per_item.values()) + sum(p.latencies) for p in traced)
    plain_solve = statistics.median(sum(p.per_item.values()) + sum(p.latencies) for p in plain)
    out["trace.overhead_s"] = traced_solve - plain_solve
    out["trace.overhead_share"] = (traced_solve - plain_solve) / plain_solve
    out["workload.repeat_share"] = repeat
    return out


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> str:
    """The run environment, so that runs on a loaded machine stand out."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read_text("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    load = _read_text("/proc/loadavg").strip() or "unknown"
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"cpu={cpu!r} loadavg={load!r}")


# -- entry point ----------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qsymk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every job and the stream (used by selftest.py)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one benchmark invocation; returns the result object."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work_dir:
        bench = Bench(Path(work_dir), args.quick)
        trace = bool(args.trace)
        if args.workload == "query-stream":
            passes, items, repeat = bench.run_stream(args.seed, args.seconds, trace)
            labels = None
        else:
            passes, labels = bench.run_batch(args.workload, args.seed, args.seconds, trace)
            repeat = repeat_share(labels)
            items = len(labels)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(len(p.failures) for p in passes)
    if trace:
        metrics, units = per_layer(passes, repeat), per_layer_units()
    else:
        metrics, units = end_to_end(passes, bench.setup_samples, items, labels), END_TO_END_UNITS

    plain = [p for p in passes if not p.traced]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(plain)} untraced + {len(passes) - len(plain)} traced, "
          f"{items} {'requests' if labels is None else 'jobs'} per pass")
    if labels is None:
        samples = f"{items} requests per pass, median over {len(plain)} passes"
    else:
        samples = f"{len(labels)} jobs, each its median over {len(plain)} passes"
    print(f"fail_ratio={failed}/{attempted} repeat_share={repeat:.4f} "
          f"latency samples={samples} setup samples={len(bench.setup_samples)}")
    scales = sorted(p.scale for p in plain)
    print(f"host speed scale over passes: median {statistics.median(scales):.4f} "
          f"min {scales[0]:.4f} max {scales[-1]:.4f}; unscaled pass time median "
          f"{statistics.median(p.solve_s for p in plain):.4f} s")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qsymk" / "__init__.py").is_file():
        print(f"error: no qsymk sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    print(environment(), flush=True)
    try:
        result = run(args)
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
