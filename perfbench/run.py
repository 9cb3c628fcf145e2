"""spreadbent benchmark driver.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload in this process against the checkout's src/ tree, through
spreadbent.cli.main only, as a closed loop with one caller: each command
line is sent after the previous one returned. It sets up several times and
reports the median set-up time, then repeats the workload's passes until
another pass would most likely end more than half a pass after --seconds,
then checks every output. Timings are scaled to a reference host speed
(hostspeed.py) for every workload that sets host_probe.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes at --jobs 1 and prints the per-layer metrics from the spans
recorded around each layer's public functions, plus trace.overhead_s, the
median traced pass minus the median untraced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name with its unit. A run record with the machine and the sample counts is
written to perfbench/results/. --workload all runs every workload in both
modes, each in a fresh process, and prints all of their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("table1", "build-catalog", "build-wide", "verify")
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "functions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spreadbent; "
    "print(time.perf_counter() - t); print(spreadbent.__file__)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def import_program():
    """Import spreadbent from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import spreadbent
    except ImportError as exc:
        sys.exit(f"error: cannot import spreadbent from {SRC}: {exc}")
    if Path(spreadbent.__file__).resolve().parent != SRC / "spreadbent":
        sys.exit(f"error: imported spreadbent from {spreadbent.__file__}, not {SRC}")
    return spreadbent


def time_import() -> float:
    """Seconds to import spreadbent in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    seconds, origin = proc.stdout.split("\n")[:2]
    if Path(origin).resolve().parent != SRC / "spreadbent":
        raise RuntimeError(f"probe imported spreadbent from {origin}")
    return float(seconds)


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Runner:
    """Sends the workload's passes through cli.main and records each reply."""

    def __init__(self, cli, workload, tracer=None, probe=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.replies: list[tuple[list[str], int, str]] = []
        self.crashes: list[str] = []

    def request(self, argv) -> float:
        if self.probe:
            self.probe.before()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    self.probe.during() if self.probe else contextlib.nullcontext():
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    self.tracer.op += 1
                    with self.tracer.span("cli.main"):
                        rc = self.cli.main(argv)
        except Exception as exc:  # one failed request must not end the run
            rc = None
            self.crashes.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        elapsed = t1 - t0
        self.latencies.append(elapsed)
        self.spans.append((t0, t1))
        self.replies.append((argv, rc, out.getvalue()))
        return elapsed

    def run_pass(self, batch) -> float:
        return sum(self.request(argv) for argv in batch)

    def failures(self) -> list[str]:
        out = list(self.crashes)
        for argv, rc, text in self.replies:
            if rc is None:
                continue
            if rc != 0:
                out.append(f"{' '.join(argv)}: exit code {rc}")
                continue
            try:
                problem = self.workload.check(argv, text)
            except Exception as exc:  # a reply the checker cannot parse is a failure
                problem = f"{' '.join(argv)}: unreadable reply ({type(exc).__name__}: {exc})"
            if problem:
                out.append(problem)
        return out


def setup(workload, seed: int, jobs: int):
    """Generate the inputs SETUP_REPEATS times; setup_s is the median of
    (fresh-interpreter import time + input generation time)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = time_import()
        t0 = time.perf_counter()
        passes = workload.generate(seed, jobs)
        samples.append(imported + time.perf_counter() - t0)
    return passes, samples


def measure(workload_name: str, seed: int, seconds: float, trace: bool, jobs: int):
    import_program()
    from spreadbent import cli

    import spans
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    if trace:
        jobs = 1
    passes, setup_samples = setup(workload, seed, jobs)
    RESULTS.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    probe = hostspeed.Probe(*workload.host_probe) if workload.host_probe and not trace else None
    plain = Runner(cli, workload, probe=probe)
    traced = Runner(cli, workload, tracer)
    plain_walls, traced_walls, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        batch = passes[i % len(passes)]
        i += 1
        plain_walls.append(plain.run_pass(batch))
        if trace:
            with tracer.installed():
                traced_walls.append(traced.run_pass(batch))
        rounds.append(time.perf_counter() - t0)
        # stop once another round would most likely end more than half a
        # round after the deadline
        if deadline - time.perf_counter() < statistics.median(rounds) / 2:
            break
    if probe:
        probe.before()
    replies = plain.replies + traced.replies
    failures = plain.failures() + traced.failures()

    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": jobs,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "samples": {
            "setup": len(setup_samples),
            "passes": len(plain_walls),
            "latency": len(plain.latencies),
        },
        "attempted": len(replies),
        "failed": len(failures),
        "failures": failures[:20],
    }
    if trace:
        traced_wall = sum(traced_walls)
        metrics = tracer.metrics(traced_wall)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        units = spans.metric_units()
        record["samples"]["traced_passes"] = len(traced_walls)
        record["spans"] = len(tracer.spans)
        tracer.write(RESULTS / f"{workload_name}-seed{seed}.spans.csv")
    else:
        latencies = plain.latencies
        record["raw_wall_s"] = statistics.fmean(plain_walls)
        if probe:
            latencies = probe.scale(plain.spans)
            record["raw_spans"] = plain.spans
            record["kernel_samples"] = list(zip(probe.starts, probe.kernel_s))
            record["kernel_ms"] = 1000 * statistics.median(probe.kernel_s)
        # the mean pass, not the median: the host's fast and slow states
        # make pass times bimodal, and a median jumps between the modes
        wall_s = sum(latencies) / len(plain_walls)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "functions_per_s": workload.functions_per_pass / wall_s,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    path = RESULTS / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def show(record) -> None:
    name = record["workload"]
    samples = record["samples"]
    print(f"# {name}: seed={record['seed']} jobs={record['jobs']} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} commit={record['git_commit']}")
    print(f"# {name}: samples setup={samples['setup']} passes={samples['passes']} "
          f"latency={samples['latency']}")
    for metric, entry in record["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    rate = record["failed"] / record["attempted"]
    print(f"{name} error_rate = {rate:.6g} ({record['failed']}/{record['attempted']} failed)")
    for failure in record["failures"]:
        print(f"{name} FAIL {failure}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stdout.flush()
            if proc.returncode != 0 and not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spreadbent benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spreadbent" / "__init__.py").is_file():
        print(f"error: no spreadbent sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), nproc())
    show(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
