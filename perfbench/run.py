"""The cogscope benchmark: one run of one workload.

    python3 perfbench/run.py --workload {weyuker,corpus,analyze-large} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the cogscope under ``src/``
and checks outputs with the replay oracle under ``tests/``.  The seed makes
the inputs (see ``workloads.json``), which are written under
``perfbench/.work`` and removed at the end.

With ``--trace 0`` it runs the workload in a fresh, single-threaded process
that drives ``cogscope.cli.main`` in a closed loop (one client) for S
seconds, times set-up in that process and in fresh probe interpreters
started before and after it, and prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it
prints the per-layer metrics of a traced run instead (see ``tracing.py``).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every output was correct, 1 when not, and
2 when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 8  # set-up probes besides the measuring process itself
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it
TIMEOUT_S = 150


class NoResult(Exception):
    """The benchmark could not produce a result."""


class Worker:
    """A worker process, killed if it runs longer than TIMEOUT_S."""

    def __init__(self, plan_path: Path, *flags: str):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), *flags],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(TIMEOUT_S, self.proc.kill)
        self._watchdog.start()
        line = self.proc.stdout.readline()
        #: seconds from start until cogscope was imported and the warm-up returned
        self.setup_s = time.perf_counter() - started
        if not line.startswith("ready "):
            self.finish()
            raise NoResult(f"worker gave no ready line (exit code {self.proc.returncode})")
        self.warmup_digest = line.split()[1]

    def finish(self) -> list[str]:
        """Wait for the worker to end and return the rest of its stdout, by line."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            self.proc.stdout.close()
        return rest.splitlines()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: value, percentile, samples beyond."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def measure(args, plan_path: Path) -> tuple[dict, dict, list[str]]:
    """Run the probes and the worker: raw worker result, metric values, notes."""
    probes = []

    def probe(count: int) -> None:
        for _ in range(count):
            process = Worker(plan_path, "--probe")
            process.finish()
            probes.append(process)

    # Half the set-up probes run before the measuring process and half after,
    # so set-up time samples the host at both ends of the run.
    if not args.trace:
        probe(PROBES // 2)
    flags = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    worker = Worker(plan_path, *flags)
    lines = worker.finish()
    if worker.proc.returncode != 0 or not lines:
        raise NoResult(f"worker exited with code {worker.proc.returncode}")
    result = json.loads(lines[-1])
    if not args.trace:
        probe(PROBES - PROBES // 2)

    # Probes are fresh processes with their own hash seeds: their warm-up
    # output must match the worker's byte for byte.
    result["attempted"] += len(probes)
    for process in probes:
        if process.warmup_digest != worker.warmup_digest:
            result["failed"] += 1
            result["errors"].append(
                f"warm-up stdout sha256 {process.warmup_digest[:16]} in a probe, "
                f"{worker.warmup_digest[:16]} in the worker"
            )

    if args.trace:
        return result, result["layers"], result["notes"]
    latencies = result["latencies_s"]
    if not latencies:
        raise NoResult("no request succeeded")
    tail_s, percentile, beyond = tail(latencies)
    values = {
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(p.setup_s for p in probes + [worker]),
        "peak_rss_mb": result["rss_kb"] / 1024,
    }
    # A shared 2-vCPU VM alternates between fast and slow phases.  The tail
    # sits in the slow phase on every run, but the median and the mean move
    # with the share of time spent in the fast one, by up to a quarter from
    # run to run there, so they are printed without a bound.
    items = workloads.RECORDS[args.workload]["items"]
    throughput = sum(result["items"]) / sum(latencies)
    notes = [f"throughput_per_s = {throughput:.6g} {items}/s (mean, printed only)",
             f"latency_p50_ms = {statistics.median(latencies) * 1e3:.6g} ms (median, printed only)",
             f"latency_tail_ms: p{percentile:.1f} of {len(latencies)} requests, {beyond} beyond it",
             f"setup_s: median of {len(probes) + 1} fresh interpreters"]
    return result, values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cogscope benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "cogscope" / "__init__.py", ROOT / "tests" / "_replay.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a cogscope checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.import_program()

    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result, values, notes = measure(args, plan_path)
    except NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    aliases = workloads.RECORDS["metric_aliases"].get(args.workload, {})
    lines = [f"{name} = {metric['value']:.6g} {metric['unit']}" for name, metric in metrics.items()]
    lines += [f"error_rate = {result['failed']}/{result['attempted']} failed/attempted"]
    lines += [f"note: {note}" for note in notes]
    for line in lines:
        name = line.removeprefix("note: ").split(" ")[0]
        print(line + (f"  (also called {aliases[name]})" if name in aliases else ""))
    for error in result["errors"]:
        print(f"error: {error}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
