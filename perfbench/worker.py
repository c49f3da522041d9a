"""One workload run in a fresh, single-threaded process.

    python3 perfbench/worker.py PLAN --probe
    python3 perfbench/worker.py PLAN --seconds S [--trace]

The worker imports cogscope from the checkout, sends the plan's warm-up
request through ``cogscope.cli.main`` and prints ``ready <sha256 of its
stdout>``; ``run.py`` times set-up up to that line.  A probe exits there.
Otherwise the worker sends the plan's requests in a closed loop, whole
cycles at a time, for at least S seconds, checks the outputs once the clock
has stopped, and prints one JSON line of raw results.

With --trace it alternates untraced and traced passes over the plan, at
least two traced, and reports the per-layer metrics instead of latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def call(main, argv: list[str]) -> tuple[int, str, float]:
    """Run ``main(argv)`` with stdout captured: exit code, stdout, seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def send(main, request: dict) -> tuple[int, str, float]:
    """One request; an exception or a usage exit reads as exit code -1."""
    try:
        return call(main, request["argv"])
    except (Exception, SystemExit):
        traceback.print_exc()
        return -1, "", 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Requests sent, the first output of each input, and the failures.

    A repeat of an input whose output digest differs from the first counts
    as a failure.  Outputs are checked once the clock has stopped: the
    first output of each input against the reference, and a wrong one
    fails every repeat that printed the same bytes.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict[str, list] = {}  # key -> [request, stdout, digest, identical runs]

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def fail_all(self, messages: list[str], count: int = 1) -> None:
        """Count ``count`` failures for a non-empty list of messages."""
        for number, message in enumerate(messages[:5]):
            self.fail(message, count if number == 0 else 0)
        if len(messages) > 5:
            self.fail(f"... and {len(messages) - 5} more", 0)

    def record(self, request: dict, code: int, out: str) -> None:
        self.attempted += 1
        key = request["key"]
        if code != 0:
            self.fail(f"{key}: exit code {code}")
            return
        sha = digest(out)
        first = self._first.setdefault(key, [request, out, sha, 0])
        if first[2] == sha:
            first[3] += 1
        else:
            self.fail(f"{key}: stdout sha256 {sha[:16]} differs from its first run's {first[2][:16]}")

    def check(self) -> None:
        for request, out, _, runs in self._first.values():
            self.fail_all(workloads.check_output(self.workload, request, out), runs)


def run_timed(main, plan: dict, seconds: float, ledger: Ledger) -> dict:
    latencies, items = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for request in plan["requests"]:
            code, out, elapsed = send(main, request)
            ledger.record(request, code, out)
            if code == 0:
                latencies.append(elapsed)
                items.append(request["items"])
        if time.perf_counter() >= deadline:
            return {"latencies_s": latencies, "items": items}


def _harness_pass(plan: dict, tracer: tracing.Tracer):
    """The harness's public phases one after another, as a traced pass sees them."""
    from cogscope.weyuker import WeyukerHarness

    harness = WeyukerHarness(**plan["harness"])
    tracer.count("trials", harness.trials)
    with tracer.span("weyuker.generate"):
        harness.pool()
    with tracer.span("weyuker.pool"):
        harness.pool_values()
    with tracer.span("weyuker.concat"):
        harness.concat_values()
    with tracer.span("weyuker.rename"):
        harness.rename_values()
    with tracer.span("weyuker.check"):
        return harness.run_table(list(workloads.WEYUKER_METRICS))


def cli_pass(main, plan: dict, tracer: tracing.Tracer) -> list:
    outputs = []
    for request in plan["requests"]:
        tracer.count("files", request["items"])
        with tracer.span(tracing.CLI):
            code, out, _ = send(main, request)
        outputs.append((request, code, out))
    return outputs


def run_traced(main, plan: dict, seconds: float, ledger: Ledger) -> dict:
    tracer = tracing.Tracer()
    untraced_walls = []
    deadline = time.perf_counter() + seconds
    while len(tracer.passes) < 2 or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                tracer.begin()
            start = time.perf_counter()
            try:
                if plan["workload"] == "weyuker":
                    outcome = _harness_pass(plan, tracer)
                else:
                    outcome = cli_pass(main, plan, tracer)
            except Exception:
                traceback.print_exc()
                outcome = None
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.end(wall)
                else:
                    untraced_walls.append(wall)
            if outcome is None:
                ledger.attempted += 1
                ledger.fail("pass raised")
            elif plan["workload"] == "weyuker":
                ledger.attempted += 1
                ledger.fail_all(workloads.check_weyuker_table(outcome, plan["harness"]["trials"]))
            else:
                for request, code, out in outcome:
                    ledger.record(request, code, out)
    ledger.fail_all(tracer.coverage_errors(plan["workload"]) + tracing.phase_errors(tracer))
    tracer.write(HERE / ".work" / "traces" / f"{plan['workload']}-seed{plan['seed']}.jsonl")
    values, notes = tracing.layer_metrics(tracer, untraced_walls)
    return {"layers": values, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", type=Path)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    plan = json.loads(args.plan.read_text())
    workloads.import_program()
    from cogscope.cli import main as cli_main

    ledger = Ledger(plan["workload"])
    code, out, _ = send(cli_main, plan["warmup"])
    print("ready", digest(out), flush=True)
    if args.probe:
        return 0
    ledger.record(plan["warmup"], code, out)

    run = run_traced if args.trace else run_timed
    result = run(cli_main, plan, args.seconds, ledger)
    ledger.check()
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
