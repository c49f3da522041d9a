"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  It checks that:

1. a one-second run of every workload, untraced and traced, prints every
   metric of BENCHMARK.json with its unit (and, untraced, the unbounded
   throughput and median latency), and all outputs are correct;
2. at a tiny size, a wrong reference (the oracle's ESCIM off by one) makes
   the corpus and analyze-large checks fail, so error_rate rises above 0;
3. the Weyuker check rejects a wrong status and a wrong trial count;
4. the trace coverage guard names the bindings a workload never reached.

Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {
    "corpus": {"directories": 2, "files_per_directory": 3, "warmup_files": 1},
    "analyze-large": {"files": 1, "warmup_statements": 5},
    "weyuker": {"trials": 3, "seeds": 1, "warmup_trials": 1},
}


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.NAMES:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = run.stdout.splitlines()
            assert run.returncode == 0, (workload, trace, run.stdout, run.stderr)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert list(result["metrics"]) == [m["name"] for m in declared], result["metrics"]
            for m in declared:
                printed = result["metrics"][m["name"]]
                assert printed["unit"] == m["unit"] and isinstance(printed["value"], float), printed
                assert any(line.startswith(f"{m['name']} = ") and m["unit"] in line for line in lines), m
            assert any(line.startswith("error_rate = 0/") for line in lines), lines
            if trace == "0":
                for printed_only in ("throughput_per_s", "latency_p50_ms"):
                    assert any(line.startswith(f"note: {printed_only} = ") for line in lines), lines
            print(f"ok: {workload} --trace {trace} prints {len(declared)} metrics with units")


def run_tiny(workload: str, main, workdir: Path) -> worker.Ledger:
    plan = workloads.make_plan(workload, 1, workdir / workload, TINY[workload])
    ledger = worker.Ledger(workload)
    worker.run_timed(main, plan, 0.0, ledger)  # one cycle
    ledger.check()
    return ledger


def check_wrong_reference(main, workdir: Path) -> None:
    true_reference = workloads.reference
    for workload in ("corpus", "analyze-large"):
        ledger = run_tiny(workload, main, workdir / "right")
        assert ledger.failed == 0, ledger.errors
        workloads.reference = lambda text: (lambda records, escim: (records, escim + 1))(*true_reference(text))
        try:
            ledger = run_tiny(workload, main, workdir / "wrong")
        finally:
            workloads.reference = true_reference
        assert ledger.failed == ledger.attempted > 0, (ledger.failed, ledger.attempted)
        print(f"ok: {workload}: ESCIM reference off by one gives error_rate {ledger.failed}/{ledger.attempted}")


def check_weyuker(main) -> None:
    trials = TINY["weyuker"]["trials"]
    _, out, _ = worker.call(main, workloads.weyuker_argv(5, trials))
    payload = json.loads(out)
    assert workloads.check_weyuker(payload["results"], payload["matches_expected"], trials) == []
    assert workloads.check_weyuker(payload["results"], payload["matches_expected"], trials + 1)
    payload["results"]["escim"]["5"]["status"] = "violated"
    assert workloads.check_weyuker(payload["results"], payload["matches_expected"], trials)
    print("ok: weyuker check rejects a wrong status and a wrong trial count")


def check_coverage_guard(main, workdir: Path) -> None:
    plan = workloads.make_plan("corpus", 1, workdir / "coverage", TINY["corpus"])
    tracer = tracing.Tracer()
    for _ in range(2):
        tracer.begin()
        worker.cli_pass(main, plan, tracer)
        tracer.end(1.0)
    assert tracer.coverage_errors("corpus") == [], tracer.coverage_errors("corpus")
    errors = tracer.coverage_errors("analyze-large")
    assert errors and "cogscope.analysis.granule_report" in errors[0], errors
    print("ok: coverage guard names bindings a workload does not reach")


def main() -> int:
    workloads.import_program()
    from cogscope.cli import main as cli_main

    workdir = HERE / ".work" / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        check_wrong_reference(cli_main, workdir)
        check_weyuker(cli_main)
        check_coverage_guard(cli_main, workdir)
        check_printed_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
