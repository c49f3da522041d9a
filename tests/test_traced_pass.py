"""The benchmark's traced pass runs, and reaches every bound name, on each
workload.

``tests/test_bindings.py`` checks that each name ``perfbench/tracing.py``
binds is still called at its module.  This test goes one step further and
runs two traced passes of each workload at the smoke test's tiny sizes, as
``perfbench/worker.py --trace`` does: a moved call or a changed argument
shape fails here rather than in the benchmark's traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import smoke  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_two_traced_passes_reach_every_binding(workload, tmp_path):
    workloads.import_program()
    from cogscope.cli import main

    plan = workloads.make_plan(workload, 1, tmp_path / workload, smoke.TINY[workload])
    tracer = tracing.Tracer()
    ledger = worker.Ledger(workload)
    for _ in range(2):
        tracer.begin()
        try:
            if workload == "weyuker":
                table = worker._harness_pass(plan, tracer)
            else:
                outcome = worker.cli_pass(main, plan, tracer)
        finally:
            tracer.end(1.0)
        if workload == "weyuker":
            assert workloads.check_weyuker_table(table, plan["harness"]["trials"]) == []
        else:
            for request, code, out in outcome:
                ledger.record(request, code, out)
    ledger.check()
    assert ledger.failed == 0, ledger.errors
    assert tracer.coverage_errors(workload) == []
