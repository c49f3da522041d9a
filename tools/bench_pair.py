"""Paired benchmark runs of a parent revision and the working tree.

    python3 tools/bench_pair.py --parent REV --workload W [--workload W ...] \\
        --pairs N --seconds S --first-seed K --out BENCH_<PR>.json \\
        [--claim WORKLOAD:METRIC:EXPECTED]

Run it from the root of a checkout.  It writes REV's files with
``git archive`` into a temporary directory (under ``$TMPDIR``), and copies
the working tree's files there too, those that ``git ls-files -co
--exclude-standard`` lists: tracked and untracked, but not ignored ones such
as ``__pycache__``, so neither tree starts with byte code that the other
lacks.  Both copies are removed at the end.  For each workload and each of N
seeds, from K up, it runs ``perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` once in the parent's copy and once in the change's,
one after the other; the change runs first on odd seeds, the parent on even
ones.  Then it runs one traced pair (``--trace 1``) per workload on seed
K + N.  Choose K so that no seed was used while the change was written.
Last, it times acceptance criterion 5's command, ``cogscope weyuker --seed
1 --trials 10000 --metrics escim,loc,mccm,cpcm --format json``, three times
per tree in a fresh interpreter, in rounds that alternate which tree runs
first as the pairs do, and keeps each run's wall time, exit status and
stdout sha256.

Beside the times it records counts, which do not depend on the host's
speed.  For each workload and tree, a fresh interpreter pinned to one CPU
(so nothing forks) makes the plan of seed K + N with the tree's
``perfbench/workloads.make_plan``, which it imports and does not change,
sends the warm-up request, and then sends every request of the plan through
``cogscope.cli.main``: once under cProfile, for the call total of that
first cycle, and in a second interpreter, unprofiled, for COUNT_CYCLES
cycles, reading ``sys.getallocatedblocks()`` and the peak RSS (VmHWM, see
COUNT_PROBE) after the first and after the last cycle.  The counts run twice
per tree, after the criterion 5 rounds, and the output says which repeated.

The output has the keys of the earlier ``BENCH_*.json`` files: every run's
last JSON line as printed, and per workload and end-to-end metric each
side's median and quartiles (inclusive method), the pairs in which the
change was better, and the gap between the medians.  A claim is met when
the change was better in at least nine of ten pairs and the median gap is
larger than the parent's interquartile range.  The script changes nothing
under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked files, not the ignored ones, into `dest`."""
    for name in filter(None, _git("ls-files", "-co", "--exclude-standard", "-z").split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the working tree is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """The last JSON line of one run.py run in `tree`, or None if it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"bench_pair: no result from {tree} {workload} seed {seed}: {proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _pair(trees: dict[str, Path], workload: str, seed: int, seconds: int, trace: int, change_first: bool) -> list[dict]:
    order = ("change", "parent") if change_first else ("parent", "change")
    runs = []
    for position, side in enumerate(order):
        result = _run(trees[side], workload, seed, seconds, trace)
        runs.append({"tree": side, "workload": workload, "seed": seed,
                     "order": ("first", "second")[position], "result": result})
        if result and not trace:
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr)
    return runs


COUNT_CYCLES = 40

# One count run: argv is the tree, the workload, the seed, and "calls" or
# the number of cycles to read the memory over.  The peak RSS is VmHWM, the
# peak of this process's own memory: Linux carries ru_maxrss across exec, so
# there it would be at least the peak of the process that started this one.
COUNT_PROBE = """
import contextlib, cProfile, io, json, os, pstats, sys, tempfile
from pathlib import Path

tree, workload, seed, what = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, str(tree / "perfbench"))
import workloads

workloads.import_program()
from cogscope.cli import main


def cycle(requests):
    failed = 0
    for request in requests:
        with contextlib.redirect_stdout(io.StringIO()):
            failed += main(request["argv"]) != 0
    return failed


def memory():
    with open("/proc/self/status") as status:
        hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return {"blocks": sys.getallocatedblocks(), "peak_rss_kb": hwm}


with tempfile.TemporaryDirectory(prefix="bench-count-") as workdir:
    plan = workloads.make_plan(workload, seed, Path(workdir))
    failed = cycle([plan["warmup"]])
    if what == "calls":
        profile = cProfile.Profile()
        profile.enable()
        failed += cycle(plan["requests"])
        profile.disable()
        result = {"calls_first_cycle": pstats.Stats(profile).total_calls}
    else:
        failed += cycle(plan["requests"])
        result = {"after_first": memory()}
        for _ in range(int(what) - 1):
            failed += cycle(plan["requests"])
        result["after_last"] = memory()
    print(json.dumps({**result, "failed": failed}))
"""


def _count(tree: Path, side: str, workload: str, seed: int) -> dict | None:
    """The counts of `workload` in `tree`: the call total from one fresh
    interpreter, and the memory readings, unprofiled, from another."""
    result = {"failed": 0}
    for what in ("calls", str(COUNT_CYCLES)):
        argv = [sys.executable, "-c", COUNT_PROBE, str(tree), workload, str(seed), what]
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"bench_pair: no counts from {tree} {workload}: {proc.stderr.strip()}", file=sys.stderr)
            return None
        part = json.loads(lines[-1])
        result.update(part, failed=result["failed"] + part["failed"])
    print(f"counts {workload} {side}: {result}", file=sys.stderr)
    return result


def count_summary(runs: list[dict]) -> dict:
    """Per workload and tree, the first run's counts and whether each repeated in the second."""
    summary: dict = {}
    for run in runs:
        cell = summary.setdefault(run["workload"], {}).setdefault(run["tree"], {})
        if "result" in cell:
            first, again = cell["result"], run["result"]
            cell["repeats"] = None if first is None or again is None else {
                "calls_first_cycle": first["calls_first_cycle"] == again["calls_first_cycle"],
                **{f"{when}.{name}": first[when][name] == again[when][name]
                   for when in ("after_first", "after_last") for name in ("blocks", "peak_rss_kb")},
            }
        else:
            cell["result"] = run["result"]
    return summary


CRITERION_5 = ("weyuker", "--seed", "1", "--trials", "10000", "--metrics", "escim,loc,mccm,cpcm", "--format", "json")
CRITERION_5_ROUNDS = 3


def _criterion_5(tree: Path, side: str, position: int) -> dict:
    """One timed run of criterion 5's command with the `cogscope` of `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "cogscope.cli", *CRITERION_5], cwd=tree, env=env, capture_output=True)
    wall = time.monotonic() - started
    print(f"criterion 5 {side}: {wall:.2f} s, exit {proc.returncode}", file=sys.stderr)
    return {"tree": side, "order": ("first", "second")[position], "wall_s": wall, "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Each side's quartiles per metric over the pairs that both completed."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["tree"]] = run
    pairs = [sides for _, sides in sorted(by_seed.items())
             if all(sides.get(tree) and sides[tree]["result"] for tree in ("parent", "change"))]
    summary: dict = {"seeds": sorted(by_seed), "pairs": len(pairs)}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        if len(pairs) < 2:
            continue
        parent = [sides["parent"]["result"]["metrics"][name]["value"] for sides in pairs]
        change = [sides["change"]["result"]["metrics"][name]["value"] for sides in pairs]
        p, c = _quartiles(parent), _quartiles(change)
        summary[name] = {
            "parent": p,
            "change": c,
            "change_better_in": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "change_vs_parent_pct": 100.0 * (c["median"] - p["median"]) / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "median_gap": sign * (p["median"] - c["median"]),
        }
    summary["failed"] = {
        tree: sum(r["result"]["failed"] if r["result"] else 1 for r in runs if r["workload"] == workload and r["tree"] == tree)
        for tree in ("parent", "change")
    }
    return summary


def claim_met(cell: dict, pairs: int) -> bool:
    return cell["change_better_in"] >= 0.9 * pairs and cell["median_gap"] > cell["parent_iqr"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="paired perfbench runs of a parent revision and the working tree")
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True, action="append", help="a workload; repeat for more")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--first-seed", required=True, type=int, help="the first of the seeds; not used in development")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<PR>.json to write")
    parser.add_argument("--claim", help="WORKLOAD:METRIC:EXPECTED, the gain the change claims")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds < 1:
        parser.error("--pairs must be at least 2 and --seconds at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_seed = args.first_seed + args.pairs
    parent_commit = _git("rev-parse", args.parent)
    runs: list[dict] = []
    traces: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        for tree in trees.values():
            tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        _copy_working_tree(trees["change"])
        for workload in args.workload:
            for k in range(args.pairs):
                seed = args.first_seed + k
                runs += _pair(trees, workload, seed, args.seconds, 0, change_first=seed % 2 == 1)
        for workload in args.workload:
            traces += _pair(trees, workload, args.first_seed + args.pairs, args.seconds, 1, change_first=True)
        criterion_5 = []
        for k in range(CRITERION_5_ROUNDS):
            order = ("change", "parent") if k % 2 == 1 else ("parent", "change")
            criterion_5 += [_criterion_5(trees[side], side, position) for position, side in enumerate(order)]
        counts = [{"tree": side, "workload": workload, "result": _count(trees[side], side, workload, count_seed)}
                  for _ in range(2) for workload in args.workload for side in ("parent", "change")]

    summary = {w: summarize(runs, w, spec["end_to_end"]) for w in args.workload}
    claim = None
    if args.claim:
        workload, metric, expected = args.claim.split(":", 2)
        cell = summary[workload].get(metric)
        claim = {"workload": workload, "metric": metric, "expected": expected,
                 "met": bool(cell) and claim_met(cell, summary[workload]["pairs"])}
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    document = {
        "description": (
            f"tools/bench_pair.py: perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0 "
            f"on the parent commit (a git archive copy) and on the working tree (a copy of the files that git "
            f"ls-files -co --exclude-standard lists, so no __pycache__), for seeds {seeds} of each "
            "workload, alternating which runs first (the change first on odd seeds); each run's last JSON "
            "line is kept as printed. Summary: median and quartiles (inclusive method) over the pairs; "
            "change_better_in counts pairs; median_gap is the parent median minus the change median for a "
            "lower-is-better metric (the reverse otherwise), parent_iqr the parent's q3 - q1."
        ),
        "parent_commit": parent_commit,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "processor": platform.processor(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        },
        "claim": claim,
        "summary": summary,
        "runs": runs,
        "traces": {
            "description": f"perfbench/run.py --trace 1 --seconds {args.seconds} on seed "
                           f"{args.first_seed + args.pairs}, the change first, then the parent.",
            "runs": traces,
        },
        "criterion5": {
            "description": (
                f"python -m cogscope.cli {' '.join(CRITERION_5)} in a fresh interpreter with PYTHONPATH set to "
                f"each tree's src, {CRITERION_5_ROUNDS} rounds after the pairs, the parent first in even rounds; "
                "wall_s is the subprocess's wall time, interpreter start included."
            ),
            "median_wall_s": {
                side: statistics.median(run["wall_s"] for run in criterion_5 if run["tree"] == side)
                for side in ("parent", "change")
            },
            "runs": criterion_5,
        },
        "counts": {
            "description": (
                f"per workload and tree, a fresh interpreter pinned to one CPU (so nothing forks) makes the "
                f"plan of seed {count_seed} with the tree's perfbench/workloads.make_plan, sends its warm-up "
                "request, then sends every request of the plan through cogscope.cli.main: calls_first_cycle "
                "is cProfile's call total for that first cycle; a second such interpreter runs the plan "
                f"unprofiled for {COUNT_CYCLES} cycles and reads blocks (sys.getallocatedblocks()) and "
                "peak_rss_kb (VmHWM of /proc/self/status, the process's own peak; ru_maxrss would carry the "
                "starting process's peak across exec) after the first and after the last cycle. Each tree "
                "ran twice, parent then change per workload; summary holds the first run's counts and, per "
                "count, whether the second run repeated it."
            ),
            "summary": count_summary(counts),
            "runs": counts,
        },
        "extra": {"argv": sys.argv[1:] if argv is None else argv},
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
