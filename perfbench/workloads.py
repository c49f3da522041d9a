"""Workload plans and output checks for the cogscope benchmark.

A plan is made from the workload's records in ``workloads.json`` and the
run's seed: it writes the input files and lists the ``cogscope.cli.main``
argument vectors to send.  The checks compare each output with the
independent replay oracle in ``tests/_replay.py`` (imported read-only), or,
for the Weyuker harness, with the documented conformance table.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = json.loads((HERE / "workloads.json").read_text())
NAMES = ("weyuker", "corpus", "analyze-large")
WEYUKER_METRICS = ("escim", "loc", "mccm", "cpcm")
PROPERTIES = ("1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9")
POOL_PROPERTIES = ("2", "5", "8")


def import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the import path.

    Raises ImportError when cogscope does not come from this checkout, so a
    copy installed elsewhere is never measured by mistake.
    """
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import cogscope

    if Path(cogscope.__file__).resolve().parent != ROOT / "src" / "cogscope":
        raise ImportError(f"cogscope imported from {cogscope.__file__}, not from {ROOT / 'src'}")


# ============================================================
# PLANS
# ============================================================


def _request(key: str, argv: list[str], items: int) -> dict:
    return {"key": key, "argv": argv, "items": items}


def weyuker_argv(seed: int, trials: int) -> list[str]:
    return ["weyuker", "--seed", str(seed), "--trials", str(trials),
            "--metrics", ",".join(WEYUKER_METRICS), "--format", "json"]


def _write_program(path: Path, config) -> None:
    from cogscope.generator import generate

    path.write_text(generate(config))


def make_plan(workload: str, seed: int, workdir: Path, sizes: dict | None = None) -> dict:
    """Write the inputs of one run under ``workdir`` and return its plan.

    ``sizes`` overrides the recorded sizes; the smoke test uses it to run
    at a tiny size.
    """
    from cogscope.generator import GeneratorConfig

    record = RECORDS[workload]
    sizes = {**record["sizes"], **(sizes or {})}
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed}

    if workload == "weyuker":
        seeds = [rng.randrange(2**31) for _ in range(sizes["seeds"])]
        trials = sizes["trials"]
        plan["requests"] = [_request(f"seed{s}", weyuker_argv(s, trials), trials) for s in seeds]
        plan["warmup"] = _request("warmup", weyuker_argv(seeds[0], sizes["warmup_trials"]),
                                  sizes["warmup_trials"])
        plan["harness"] = {"seed": seeds[0], "trials": trials}
    elif workload == "corpus":
        gen = record["generator"]

        def fill(directory: Path, count: int) -> None:
            directory.mkdir()
            for index in range(count):
                config = GeneratorConfig(
                    seed=rng.randrange(2**62),
                    max_statements=rng.randint(*gen["max_statements"]),
                    max_nesting_depth=rng.randint(*gen["max_nesting_depth"]),
                    variable_pool_size=rng.randint(*gen["variable_pool_size"]),
                )
                _write_program(directory / f"p{index:03d}.ml1", config)

        plan["requests"] = []
        for d in range(sizes["directories"]):
            directory = workdir / f"corpus{d}"
            fill(directory, sizes["files_per_directory"])
            plan["requests"].append(
                _request(directory.name, ["corpus", str(directory), "--csv"], sizes["files_per_directory"])
            )
        fill(workdir / "warmup", sizes["warmup_files"])
        plan["warmup"] = _request("warmup", ["corpus", str(workdir / "warmup"), "--csv"], sizes["warmup_files"])
    elif workload == "analyze-large":
        gen = record["generator"]
        plan["requests"] = []
        for index in range(sizes["files"]):
            path = workdir / f"large{index}.ml1"
            _write_program(path, GeneratorConfig(seed=rng.randrange(2**62), **gen))
            plan["requests"].append(_request(path.name, ["analyze", str(path), "--format", "json"], 1))
        path = workdir / "warmup.ml1"
        small = dict(gen, max_statements=sizes["warmup_statements"])
        _write_program(path, GeneratorConfig(seed=rng.randrange(2**62), **small))
        plan["warmup"] = _request("warmup", ["analyze", str(path), "--format", "json"], 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


# ============================================================
# REFERENCE
# ============================================================


def reference(text: str):
    """Replay-oracle records and ESCIM of one program, from its parse tree."""
    from _replay import oracle_escim, replay
    from cogscope.parser import parse_source

    unit = parse_source(text)
    records = replay(unit)
    return records, oracle_escim(unit, records)


# ============================================================
# CHECKS (each returns a list of error messages)
# ============================================================


def check_weyuker(results: dict, matches: dict, trials: int) -> list[str]:
    """Criterion 5's shape: ``results[metric][prop]`` is a dict with
    ``status``, ``trials`` and ``witness``; ``matches`` maps metric -> bool."""
    errors = [f"{m}: matches_expected is {matches.get(m)!r}" for m in WEYUKER_METRICS if matches.get(m) is not True]
    escim = results.get("escim", {})
    for prop in PROPERTIES:
        status = escim.get(prop, {}).get("status")
        if status != "satisfied":
            errors.append(f"escim property {prop}: {status!r}, expected 'satisfied'")
    for metric in WEYUKER_METRICS:
        for prop in POOL_PROPERTIES:
            result = results.get(metric, {}).get(prop, {})
            if result.get("trials") != trials or result.get("witness") is not None:
                errors.append(
                    f"{metric} property {prop}: trials={result.get('trials')!r} "
                    f"witness={result.get('witness')!r}, expected trials={trials} and no witness"
                )
    return errors


def check_weyuker_table(table, trials: int) -> list[str]:
    """check_weyuker over a ConformanceTable returned by the harness."""
    results = {
        metric: {p: {"status": r.status, "trials": r.trials, "witness": r.witness} for p, r in row.items()}
        for metric, row in table.results.items()
    }
    return check_weyuker(results, table.matches, trials)


def _check_weyuker_output(request: dict, out: str) -> list[str]:
    payload = json.loads(out)
    trials = request["items"]
    errors = [] if payload.get("trials") == trials else [f"trials={payload.get('trials')!r}, expected {trials}"]
    return errors + check_weyuker(payload["results"], payload["matches_expected"], trials)


def _check_corpus_output(request: dict, out: str) -> list[str]:
    directory = Path(request["argv"][1])
    files = sorted(directory.glob("*.ml1"))
    rows = list(csv.DictReader(io.StringIO(out)))
    if [row["path"] for row in rows] != [str(f) for f in files]:
        return [f"{directory.name}: CSV rows do not list the {len(files)} files in order"]
    errors = []
    for row, path in zip(rows, files):
        _, expected = reference(path.read_text())
        if int(row["escim"]) != expected:
            errors.append(f"{path.name}: escim {row['escim']}, oracle {expected}")
    return errors


def _check_analyze_output(request: dict, out: str) -> list[str]:
    path = Path(request["argv"][1])
    document = json.loads(out)
    records, expected = reference(path.read_text())
    errors = []
    escim = document["program"]["metrics"]["escim"]
    if escim != expected:
        errors.append(f"{path.name}: escim {escim}, oracle {expected}")
    from _replay import oracle_i, oracle_si

    # oracle_si/oracle_i scan every record they get; handing each granule
    # only the records inside its span keeps the check linear in nesting.
    records = sorted(records, key=lambda r: r.start)
    starts = [r.start for r in records]
    for fn in document["functions"]:
        for granule in fn["granules"]:
            start, end = granule["span"]["start"], granule["span"]["end"]
            inside = records[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
            si, i = oracle_si(inside, start, end), oracle_i(inside, start, end)
            if (granule["si"], granule["i"]) != (si, i):
                errors.append(
                    f"{path.name} {fn['name']} granule {granule['id']}: si/i "
                    f"{granule['si']}/{granule['i']}, oracle {si}/{i}"
                )
    return errors


_CHECKS = {
    "weyuker": _check_weyuker_output,
    "corpus": _check_corpus_output,
    "analyze-large": _check_analyze_output,
}


def check_output(workload: str, request: dict, out: str) -> list[str]:
    """Errors in one request's stdout; an unreadable output is an error too."""
    try:
        return _CHECKS[workload](request, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{request['key']}: unreadable output: {exc!r}"]
