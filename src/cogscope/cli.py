"""Command-line interface: cogscope analyze | weyuker | corpus.

Exit codes: 0 success (and, for weyuker, conformance as documented);
1 analysis failures or conformance mismatch; 2 usage errors, and a weyuker
``--witness-dir`` that cannot be created or written.
The environment variable COGSCOPE_SEED supplies the default seed; a value
that is not an integer is a usage error.  So is a ``--metrics`` list that
names no metric, an unknown one, or one twice.

``weyuker`` and ``corpus`` share their trials or files among up to
``shards.MAX_JOBS`` processes, this one included, and never more than the
CPUs this process may use; a run of fewer than 2 * ``shards.MIN_SHARD``
items stays in this process.  Output, stderr and exit code do not depend on
the number of processes.

Only ``weyuker`` imports the Weyuker harness, and with it the generator and
the transforms; ``analyze`` and ``corpus`` never load them.

``main`` pauses Python's cyclic garbage collector for the whole command and
turns it back on when the command ends, however it ends, if it was on when
the command began.  An analysis allocates one object per token, span, tree
node and occurrence, and reference counting frees every one of them: the
analysis graph holds no reference cycle.  The collector found nothing, yet
on a 1200-statement file it walked those objects about 73 times, some 15% of
an ``analyze`` request.  What a command leaves for the collector (about 155
objects of argparse, and 33 of ``json.dumps`` for ``weyuker --format
json``) does not grow with its input, and a later collection frees it.
Forked shard workers inherit the pause and leave through ``os._exit``.  The
library entry points (``analyze_source``, ``WeyukerHarness``) keep their
caller's collector settings.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import shards
from .analysis import METRIC_IDS, Analysis, analyze_source
from .errors import MiniLangError
from .report import (
    CSV_COLUMNS,
    METRIC_FILTERS,
    csv_record,
    render_csv,
    render_json,
    render_text,
    report_document,
)


def _env_seed(default: int = 1) -> int:
    """COGSCOPE_SEED, or the default when it is unset; ValueError when it is not an integer."""
    raw = os.environ.get("COGSCOPE_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"COGSCOPE_SEED must be an integer, got {raw!r}") from None


def _trial_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogscope",
        description="Scope-aware cognitive information complexity metrics for MiniLang.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze MiniLang files")
    analyze.add_argument("paths", nargs="+", help="MiniLang source files (.ml1)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--metric", choices=list(METRIC_FILTERS), default="all")
    analyze.add_argument("--granules", action="store_true", help="include the per-granule table")

    weyuker = sub.add_parser("weyuker", help="run the Weyuker conformance suite")
    weyuker.add_argument("--seed", type=int, default=None)
    weyuker.add_argument("--trials", type=_trial_count, default=1000)
    weyuker.add_argument("--metrics", default="escim,cfs,cicm,mccm,cpcm,scim_icn,loc")
    weyuker.add_argument("--format", choices=("text", "json"), default="text")
    weyuker.add_argument("--witness-dir", default=None, help="write witness programs as .ml1 files")

    corpus = sub.add_parser("corpus", help="analyze a directory of .ml1 files")
    corpus.add_argument("directory")
    corpus.add_argument("--csv", action="store_true", help="emit comma-separated rows")
    return parser


# ============================================================
# ANALYZE
# ============================================================


def _analyze_file(path: str) -> Analysis | str:
    """The Analysis of one file, or the message that says why there is none."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return f"{path}: cannot read: {exc}"
    except UnicodeDecodeError:
        return f"{path}: cannot decode"
    try:
        return analyze_source(source, path=path)
    except MiniLangError as exc:
        return exc.render(path)


def cmd_analyze(args) -> int:
    documents = []
    failed = False
    for path in args.paths:
        analysis = _analyze_file(path)
        if isinstance(analysis, str):
            print(analysis, file=sys.stderr)
            failed = True
            continue
        if args.format == "json":
            documents.append(report_document(analysis, args.metric))
        else:
            sys.stdout.write(render_text(analysis, args.metric, granules=args.granules))
        del analysis  # its tokens and trees are not held while the JSON is written
    if args.format == "json" and documents:
        payload = documents[0] if len(documents) == 1 else documents
        sys.stdout.write(render_json(payload))
    return 1 if failed else 0


# ============================================================
# WEYUKER
# ============================================================


def _status_mark(status: str) -> str:
    return "/" if status == "satisfied" else "x"


def _write_witnesses(out_dir: Path, table) -> None:
    """Each program of each witness as p<property>_<metric>_<role>.ml1 in out_dir."""
    for metric, row in table.results.items():
        for prop, result in row.items():
            for role, value in (result.witness or {}).items():
                if isinstance(value, str) and value.startswith(("void", "int")):
                    safe_role = role.replace(";", "_").replace(" ", "")
                    (out_dir / f"p{prop}_{metric}_{safe_role}.ml1").write_text(value)


def _cannot_write_witnesses(directory: str, exc: OSError) -> int:
    print(f"{directory}: cannot write witnesses: {exc.strerror or exc}", file=sys.stderr)
    return 2


def cmd_weyuker(args) -> int:
    from .weyuker import EXPECTED_ROWS, PROPERTY_IDS, WeyukerHarness

    try:
        seed = args.seed if args.seed is not None else _env_seed()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        print(f"--metrics names no metric; choose from {', '.join(METRIC_IDS)}", file=sys.stderr)
        return 2
    for metric in metrics:
        if metric not in METRIC_IDS:
            print(f"unknown metric {metric!r}; choose from {', '.join(METRIC_IDS)}", file=sys.stderr)
            return 2
        if metrics.count(metric) > 1:
            print(f"--metrics names {metric!r} more than once", file=sys.stderr)
            return 2
    out_dir = Path(args.witness_dir) if args.witness_dir else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write_witnesses(args.witness_dir, exc)
    table = WeyukerHarness(seed=seed, trials=args.trials, jobs=shards.MAX_JOBS).run_table(metrics)
    if out_dir:
        try:
            _write_witnesses(out_dir, table)
        except OSError as exc:
            return _cannot_write_witnesses(args.witness_dir, exc)

    if args.format == "json":
        payload = {
            "seed": table.seed,
            "trials": table.trials,
            "properties": list(PROPERTY_IDS),
            "results": {
                metric: {
                    prop: {
                        "status": result.status,
                        "trials": result.trials,
                        "note": result.note,
                        "witness": result.witness,
                    }
                    for prop, result in row.items()
                }
                for metric, row in table.results.items()
            },
            "matches_expected": table.matches,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        width = max(len(m) for m in metrics)
        header = "property".ljust(10) + "  " + "  ".join(m.rjust(width) for m in metrics)
        lines = [f"seed={table.seed} trials={table.trials}", header]
        for prop in PROPERTY_IDS:
            cells = [
                _status_mark(table.results[m][prop].status).rjust(width) for m in metrics
            ]
            lines.append(prop.ljust(10) + "  " + "  ".join(cells))
        for metric in metrics:
            verdict = table.matches[metric]
            if verdict is None:
                lines.append(f"{metric}: no documented expectation (reported only)")
            else:
                lines.append(f"{metric}: {'matches' if verdict else 'DIFFERS FROM'} expected conformance")
        sys.stdout.write("\n".join(lines) + "\n")

    gated = [m for m in metrics if m in EXPECTED_ROWS]
    return 0 if all(table.matches[m] for m in gated) else 1


# ============================================================
# CORPUS
# ============================================================


def _corpus_rows(paths: list[Path], start: int, stop: int) -> list:
    """Per file of paths[start:stop]: its CSV record and E, or its failure message."""
    rows = []
    for path in paths[start:stop]:
        analysis = _analyze_file(str(path))
        if isinstance(analysis, str):
            rows.append(analysis)
        else:
            rows.append((csv_record(str(path), analysis), analysis.program.efficiency_e))
    return rows


def cmd_corpus(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"{args.directory}: not a directory", file=sys.stderr)
        return 2
    paths = sorted(directory.glob("*.ml1"))
    results = shards.run(partial(_corpus_rows, paths), len(paths), shards.MAX_JOBS)
    failures = [result for result in results if isinstance(result, str)]
    rows = [result for result in results if not isinstance(result, str)]
    records = [record for record, _ in rows]
    if args.csv:
        sys.stdout.write(render_csv(records))
    else:
        header = "  ".join(c.rjust(12) for c in CSV_COLUMNS)
        lines = [header]
        for record in records:
            lines.append("  ".join(str(record[c]).rjust(12) for c in CSV_COLUMNS))
        lines.append("")
        lines.append("ranked by efficiency E:")
        ranked = sorted(rows, key=lambda r: (-r[1], r[0]["path"]))
        for rank, (record, efficiency) in enumerate(ranked, start=1):
            lines.append(f"  {rank}. {record['path']}  E={efficiency:.6f}")
        sys.stdout.write("\n".join(lines) + "\n")
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "weyuker":
            return cmd_weyuker(args)
        return cmd_corpus(args)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
