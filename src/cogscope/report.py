"""Report documents: JSON, text, and CSV renderings of an analysis.

JSON output is byte-stable for golden testing: keys sorted, floats rounded
to six decimals, no timestamps.  Integer metrics stay integers; WICS, CICM
and E render with six decimal places in text and CSV.
"""

from __future__ import annotations

import json

from . import __version__
from .analysis import Analysis
from .info import region_extrema

CSV_COLUMNS = (
    "path",
    "loc",
    "wc",
    "cfs",
    "cicm",
    "mccm",
    "cpcm",
    "scim_icn",
    "escim",
    "efficiency_e",
)

# --metric choices: the metric keys each filter keeps besides loc and wc.
METRIC_FILTERS = {
    "all": None,
    "escim": ("escim",),
    "cfs": ("cfs",),
    "cicm": ("wics", "cicm"),
    "mccm": ("mccm",),
    "cpcm": ("cpcm",),
    "scim": ("scim_icn",),
}


def _round6(value: float) -> float:
    return round(value + 0.0, 6)


def _metric_dict(metrics, metric_filter: str = "all") -> dict:
    full = {
        "loc": metrics.loc,
        "wc": metrics.wc,
        "cfs": metrics.cfs,
        "wics": _round6(metrics.wics),
        "cicm": _round6(metrics.cicm),
        "mccm": metrics.mccm,
        "cpcm": metrics.cpcm,
        "scim_icn": metrics.scim_icn,
        "escim": metrics.escim,
        "efficiency_e": _round6(metrics.efficiency_e),
        "I(L)": metrics.info_total,
        "SI(L)": metrics.si_total,
    }
    keep = METRIC_FILTERS.get(metric_filter)
    if keep is None:
        return full
    base = {"loc": full["loc"], "wc": full["wc"]}
    base.update({k: full[k] for k in keep})
    return base


def report_document(analysis: Analysis, metric_filter: str = "all") -> dict:
    """Build the stable report mapping for one analyzed file."""
    functions = []
    for fn in analysis.unit.functions:
        fm = analysis.functions[fn.name]
        granule_rows = [
            {
                "id": row.id,
                "kind": row.kind,
                "weight": row.weight,
                "depth": row.depth,
                "si": row.si,
                "i": row.i,
                "contribution": row.contribution,
                "weight_x_si": row.flat_weighted_si,
                "children": list(row.children),
                "span": {
                    "start": row.span_start,
                    "end": row.span_end,
                    "line": row.line,
                    "col": row.col,
                },
            }
            for row in analysis.granule_rows(fn.name)
        ]
        ordinals: dict[str, int] = {}
        variables = []
        for row in region_extrema(analysis.annotations, fn.span):
            ordinal = ordinals.get(row.name, 0)
            ordinals[row.name] = ordinal + 1
            variables.append(
                {
                    "name": row.name,
                    "symbol_ordinal": ordinal,
                    "kind": row.symbol.kind,
                    "icn_max": row.icn_max,
                    "sicn_max": row.sicn_max,
                    "sicn_min": row.sicn_min,
                    "occurrences": row.occurrences,
                }
            )
        functions.append(
            {
                "name": fn.name,
                "metrics": _metric_dict(fm, metric_filter),
                "granules": granule_rows,
                "variables": variables,
            }
        )
    return {
        "tool": "cogscope",
        "tool_version": __version__,
        "input_file": analysis.path,
        "diagnostics": [],
        "program": {"metrics": _metric_dict(analysis.program, metric_filter)},
        "functions": functions,
    }


def render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_text(analysis: Analysis, metric_filter: str = "all", granules: bool = False) -> str:
    lines = [f"{analysis.path}"]
    doc = report_document(analysis, metric_filter)
    program = doc["program"]["metrics"]
    lines.append("  program:")
    for key in sorted(program):
        lines.append(f"    {key} = {_fmt(program[key])}")
    for fn in doc["functions"]:
        lines.append(f"  function {fn['name']}:")
        for key in sorted(fn["metrics"]):
            lines.append(f"    {key} = {_fmt(fn['metrics'][key])}")
        lines.append("    variables:")
        for row in fn["variables"]:
            lines.append(
                "      {name}#{symbol_ordinal} ({kind}): icn_max={icn_max}"
                " sicn_max={sicn_max} sicn_min={sicn_min}".format(**row)
            )
        if granules:
            lines.append("    granules:")
            for row in fn["granules"]:
                lines.append(
                    "      [{id}] {kind} w={weight} depth={depth} si={si} i={i}"
                    " contribution={contribution} children={children}".format(**row)
                )
    return "\n".join(lines) + "\n"


def csv_record(path: str, analysis: Analysis) -> dict:
    """One file's program-level row, keyed by CSV_COLUMNS."""
    program = analysis.program
    return {
        "path": path,
        "loc": program.loc,
        "wc": program.wc,
        "cfs": program.cfs,
        "cicm": f"{program.cicm:.6f}",
        "mccm": program.mccm,
        "cpcm": program.cpcm,
        "scim_icn": program.scim_icn,
        "escim": program.escim,
        "efficiency_e": f"{program.efficiency_e:.6f}",
    }


def render_csv(records: list[dict]) -> str:
    """CSV text of ``csv_record`` rows, header first."""
    out = [",".join(CSV_COLUMNS)]
    for record in records:
        out.append(",".join(str(record[c]) for c in CSV_COLUMNS))
    return "\n".join(out) + "\n"
