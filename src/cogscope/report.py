"""Report documents: JSON, text, and CSV renderings of an analysis.

JSON output is byte-stable for golden testing: keys sorted, floats rounded
to six decimals, no timestamps.  Integer metrics stay integers; WICS, CICM
and E render with six decimal places in text and CSV.

``render_json`` writes the fixed shape of ``report_document`` itself, with
the bytes ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` gives:
keys in sorted order from code, strings through the C escaper
``json.encoder.encode_basestring_ascii``, ints and floats by their ``repr``
(NaN and the infinities as ``json`` spells them), ``[]`` and ``{}`` when
empty.  A value of any other type or shape raises ``TypeError``, so it is
never written as wrong bytes.  ``json.dumps`` stays the test oracle
(``tests/test_report.py``, ``tests/test_fuzz.py``).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import inf

from . import __version__
from .analysis import Analysis, Metrics
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


def _metric_dict(metrics: Metrics, metric_filter: str = "all") -> dict:
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


def _variables(analysis: Analysis, function: str) -> list[dict]:
    """One row per symbol occurring in the function, numbered within its name."""
    ordinals: dict[str, int] = {}
    variables = []
    for row in region_extrema(analysis.annotations, analysis.resolved.runs[function]):
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
    return variables


def report_document(analysis: Analysis, metric_filter: str = "all") -> dict:
    """Build the stable report mapping for one analyzed file."""
    functions = []
    for fn in analysis.unit.functions:
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
                "children": row.children,
                "span": {
                    "start": row.span_start,
                    "end": row.span_end,
                    "line": row.line,
                    "col": row.col,
                },
            }
            for row in analysis.granule_rows(fn.name)
        ]
        functions.append(
            {
                "name": fn.name,
                "metrics": _metric_dict(analysis.functions[fn.name], metric_filter),
                "granules": granule_rows,
                "variables": _variables(analysis, fn.name),
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


# ---------- the JSON writer ----------
#
# ``json.dumps(payload, sort_keys=True, indent=2)`` runs the standard
# library's pure-Python encoder, because the C one cannot indent.  The report
# has a fixed shape, so the writer below emits its keys in sorted order from
# code.  Each helper takes ``n``: a newline plus the indent of the line its
# value opens on, where its closing bracket goes; its keys or items sit two
# spaces deeper.

_DOCUMENT_KEYS = frozenset(("diagnostics", "functions", "input_file", "program", "tool", "tool_version"))
_PROGRAM_KEYS = frozenset(("metrics",))
_FUNCTION_KEYS = frozenset(("granules", "metrics", "name", "variables"))
_GRANULE_KEYS = frozenset(
    ("children", "contribution", "depth", "i", "id", "kind", "si", "span", "weight", "weight_x_si")
)
_SPAN_KEYS = frozenset(("col", "end", "line", "start"))
_VARIABLE_KEYS = frozenset(
    ("icn_max", "kind", "name", "occurrences", "sicn_max", "sicn_min", "symbol_ordinal")
)
_INT = frozenset((int,))


def _unexpected(value, what: str) -> TypeError:
    return TypeError(f"report {what} expected, got {type(value).__name__}: {value!r:.60}")


def _fields(value, keys: frozenset) -> dict:
    """The value, if it is a dict with exactly these keys."""
    if value.__class__ is not dict or value.keys() != keys:
        raise _unexpected(value, f"object with keys {sorted(keys)}")
    return value


def _list(value) -> list:
    if value.__class__ is not list:
        raise _unexpected(value, "list")
    return value


def _str(value) -> str:
    if value.__class__ is not str:
        raise _unexpected(value, "string")
    return encode_basestring_ascii(value)


def _ints(*values) -> tuple:
    """The values, if each one is an int (a bool is not); ``!r`` writes them."""
    if set(map(type, values)) != _INT:
        raise _unexpected(next(v for v in values if v.__class__ is not int), "integer")
    return values


def _number(value) -> str:
    if value.__class__ is int:
        return int.__repr__(value)
    if value.__class__ is not float:
        raise _unexpected(value, "number")
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def _items(chunks: list[str], n: str, brackets: str = "[]") -> str:
    """A JSON array, or object, of already written items."""
    if not chunks:
        return brackets
    inner = n + "  "
    return f"{brackets[0]}{inner}{f',{inner}'.join(chunks)}{n}{brackets[1]}"


def _metrics(metrics, n: str) -> str:
    """A metric dict, whose keys depend on ``--metric``."""
    if metrics.__class__ is not dict:
        raise _unexpected(metrics, "object")
    return _items([f"{_str(key)}: {_number(metrics[key])}" for key in sorted(metrics)], n, "{}")


def _granule(g, n: str) -> str:
    """One granule row: the hot part of the report, one template per row."""
    _fields(g, _GRANULE_KEYS)
    span = _fields(g["span"], _SPAN_KEYS)
    contribution, depth, i, id_, si, weight, weight_x_si, col, end, line, start, *children = _ints(
        g["contribution"], g["depth"], g["i"], g["id"], g["si"], g["weight"], g["weight_x_si"],
        span["col"], span["end"], span["line"], span["start"], *_list(g["children"]),
    )
    k = n + "  "
    return (
        f'{{{k}"children": {_items(list(map(repr, children)), k)},'
        f'{k}"contribution": {contribution!r},'
        f'{k}"depth": {depth!r},'
        f'{k}"i": {i!r},'
        f'{k}"id": {id_!r},'
        f'{k}"kind": {_str(g["kind"])},'
        f'{k}"si": {si!r},'
        f'{k}"span": {{{k}  "col": {col!r},'
        f'{k}  "end": {end!r},'
        f'{k}  "line": {line!r},'
        f'{k}  "start": {start!r}{k}}},'
        f'{k}"weight": {weight!r},'
        f'{k}"weight_x_si": {weight_x_si!r}{n}}}'
    )


def _variable(v, n: str) -> str:
    _fields(v, _VARIABLE_KEYS)
    icn_max, occurrences, sicn_max, sicn_min, symbol_ordinal = _ints(
        v["icn_max"], v["occurrences"], v["sicn_max"], v["sicn_min"], v["symbol_ordinal"]
    )
    k = n + "  "
    return (
        f'{{{k}"icn_max": {icn_max!r},'
        f'{k}"kind": {_str(v["kind"])},'
        f'{k}"name": {_str(v["name"])},'
        f'{k}"occurrences": {occurrences!r},'
        f'{k}"sicn_max": {sicn_max!r},'
        f'{k}"sicn_min": {sicn_min!r},'
        f'{k}"symbol_ordinal": {symbol_ordinal!r}{n}}}'
    )


def _function(fn, n: str) -> str:
    _fields(fn, _FUNCTION_KEYS)
    k = n + "  "
    rows = k + "  "
    return (
        f'{{{k}"granules": {_items([_granule(g, rows) for g in _list(fn["granules"])], k)},'
        f'{k}"metrics": {_metrics(fn["metrics"], k)},'
        f'{k}"name": {_str(fn["name"])},'
        f'{k}"variables": {_items([_variable(v, rows) for v in _list(fn["variables"])], k)}{n}}}'
    )


def _document(doc, n: str) -> str:
    _fields(doc, _DOCUMENT_KEYS)
    program = _fields(doc["program"], _PROGRAM_KEYS)
    k = n + "  "
    rows = k + "  "
    return (
        f'{{{k}"diagnostics": {_items([_str(d) for d in _list(doc["diagnostics"])], k)},'
        f'{k}"functions": {_items([_function(fn, rows) for fn in _list(doc["functions"])], k)},'
        f'{k}"input_file": {_str(doc["input_file"])},'
        f'{k}"program": {{{rows}"metrics": {_metrics(program["metrics"], rows)}{k}}},'
        f'{k}"tool": {_str(doc["tool"])},'
        f'{k}"tool_version": {_str(doc["tool_version"])}{n}}}'
    )


def render_json(payload: dict | list[dict]) -> str:
    """One ``report_document``, or a list of them, as indented JSON.

    The bytes are ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.
    A value of another shape or type raises ``TypeError``.
    """
    if payload.__class__ is list:
        return _items([_document(doc, "\n  ") for doc in payload], "\n") + "\n"
    return _document(payload, "\n") + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_text(analysis: Analysis, metric_filter: str = "all", granules: bool = False) -> str:
    """The report as text; granule rows are computed only with ``granules``."""
    lines = [f"{analysis.path}", "  program:"]
    program = _metric_dict(analysis.program, metric_filter)
    for key in sorted(program):
        lines.append(f"    {key} = {_fmt(program[key])}")
    for fn in analysis.unit.functions:
        lines.append(f"  function {fn.name}:")
        metrics = _metric_dict(analysis.functions[fn.name], metric_filter)
        for key in sorted(metrics):
            lines.append(f"    {key} = {_fmt(metrics[key])}")
        lines.append("    variables:")
        for row in _variables(analysis, fn.name):
            lines.append(
                "      {name}#{symbol_ordinal} ({kind}): icn_max={icn_max}"
                " sicn_max={sicn_max} sicn_min={sicn_min}".format(**row)
            )
        if granules:
            lines.append("    granules:")
            for row in analysis.granule_rows(fn.name):
                lines.append(
                    f"      [{row.id}] {row.kind} w={row.weight} depth={row.depth} si={row.si} i={row.i}"
                    f" contribution={row.contribution} children={row.children}"
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
