"""One-shot analysis pipeline: source text in, full metric report out.

Program-level totals sum over functions; LOC and efficiency use the whole
file.  Tokens are counted per line once, by the one classify_lines call over
all of them: its LOC is the program's, and classify_io takes each function's
line counts from its records.
Each function is routed once, over its own occurrence run, and ESCIM and
SCIM-ICN fold that routing; its I and SI are taken over the run, and the
program's over every occurrence.  The routing is kept, so the per-granule
rows, which only reports show, are built from it on demand.
A function and the program are scored into the same Metrics record.
Everything here is a pure function of the source text, so analyses
of distinct inputs can run concurrently.  Text that render() wrote is
scored from the tokens it wrote and the parser's tree of them
(analyze_rendered): it is never lexed, and parsed only by render().
"""

from __future__ import annotations

from .errors import Record
from .granules import GranuleTree, granulate, structural_weight
from .info import InfoAnnotations, annotate, info_content, scope_information
from .lexer import classify_lines, tokenize
from .metrics import (
    GranuleRow, Routing, cfs, cpcm, efficiency, escim, granule_report, mccm, route, scim_icn, wics_cicm,
)
from .parser import parse
from .resolve import IoClassification, ResolvedUnit, classify_io, resolve
from .syntax import SourceUnit


class Metrics(Record):
    """The scores of one function, or of the whole program."""

    __slots__ = (
        "loc", "wc", "cfs", "wics", "cicm", "mccm", "cpcm", "scim_icn", "escim",
        "efficiency_e", "info_total", "si_total",
    )

    def __init__(
        self,
        loc: int,
        wc: int,
        cfs: int,
        wics: float,
        cicm: float,
        mccm: int,
        cpcm: int,
        scim_icn: int,
        escim: int,
        efficiency_e: float,
        info_total: int,
        si_total: int,
    ):
        self.loc = loc
        self.wc = wc
        self.cfs = cfs
        self.wics = wics
        self.cicm = cicm
        self.mccm = mccm
        self.cpcm = cpcm
        self.scim_icn = scim_icn
        self.escim = escim
        self.efficiency_e = efficiency_e
        self.info_total = info_total  # I over the region
        self.si_total = si_total  # SI over the region


class Analysis:
    """Everything one analysis computed, from the source text to the scores."""

    def __init__(
        self,
        source: str,
        path: str,
        unit: SourceUnit,
        resolved: ResolvedUnit,
        annotations: InfoAnnotations,
        io: dict[str, IoClassification],
        trees: dict[str, GranuleTree],
        routings: dict[str, Routing],
        functions: dict[str, Metrics],
        program: Metrics,
    ):
        self.source = source
        self.path = path
        self.unit = unit
        self.resolved = resolved
        self.annotations = annotations
        self.io = io  # by function name
        self.trees = trees
        self.routings = routings  # by function name
        self.functions = functions
        self.program = program

    def granule_rows(self, function: str) -> list[GranuleRow]:
        """Per-granule diagnostic rows of one function, computed on each call."""
        return granule_report(self.trees[function], self.annotations, self.routings[function])


def analyze_source(source: str, path: str = "<memory>") -> Analysis:
    """Lex, parse, resolve, granulate, annotate and score one program."""
    tokens = tokenize(source)
    return _analyze(source, path, tokens, parse(tokens, len(source)))


def analyze_rendered(rendered: str, path: str = "<memory>") -> Analysis:
    """Score a program that render() returned, a render.Rendered, from its
    tokens and the parser's tree of them: the same Analysis, or the same
    error, as ``analyze_source(str(rendered))``."""
    return _analyze(rendered, path, rendered.tokens, rendered.unit)


def _analyze(source: str, path: str, tokens: list[tuple], unit: SourceUnit) -> Analysis:
    """Everything after parsing: `unit` is the tree of `tokens`, the tokens of `source`."""
    resolved = resolve(unit)
    ann = annotate(resolved)
    line_info = classify_lines(tokens)
    io = classify_io(resolved, tokens, line_info)

    trees: dict[str, GranuleTree] = {}
    routings: dict[str, Routing] = {}
    functions: dict[str, Metrics] = {}
    for fn in unit.functions:
        tree = granulate(resolved, fn.name)
        trees[fn.name] = tree
        routing = routings[fn.name] = route(tree, resolved)
        run = resolved.runs[fn.name]
        fn_io = io[fn.name]
        wc = structural_weight(tree)
        wics_value, cicm_value = wics_cicm(fn_io.line_counts, wc)
        escim_value = escim(tree, ann, routing)
        functions[fn.name] = Metrics(
            loc=fn_io.loc,
            wc=wc,
            cfs=cfs(fn_io, wc),
            wics=wics_value,
            cicm=cicm_value,
            mccm=mccm(fn_io, wc),
            cpcm=cpcm(fn_io, wc),
            scim_icn=scim_icn(tree, ann, routing),
            escim=escim_value,
            efficiency_e=efficiency(escim_value, fn_io.loc) if fn_io.loc else 0.0,
            info_total=info_content(ann, run),
            si_total=scope_information(ann, run),
        )

    loc = line_info.loc
    everything = range(len(resolved.occurrences))
    totals = {
        name: sum(getattr(m, name) for m in functions.values())  # in function order
        for name in ("wc", "cfs", "wics", "cicm", "mccm", "cpcm", "scim_icn", "escim")
    }
    program = Metrics(
        loc=loc,
        **totals,
        efficiency_e=efficiency(totals["escim"], loc) if loc else 0.0,
        info_total=info_content(ann, everything),
        si_total=scope_information(ann, everything),
    )
    return Analysis(
        source=source,
        path=path,
        unit=unit,
        resolved=resolved,
        annotations=ann,
        io=io,
        trees=trees,
        routings=routings,
        functions=functions,
        program=program,
    )


METRIC_IDS = ("loc", "cfs", "cicm", "mccm", "cpcm", "scim_icn", "escim")


def metric_value(analysis: Analysis, metric: str) -> float | int:
    """Program-level value of one registered metric."""
    program = analysis.program
    try:
        return getattr(program, metric)
    except AttributeError:
        raise KeyError(f"unknown metric {metric!r}") from None
