"""One-shot analysis pipeline: source text in, full metric report out.

Program-level totals sum over functions; LOC and efficiency use the whole
file.  Everything here is a pure function of the source text, so analyses
of distinct inputs can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Span
from .granules import GranuleTree, granulate, structural_weight
from .info import InfoAnnotations, annotate, info_content, scope_information
from .lexer import Token, classify_lines, tokenize
from .metrics import GranuleRow, cfs, cpcm, efficiency, escim, granule_report, mccm, scim_icn, wics_cicm
from .parser import parse
from .resolve import IoSummary, ResolvedUnit, classify_io, resolve
from .syntax import SourceUnit


@dataclass(frozen=True)
class FunctionMetrics:
    name: str
    loc: int
    wc: int
    cfs: int
    wics: float
    cicm: float
    mccm: int
    cpcm: int
    scim_icn: int
    escim: int
    efficiency_e: float
    info_total: int  # I over the function region
    si_total: int  # SI over the function region


@dataclass(frozen=True)
class ProgramMetrics:
    loc: int
    wc: int
    cfs: int
    wics: float
    cicm: float
    mccm: int
    cpcm: int
    scim_icn: int
    escim: int
    efficiency_e: float
    info_total: int
    si_total: int


@dataclass
class Analysis:
    source: str
    path: str
    unit: SourceUnit
    tokens: list[Token]
    resolved: ResolvedUnit
    annotations: InfoAnnotations
    io: IoSummary
    trees: dict[str, GranuleTree]
    functions: dict[str, FunctionMetrics]
    program: ProgramMetrics
    _granule_rows: dict[str, list[GranuleRow]] = field(default_factory=dict)

    def granule_rows(self, function: str) -> list[GranuleRow]:
        """Per-granule diagnostic rows, computed on first use."""
        rows = self._granule_rows.get(function)
        if rows is None:
            rows = granule_report(self.trees[function], self.annotations)
            self._granule_rows[function] = rows
        return rows


def analyze_source(source: str, path: str = "<memory>") -> Analysis:
    """Lex, parse, resolve, granulate, annotate and score one program."""
    tokens = tokenize(source)
    unit = parse(tokens, len(source))
    resolved = resolve(unit)
    ann = annotate(resolved)
    io = classify_io(resolved, tokens)

    trees: dict[str, GranuleTree] = {}
    functions: dict[str, FunctionMetrics] = {}
    for fn in unit.functions:
        tree = granulate(resolved, fn.name)
        trees[fn.name] = tree
        fn_io = io.functions[fn.name]
        wc = structural_weight(tree)
        wics_value, cicm_value = wics_cicm(fn_io.line_counts, wc)
        escim_value = escim(tree, ann)
        fn_region = fn.span
        metrics = FunctionMetrics(
            name=fn.name,
            loc=fn_io.loc,
            wc=wc,
            cfs=cfs(fn_io, wc),
            wics=wics_value,
            cicm=cicm_value,
            mccm=mccm(fn_io, wc),
            cpcm=cpcm(fn_io, wc),
            scim_icn=scim_icn(tree, ann),
            escim=escim_value,
            efficiency_e=efficiency(escim_value, fn_io.loc) if fn_io.loc else 0.0,
            info_total=info_content(ann, fn_region),
            si_total=scope_information(ann, fn_region),
        )
        functions[fn.name] = metrics

    loc = classify_lines(tokens).loc
    whole = Span(0, len(source) + 1, 1, 1)
    totals = {
        name: sum(getattr(m, name) for m in functions.values())  # in function order
        for name in ("wc", "cfs", "wics", "cicm", "mccm", "cpcm", "scim_icn", "escim")
    }
    program = ProgramMetrics(
        loc=loc,
        **totals,
        efficiency_e=efficiency(totals["escim"], loc) if loc else 0.0,
        info_total=info_content(ann, whole),
        si_total=scope_information(ann, whole),
    )
    return Analysis(
        source=source,
        path=path,
        unit=unit,
        tokens=tokens,
        resolved=resolved,
        annotations=ann,
        io=io,
        trees=trees,
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
