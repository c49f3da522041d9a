"""One-shot analysis pipeline: source text in, full metric report out.

Program-level totals sum over functions; LOC and efficiency use the whole
file.  Each function's line counts come from classify_io, over its own
tokens; the program's LOC is the one classify_lines call over all of them.
A function and the program are scored into the same Metrics record.
Everything here is a pure function of the source text, so analyses
of distinct inputs can run concurrently.  Text that render() wrote is
scored from the tokens and tree it laid out (analyze_rendered), without
being lexed and parsed again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Span
from .granules import GranuleTree, granulate, structural_weight
from .info import InfoAnnotations, annotate, info_content, scope_information
from .lexer import Token, classify_lines, tokenize
from .metrics import GranuleRow, cfs, cpcm, efficiency, escim, granule_report, mccm, scim_icn, wics_cicm
from .parser import parse
from .render import Rendered
from .resolve import IoClassification, ResolvedUnit, classify_io, resolve
from .syntax import SourceUnit


@dataclass(frozen=True)
class Metrics:
    """The scores of one function, or of the whole program."""

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
    info_total: int  # I over the region
    si_total: int  # SI over the region


@dataclass
class Analysis:
    source: str
    path: str
    unit: SourceUnit
    tokens: list[Token]
    resolved: ResolvedUnit
    annotations: InfoAnnotations
    io: dict[str, IoClassification]  # by function name
    trees: dict[str, GranuleTree]
    functions: dict[str, Metrics]
    program: Metrics

    def granule_rows(self, function: str) -> list[GranuleRow]:
        """Per-granule diagnostic rows of one function, computed on each call."""
        return granule_report(self.trees[function], self.annotations)


def analyze_source(source: str, path: str = "<memory>") -> Analysis:
    """Lex, parse, resolve, granulate, annotate and score one program."""
    tokens = tokenize(source)
    return _analyze(source, path, tokens, parse(tokens, len(source)))


def analyze_rendered(rendered: Rendered, path: str = "<memory>") -> Analysis:
    """Resolve, granulate, annotate and score the tokens and tree of a
    rendered program: the same Analysis, or the same error, as
    ``analyze_source(str(rendered))``."""
    return _analyze(rendered, path, rendered.tokens, rendered.unit)


def _analyze(source: str, path: str, tokens: list[Token], unit: SourceUnit) -> Analysis:
    """Everything after parsing: `unit` is the tree of `tokens`, the tokens of `source`."""
    resolved = resolve(unit)
    ann = annotate(resolved)
    io = classify_io(resolved, tokens)

    trees: dict[str, GranuleTree] = {}
    functions: dict[str, Metrics] = {}
    for fn in unit.functions:
        tree = granulate(resolved, fn.name)
        trees[fn.name] = tree
        fn_io = io[fn.name]
        wc = structural_weight(tree)
        wics_value, cicm_value = wics_cicm(fn_io.line_counts, wc)
        escim_value = escim(tree, ann)
        functions[fn.name] = Metrics(
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
            info_total=info_content(ann, fn.span),
            si_total=scope_information(ann, fn.span),
        )

    loc = classify_lines(tokens).loc
    whole = Span(0, len(source) + 1, 1, 1)
    totals = {
        name: sum(getattr(m, name) for m in functions.values())  # in function order
        for name in ("wc", "cfs", "wics", "cicm", "mccm", "cpcm", "scim_icn", "escim")
    }
    program = Metrics(
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
