"""cogscope: scope-aware cognitive information complexity for MiniLang.

The renderer, generator, transforms and Weyuker harness are submodules that
this package does not import, so ``analyze`` and ``corpus`` start without
them; ``cogscope.render`` is the renderer's module.
"""

from .analysis import Analysis, analyze_source, metric_value
from .errors import (
    LexError,
    MiniLangError,
    ParseError,
    ResolveError,
    Span,
    UndefinedEfficiencyError,
)
from .granules import GranuleTree, granulate, structural_weight, weight_of
from .info import (
    InfoAnnotations,
    annotate,
    compute_icn,
    compute_sicn,
    info_content,
    name_extrema,
    region_extrema,
    scope_information,
)
from .lexer import tokenize
from .metrics import cfs, cpcm, efficiency, escim, mccm, scim_icn, wics_cicm
from .parser import parse, parse_source
from .resolve import ResolvedUnit, classify_io, resolve

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "GranuleTree",
    "InfoAnnotations",
    "LexError",
    "MiniLangError",
    "ParseError",
    "ResolveError",
    "ResolvedUnit",
    "Span",
    "UndefinedEfficiencyError",
    "analyze_source",
    "annotate",
    "cfs",
    "classify_io",
    "compute_icn",
    "compute_sicn",
    "cpcm",
    "efficiency",
    "escim",
    "granulate",
    "info_content",
    "mccm",
    "metric_value",
    "name_extrema",
    "parse",
    "parse_source",
    "region_extrema",
    "resolve",
    "scim_icn",
    "scope_information",
    "structural_weight",
    "tokenize",
    "weight_of",
    "wics_cicm",
    "__version__",
]
