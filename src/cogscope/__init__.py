"""cogscope: scope-aware cognitive information complexity for MiniLang.

``cogscope.render`` is the function ``cogscope.render.render``.  Only the
Weyuker harness needs the renderer, so it is imported on first use, and
``analyze`` and ``corpus`` start without it.
"""

import sys as _sys
from types import ModuleType as _ModuleType

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
from .lexer import Token, count_lines, tokenize
from .metrics import cfs, cpcm, efficiency, escim, mccm, scim_icn, wics_cicm
from .parser import parse, parse_source
from .resolve import ResolvedUnit, classify_io, operator_count, resolve

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "render":
        from .render import render  # rebinds cogscope.render to the function: see _Package

        return render
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(_ModuleType):
    """This package's module, on which importing the submodule ``render``
    binds its function ``render``, not the submodule, as ``render``."""

    def __setattr__(self, name: str, value) -> None:
        if name == "render" and value.__class__ is _ModuleType:
            value = value.render
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

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
    "Token",
    "UndefinedEfficiencyError",
    "analyze_source",
    "annotate",
    "cfs",
    "classify_io",
    "compute_icn",
    "compute_sicn",
    "count_lines",
    "cpcm",
    "efficiency",
    "escim",
    "granulate",
    "info_content",
    "mccm",
    "metric_value",
    "name_extrema",
    "operator_count",
    "parse",
    "parse_source",
    "region_extrema",
    "render",
    "resolve",
    "scim_icn",
    "scope_information",
    "structural_weight",
    "tokenize",
    "weight_of",
    "wics_cicm",
    "__version__",
]
