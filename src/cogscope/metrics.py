"""The metric suite: CFS, WICS/CICM, MCCM, CPCM, granule-ICN, ESCIM, E.

ESCIM evaluates the granule tree recursively: a leaf scores its weight times
the scope information SI of its region; an internal granule scores its
weight times the sum of its children plus an implicit weight-1 leaf covering
its own header occurrences.  The granule-ICN variant applies the same fold
with I in place of SI.  The simplest component (one operator-free assignment
in a linear block) scores exactly 1, the measure's unit.

A granule's region holds exactly the occurrences routed to its subtree:
every simple statement belongs to exactly one granule, and parameter and
global occurrences lie outside every function body.  So the per-granule
report builds each region from the routing, children before parents, and
never compares spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UndefinedEfficiencyError
from .granules import GranuleTree, occurrence_routing
from .info import InfoAnnotations, info_content_at, scope_information_at
from .resolve import IoClassification


def cfs(io: IoClassification, wc: int) -> int:
    """Cognitive functional size: (number of inputs + outputs) x Wc."""
    return (len(io.inputs) + len(io.outputs)) * wc


def wics_cicm(line_counts: tuple[int, ...], wc: int) -> tuple[float, float]:
    """Weighted information count and the information complexity measure.

    WICS sums n(k) / (LOCS - k + 1) over the token-bearing lines; the +1
    keeps the last line's denominator positive while preserving the
    decreasing-weight intent.  CICM = WICS x Wc.
    """
    locs = len(line_counts)
    if locs == 0:
        return 0.0, 0.0
    wics = sum(n / (locs - k + 1) for k, n in enumerate(line_counts, start=1))
    return wics, wics * wc


def mccm(io: IoClassification, wc: int) -> int:
    """Modified cognitive complexity: (operator + operand occurrences) x Wc."""
    return (io.n_operators + io.n_operands) * wc


def cpcm(io: IoClassification, wc: int) -> int:
    """Cognitive program complexity: I/O occurrence count plus Wc."""
    return io.s_io + wc


def escim(tree: GranuleTree, ann: InfoAnnotations) -> int:
    """Structural cognitive information measure of one function, in ESCIU."""
    routing = occurrence_routing(tree, ann.resolved)
    return tree.fold(lambda g: scope_information_at(ann, routing[g.id]))[0]


def scim_icn(tree: GranuleTree, ann: InfoAnnotations) -> int:
    """Granule-ICN complexity: the ESCIM fold with I in place of SI."""
    routing = occurrence_routing(tree, ann.resolved)
    return tree.fold(lambda g: info_content_at(ann, routing[g.id]))[0]


def efficiency(escim_value: float, loc: int) -> float:
    """Coding efficiency E = ESCIM / LOC."""
    if loc == 0:
        raise UndefinedEfficiencyError("efficiency is undefined for LOC = 0")
    return escim_value / loc


# ============================================================
# PER-GRANULE DIAGNOSTICS
# ============================================================


@dataclass(frozen=True)
class GranuleRow:
    id: int
    kind: str
    weight: int
    depth: int
    si: int  # SI over the whole region span
    i: int  # I over the whole region span
    contribution: int  # value of this granule in the ESCIM fold
    flat_weighted_si: int  # weight x SI(region), the flat diagnostic
    children: tuple[int, ...]
    span_start: int
    span_end: int
    line: int
    col: int


def granule_report(tree: GranuleTree, ann: InfoAnnotations) -> list[GranuleRow]:
    """Per-granule SI/I values, fold contributions, and flat weight x SI rows."""
    routing = occurrence_routing(tree, ann.resolved)
    _, contributions = tree.fold(lambda g: scope_information_at(ann, routing[g.id]))
    regions: dict[int, list[int]] = {}
    rows: list[GranuleRow] = []
    for g in reversed(list(tree.walk())):  # each granule after its descendants
        region = routing[g.id] + [i for c in g.children for i in regions[c.id]]
        regions[g.id] = region
        region_si = scope_information_at(ann, region)
        rows.append(
            GranuleRow(
                id=g.id,
                kind=g.kind,
                weight=g.weight,
                depth=g.depth,
                si=region_si,
                i=info_content_at(ann, region),
                contribution=contributions[g.id],
                flat_weighted_si=g.weight * region_si,
                children=tuple(c.id for c in g.children),
                span_start=g.region.start,
                span_end=g.region.end,
                line=g.region.line,
                col=g.region.col,
            )
        )
    rows.sort(key=lambda r: r.id)
    return rows
