"""The metric suite: CFS, WICS/CICM, MCCM, CPCM, granule-ICN, ESCIM, E.

ESCIM evaluates the granule tree recursively: a leaf scores its weight times
the scope information SI of its region; an internal granule scores its
weight times the sum of its children plus an implicit weight-1 leaf covering
its own header occurrences.  The granule-ICN variant applies the same fold
with I in place of SI.  The simplest component (one operator-free assignment
in a linear block) scores exactly 1, the measure's unit.

Each function is routed once (`route`): one scan of its own occurrence
run maps every granule to the occurrences anchored directly to it.  ESCIM,
granule-ICN and the per-granule report all fold that one routing.

A granule's region holds exactly the occurrences routed to its subtree:
every simple statement belongs to exactly one granule, and parameter and
global occurrences lie outside every function body.  Every fold relies on
the monotone counters of `cogscope.info` and on occurrence sets in
occurrence order: I is the sum of each name's last ICN, and SI the sum of
each symbol's last minus first SICN.  So the per-granule report reads each
occurrence once, into its granule's first and last values, and builds each
region's SI and I by merging those bottom up; it never compares spans or
counter values.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

from .errors import Record, UndefinedEfficiencyError
from .granules import Granule, GranuleTree, occurrence_routing
from .info import InfoAnnotations, info_content, scope_information
from .resolve import IoClassification, ResolvedUnit

Routing = dict[int, list[int]]  # granule id -> indices of the occurrences anchored to it


def cfs(io: IoClassification, wc: int) -> int:
    """Cognitive functional size: (number of inputs + outputs) x Wc."""
    return (len(io.inputs) + len(io.outputs)) * wc


def wics_cicm(line_counts: list[int], wc: int) -> tuple[float, float]:
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


def route(tree: GranuleTree, resolved: ResolvedUnit) -> Routing:
    """The one routing of a function that escim, scim_icn and granule_report fold.

    The benchmark traces routing under this module's name for it
    (``cogscope.metrics.occurrence_routing`` in ``perfbench/tracing.py``).
    """
    return occurrence_routing(tree, resolved)


def escim(tree: GranuleTree, ann: InfoAnnotations, routing: Routing) -> int:
    """Structural cognitive information measure of one function, in ESCIU."""
    return tree.fold(lambda g: scope_information(ann, routing[g.id]))[0]


def scim_icn(tree: GranuleTree, ann: InfoAnnotations, routing: Routing) -> int:
    """Granule-ICN complexity: the ESCIM fold with I in place of SI."""
    return tree.fold(lambda g: info_content(ann, routing[g.id]))[0]


def efficiency(escim_value: float, loc: int) -> float:
    """Coding efficiency E = ESCIM / LOC."""
    if loc == 0:
        raise UndefinedEfficiencyError("efficiency is undefined for LOC = 0")
    return escim_value / loc


# ============================================================
# PER-GRANULE DIAGNOSTICS
# ============================================================


class GranuleRow(Record):
    """One granule's row of the per-granule report."""

    __slots__ = (
        "id", "kind", "weight", "depth", "si", "i", "contribution", "flat_weighted_si",
        "children", "span_start", "span_end", "line", "col",
    )
    __hash__ = None  # it holds a list

    def __init__(self, granule: Granule, si: int, i: int, contribution: int):
        self.id = granule.id
        self.kind = granule.kind
        self.weight = granule.weight
        self.depth = granule.depth
        self.si = si  # SI over the whole region
        self.i = i  # I over the whole region
        self.contribution = contribution  # value of this granule in the ESCIM fold
        self.flat_weighted_si = granule.weight * si  # weight x SI(region), the flat diagnostic
        self.children = [c.id for c in granule.children]
        self.span_start = granule.region.start
        self.span_end = granule.region.end
        self.line = granule.region.line
        self.col = granule.region.col


def granule_report(tree: GranuleTree, ann: InfoAnnotations, routing: Routing) -> list[GranuleRow]:
    """Per-granule SI/I values, fold contributions, and flat weight x SI rows.

    A granule's own part, its routed occurrences, is read once into each
    symbol's first and last SICN and each name's last ICN: the routing lists
    indices in occurrence order, and the counters never fall along a symbol
    or a name, so these are the extrema and no two counter values are
    compared.  A region is the granule's own part and its children's
    regions, merged bottom up in occurrence order (a do-while's own part
    comes after its children, every other's before): the earliest part gives
    a symbol's first value, the latest its last value.
    """
    uids, names, icn, sicn = ann.uids, ann.names, ann.icn, ann.sicn
    direct_si: dict[int, int] = {}  # SI of the occurrences routed to the granule itself
    region: dict[int, tuple[int, int]] = {}  # (SI, I) of the granule's whole region
    # (first index, first SICN by uid, last SICN by uid, last ICN by name) of
    # each non-empty region whose parent is not done
    parts: dict[int, tuple[int, dict, dict, dict]] = {}
    for g in reversed(list(tree.walk())):  # each granule after its descendants
        own = routing[g.id]
        first = {uids[i]: sicn[i] for i in reversed(own)}
        last = {uids[i]: sicn[i] for i in own}
        top = {names[i]: icn[i] for i in own}
        direct_si[g.id] = sum(last.values()) - sum(first.values())
        ordered = [parts.pop(c.id) for c in g.children if c.id in parts]
        if own:
            ordered.append((own[0], first, last, top))
        if not ordered:
            region[g.id] = 0, 0
            continue
        if len(ordered) == 1:
            _, first, last, top = ordered[0]
        else:  # merge the parts in occurrence order
            ordered.sort(key=itemgetter(0))
            first, last, top = {}, {}, {}
            for _, part_first, _, _ in reversed(ordered):
                first.update(part_first)
            for _, _, part_last, part_top in ordered:
                last.update(part_last)
                top.update(part_top)
        parts[g.id] = ordered[0][0], first, last, top
        region[g.id] = sum(last.values()) - sum(first.values()), sum(top.values())
    _, contributions = tree.fold(lambda g: direct_si[g.id])
    return [GranuleRow(g, *region[g.id], contributions[g.id]) for g in sorted(tree.walk(), key=attrgetter("id"))]
