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
global occurrences lie outside every function body.  So the per-granule
report reads each occurrence once, into its granule's per-symbol extrema,
and builds each region's SI and I by merging those extrema bottom up; it
never compares spans.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import Record, UndefinedEfficiencyError
from .granules import Granule, GranuleTree, occurrence_routing
from .info import InfoAnnotations, info_content, scope_information
from .resolve import IoClassification, ResolvedUnit

Routing = dict[int, list[int]]  # granule id -> indices of the occurrences anchored to it


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

    def __init__(self, granule: Granule, si: int, i: int, contribution: int):
        self.id = granule.id
        self.kind = granule.kind
        self.weight = granule.weight
        self.depth = granule.depth
        self.si = si  # SI over the whole region
        self.i = i  # I over the whole region
        self.contribution = contribution  # value of this granule in the ESCIM fold
        self.flat_weighted_si = granule.weight * si  # weight x SI(region), the flat diagnostic
        self.children = tuple([c.id for c in granule.children])
        self.span_start = granule.region.start
        self.span_end = granule.region.end
        self.line = granule.region.line
        self.col = granule.region.col


def granule_report(tree: GranuleTree, ann: InfoAnnotations, routing: Routing) -> list[GranuleRow]:
    """Per-granule SI/I values, fold contributions, and flat weight x SI rows.

    Each routed occurrence is read once, into its granule's SICN minimum and
    maximum per symbol and ICN maximum per name; a granule's region merges
    its own extrema with its children's, which no later row reads again.
    """
    occs = ann.resolved.occurrences
    icn, sicn = ann.icn, ann.sicn
    direct_si: dict[int, int] = {}  # SI of the occurrences routed to the granule itself
    region: dict[int, tuple[int, int]] = {}  # (SI, I) of the granule's whole region
    extrema: dict[int, tuple[dict, dict, dict]] = {}  # of each region whose parent is not done
    for g in reversed(list(tree.walk())):  # each granule after its descendants
        low: dict[int, int] = {}  # SICN minimum by symbol uid
        high: dict[int, int] = {}  # SICN maximum by symbol uid
        top: dict[str, int] = {}  # ICN maximum by name
        for i in routing[g.id]:
            occ = occs[i]
            uid = occ.symbol.uid
            value = sicn[i]
            if uid not in low:
                low[uid] = high[uid] = value
            elif value < low[uid]:
                low[uid] = value
            elif value > high[uid]:
                high[uid] = value
            value = icn[i]
            if value > top.get(occ.name, -1):
                top[occ.name] = value
        si = direct_si[g.id] = sum([high[u] - low[u] for u in low])
        if g.children:
            for child in g.children:
                child_low, child_high, child_top = extrema.pop(child.id)
                for uid, value in child_low.items():
                    if uid not in low:
                        low[uid] = value
                        high[uid] = child_high[uid]
                    else:
                        if value < low[uid]:
                            low[uid] = value
                        if child_high[uid] > high[uid]:
                            high[uid] = child_high[uid]
                for name, value in child_top.items():
                    if value > top.get(name, -1):
                        top[name] = value
            si = sum([high[u] - low[u] for u in low])
        extrema[g.id] = low, high, top
        region[g.id] = si, sum(top.values())
    _, contributions = tree.fold(lambda g: direct_si[g.id])
    return [GranuleRow(g, *region[g.id], contributions[g.id]) for g in sorted(tree.walk(), key=attrgetter("id"))]
