"""Information-complexity counting engines and region queries.

Two counters run over the same occurrence stream:

  * ICN is keyed by variable NAME across all scopes. Every name starts at 0;
    an assignment adds 1 plus the statement's operator count; a declaration
    with initializer does the same; reads and plain declarations add nothing.

  * SICN is keyed by declaration-site SYMBOL. A declaration introduces its
    symbol at 1 (plus the initializer's operator count); an assignment adds
    1 plus the statement's operator count.  Shadowing therefore suspends the
    outer symbol's counter automatically, and leaving the scope resumes it.

Annotation rule: a read carries the counter value before its statement's
effect; a write or declaration carries the value after.  Both engines apply
each statement once, in source order; loops are never iterated.

Both counters only grow, and a symbol's declaration is its first
occurrence, so along one symbol's occurrences SICN never falls, and along
one name's occurrences ICN never falls (tests/test_info.py checks this).

Region folds read an occurrence set L as indices in ascending order, which
is occurrence order, and rely on that invariant: over L a symbol's lowest
and highest SICN are those of its first and last occurrence, and a name's
highest ICN is its last.  So
  I(L)  = sum over names of the name's last ICN in L,
  SI(L) = sum over symbols of (last - first) SICN in L,
and no fold compares two counter values.  The analysis passes a function's
own occurrence run (a range), a granule's routed occurrences (a list in run
order), or every occurrence (a range); a source span becomes such a list
through `InfoAnnotations.in_region`, one scan of the whole program.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .errors import Record, Span
from .resolve import DECLARE, DECLARE_INIT, READ, WRITE, ResolvedUnit, Symbol


def compute_icn(resolved: ResolvedUnit) -> list[int]:
    """Per-occurrence ICN annotations, name-keyed across the whole unit."""
    counters: dict[str, int] = {}
    values: list[int] = []
    for occ in resolved.occurrences:
        current = counters.get(occ.name, 0)
        if occ.kind == READ or occ.kind == DECLARE:
            values.append(current)
        else:  # write or declare-init: assignment semantics
            current += 1 + occ.ops_delta
            counters[occ.name] = current
            values.append(current)
    return values


def compute_sicn(resolved: ResolvedUnit) -> list[int]:
    """Per-occurrence SICN annotations, keyed by declaration-site symbol."""
    counters: dict[int, int] = {}
    values: list[int] = []
    for occ in resolved.occurrences:
        uid = occ.symbol.uid
        if occ.kind == DECLARE:
            counters[uid] = 1
            values.append(1)
        elif occ.kind == DECLARE_INIT:
            counters[uid] = 1 + occ.ops_delta
            values.append(counters[uid])
        elif occ.kind == WRITE:
            counters[uid] = counters.get(uid, 1) + 1 + occ.ops_delta
            values.append(counters[uid])
        else:  # read
            values.append(counters.get(uid, 1))
    return values


class InfoAnnotations(Record):
    """The ICN and SICN of every occurrence of a resolved program, and its
    name and symbol uid, in occurrence order: four lists, one item per
    occurrence, as every per-occurrence array is (see errors.Record)."""

    __slots__ = ("resolved", "icn", "sicn", "names", "uids")
    __hash__ = None  # it holds lists

    def __init__(
        self,
        resolved: ResolvedUnit,
        icn: list[int],
        sicn: list[int],
        names: list[str],
        uids: list[int],
    ):
        self.resolved = resolved
        self.icn = icn
        self.sicn = sicn
        self.names = names
        self.uids = uids

    def in_region(self, region: Span) -> list[int]:
        """Indices of occurrences lying inside the region span, ascending."""
        return [
            i
            for i, occ in enumerate(self.resolved.occurrences)
            if region.start <= occ.span.start and occ.span.end <= region.end
        ]


def annotate(resolved: ResolvedUnit) -> InfoAnnotations:
    occs = resolved.occurrences
    return InfoAnnotations(
        resolved=resolved,
        icn=compute_icn(resolved),
        sicn=compute_sicn(resolved),
        names=[occ.name for occ in occs],
        uids=[occ.symbol.uid for occ in occs],
    )


# ============================================================
# REGION FOLDS
# ============================================================


def info_content(ann: InfoAnnotations, indices: Sequence[int]) -> int:
    """I over an occurrence set in occurrence order: sum of each name's last ICN."""
    names, icn = ann.names, ann.icn
    return sum({names[i]: icn[i] for i in indices}.values())


def scope_information(ann: InfoAnnotations, indices: Sequence[int]) -> int:
    """SI over an occurrence set in occurrence order: sum of each symbol's
    last minus first SICN."""
    uids, sicn = ann.uids, ann.sicn
    last = {uids[i]: sicn[i] for i in indices}
    first = {uids[i]: sicn[i] for i in reversed(indices)}
    return sum(last.values()) - sum(first.values())


# ============================================================
# PER-VARIABLE EXTREMA
# ============================================================


class VariableExtrema(Record):
    """One symbol's ICN and SICN extrema and occurrence count over a region."""

    __slots__ = ("name", "symbol", "icn_max", "sicn_max", "sicn_min", "occurrences")

    def __init__(self, name: str, symbol: Symbol, icn_max: int, sicn_max: int, sicn_min: int, occurrences: int):
        self.name = name
        self.symbol = symbol
        self.icn_max = icn_max
        self.sicn_max = sicn_max
        self.sicn_min = sicn_min
        self.occurrences = occurrences


def region_extrema(ann: InfoAnnotations, indices: Sequence[int]) -> list[VariableExtrema]:
    """Per-symbol extrema for every variable occurring in an occurrence set
    in occurrence order: a symbol's ICN and SICN maxima are those of its last
    occurrence, and its SICN minimum that of its first."""
    uids = ann.uids
    last = {uids[i]: i for i in indices}
    first = {uids[i]: i for i in reversed(indices)}
    counts = Counter([uids[i] for i in indices])
    occs, icn, sicn = ann.resolved.occurrences, ann.icn, ann.sicn
    out = []
    for uid, i in first.items():
        symbol = occs[i].symbol
        j = last[uid]
        out.append(VariableExtrema(symbol.name, symbol, icn[j], sicn[j], sicn[i], counts[uid]))
    out.sort(key=lambda r: (r.name, r.symbol.uid))
    return out


def name_extrema(ann: InfoAnnotations, region: Span, name: str) -> tuple[int, int, int]:
    """(ICN_max, SICN_max, SICN_min) of one variable name within a region.

    ICN_max follows the name across scopes; SICN extrema range over all
    symbols of that name occurring in the region, whose counters are
    independent, so they are compared here.  All three are 0 when the name
    does not occur there.
    """
    rows = [row for row in region_extrema(ann, ann.in_region(region)) if row.name == name]
    if not rows:
        return 0, 0, 0
    return max(r.icn_max for r in rows), max(r.sicn_max for r in rows), min(r.sicn_min for r in rows)
