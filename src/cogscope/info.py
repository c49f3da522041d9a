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
Over any set of occurrences, a symbol's lowest and highest SICN are those of
its first and last occurrence, and a name's highest ICN is its last.

Region queries fold annotations over a set of occurrence indices L:
  I(L)  = sum over names of the highest ICN annotation in L,
  SI(L) = sum over symbols of (highest - lowest) SICN annotation in L.
The analysis passes a function's own occurrence run, a granule's routed
occurrences, or every occurrence; a source span becomes such a set through
`InfoAnnotations.in_region`, one scan of the whole program.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import Record, Span
from .resolve import DECLARE, DECLARE_INIT, READ, WRITE, ResolvedUnit, Symbol


def compute_icn(resolved: ResolvedUnit) -> tuple[int, ...]:
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
    return tuple(values)


def compute_sicn(resolved: ResolvedUnit) -> tuple[int, ...]:
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
    return tuple(values)


class InfoAnnotations(Record):
    """The ICN and SICN of every occurrence of a resolved program, in occurrence order."""

    __slots__ = ("resolved", "icn", "sicn")

    def __init__(self, resolved: ResolvedUnit, icn: tuple[int, ...], sicn: tuple[int, ...]):
        self.resolved = resolved
        self.icn = icn
        self.sicn = sicn

    def in_region(self, region: Span) -> list[int]:
        """Indices of occurrences lying inside the region span."""
        return [
            i
            for i, occ in enumerate(self.resolved.occurrences)
            if region.start <= occ.span.start and occ.span.end <= region.end
        ]


def annotate(resolved: ResolvedUnit) -> InfoAnnotations:
    return InfoAnnotations(resolved=resolved, icn=compute_icn(resolved), sicn=compute_sicn(resolved))


# ============================================================
# REGION FOLDS
# ============================================================


def info_content(ann: InfoAnnotations, indices: Iterable[int]) -> int:
    """I over an occurrence set: sum of per-name ICN maxima."""
    best: dict[str, int] = {}
    occs = ann.resolved.occurrences
    icn = ann.icn
    for i in indices:
        name = occs[i].name
        value = icn[i]
        if value > best.get(name, -1):
            best[name] = value
    return sum(best.values())


def scope_information(ann: InfoAnnotations, indices: Iterable[int]) -> int:
    """SI over an occurrence set: sum of per-symbol (max - min)."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    occs = ann.resolved.occurrences
    sicn = ann.sicn
    for i in indices:
        uid = occs[i].symbol.uid
        value = sicn[i]
        if uid not in lo:
            lo[uid] = hi[uid] = value
        elif value < lo[uid]:
            lo[uid] = value
        elif value > hi[uid]:
            hi[uid] = value
    return sum([hi[u] - lo[u] for u in lo])


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


def region_extrema(ann: InfoAnnotations, indices: Iterable[int]) -> list[VariableExtrema]:
    """Per-symbol extrema for every variable occurring in an occurrence set."""
    rows: dict[int, list] = {}  # uid -> [symbol, ICN max, SICN max, SICN min, occurrences]
    occs = ann.resolved.occurrences
    icn, sicn = ann.icn, ann.sicn
    for i in indices:
        symbol = occs[i].symbol
        row = rows.get(symbol.uid)
        if row is None:
            rows[symbol.uid] = [symbol, icn[i], sicn[i], sicn[i], 1]
            continue
        if icn[i] > row[1]:
            row[1] = icn[i]
        if sicn[i] > row[2]:
            row[2] = sicn[i]
        elif sicn[i] < row[3]:
            row[3] = sicn[i]
        row[4] += 1
    out = [
        VariableExtrema(symbol.name, symbol, icn_max, sicn_max, sicn_min, count)
        for symbol, icn_max, sicn_max, sicn_min, count in rows.values()
    ]
    out.sort(key=lambda r: (r.name, r.symbol.uid))
    return out


def name_extrema(ann: InfoAnnotations, region: Span, name: str) -> tuple[int, int, int]:
    """(ICN_max, SICN_max, SICN_min) of one variable name within a region.

    ICN_max follows the name across scopes; SICN extrema range over all
    symbols of that name occurring in the region.  All three are 0 when the
    name does not occur there.
    """
    rows = [row for row in region_extrema(ann, ann.in_region(region)) if row.name == name]
    if not rows:
        return 0, 0, 0
    return max(r.icn_max for r in rows), max(r.sicn_max for r in rows), min(r.sicn_min for r in rows)
