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

Region queries fold annotations over arbitrary spans:
  I(L)  = sum over names of the highest ICN annotation in L,
  SI(L) = sum over symbols of (highest - lowest) SICN annotation in L.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Span
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


@dataclass(frozen=True)
class InfoAnnotations:
    resolved: ResolvedUnit
    icn: tuple[int, ...]
    sicn: tuple[int, ...]

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


def info_content_at(ann: InfoAnnotations, indices: list[int]) -> int:
    """I over an explicit occurrence set: sum of per-name ICN maxima."""
    best: dict[str, int] = {}
    occs = ann.resolved.occurrences
    for i in indices:
        name = occs[i].name
        value = ann.icn[i]
        if value > best.get(name, -1):
            best[name] = value
    return sum(best.values())


def scope_information_at(ann: InfoAnnotations, indices: list[int]) -> int:
    """SI over an explicit occurrence set: sum of per-symbol (max - min)."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    occs = ann.resolved.occurrences
    for i in indices:
        uid = occs[i].symbol.uid
        value = ann.sicn[i]
        if uid not in lo:
            lo[uid] = hi[uid] = value
        else:
            if value < lo[uid]:
                lo[uid] = value
            if value > hi[uid]:
                hi[uid] = value
    return sum(hi[u] - lo[u] for u in lo)


def info_content(ann: InfoAnnotations, region: Span) -> int:
    """I(L) for a source region."""
    return info_content_at(ann, ann.in_region(region))


def scope_information(ann: InfoAnnotations, region: Span) -> int:
    """SI(L) for a source region."""
    return scope_information_at(ann, ann.in_region(region))


# ============================================================
# PER-VARIABLE EXTREMA
# ============================================================


@dataclass(frozen=True)
class VariableExtrema:
    name: str
    symbol: Symbol
    icn_max: int
    sicn_max: int
    sicn_min: int
    occurrences: int


def region_extrema(ann: InfoAnnotations, region: Span) -> list[VariableExtrema]:
    """Per-symbol extrema for every variable occurring in the region."""
    rows: dict[int, dict] = {}
    occs = ann.resolved.occurrences
    for i in ann.in_region(region):
        occ = occs[i]
        row = rows.get(occ.symbol.uid)
        if row is None:
            rows[occ.symbol.uid] = {
                "symbol": occ.symbol,
                "icn_max": ann.icn[i],
                "sicn_max": ann.sicn[i],
                "sicn_min": ann.sicn[i],
                "count": 1,
            }
        else:
            row["icn_max"] = max(row["icn_max"], ann.icn[i])
            row["sicn_max"] = max(row["sicn_max"], ann.sicn[i])
            row["sicn_min"] = min(row["sicn_min"], ann.sicn[i])
            row["count"] += 1
    out = [
        VariableExtrema(
            name=row["symbol"].name,
            symbol=row["symbol"],
            icn_max=row["icn_max"],
            sicn_max=row["sicn_max"],
            sicn_min=row["sicn_min"],
            occurrences=row["count"],
        )
        for row in rows.values()
    ]
    out.sort(key=lambda r: (r.name, r.symbol.uid))
    return out


def name_extrema(ann: InfoAnnotations, region: Span, name: str) -> tuple[int, int, int]:
    """(ICN_max, SICN_max, SICN_min) of one variable name within a region.

    ICN_max follows the name across scopes; SICN extrema range over all
    symbols of that name occurring in the region.  All three are 0 when the
    name does not occur there.
    """
    rows = [row for row in region_extrema(ann, region) if row.name == name]
    if not rows:
        return 0, 0, 0
    return max(r.icn_max for r in rows), max(r.sicn_max for r in rows), min(r.sicn_min for r in rows)
