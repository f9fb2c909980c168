"""Enumeration of curve families by (degree, genus) and the census report.

A family is a standard-form class (b1 >= ... >= b6 >= 0, a >= b1+b2+b3)
with a smooth member (a > b1).  For fixed degree d the coefficient sum is
pinned to 3a - d and a is confined to [ceil(d/3), d], so enumeration is a
bounded partition walk.  Census records are pure functions of the class,
each built from one CurveFacts pass, and are merged in a fixed (d, g, class)
order, so the CSV output is byte-identical no matter how many worker threads
run.
"""

from __future__ import annotations

import io
import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .curve import curve_facts, hodge_genus_bound, invariants
from .errors import DegreeTooSmall, GenusOutOfHodgeRange, NonPositiveDegree
from .lattice import DivisorClass
from .obstruction import (
    HilbertDimResult,
    KleppeVerdict,
    ObstructionVerdict,
    dim_of,
    kleppe_of,
    verdict_of,
)


def _descending_tuples(total: int, cap: int, head_budget: int):
    """Non-increasing 6-tuples >= 0 with the given sum, b1 <= cap and
    b1+b2+b3 <= head_budget."""

    def rec(pos: int, remaining: int, prev: int, head: int):
        if pos == 6:
            if remaining == 0:
                yield ()
            return
        lo = 0
        hi = min(prev, remaining)
        if pos < 3:
            hi = min(hi, head)
        # the remaining slots can absorb at most (6-pos-1)*value more
        for v in range(hi, lo - 1, -1):
            if remaining - v > v * (5 - pos):
                continue
            for rest in rec(pos + 1, remaining - v, v, head - v if pos < 3 else head):
                yield (v,) + rest

    yield from rec(0, total, cap, head_budget)


@lru_cache(maxsize=64)
def _families_by_genus(d: int) -> dict[int, tuple[DivisorClass, ...]]:
    out: dict[int, list[DivisorClass]] = {}
    for a in range((d + 2) // 3, d + 1):
        s = 3 * a - d
        if s < 0:
            continue
        for b in _descending_tuples(s, cap=a - 1, head_budget=a):
            cls = DivisorClass(a, b)
            _, g = invariants(cls)
            out.setdefault(g, []).append(cls)
    return {g: tuple(sorted(v, key=lambda c: (c.a, c.b))) for g, v in out.items()}


def enumerate_families(d: int, g: int) -> tuple[DivisorClass, ...]:
    """All standard smooth-member classes of the given degree and genus,
    sorted lexicographically on (a, b1..b6)."""
    if d <= 0:
        raise NonPositiveDegree(f"degree must be positive, got {d}")
    if not 0 <= g <= hodge_genus_bound(d):
        raise GenusOutOfHodgeRange(f"genus {g} outside [0, {hodge_genus_bound(d)}] for degree {d}")
    return _families_by_genus(d).get(g, ())


@dataclass(frozen=True, slots=True)
class CensusRecord:
    cls: DivisorClass
    d: int
    g: int
    h1_ic3: int
    h2: int
    normality: int
    verdict: ObstructionVerdict
    dim: HilbertDimResult
    kleppe: KleppeVerdict
    dim_w: int


def _record(cls: DivisorClass) -> CensusRecord:
    """The census record of cls, read off one curve_facts pass."""
    facts = curve_facts(cls)
    normality = 0
    for n, defect in enumerate(facts.defects, start=1):
        if defect != 0:
            break
        normality = n
    verdict = verdict_of(facts)
    return CensusRecord(
        cls=cls,
        d=facts.d,
        g=facts.g,
        h1_ic3=facts.defects[2],
        h2=facts.h2,
        normality=normality,
        verdict=verdict,
        dim=dim_of(facts, verdict),
        kleppe=kleppe_of(facts),
        dim_w=facts.d + facts.g + 18,
    )


def census_range(
    d_min: int, d_max: int, g_min: int, g_max: int, threads: int = 1
) -> tuple[tuple[CensusRecord, ...], dict[str, int]]:
    """Records for every family with d in [d_min, d_max], g in [g_min, g_max].

    g cells beyond the Hodge bound of their degree are skipped entirely;
    the summary counts only cells within the bound.  Each record comes from
    a single curve_facts pass over its class (see _record).  threads is a
    speed hint, the merge order is fixed, so output is deterministic.
    """
    if d_min <= 9:
        raise DegreeTooSmall(f"census needs d_min > 9, got {d_min}")
    if d_max < d_min or g_max < g_min or g_min < 0:
        raise GenusOutOfHodgeRange(f"empty or negative range d=[{d_min},{d_max}] g=[{g_min},{g_max}]")
    cells = []
    empty = 0
    for d in range(d_min, d_max + 1):
        by_g = _families_by_genus(d)
        top = hodge_genus_bound(d)
        for g in range(g_min, g_max + 1):
            if g > top:
                continue
            fams = by_g.get(g, ())
            if fams:
                cells.append(fams)
            else:
                empty += 1
    def work(fams):
        return tuple(_record(c) for c in fams)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, cells))
    else:
        chunks = [work(fams) for fams in cells]
    records = tuple(r for chunk in chunks for r in chunk)
    summary = {
        "cells": len(cells) + empty,
        "empty_cells": empty,
        "records": len(records),
    }
    return records, summary


CSV_COLUMNS = (
    "d,g,a,b1,b2,b3,b4,b5,b6,h1_ic3,h2,normality,verdict,rule,dim_kind,dim_lo,dim_hi,kleppe"
)


def _kleppe_text(k: KleppeVerdict) -> str:
    if k.kind == "NotApplicable":
        return f"NotApplicable[{k.failed_hypothesis}]"
    if k.kind == "KnownRange":
        return f"KnownRange[{k.range_tag}]"
    return k.kind


def census_csv(records) -> str:
    """The fixed-column CSV payload for a sequence of census records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS.split(","))
    for r in records:
        lo = r.dim.value if r.dim.kind == "exact" else r.dim.lo
        hi = r.dim.value if r.dim.kind == "exact" else r.dim.hi
        writer.writerow(
            [
                r.d,
                r.g,
                r.cls.a,
                *r.cls.b,
                r.h1_ic3,
                r.h2,
                r.normality,
                r.verdict.kind,
                r.verdict.rule or "",
                r.dim.kind,
                lo,
                hi,
                _kleppe_text(r.kleppe),
            ]
        )
    return buf.getvalue()
