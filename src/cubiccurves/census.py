"""Enumeration of curve families by (degree, genus) and the census report.

A family is a standard-form class (b1 >= ... >= b6 >= 0, a >= b1+b2+b3)
with a > b1.  That excludes the 27 lines (d = 1) and the 27 conic classes
(d = 2), which has_smooth_member accepts; from d = 3 on the families are
exactly the standard classes with a smooth member.  For fixed degree d the
coefficient sum is pinned to 3a - d and a is confined to [ceil(d/3), d], so
enumeration is a bounded partition walk, and its classes need no reduction.
Census records are pure functions of the class, each built from one
CurveFacts pass on plain integers, and come out in a fixed (d, g, class)
order.  census_window_csv renders a window's CSV in forked processes, one
per slice of degrees, each sending its rows back as raw text, not pickled;
the parent renders any slice that does not come back whole.  Records stay in
the process that builds them, because shipping them cost more than it saved.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
from functools import lru_cache
from typing import NamedTuple

from .curve import _genus, _standard_facts, hodge_genus_bound
from .errors import DegreeTooSmall, GenusOutOfHodgeRange
from .lattice import DivisorClass
from .obstruction import (
    HilbertDimResult,
    KleppeVerdict,
    ObstructionVerdict,
    dim_of,
    kleppe_of,
    verdict_of,
)


def _standard_coefficients(d: int):
    """(a, b) of every standard smooth-member class of degree d, sorted on
    (a, b1..b6).

    b1 >= ... >= b6 >= 0 sum to s = 3a - d, with b1 <= a - 1 (a smooth
    member) and b1+b2+b3 <= a.  Slot k = 0..5 takes at least
    ceil(remaining / (6 - k)), or the slots after it could not absorb the
    rest; b6 is what is left, and that bound on b5 keeps it in [0, b5].
    """
    for a in range((d + 2) // 3, d + 1):
        s = 3 * a - d
        for b1 in range((s + 5) // 6, min(a - 1, s) + 1):
            r1 = s - b1
            for b2 in range((r1 + 4) // 5, min(b1, r1, a - b1) + 1):
                r2 = r1 - b2
                for b3 in range((r2 + 3) // 4, min(b2, r2, a - b1 - b2) + 1):
                    r3 = r2 - b3
                    for b4 in range((r3 + 2) // 3, min(b3, r3) + 1):
                        r4 = r3 - b4
                        for b5 in range((r4 + 1) // 2, min(b4, r4) + 1):
                            yield a, (b1, b2, b3, b4, b5, r4 - b5)


@lru_cache(maxsize=64)
def _families_by_genus(d: int) -> dict[int, tuple[DivisorClass, ...]]:
    """The standard smooth-member classes of degree d by genus, each bucket
    sorted on (a, b1..b6); the genus is read off the coefficients once."""
    out: dict[int, list[DivisorClass]] = {}
    for a, b in _standard_coefficients(d):
        out.setdefault(_genus(a, b, d), []).append(DivisorClass(a, b))
    return {g: tuple(v) for g, v in out.items()}


def enumerate_families(d: int, g: int) -> tuple[DivisorClass, ...]:
    """All families (standard, b6 >= 0, a > b1) of the given degree and genus,
    sorted lexicographically on (a, b1..b6); hodge_genus_bound rejects d <= 0.
    Empty for d = 1 and d = 2, whose lines and conics have a = b1 or b6 < 0.
    """
    if not 0 <= g <= hodge_genus_bound(d):
        raise GenusOutOfHodgeRange(f"genus {g} outside [0, {hodge_genus_bound(d)}] for degree {d}")
    return _families_by_genus(d).get(g, ())


class CensusRecord(NamedTuple):
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


def _record_of(cls: DivisorClass, d: int, g: int) -> CensusRecord:
    """The census record of an enumerated class of degree d and genus g.

    The class is already standard, so it is not reduced; _standard_facts
    checks it and its facts as it does on every other path.
    """
    facts = _standard_facts(cls, d, g)
    h1_ic1, h1_ic2, h1_ic3 = facts.defects
    normality = 0 if h1_ic1 else 1 if h1_ic2 else 2 if h1_ic3 else 3
    verdict, kleppe = verdict_of(facts), kleppe_of(facts)
    return CensusRecord(cls, d, g, h1_ic3, facts.h2, normality, verdict,
                        dim_of(facts, verdict, kleppe), kleppe, d + g + 18)


def _check_window(d_min: int, d_max: int, g_min: int, g_max: int) -> None:
    if d_min <= 9:
        raise DegreeTooSmall(f"census needs d_min > 9, got {d_min}")
    if d_max < d_min or g_max < g_min or g_min < 0:
        raise GenusOutOfHodgeRange(f"empty or negative range d=[{d_min},{d_max}] g=[{g_min},{g_max}]")


def census_range(d_min: int, d_max: int, g_min: int, g_max: int) -> tuple[tuple[CensusRecord, ...], dict[str, int]]:
    """Records for every family with d in [d_min, d_max], g in [g_min, g_max].

    One walk over the (d, g) cells up to each degree's Hodge bound: a cell
    is counted, and its families become records as it is reached, or it is
    counted as empty.  Each record is one facts pass over its enumerated
    class, which is standard already and is not reduced (_record_of).
    """
    _check_window(d_min, d_max, g_min, g_max)
    records: list[CensusRecord] = []
    cells = empty = 0
    for d in range(d_min, d_max + 1):
        by_g = _families_by_genus(d)
        for g in range(g_min, min(g_max, hodge_genus_bound(d)) + 1):
            cells += 1
            fams = by_g.get(g, ())
            if fams:
                records.extend([_record_of(c, d, g) for c in fams])
            else:
                empty += 1
    return tuple(records), {"cells": cells, "empty_cells": empty, "records": len(records)}


CSV_COLUMNS = (
    "d,g,a,b1,b2,b3,b4,b5,b6,h1_ic3,h2,normality,verdict,rule,dim_kind,dim_lo,dim_hi,kleppe"
)


def census_rows(records):
    """The cells of each record, one row (a tuple) per record in CSV_COLUMNS order."""
    for r in records:
        lo = r.dim.value if r.dim.kind == "exact" else r.dim.lo
        hi = r.dim.value if r.dim.kind == "exact" else r.dim.hi
        yield (r.d, r.g, r.cls.a, *r.cls.b, r.h1_ic3, r.h2, r.normality,
               r.verdict.kind, r.verdict.rule or "", r.dim.kind, lo, hi, str(r.kleppe))


# One census_rows row: twelve integers, then the verdict kind, the rule, the
# dim kind, two integers and the Kleppe cell.
_CSV_ROW = "%d," * 12 + "%s,%s,%s,%s,%s,%s\n"


def census_csv(records) -> str:
    """The fixed-column CSV payload for a sequence of census records: the
    CSV_COLUMNS header, then each census_rows row through one %-template.

    That is csv.writer's output byte for byte, because no cell needs
    quoting: each is an int or a token of a fixed vocabulary (verdict kind,
    rule, dim kind, Kleppe cell), and no token holds a comma, a quote or a
    newline.
    """
    return "".join([CSV_COLUMNS, "\n", *[_CSV_ROW % row for row in census_rows(records)]])


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _slices(d_min: int, d_max: int, n: int) -> list[tuple[int, int]]:
    """d_min..d_max cut into at most n runs of degrees (lo, hi) of about equal
    work, a degree's share being d**4, which tracks its census time."""
    total, done, cuts = sum(d ** 4 for d in range(d_min, d_max + 1)), 0, [d_min]
    for d in range(d_min + 1, d_max + 1):
        done += (d - 1) ** 4
        if len(cuts) < n and (2 * done + d ** 4) * n > 2 * total * len(cuts):
            cuts.append(d)
    return [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:] + [d_max + 1])]


def census_window_csv(d_min: int, d_max: int, g_min: int, g_max: int, workers: int = 1) -> str:
    """census_csv(census_range(d_min, d_max, g_min, g_max)[0]), byte for byte,
    from at most min(workers, CPUs) slices of degrees where os.fork exists
    and no other thread runs.  A forked child sends back each slice's CSV
    past the first, then a NUL; this process renders, in degree order, every
    slice that does not end in that NUL (its own, one it could not fork, one
    whose child raised, died or was cut off).  So an error is raised as a
    serial run raises it, and no child outlives the call."""
    _check_window(d_min, d_max, g_min, g_max)
    forkable = hasattr(os, "fork") and threading.active_count() == 1  # a fork beside threads can deadlock
    slices = _slices(d_min, d_max, min(workers, _cpus()) if forkable else 1)
    pipes, pids = [], []
    try:
        for lo, hi in slices[1:]:
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
            except OSError:  # refused: the pipe stays empty, so the slice is rendered here
                os.close(w)
                continue
            if pid == 0:  # the child never returns
                try:
                    gc.disable()  # a collection would copy every inherited page it walks
                    with os.fdopen(w, "wb") as pipe:
                        pipe.write(census_csv(census_range(lo, hi, g_min, g_max)[0]).encode() + b"\0")
                finally:
                    os._exit(0)
            os.close(w)
            pids.append(pid)
        texts = []
        for (lo, hi), pipe in zip(slices, [None, *pipes]):
            out = pipe.read() if pipe else b""
            text = out[:-1].decode() if out.endswith(b"\0") else census_csv(census_range(lo, hi, g_min, g_max)[0])
            texts.append(text.partition("\n")[2] if texts else text)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # stops a child still at work; one that has exited stays unreaped till here
            os.waitpid(pid, 0)
    return "".join(texts)
