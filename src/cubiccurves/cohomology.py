"""Cohomology of divisor classes on the cubic surface.

h0 is computed by fixed-component reduction in one pass: the lines that
pair negatively with an effective D are its fixed components, each taken
-D.l times, and subtracting them leaves the nef part N of D's Zariski
decomposition, where h0 = chi(N) since h1 = h2 = 0 for nef classes on a
del Pezzo surface.  A class whose residue is not nef, or that pairs
negatively with l or some l-ei, is not effective (h0 = 0).  h2 is h0(K - D)
by Serre duality and h1 closes the Euler characteristic.  The stripping and
chi run on plain integers (h0_ab, _chi); the functions taking a
DivisorClass are thin wrappers over them.

The engine never consults the interpolation oracle; the oracle module
validates h0 independently.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation, NotEffective
from .lattice import K, DivisorClass, line_pairings, lines27

_LINES = lines27()
# each line as (a, its nonzero (i, bi)): a fixed-line pass touches only those
_LINE_TERMS = tuple((line.a, tuple((i, x) for i, x in enumerate(line.b) if x)) for line in _LINES)


def _chi(a: int, b: tuple[int, ...]) -> int:
    """Riemann-Roch for (a; b): chi = D.(D - K)/2 + 1, where D.(D - K) =
    a(a + 3) - sum(bi(bi + 1)) is even for every class: a(a + 3) =
    a(a + 1) + 2a, and a product of two consecutive integers is even."""
    b1, b2, b3, b4, b5, b6 = b
    t = a * (a + 3) - b1 * (b1 + 1) - b2 * (b2 + 1) - b3 * (b3 + 1) - b4 * (b4 + 1) - b5 * (b5 + 1) - b6 * (b6 + 1)
    return t // 2 + 1


def euler_char(d: DivisorClass) -> int:
    """Riemann-Roch: chi(D) = D.(D - K)/2 + 1 (always an integer)."""
    return _chi(d.a, d.b)


def is_nef(d: DivisorClass) -> bool:
    """Nef on the cubic surface amounts to D.l >= 0 against all 27 lines."""
    return min(line_pairings(d.a, d.b)) >= 0


def _strip(a: int, b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """The nef part of (a; b) as (a, b); None when the class is not effective.

    One pass.  Subtract every line l with D.l < 0, taken -D.l times, and
    return the residue if it is nef, else None.  This is exact.  Let D be
    effective with Zariski decomposition D = P + N.  The components of N
    span a negative-definite lattice; the only curves of negative square on
    the cubic are the 27 lines, and two lines that meet span
    [[-1, 1], [1, -1]], which is not negative definite.  So N = sum ai*li
    over pairwise disjoint lines, D.li = P.li + N.li = -ai < 0, and every
    other line has D.l = P.l + N.l >= 0.  The pass therefore subtracts
    exactly N and leaves P, which is nef, with h0(D) = h0(P) = chi(P).
    Conversely a nef residue R is effective: h1(R) = h2(R) = 0, and R.R and
    -K.R are >= 0, so chi(R) = (R.R - K.R)/2 + 1 >= 1 and D = R + (lines) is
    effective.  A residue that is not nef therefore means D is not effective.

    Chamber exit.  Write x+ = max(x, 0).  For a sorted class
    (b1 >= ... >= b6) with a >= b1+ + b2+ + b3+, the pairings are bi,
    a-bi-bj >= a-b1+-b2+ >= 0 and 2a-sum(b)+bi >= 2a-(b1+ + ... + b5+) >= 0,
    so the only negative lines are the ei with bi < 0, each taken -bi times.
    Stripping them leaves (a; b+), which meets the same bounds with
    b6+ >= 0, hence is nef.

    Pencil exit.  l and l-ei are nef (base-point free: the net of plane
    lines and the pencil of lines through pi), so an effective class pairs
    with them to a >= 0 and a - bi >= 0; a < 0 or a < max(b) gives None.
    """
    b1, b2, b3, b4, b5, b6 = b
    # b1+ + b2+ + b3+ of a sorted b: b3 >= 0 makes all three their own positive parts
    if b1 >= b2 >= b3 >= b4 >= b5 >= b6 and a >= (b1 + b2 + b3 if b3 >= 0 else max(b1, 0) + max(b2, 0)):
        return a, b if b6 >= 0 else tuple([x if x > 0 else 0 for x in b])
    if a < 0 or a < max(b):
        return None
    b = list(b)
    for m, (la, terms) in zip(line_pairings(a, b), _LINE_TERMS):
        if m < 0:
            a += m * la
            for i, x in terms:
                b[i] += m * x
    b = tuple(b)
    return (a, b) if min(line_pairings(a, b)) >= 0 else None


def h0_ab(a: int, b: tuple[int, ...]) -> int:
    """h0 of the class (a; b), on plain integers: chi of its nef part."""
    nef = _strip(a, b)
    return 0 if nef is None else _chi(*nef)


def is_effective(d: DivisorClass) -> bool:
    return _strip(d.a, d.b) is not None


def h0(d: DivisorClass) -> int:
    return h0_ab(d.a, d.b)


class CohomologyTriple(NamedTuple):
    h0: int
    h1: int
    h2: int
    chi: int


def cohomology(d: DivisorClass) -> CohomologyTriple:
    """The full triple; h2(D) = h0(K - D), h1 = h0 + h2 - chi (always >= 0)."""
    n0, n2, chi = h0(d), h0(K - d), _chi(d.a, d.b)
    n1 = n0 + n2 - chi
    if n1 < 0:
        raise InvariantViolation(f"negative h1 for {d}")
    return CohomologyTriple(h0=n0, h1=n1, h2=n2, chi=chi)


class ZariskiDecomposition(NamedTuple):
    """D = nef_part + sum(mult * line) with the fixed lines pairwise disjoint."""

    nef_part: DivisorClass
    fixed: tuple[tuple[DivisorClass, int], ...]


def fixed_part(d: DivisorClass) -> ZariskiDecomposition:
    """Zariski decomposition of an effective class.

    The fixed lines are exactly those with D.l < 0, with multiplicity -D.l,
    and the nef part is what _strip's one pass leaves (see its proof): the
    lines are pairwise disjoint, and the nef part meets each of them in 0.
    """
    nef = _strip(d.a, d.b)
    if nef is None:
        raise NotEffective(f"{d} is not an effective class")
    nef_part = d if nef == (d.a, d.b) else DivisorClass(*nef)
    fixed = tuple((line, -m) for line, m in zip(_LINES, line_pairings(d.a, d.b)) if m < 0)
    if any(l1.dot(l2) != 0 for i, (l1, _) in enumerate(fixed) for (l2, _) in fixed[i + 1:]):
        raise InvariantViolation(f"fixed lines of {d} are not pairwise disjoint")
    if not is_nef(nef_part) or any(nef_part.dot(line) != 0 for line, _ in fixed):
        raise InvariantViolation(f"nef part {nef_part} of {d} is not nef or meets a fixed line")
    if sum((mult * line for line, mult in fixed), nef_part) != d:
        raise InvariantViolation(f"nef part {nef_part} plus the fixed lines is not {d}")
    return ZariskiDecomposition(nef_part=nef_part, fixed=fixed)

