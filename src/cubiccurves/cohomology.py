"""Cohomology of divisor classes on the cubic surface.

h0 is computed by fixed-component reduction: while some line pairs
negatively with D, that line is a fixed component and can be subtracted
without changing h0; the loop stops at a nef class N (where h0 = chi(N),
since h1 = h2 = 0 for nef classes on a del Pezzo surface), at 0, or at a
class of non-positive anticanonical degree (not effective, h0 = 0).  h2 is
h0(K - D) by Serre duality and h1 closes the Euler characteristic.  The
stripping, chi and the h1 check run on plain integers (h0_ab, triple); the
functions taking a DivisorClass are thin wrappers over them.

The engine never consults the interpolation oracle; the oracle module
validates h0 independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotEffective
from .lattice import K, DivisorClass, line_pairings, lines27

_LINES = lines27()
_ZERO_B = (0, 0, 0, 0, 0, 0)
# each line as (a, its nonzero (i, bi)): a fixed-line pass touches only those
_LINE_TERMS = tuple((line.a, tuple((i, x) for i, x in enumerate(line.b) if x)) for line in _LINES)


def _chi(a: int, b: tuple[int, ...]) -> int:
    """Riemann-Roch for (a; b): chi = D.(D - K)/2 + 1, with D.(D - K) checked even."""
    t = a * (a + 3) - sum([x * (x + 1) for x in b])  # D.D - K.D
    if t % 2:
        raise InvariantViolation(f"odd D.(D-K) = {t} for {DivisorClass(a, b)}")
    return t // 2 + 1


def euler_char(d: DivisorClass) -> int:
    """Riemann-Roch: chi(D) = D.(D - K)/2 + 1 (always an integer)."""
    return _chi(d.a, d.b)


def is_nef(d: DivisorClass) -> bool:
    """Nef on the cubic surface amounts to D.l >= 0 against all 27 lines."""
    return min(line_pairings(d.a, d.b)) >= 0


def _strip(a: int, b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """The terminal nef class of (a; b) as (a, b); None when not effective.

    Subtracts, per pass, every line l with D.l < 0 taken -D.l times.  Each
    atomic subtraction happens while the running class still pairs
    negatively with l, so h0 is preserved throughout, and -K.D drops by at
    least 1 per pass, which bounds the loop.
    """
    while True:
        if a == 0 and b == _ZERO_B:
            return a, b
        if 3 * a - sum(b) <= 0:
            return None
        mu = line_pairings(a, b)
        if min(mu) >= 0:
            return a, b
        b = list(b)
        for m, (la, terms) in zip(mu, _LINE_TERMS):
            if m < 0:
                a += m * la
                for i, x in terms:
                    b[i] += m * x
        b = tuple(b)


def h0_ab(a: int, b: tuple[int, ...]) -> int:
    """h0 of the class (a; b), on plain integers: chi of its terminal nef class."""
    nef = _strip(a, b)
    return 0 if nef is None else _chi(*nef)


def _terminal_nef(d: DivisorClass) -> DivisorClass | None:
    """Strip fixed lines until nef (see _strip); None when the class is not effective."""
    nef = _strip(d.a, d.b)
    if nef is None:
        return None
    return d if nef == (d.a, d.b) else DivisorClass(*nef)


def is_effective(d: DivisorClass) -> bool:
    return _strip(d.a, d.b) is not None


def h0(d: DivisorClass) -> int:
    return h0_ab(d.a, d.b)


@dataclass(frozen=True, slots=True)
class CohomologyTriple:
    h0: int
    h1: int
    h2: int
    chi: int


def triple(a: int, b: tuple[int, ...], n0: int, n2: int) -> CohomologyTriple:
    """The triple of D = (a; b) from n0 = h0(D) and n2 = h0(K - D).

    chi comes from Riemann-Roch and h1 = h0 + h2 - chi, which must be >= 0.
    """
    chi = _chi(a, b)
    n1 = n0 + n2 - chi
    if n1 < 0:
        raise InvariantViolation(f"negative h1 for {DivisorClass(a, b)}")
    return CohomologyTriple(h0=n0, h1=n1, h2=n2, chi=chi)


def cohomology(d: DivisorClass) -> CohomologyTriple:
    """The full triple; h2(D) = h0(K - D), h1 = h0 + h2 - chi (always >= 0)."""
    return triple(d.a, d.b, h0(d), h0(K - d))


@dataclass(frozen=True, slots=True)
class ZariskiDecomposition:
    """D = nef_part + sum(mult * line) with the fixed lines pairwise disjoint."""

    nef_part: DivisorClass
    fixed: tuple[tuple[DivisorClass, int], ...]


def fixed_part(d: DivisorClass) -> ZariskiDecomposition:
    """Zariski decomposition of an effective class.

    The fixed lines are exactly those with D.l < 0, with multiplicity -D.l;
    for an effective class one pass suffices, the lines are pairwise
    disjoint, and the nef part meets each of them in 0.
    """
    if not is_effective(d):
        raise NotEffective(f"{d} is not an effective class")
    mu = line_pairings(d.a, d.b)
    fixed = tuple((line, -m) for line, m in zip(_LINES, mu) if m < 0)
    nef_part = d
    for line, mult in fixed:
        nef_part = nef_part - mult * line
    if len(fixed) > 6:
        raise InvariantViolation(f"{len(fixed)} fixed lines for {d}")
    if any(l1.dot(l2) != 0 for i, (l1, _) in enumerate(fixed) for (l2, _) in fixed[i + 1:]):
        raise InvariantViolation(f"fixed lines of {d} are not pairwise disjoint")
    if not is_nef(nef_part) or any(nef_part.dot(line) != 0 for line, _ in fixed):
        raise InvariantViolation(f"nef part {nef_part} of {d} is not nef or meets a fixed line")
    return ZariskiDecomposition(nef_part=nef_part, fixed=fixed)


def adjoint_fixed_part(d: DivisorClass, n: int) -> ZariskiDecomposition:
    """Fixed part of D + nK: lines with D.l < n, at multiplicity n - D.l."""
    target = d + n * K
    if not is_effective(target):
        raise NotEffective(f"adjoint class {target} (n={n}) is not effective")
    return fixed_part(target)
