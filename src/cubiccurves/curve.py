"""Numerical invariants of curve classes and their normality profile.

A class C cuts out curves of degree d = -K.C and arithmetic genus
g = 1 + (C.C + K.C)/2 in P^3.  The linear system |C| contains a smooth
connected member exactly when the standard form has a > b1 and b6 >= 0.
The n-normality defect of such a curve is h1 of the ideal sheaf twisted by
n, which lives on the surface as h1(S, -(C + nK)).

curve_facts computes, once per class, every number the obstruction,
dimension and census code reads, as plain integers: h0, h1 and h2 of the
three twists -(C + nK).  Those modules are readers of CurveFacts.  Only the
27 line pairings of C + 3K, which the obstruction test alone reads, are
computed when read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import cohomology, h0_ab
from .errors import InvariantViolation, NonPositiveDegree, NotSmoothMember
from .lattice import K, DivisorClass, degree, line_pairings, reduce_to_standard


def _genus(a: int, b: tuple[int, ...]) -> int:
    """The arithmetic genus 1 + (C.C + K.C)/2 of (a; b), with C.C + K.C checked even."""
    b1, b2, b3, b4, b5, b6 = b
    # C.C + K.C
    t = a * (a - 3) - b1 * (b1 - 1) - b2 * (b2 - 1) - b3 * (b3 - 1) - b4 * (b4 - 1) - b5 * (b5 - 1) - b6 * (b6 - 1)
    if t % 2:
        raise InvariantViolation(f"odd C.C + K.C = {t} for {DivisorClass(a, b)}")
    return 1 + t // 2


def invariants(c: DivisorClass) -> tuple[int, int]:
    """(degree, genus) = (-K.C, 1 + (C.C + K.C)/2)."""
    return degree(c), _genus(c.a, c.b)


def hodge_genus_bound(d: int) -> int:
    """Largest genus of a smooth member of degree d: 1 + (d-3)d/2."""
    if d <= 0:
        raise NonPositiveDegree(f"degree must be positive, got {d}")
    return 1 + (d - 3) * d // 2


def is_smooth_standard(s: DivisorClass) -> bool:
    """For a class s in standard form: does |s| contain a smooth connected curve?"""
    return s.a > s.b[0] and s.b[5] >= 0


def has_smooth_member(c: DivisorClass) -> bool:
    """True when |C| contains a smooth connected curve (standard a > b1, b6 >= 0)."""
    return is_smooth_standard(reduce_to_standard(c).standard)


def require_smooth_member(c: DivisorClass) -> DivisorClass:
    """Standard form of c, or NotSmoothMember."""
    s = reduce_to_standard(c).standard
    if not is_smooth_standard(s):
        raise NotSmoothMember(f"{c} has no smooth connected member (standard form {s})")
    return s


def abnormality(c: DivisorClass, n: int) -> int:
    """n-normality defect h1(ideal sheaf twisted by n) = h1(S, -(C + nK))."""
    return cohomology(-(c + n * K)).h1


@dataclass(frozen=True, slots=True)
class CurveFacts:
    """What the paper's criteria read off a smooth-member class C, with L = C + 3K.

    For n = 1, 2, 3, h0s[n-1] = h0(-(C + nK)), h2s[n-1] = h2(-(C + nK)) =
    h0(C + (n+1)K) and defects[n-1] = h1(-(C + nK)), the n-normality defect
    (defects[2] = h1(S, -L)); h2 = h2s[2] = h2(S, -L) = h0(S, C + 4K).
    pairings is computed when read: pairings[i] = L.lines27()[i].
    """

    standard: DivisorClass
    d: int
    g: int
    h0s: tuple[int, int, int]
    h2s: tuple[int, int, int]
    defects: tuple[int, int, int]
    h2: int

    @property
    def pairings(self) -> tuple[int, ...]:
        b1, b2, b3, b4, b5, b6 = self.standard.b
        return line_pairings(self.standard.a - 9, (b1 - 3, b2 - 3, b3 - 3, b4 - 3, b5 - 3, b6 - 3))


def curve_facts(c: DivisorClass) -> CurveFacts:
    """The CurveFacts of c, computed in one pass on its standard form (or NotSmoothMember)."""
    std = require_smooth_member(c)
    d, g = invariants(std)
    return _standard_facts(std, d, g)


def _standard_facts(std: DivisorClass, d: int, g: int) -> CurveFacts:
    """The CurveFacts of a smooth-member class std already in standard form,
    of degree d and genus g.

    The twists run on the coefficients: -(C + nK) = (3n - a; n - b1, ..., n - b6)
    and C + (n+1)K = (a - 3n - 3; b1 - n - 1, ..., b6 - n - 1), whose h0 is
    the twist's h2.  The chi of -(C + nK) comes from (d, g) instead of the six
    coefficients: with C.C = 2g - 2 + d, K.C = -d and K.K = 3, Riemann-Roch
    gives chi(-(C + nK)) = (C + nK).(C + (n+1)K)/2 + 1 = g - nd + 3n(n+1)/2.
    -(C + nK) has degree 3n - d, so when d > 3n its h0 is 0 without stripping.
    """
    a = std.a
    b1, b2, b3, b4, b5, b6 = std.b
    h0s, h1s, h2s = [], [], []
    for n in (1, 2, 3):
        m = n + 1
        h0 = 0 if d > 3 * n else h0_ab(3 * n - a, (n - b1, n - b2, n - b3, n - b4, n - b5, n - b6))
        h2 = h0_ab(a - 3 * m, (b1 - m, b2 - m, b3 - m, b4 - m, b5 - m, b6 - m))
        h1 = h0 + h2 - (g - n * d + 3 * n * m // 2)
        if h1 < 0:
            raise InvariantViolation(f"negative h1 for {-(std + n * K)}")
        h0s.append(h0)
        h1s.append(h1)
        h2s.append(h2)
    return CurveFacts(std, d, g, tuple(h0s), tuple(h2s), tuple(h1s), h2)


@dataclass(frozen=True, slots=True)
class CurveReport:
    cls: DivisorClass
    degree: int
    genus: int
    abnormality: dict[int, int]
    s_invariant: int


def normality_profile(c: DivisorClass) -> CurveReport:
    """Degree, genus and the n-normality defects for n = 1, 2, 3.

    s_invariant is the least n with h0(twisted ideal sheaf) > 0; it is at
    most 3 because the cubic itself always contains the curve.
    """
    facts = curve_facts(c)
    std, d, g = facts.standard, facts.d, facts.g
    if not 0 <= g <= hodge_genus_bound(d):
        raise InvariantViolation(f"genus {g} outside [0, {hodge_genus_bound(d)}] for {std}")
    defects = dict(zip((1, 2, 3), facts.defects))
    a, b = std.a, std.b
    # Monotone once C+nK is effective with positive square: n-normal implies
    # m-normal for m < n.  h0(C + nK) is the h2 of the (n-1)-th twist.
    for n in (2, 3):
        square = (a - 3 * n) ** 2 - sum([(x - n) ** 2 for x in b])
        if defects[n] == 0 and square > 0 and facts.h2s[n - 2] > 0 and any(defects[m] for m in range(1, n)):
            raise InvariantViolation(f"{std} is {n}-normal but not m-normal for some m < {n}")
    s = 3
    for n in (1, 2):
        if facts.h0s[n - 1] > 0:
            s = n
            break
    return CurveReport(cls=std, degree=d, genus=g, abnormality=defects, s_invariant=s)
