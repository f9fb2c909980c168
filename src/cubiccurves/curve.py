"""Numerical invariants of curve classes and their normality profile.

A class C cuts out curves of degree d = -K.C and arithmetic genus
g = 1 + (C.C + K.C)/2 in P^3.  The linear system |C| contains a smooth
connected member exactly when the standard form has a > b1 and b6 >= 0.
The n-normality defect of such a curve is h1 of the ideal sheaf twisted by
n, which lives on the surface as h1(S, -(C + nK)).

curve_facts computes, once per class, every number the obstruction,
dimension and census code reads; those modules are readers of CurveFacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyTriple, cohomology, h0_ab, triple
from .errors import InvariantViolation, NonPositiveDegree, NotSmoothMember
from .lattice import K, DivisorClass, line_pairings, reduce_to_standard


def invariants(c: DivisorClass) -> tuple[int, int]:
    """(degree, genus) = (-K.C, 1 + (C.C + K.C)/2)."""
    a, b = c.a, c.b
    d = 3 * a - sum(b)
    t = a * (a - 3) - sum([x * (x - 1) for x in b])  # C.C + K.C
    if t % 2:
        raise InvariantViolation(f"odd C.C + K.C = {t} for {c}")
    return d, 1 + t // 2


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

    twists[n-1] is the cohomology triple of -(C + nK) for n = 1, 2, 3, so its
    h2 is h0(C + (n+1)K); defects[n-1] = twists[n-1].h1 is the n-normality
    defect (defects[2] = h1(S, -L)), h2 = twists[2].h2 = h2(S, -L) =
    h0(S, C + 4K), and pairings[i] = L.lines27()[i].
    """

    standard: DivisorClass
    d: int
    g: int
    twists: tuple[CohomologyTriple, CohomologyTriple, CohomologyTriple]
    defects: tuple[int, int, int]
    h2: int
    pairings: tuple[int, ...]


def curve_facts(c: DivisorClass) -> CurveFacts:
    """The CurveFacts of c, computed in one pass on its standard form (or NotSmoothMember).

    The twists run on the coefficients: -(C + nK) = (3n - a; n - b1, ..., n - b6)
    and C + (n+1)K = (a - 3n - 3; b1 - n - 1, ..., b6 - n - 1).
    """
    std = require_smooth_member(c)
    d, g = invariants(std)
    a, b = std.a, std.b
    twists = []
    for n in (1, 2, 3):
        ta, tb = 3 * n - a, tuple([n - x for x in b])
        h2 = h0_ab(a - 3 * n - 3, tuple([x - n - 1 for x in b]))
        twists.append(triple(ta, tb, h0_ab(ta, tb), h2))
    t1, t2, t3 = twists
    return CurveFacts(
        standard=std,
        d=d,
        g=g,
        twists=(t1, t2, t3),
        defects=(t1.h1, t2.h1, t3.h1),
        h2=t3.h2,
        pairings=line_pairings(a - 9, tuple([x - 3 for x in b])),
    )


@dataclass(frozen=True, slots=True)
class CurveReport:
    cls: DivisorClass
    degree: int
    genus: int
    smooth_member: bool
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
        if defects[n] == 0 and square > 0 and facts.twists[n - 2].h2 > 0 and any(defects[m] for m in range(1, n)):
            raise InvariantViolation(f"{std} is {n}-normal but not m-normal for some m < {n}")
    s = 3
    for n in (1, 2):
        if facts.twists[n - 1].h0 > 0:
            s = n
            break
    return CurveReport(
        cls=std,
        degree=d,
        genus=g,
        smooth_member=True,
        abnormality=defects,
        s_invariant=s,
    )
