"""Numerical invariants of curve classes and their normality profile.

A class C cuts out curves of degree d = -K.C and arithmetic genus
g = 1 + (C.C + K.C)/2 = chi(C) - d in P^3, since Riemann-Roch gives
chi(C) = d + g (h0(C) for a smooth member).  |C| contains a smooth
connected member exactly when the standard form has a > b1 and b6 >= 0,
or is the line (0; 0^5, -1) or the conic class (1; 1, 0^5).
The n-normality defect of such a curve is h1 of the ideal sheaf twisted by
n, which lives on the surface as h1(S, -(C + nK)).

_standard_facts builds and checks every CurveFacts, for curve_facts and
each census record alike: once per class, every number the obstruction,
dimension, normality and census code reads, as plain integers (h0 and h1
of the three twists -(C + nK) and h2(S, -L); the normality profile is its
defects and s_invariant).  The 27 line pairings of L = C + 3K are not among
them: the obstruction module's line scan, their one reader, computes them.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import _chi, cohomology, h0_ab
from .errors import InvariantViolation, NonPositiveDegree, NotSmoothMember
from .lattice import K, DivisorClass, degree, is_standard, reduce_to_standard


def _genus(a: int, b: tuple[int, ...], d: int) -> int:
    """The genus of (a; b) of degree d: Riemann-Roch gives chi(C) =
    1 + (C.C - K.C)/2 = g + d, and C.C - K.C, hence C.C + K.C, is even (_chi)."""
    return _chi(a, b) - d


def invariants(c: DivisorClass) -> tuple[int, int]:
    """(degree, genus) = (-K.C, 1 + (C.C + K.C)/2)."""
    d = degree(c)
    return d, _genus(c.a, c.b, d)


def hodge_genus_bound(d: int) -> int:
    """Largest genus of a smooth member of degree d: 1 + (d-3)d/2."""
    if d <= 0:
        raise NonPositiveDegree(f"degree must be positive, got {d}")
    return 1 + (d - 3) * d // 2


# The standard forms of the 27 lines and of the 27 conic classes: a line is a
# smooth rational curve, and so is the general conic of its pencil.
_LINE_AND_CONIC = ((0, (0, 0, 0, 0, 0, -1)), (1, (1, 0, 0, 0, 0, 0)))


def is_smooth_standard(s: DivisorClass) -> bool:
    """For a class s in standard form: does |s| contain a smooth connected curve?"""
    return s.a > s.b[0] and s.b[5] >= 0 or (s.a, s.b) in _LINE_AND_CONIC


def has_smooth_member(c: DivisorClass) -> bool:
    """True when |C| contains a smooth connected curve (is_smooth_standard on its standard form)."""
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


class CurveFacts(NamedTuple):
    """What the paper's criteria read off a smooth-member class C, with L = C + 3K.

    For n = 1, 2, 3, h0s[n-1] = h0(-(C + nK)) and defects[n-1] = h1(-(C + nK)),
    the n-normality defect (defects[2] = h1(S, -L)); h2 = h2(S, -L) = h0(S, C + 4K).
    The other twists' h2 = h0(C + (n+1)K) is fixed by h1 = h0 + h2 - chi.
    """

    standard: DivisorClass
    d: int
    g: int
    h0s: tuple[int, int, int]
    defects: tuple[int, int, int]
    h2: int

    @property
    def s_invariant(self) -> int:
        """The least n with h0(I_C(n)) = h0s[n-1] > 0, at most 3: the cubic contains the curve."""
        return 1 if self.h0s[0] else 2 if self.h0s[1] else 3


def curve_facts(c: DivisorClass) -> CurveFacts:
    """The CurveFacts of c, computed in one pass on its standard form (or
    NotSmoothMember); _standard_facts checks what it builds."""
    std = require_smooth_member(c)
    return _standard_facts(std, *invariants(std))


def _standard_facts(std: DivisorClass, d: int, g: int) -> CurveFacts:
    """The CurveFacts of std, of degree d and genus g; InvariantViolation
    unless std is a standard smooth-member class, g is in [0,
    hodge_genus_bound(d)], each h1 >= 0 and the defects are monotone.

    The twists run on the coefficients: -(C + nK) = (3n - a; n - b1, ..., n - b6)
    and C + (n+1)K = (a - 3n - 3; b1 - n - 1, ..., b6 - n - 1), whose h0 is
    the twist's h2.  The chi of -(C + nK) comes from (d, g) instead of the six
    coefficients: with C.C = 2g - 2 + d, K.C = -d and K.K = 3, Riemann-Roch
    gives chi(-(C + nK)) = (C + nK).(C + (n+1)K)/2 + 1 = g - nd + 3n(n+1)/2.
    -(C + nK) has degree 3n - d, so when d > 3n its h0 is 0 without stripping.
    Monotone: n-normal implies m-normal for m < n once (C + nK)^2 =
    2g - 2 + d - 2nd + 3n^2 > 0 and h0(C + nK), twist n-1's h2, is > 0.
    """
    if not (is_standard(std) and is_smooth_standard(std)):
        raise InvariantViolation(f"{std} is not a standard smooth-member class")
    if not 0 <= g <= hodge_genus_bound(d):
        raise InvariantViolation(f"genus {g} outside [0, {hodge_genus_bound(d)}] for {std}")
    a = std.a
    b1, b2, b3, b4, b5, b6 = std.b
    h0s, h1s, h2 = [], [], 0
    for n in (1, 2, 3):
        m = n + 1
        h0 = 0 if d > 3 * n else h0_ab(3 * n - a, (n - b1, n - b2, n - b3, n - b4, n - b5, n - b6))
        prev, h2 = h2, h0_ab(a - 3 * m, (b1 - m, b2 - m, b3 - m, b4 - m, b5 - m, b6 - m))
        h1 = h0 + h2 - (g - n * d + 3 * n * m // 2)
        if h1 < 0:
            raise InvariantViolation(f"negative h1 for {-(std + n * K)}")
        if not h1 and any(h1s) and 2 * g - 2 + d - 2 * n * d + 3 * n * n > 0 and prev > 0:
            raise InvariantViolation(f"{std} is {n}-normal but not m-normal for some m < {n}")
        h0s.append(h0)
        h1s.append(h1)
    return CurveFacts(std, d, g, tuple(h0s), tuple(h1s), h2)
