"""Obstruction verdicts and Hilbert-scheme dimensions for curves on the cubic.

Everything is driven by the adjoint class L = C + 3K and its cohomology on
the surface: h1(S,-L) is the cubic-normality defect of C and h2(S,-L) =
h0(S, C+4K) is the part of the normal-bundle H^1 coming from the surface.
When both are nonzero, a line pairing negatively with L can certify that
the Hilbert scheme is singular at [C]: multiplicity 1 always does, and
multiplicity 2 or 3 does when an explicit restriction map is surjective;
one such line suffices, so verdict_of stops the scan (_witnesses) there.

classify, hilbert_dim and kleppe_verdict each build the class's CurveFacts
once and read it through verdict_of, dim_of and kleppe_of; the census calls
those readers directly on one CurveFacts per record.  dim_of decides no rule
of its own: it reads the dimension, between chi(N) = 4d and the tangent
dimension h0(N) = 4d + h2(S,-L), off CurveFacts.h0_normal and the two
verdicts; that h0(N) is d+g+18 + h1(I_C(3)) is the Riemann-Roch count
CurveFacts is built from.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from typing import NamedTuple

from .cohomology import h0_ab
from .curve import CurveFacts, _standard_facts, curve_facts, invariants
from .errors import DegreeTooSmall, DprimeNotNef, InvalidK, InvariantViolation, NotALine
from .lattice import K, DivisorClass, is_standard, line_pairings, lines27


def _restriction_onto(da: int, db: tuple[int, ...], ea: int, eb: tuple[int, ...], target: int) -> bool:
    """restriction_surjective on the coefficients of Delta = (da; db) and a line
    E = (ea; eb), given the target's dimension h0(E, Delta|E).  The image,
    h0(Delta) - h0(Delta - E), is checked to lie in [0, target]."""
    image = h0_ab(da, db) - h0_ab(da - ea, tuple([x - y for x, y in zip(db, eb)]))
    if not 0 <= image <= target:
        raise InvariantViolation(f"restriction image {image} outside [0, {target}] for Delta = {DivisorClass(da, db)}")
    return image == target


def restriction_surjective(delta: DivisorClass, e: DivisorClass) -> bool:
    """Is H0(S, Delta) -> H0(E, Delta|E) onto, for a line E?

    E is a P^1, so the target has dimension Delta.E + 1 (or 0 when the
    degree is negative), and the kernel of the restriction is H0(S, Delta-E).
    In the obstruction scan Delta.E = m - 1, so there the target is m.
    """
    if e.square != -1 or K.dot(e) != -1:
        raise NotALine(f"{e} is not a line class")
    deg = delta.dot(e)
    return _restriction_onto(delta.a, delta.b, e.a, e.b, deg + 1 if deg >= 0 else 0)


class ObstructionVerdict(NamedTuple):
    kind: str  # "Unobstructed" | "Obstructed" | "Undetermined"
    vanishing: tuple[str, ...] = ()
    witness_line: DivisorClass | None = None
    m: int | None = None
    rule: str | None = None  # "m=1" | "rho-surjective"
    reason: str | None = None


# The verdicts that carry no data of their own are shared, not rebuilt per class.
_UNOBSTRUCTED_H1 = ObstructionVerdict(kind="Unobstructed", vanishing=("h1",))
_UNOBSTRUCTED_H2 = ObstructionVerdict(kind="Unobstructed", vanishing=("h2",))
_UNOBSTRUCTED_H1_H2 = ObstructionVerdict(kind="Unobstructed", vanishing=("h1", "h2"))
_UNDETERMINED = ObstructionVerdict(
    kind="Undetermined",
    reason="every line with -L.E > 0 has m in {2,3} and a non-surjective restriction",
)


def classify(c: DivisorClass) -> ObstructionVerdict:
    """Unobstructed / Obstructed / Undetermined at [C] in the Hilbert scheme.

    Scans the 27 lines in enumeration order and stops at the first that
    certifies an obstruction, the witness.  A line with m = -L.E in {2,3}
    certifies only when the restriction of Delta = L + K - 2mE to E is
    surjective; if no line certifies, the verdict is Undetermined (never guessed).
    """
    return verdict_of(curve_facts(c))


def _witnesses(facts: CurveFacts) -> Iterator[tuple[DivisorClass, int, str]]:
    """Each (line, m, rule) certifying an obstruction, in lines27() order, for facts
    with h1(-L), h2(-L) > 0; the nef-L and m <= 3 checks come before the first yield."""
    # (a; b) = L + K = C + 4K, and Delta = L + K - 2mE below.  As L.E = -m and K.E = E.E = -1,
    # Delta.E = (L + K).E - 2m E.E = -m - 1 + 2m = m - 1, so the restriction's target is m.
    a, b = facts.standard.a - 12, [x - 4 for x in facts.standard.b]
    # With h1 and h2 both nonzero, L+K is effective (h0(L+K) = h2 > 0) and L = (a + 3; b + 1)
    # is not nef: some line meets L negatively, in m = -L.E.
    negative = [(e, -p) for e, p in zip(lines27(), line_pairings(a + 3, [x + 1 for x in b])) if p < 0]
    if not negative:
        raise InvariantViolation(f"L = C+3K is nef while h1(-L) and h2(-L) are nonzero for {facts.standard}")
    if over := [m for _, m in negative if m > 3]:
        raise InvariantViolation(f"fixed multiplicity {over[0]} > 3 for smooth member {facts.standard}")
    for e, m in negative:
        if m == 1:
            yield e, m, "m=1"
        elif _restriction_onto(a - 2 * m * e.a, tuple([x - 2 * m * y for x, y in zip(b, e.b)]), e.a, e.b, m):
            yield e, m, "rho-surjective"


def verdict_of(facts: CurveFacts) -> ObstructionVerdict:
    """The classify verdict of the class behind facts."""
    if facts.defects[2] == 0:
        return _UNOBSTRUCTED_H1_H2 if facts.h2 == 0 else _UNOBSTRUCTED_H1
    if facts.h2 == 0:
        return _UNOBSTRUCTED_H2
    for e, m, rule in _witnesses(facts):
        return ObstructionVerdict(kind="Obstructed", witness_line=e, m=m, rule=rule)
    return _UNDETERMINED


class HilbertDimResult(NamedTuple):
    kind: str  # "exact" | "interval"
    method: str  # "smooth-point" | "theorem-1.1" | "prop-4.5" | "theorem-4.3"
    value: int | None = None
    lo: int | None = None
    hi: int | None = None


def hilbert_dim(c: DivisorClass) -> HilbertDimResult:
    """Local dimension of the Hilbert scheme of space curves at [C] (d > 9).

    Every component through [C] has dimension at least chi(N) = 4d, and the
    tangent space has dimension n = h0(N) = 4d + h0(S, C+4K).  An
    unobstructed [C] is a smooth point of dimension n; an obstructed one has
    dimension d+g+18 when the Kleppe verdict is ProvenTheorem1 (Theorem
    1.1), exactly n - 1 = 4d when h0(S, C+4K) = 1, else lies in [4d, n - 1];
    an undetermined one lies in [4d, n].
    """
    facts = curve_facts(c)
    return dim_of(facts, verdict_of(facts), kleppe_of(facts))


def dim_of(facts: CurveFacts, verdict: ObstructionVerdict, kleppe: KleppeVerdict) -> HilbertDimResult:
    """The hilbert_dim result of the class behind facts, read off h0(N) and
    its verdict_of and kleppe_of results.

    Every caller passes verdict_of(facts) and kleppe_of(facts), for which
    the bounds below hold by arithmetic, so none is checked again here.
    (*) n = h0_normal = 4d + h2 = d+g+18 + h1(I_C(3)) is _standard_facts' arithmetic:
    for d > 9 it sets h0(-L) = 0 and h1(I_C(3)) = h2 - (g - 3d + 18), with
    h2 >= 0 an h0 and h1(I_C(3)) >= 0 checked there.
    - Obstructed and Undetermined need h1(I_C(3)) >= 1 and h2 >= 1 (else
      verdict_of says Unobstructed), so d+g+18 <= n - 1 by (*).
    - Each exact value is >= 4d: smooth-point is n = 4d + h2; theorem-1.1 is
      d+g+18 >= 4d, as ProvenTheorem1 needs g >= 3d-18; prop-4.5 is n - 1 = 4d.
    - Each interval is non-empty: an Obstructed one has h2 >= 2 (h2 = 1 is
      prop-4.5), so n - 1 >= 4d + 1; an Undetermined one has n >= 4d.
    - theorem-1.1 agrees with prop-4.5 when h2 = 1: (*) gives d+g+18 =
      4d + 1 - h1(I_C(3)) >= 4d with h1(I_C(3)) >= 1, so h1(I_C(3)) = 1
      and d+g+18 = 4d = n - 1.
    """
    d = facts.d
    if d <= 9:
        raise DegreeTooSmall(f"dimension rules require degree > 9, got d={d}")
    n = facts.h0_normal
    if verdict.kind == "Unobstructed":
        return HilbertDimResult("exact", "smooth-point", n)
    if verdict.kind == "Undetermined":
        return HilbertDimResult("interval", "theorem-4.3", None, 4 * d, n)
    if kleppe.kind == "ProvenTheorem1":
        return HilbertDimResult("exact", "theorem-1.1", kleppe.dim)
    if facts.h2 == 1:
        return HilbertDimResult("exact", "prop-4.5", n - 1)
    return HilbertDimResult("interval", "theorem-4.3", None, 4 * d, n - 1)


class KleppeVerdict(NamedTuple):
    kind: str  # "NotApplicable" | "ProvenTheorem1" | "KnownRange" | "Open"
    failed_hypothesis: str | None = None
    dim: int | None = None
    range_tag: str | None = None

    def __str__(self) -> str:
        """The census cell: the kind, tagged with the failed hypothesis or the range."""
        tag = self.failed_hypothesis or self.range_tag
        return f"{self.kind}[{tag}]" if tag else self.kind


# Every Kleppe verdict but ProvenTheorem1 carries no number, so it is shared too.
_NOT_APPLICABLE_D = KleppeVerdict(kind="NotApplicable", failed_hypothesis="d<=9")
_NOT_APPLICABLE_G = KleppeVerdict(kind="NotApplicable", failed_hypothesis="g<3d-18")
_NOT_APPLICABLE_H1_IC1 = KleppeVerdict(kind="NotApplicable", failed_hypothesis="not-linearly-normal")
_NOT_APPLICABLE_H1_IC3 = KleppeVerdict(kind="NotApplicable", failed_hypothesis="h1_ic3=0")
_KNOWN_RANGE_D18 = KleppeVerdict(kind="KnownRange", range_tag="d18+")
_OPEN = KleppeVerdict(kind="Open")


def kleppe_verdict(c: DivisorClass) -> KleppeVerdict:
    """Status of the maximal-family question for the class.

    Hypotheses checked in order: d > 9, g >= 3d-18, linear normality and a
    nonzero cubic-normality defect.  A quadratically normal class is settled
    (dimension d+g+18); otherwise (d, g) may fall in the known range d >= 18,
    8(g - 7) > (d - 2)^2, else the question is open here.  The other known
    range, 14 <= d <= 17, is empty on a smooth cubic: of the 324 families
    there, 7 meet the four hypotheses and all 7 are quadratically normal.
    """
    return kleppe_of(curve_facts(c))


def kleppe_of(facts: CurveFacts) -> KleppeVerdict:
    """The kleppe_verdict of the class behind facts."""
    d, g = facts.d, facts.g
    if d <= 9:
        return _NOT_APPLICABLE_D
    if g < 3 * d - 18:
        return _NOT_APPLICABLE_G
    if facts.defects[0] != 0:
        return _NOT_APPLICABLE_H1_IC1
    if facts.defects[2] == 0:
        return _NOT_APPLICABLE_H1_IC3
    if facts.defects[1] == 0:
        return KleppeVerdict(kind="ProvenTheorem1", dim=d + g + 18)
    if d >= 18 and 8 * (g - 7) > (d - 2) ** 2:
        return _KNOWN_RANGE_D18
    return _OPEN


def gen_obstructed(k: int, dprime: tuple[int, ...] = (0,) * 6) -> tuple[CurveFacts, ObstructionVerdict]:
    """The facts and verdict of the obstructed class (14-k+a; b1+4,...,b5+4, k),
    from k in 0..2 and a nef seed (a; b1..b5) on the blow-down along e6.

    The seed (a; b1..b5, 0) must be standard; the result is built standard,
    never reduced (_standard_facts checks it), meets e6 in b6 = k by
    construction and always classifies as Obstructed.
    """
    if not 0 <= k <= 2:
        raise InvalidK(f"k must be 0, 1 or 2, got {k}")
    # operator.index, not int: a float or a digit string is a TypeError, not truncated
    a, *b = map(operator.index, dprime)
    if len(b) != 5:
        raise DprimeNotNef(f"seed needs six entries (a;b1..b5), got {dprime}")
    if not is_standard(DivisorClass(a, (*b, 0))):
        raise DprimeNotNef(f"seed ({a};{','.join(map(str, b))}) fails b1>=...>=b5>=0, a>=b1+b2+b3")
    out = DivisorClass(14 - k + a, tuple(x + 4 for x in b) + (k,))
    facts = _standard_facts(out, *invariants(out))
    verdict = verdict_of(facts)
    if verdict.kind != "Obstructed":
        raise InvariantViolation(f"generated class {out} classifies as {verdict.kind}, not Obstructed")
    return facts, verdict
