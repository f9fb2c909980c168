"""Built-in regression table of published worked examples.

CHECKS is the one table of checks, in report order; run_checks() walks it.
A row (check_id, computation, quoted value) recomputes a quoted value with
the engine, and _eq compares every such row.  The four checks whose detail
is not "got ..., expected ..." are functions in the table.  One of them is
permanently FLAGGED: for the degree-2(lam+14) family the source prints an
obstruction-space dimension of 2*lam+5, while the engine and the
interpolation oracle both derive 2*lam+6; the row reports the discrepancy
instead of failing, and fails if the engine or the oracle disagrees.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .cohomology import (
    cohomology,
    euler_char,
    fixed_part,
    h0,
    is_effective,
    is_nef,
)
from .curve import abnormality, curve_facts, has_smooth_member, invariants
from .census import enumerate_families
from .lattice import K, DivisorClass, conics27, is_standard, lines27
from .obstruction import (
    _generated,
    classify,
    h0_normal,
    hilbert_dim,
    kleppe_verdict,
)
from .oracle import h0_interpolation

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)  # d=16 g=29
MUMFORD = D(12, 4, 4, 4, 4, 4, 2)  # d=14 g=24
ABN5 = D(12, 5, 5, 2, 2, 2, 2)  # d=18 g=31, abnormality 5


def _ex_triple_deg3(lam: int) -> DivisorClass:
    return D(lam + 14, 2, 2, 2, 2, 2, 2)


def _ex_even_deg(lam: int) -> DivisorClass:
    return D(lam + 17, lam + 8, 7, 2, 2, 2, 2)


class CheckResult(NamedTuple):
    check_id: str
    status: str  # "PASS" | "FAIL" | "FLAGGED"
    detail: str


def _result(check_id: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(check_id, "PASS" if ok else "FAIL", detail)


def _eq(check_id: str, compute, want) -> CheckResult:
    got = compute()
    return _result(check_id, got == want, f"got {got}, expected {want}")


# --- the four checks with a detail of their own ------------------------------


def _canonical_class() -> CheckResult:
    ok = K == D(-3, -1, -1, -1, -1, -1, -1) and K.square == 3
    ok = ok and all((-K).dot(line) == 1 for line in lines27())
    return _result("canonical-class", ok, f"K={K}, K.K={K.square}")


def _line_classes() -> CheckResult:
    ls = lines27()
    ok = len(ls) == 27 and all(l.square == -1 and K.dot(l) == -1 for l in ls)
    return _result("line-classes", ok, "27 classes with (l.l, K.l) = (-1,-1)")


def _conic_classes() -> CheckResult:
    qs = conics27()
    ok = len(qs) == 27 and all(q.square == 0 and K.dot(q) == -2 for q in qs)
    ok = ok and all((-K - q) in lines27() for q in qs)
    return _result("conic-classes", ok, "27 classes, residual -K-q is a line")


def _obstruction_space_even_family() -> CheckResult:
    # The engine derives h0(C+4K) = 2*lam+6, and the oracle must agree with
    # it on every lam; the source prints 2*lam+5.
    check_id = "obstruction-space-deg-2lam28"
    twists = [_ex_even_deg(lam) + 4 * K for lam in range(9)]
    got = [h0(c) for c in twists]
    want = [2 * lam + 6 for lam in range(9)]
    if got != want:
        return CheckResult(check_id, "FAIL", f"engine gave {got}, derived value is {want}")
    oracle = [h0_interpolation(c, seed=0) for c in twists]
    if oracle != got:
        return CheckResult(check_id, "FAIL", f"oracle gave {oracle}, engine gave {got}")
    return CheckResult(check_id, "FLAGGED", "reference prints 2*lam+5, engine derives 2*lam+6 (oracle agrees)")


# --- projections of engine results onto the quoted values --------------------


def _fixed_lines(z) -> tuple[int, bool]:
    """How many lines a Zariski decomposition fixes, and whether each once."""
    return len(z.fixed), all(m == 1 for _, m in z.fixed)


def _five_lines() -> tuple:
    z = fixed_part(D(3, 2, 2, -1, -1, -1, -1))
    return (*_fixed_lines(z), z.nef_part)


def _adjoint_abn5() -> tuple:
    z = fixed_part(ABN5 + 3 * K)
    l12 = lines27()[6]
    return (*_fixed_lines(z), any(l == l12 for l, _ in z.fixed), abnormality(ABN5, 3))


_hilbert = attrgetter("kind", "value", "method")


def _mumford_generated() -> tuple:
    facts, verdict = _generated(2, (0,) * 6)
    return (facts.standard, (facts.d, facts.g), *attrgetter("kind", "m", "rule")(verdict))


def _maximality_verdicts() -> tuple:
    v1 = kleppe_verdict(_ex_triple_deg3(0))
    v2 = kleppe_verdict(D16G29)
    return v1.kind, v1.dim, v2.kind, v2.failed_hypothesis


# --- the table, in report order ----------------------------------------------

CHECKS = (
    _canonical_class,
    _line_classes,
    _conic_classes,
    ("engine-spot-values", lambda: (
        is_standard(D16G29),
        has_smooth_member(D16G29),
        invariants(D16G29),
        is_nef(D16G29 + 3 * K),
        is_effective(D(0, 0, 0, 0, 0, -2, -2)),
        cohomology(-(_ex_triple_deg3(0) + 3 * K)).h1,
        h0(D16G29 + 4 * K),
    ), (True, True, (16, 29), False, True, 6, 1)),
    ("chi-minus-adjoint-28-67", lambda: euler_char(-(_ex_even_deg(0) + 3 * K)), 1),
    ("fixed-part-16-29", lambda: attrgetter("fixed", "nef_part")(fixed_part(D16G29 + 3 * K)),
     (((lines27()[4], 1), (lines27()[5], 1)), D(3, 1, 1, 1, 1, 0, 0))),
    ("fixed-part-18-31", _five_lines, (5, True, D(2, 1, 1, 0, 0, 0, 0))),
    ("adjoint-fixed-part-18-31", _adjoint_abn5, (5, True, True, 5)),
    ("cubic-defect-deg-3lam30", lambda: [lam for lam in range(9) if abnormality(_ex_triple_deg3(lam), 3) != 6], []),
    ("cubic-defect-deg-2lam28", lambda: [lam for lam in range(9) if abnormality(_ex_even_deg(lam), 3) != 5], []),
    _obstruction_space_even_family,
    ("normal-bundle-h1-deg-3lam30",
     lambda: [lam for lam in range(9) if curve_facts(_ex_triple_deg3(lam)).h2 != (lam + 4) * (lam + 3) // 2], []),
    ("normality-16-29",
     lambda: ((f := curve_facts(D16G29)).d, f.g, dict(zip((1, 2, 3), f.defects)), f.s_invariant),
     (16, 29, {1: 0, 2: 0, 3: 2}, 3)),
    ("classify-16-29", lambda: attrgetter("kind", "witness_line", "m", "rule")(classify(D16G29)),
     ("Obstructed", lines27()[4], 1, "m=1")),
    ("classify-14-24", _mumford_generated, (MUMFORD, (14, 24), "Obstructed", 1, "m=1")),
    ("hilbert-dim-16-29", lambda: (*_hilbert(hilbert_dim(D16G29)), h0_normal(D16G29), curve_facts(D16G29).h2),
     ("exact", 64, "prop-4.5", 65, 1)),
    ("hilbert-dim-30-72", lambda: (invariants(_ex_triple_deg3(0)), *_hilbert(hilbert_dim(_ex_triple_deg3(0)))),
     ((30, 72), "exact", 120, "theorem-1.1")),
    ("hilbert-dim-14-24", lambda: (*_hilbert(hilbert_dim(MUMFORD)), h0_normal(MUMFORD)),
     ("exact", 56, "theorem-1.1", 57)),
    ("maximality-verdicts", _maximality_verdicts, ("ProvenTheorem1", 120, "NotApplicable", "g<3d-18")),
    ("census-membership", lambda: tuple(
        c in enumerate_families(d, g)
        for c, d, g in ((D16G29, 16, 29), (MUMFORD, 14, 24), (_ex_triple_deg3(0), 30, 72), (_ex_even_deg(0), 28, 67))
    ), (True, True, True, True)),
    ("oracle-spot-values", lambda: tuple(
        h0_interpolation(c, seed=0) for c in (-K, D(1, 1, 1, 0, 0, 0, 0), D16G29 + 4 * K)
    ), (4, 1, 1)),
)


def run_checks() -> tuple[CheckResult, ...]:
    return tuple(row() if callable(row) else _eq(*row) for row in CHECKS)
