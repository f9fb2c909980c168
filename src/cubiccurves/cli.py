"""Command-line front end.

Classes are written "a;b1,b2,b3,b4,b5,b6".  Output formats: table (default),
json (byte-stable field order), csv.  Exit codes: 0 success, 1 usage or
parse error, 2 precondition failure (invalid class for the operation), 3
internal failure (a failed invariant, or degenerate oracle points).  Each
subcommand is registered once, in _build_parser, with the runner that maps
its parsed arguments to (text, code).  Runners and renderers import what they
use, so a command loads only that.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from collections.abc import Sequence
from functools import partial

from .cohomology import cohomology
from .errors import DegeneratePoints, PreconditionError
from .lattice import DivisorClass, Perm, reduce_to_standard


class _UsageError(Exception):
    pass


class ClassParseError(_UsageError):
    """A class that does not parse; its str() is the error line and a caret under pos."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"error: invalid class '{text}'\n  {text}\n  {' ' * pos}^ {message}")
        self.pos = pos


_INT = re.compile(r"[+-]?([0-9]+)")
# outputs are at most quadratic in the coefficients, so this keeps every
# integer the CLI prints within Python's 4300-digit int/str limit
_DIGITS_MAX = 1000


def _scan_int(text: str, pos: int) -> tuple[int, int]:
    m = _INT.match(text, pos)
    if not m:
        raise ClassParseError(text, pos, "expected integer")
    if len(m.group(1)) > _DIGITS_MAX:
        raise ClassParseError(text, m.start(1), f"integer longer than {_DIGITS_MAX} digits")
    return int(m.group()), m.end()


def parse_class_text(text: str, coeffs: int = 6) -> tuple[int, tuple[int, ...]]:
    text = text.strip()
    a, pos = _scan_int(text, 0)
    if pos >= len(text) or text[pos] != ";":
        raise ClassParseError(text, pos, "expected ';'")
    pos += 1
    b = []
    for i in range(coeffs):
        v, pos = _scan_int(text, pos)
        b.append(v)
        if i < coeffs - 1:
            if pos >= len(text) or text[pos] != ",":
                raise ClassParseError(text, pos, f"expected ',' ({coeffs} coefficients)")
            pos += 1
    if pos != len(text):
        raise ClassParseError(text, pos, "unexpected trailing characters")
    return a, tuple(b)


def parse_class(text: str) -> DivisorClass:
    a, b = parse_class_text(text, 6)
    return DivisorClass(a, b)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _word_json(word) -> list:
    return [{"perm": list(g.sigma)} if isinstance(g, Perm) else {"cremona": [g.i, g.j, g.k]} for g in word]


def _verdict_json(v, facts) -> dict:
    from .obstruction import _witnesses
    witnesses = _witnesses(facts) if v.kind == "Obstructed" else ()
    return {
        **v._asdict(),
        "witness_line": str(v.witness_line) if v.witness_line is not None else None,
        "witnesses": [{"line": str(l), "m": m, "rule": r} for l, m, r in witnesses],
    }


def _dim_json(r) -> dict:
    if r.kind == "exact":
        return {"kind": "exact", "value": r.value, "method": r.method}
    return {"kind": "interval", "lo": r.lo, "hi": r.hi, "method": r.method}


# --- per-command payload builders -----------------------------------------


def _facts_head(cls: DivisorClass, facts) -> dict:
    return {"class": str(cls), "standard": str(facts.standard), "d": facts.d, "g": facts.g}


def _cmd_reduce(cls: DivisorClass) -> dict:
    red = reduce_to_standard(cls)
    return {
        "input": str(cls),
        "standard": str(red.standard),
        "word": _word_json(red.word),
    }


def _cmd_invariants(cls: DivisorClass) -> dict:
    from .curve import invariants, is_smooth_standard
    std = reduce_to_standard(cls).standard
    d, g = invariants(cls)
    return {
        "class": str(cls),
        "standard": str(std),
        "d": d,
        "g": g,
        "smooth_member": is_smooth_standard(std),
    }


def _cmd_cohomology(cls: DivisorClass) -> dict:
    return {"class": str(cls), **cohomology(cls)._asdict()}


def _cmd_normality(cls: DivisorClass) -> dict:
    from .curve import curve_facts
    facts = curve_facts(cls)
    return {
        **_facts_head(cls, facts),
        "abnormality": {str(n): facts.defects[n - 1] for n in (1, 2, 3)},
        "s_invariant": facts.s_invariant,
        "s_note": "curve lies on the cubic" if facts.s_invariant == 3 else "",
    }


def _cmd_classify(cls: DivisorClass) -> dict:
    from .curve import curve_facts
    from .obstruction import verdict_of
    facts = curve_facts(cls)
    return {"class": str(cls), "standard": str(facts.standard), **_verdict_json(verdict_of(facts), facts)}


def _cmd_hilbert_dim(cls: DivisorClass) -> dict:
    from .curve import curve_facts
    from .obstruction import dim_of, kleppe_of, verdict_of
    facts = curve_facts(cls)
    r = dim_of(facts, verdict_of(facts), kleppe_of(facts))
    return {
        **_facts_head(cls, facts),
        "h1_ic3": facts.defects[2],
        "h2": facts.h2,
        "dim": _dim_json(r),
    }


def _cmd_kleppe(cls: DivisorClass) -> dict:
    from .curve import curve_facts
    from .obstruction import kleppe_of
    facts = curve_facts(cls)
    return {**_facts_head(cls, facts), "kleppe": kleppe_of(facts)._asdict()}


# name -> (payload builder, help); each takes one class and returns its payload
CLASS_COMMANDS = {
    "reduce": (_cmd_reduce, "standard form and the reducing word"),
    "invariants": (_cmd_invariants, "degree, genus, smooth-member test"),
    "cohomology": (_cmd_cohomology, "h0, h1, h2 and chi of a class"),
    "normality": (_cmd_normality, "n-normality defects and the s-invariant"),
    "classify": (_cmd_classify, "Unobstructed / Obstructed / Undetermined verdict"),
    "hilbert-dim": (_cmd_hilbert_dim, "local dimension of the Hilbert scheme at [C]"),
    "kleppe": (_cmd_kleppe, "maximal-family status of the class"),
}


def _record_json(r) -> dict:
    return {
        "class": str(r.cls),
        "d": r.d,
        "g": r.g,
        "h1_ic3": r.h1_ic3,
        "h2": r.h2,
        "normality": r.normality,
        "verdict": r.verdict.kind,
        "rule": r.verdict.rule or "",
        "dim": _dim_json(r.dim),
        "kleppe": str(r.kleppe),
        "dim_w": r.dim_w,
    }


# --- rendering --------------------------------------------------------------


def _flat(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    out = []
    for k, v in payload.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.extend(_flat(v, prefix=f"{key}."))
        elif isinstance(v, (list, tuple)):
            import json  # a dict in a list is written as compact JSON
            out.append((key, " ".join(json.dumps(x, separators=(",", ":")) if isinstance(x, dict) else str(x) for x in v)))
        elif v is None:
            out.append((key, ""))
        else:
            out.append((key, str(v)))
    return out


def _csv_rows(rows: list[list[str]]) -> str:
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _table_lines(payload: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for k, v in payload.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            lines.extend(_table_lines(v, indent + 1))
        elif isinstance(v, (list, tuple)) and v and all(isinstance(x, dict) for x in v):
            lines.append(f"{pad}{k}:")
            for x in v:
                sub = _table_lines(x, 0)
                lines.append(f"{'  ' * (indent + 1)}- {sub[0]}")
                lines.extend(f"{'  ' * (indent + 1)}  {s}" for s in sub[1:])
        elif isinstance(v, (list, tuple)):
            lines.append(f"{pad}{k}: {' '.join(str(x) for x in v)}")
        else:
            lines.append(f"{pad}{k}: {'' if v is None else v}")
    return lines


def _render_payloads(payloads: list[dict], fmt: str, batch: bool) -> str:
    if not payloads:  # a --stdin batch of blank lines prints nothing in every format
        return ""
    if fmt == "json":
        import json
        if batch:
            return "".join(json.dumps(p, separators=(",", ":")) + "\n" for p in payloads)
        return json.dumps(payloads[0], indent=2) + "\n"
    if fmt == "csv":
        flats = [_flat(p) for p in payloads]
        return _csv_rows([[k for k, _ in flats[0]], *([v for _, v in f] for f in flats)])
    blocks = ["\n".join(_table_lines(p)) for p in payloads]
    return "\n\n".join(blocks) + "\n"


def _aligned_table(header: Sequence[str], rows) -> str:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    def fmt_row(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    return "\n".join([fmt_row(header)] + [fmt_row(r) for r in rows]) + "\n"


def _render_report(fmt: str, doc, header: Sequence[str], rows, tail: str) -> str:
    """A whole-run report (census, verify-paper): doc() as indented JSON, header
    and rows as CSV, or header and rows as an aligned table followed by tail.
    doc is called only for JSON."""
    if fmt == "json":
        import json
        return json.dumps(doc(), indent=2) + "\n"
    if fmt == "csv":
        return _csv_rows([header, *rows])
    return _aligned_table(header, rows) + tail


# --- command runners: parsed arguments -> (output text, exit code) ----------


def _class_inputs(args) -> list[DivisorClass]:
    if args.stdin:
        if args.cls is not None:
            raise _UsageError("error: give CLASS or --stdin, not both")
        lines = [ln.strip() for ln in sys.stdin.read().splitlines()]
        return [parse_class(ln) for ln in lines if ln]
    if args.cls is None:
        raise _UsageError("error: CLASS argument is required (or use --stdin)")
    return [parse_class(args.cls)]


def _run_class(args, build) -> tuple[str, int]:
    payloads = [build(c) for c in _class_inputs(args)]
    return _render_payloads(payloads, args.format, batch=args.stdin), 0


def _oracle_h0(args) -> tuple[str, int]:
    from .oracle import h0_interpolation
    return _run_class(args, lambda cls: {"class": str(cls), "seed": args.seed, "h0": h0_interpolation(cls, args.seed)})


def _gen_obstructed(args) -> tuple[str, int]:
    from .obstruction import gen_obstructed
    a, b = parse_class_text(args.dprime, 5)
    facts, verdict = gen_obstructed(args.k, (a, *b))
    payload = {
        "k": args.k,
        "dprime": args.dprime,
        "class": str(facts.standard),
        "d": facts.d,
        "g": facts.g,
        "verdict": _verdict_json(verdict, facts),
    }
    return _render_payloads([payload], args.format, batch=False), 0


def _census(args) -> tuple[str, int]:
    from .census import CSV_COLUMNS, census_range, census_rows, census_window_csv
    if args.threads < 1:
        raise PreconditionError(f"--threads must be at least 1, got {args.threads}")
    window = args.d_min, args.d_max, args.g_min, args.g_max
    if args.format == "csv":
        return census_window_csv(*window, args.threads), 0
    records, summary = census_range(*window)

    def doc():
        params = {"d_min": args.d_min, "d_max": args.d_max, "g_min": args.g_min, "g_max": args.g_max}
        return {"params": params, "summary": summary, "records": [_record_json(r) for r in records]}

    tail = f"\ncells: {summary['cells']}  empty: {summary['empty_cells']}  records: {summary['records']}\n"
    return _render_report(args.format, doc, CSV_COLUMNS.split(","), census_rows(records), tail), 0


def _verify_paper(args) -> tuple[str, int]:
    from .verify import CheckResult, run_checks
    checks = run_checks()
    counts = {
        "passed": sum(c.status == "PASS" for c in checks),
        "failed": sum(c.status == "FAIL" for c in checks),
        "flagged": sum(c.status == "FLAGGED" for c in checks),
    }
    tail = f"\n{len(checks)} checks: {counts['passed']} passed, {counts['failed']} failed, {counts['flagged']} flagged\n"
    text = _render_report(args.format, lambda: {"checks": [c._asdict() for c in checks], **counts},
                          CheckResult._fields, checks, tail)
    return text, 0 if counts["failed"] == 0 else 1


def _build_parser() -> _Parser:
    p = _Parser(prog="cubiccurves", description="Command-line front end.")
    sub = p.add_subparsers(parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--out", metavar="FILE", help="also write the payload to FILE")

    classarg = _Parser(add_help=False)
    classarg.add_argument("cls", metavar="CLASS", nargs="?", help='divisor class "a;b1,b2,b3,b4,b5,b6"')
    classarg.add_argument("--stdin", action="store_true", help="read one class per line from stdin")

    for name, (build, h) in CLASS_COMMANDS.items():
        sub.add_parser(name, parents=[common, classarg], help=h).set_defaults(run=partial(_run_class, build=build))

    sp = sub.add_parser("census", parents=[common], help="sweep families over (d, g) ranges")
    sp.add_argument("--d-min", type=int, required=True)
    sp.add_argument("--d-max", type=int, required=True)
    sp.add_argument("--g-min", type=int, required=True)
    sp.add_argument("--g-max", type=int, required=True)
    sp.add_argument("--threads", type=int, default=1, help="CSV only: render the degrees in up to N forked processes (at most one per degree and per CPU)")
    sp.set_defaults(run=_census)

    sp = sub.add_parser("gen-obstructed", parents=[common], help="build an obstructed class from (k, seed class)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--dprime", default="0;0,0,0,0,0", metavar="CLASS5", help='seed "a;b1,b2,b3,b4,b5"')
    sp.set_defaults(run=_gen_obstructed)

    sub.add_parser("verify-paper", parents=[common], help="run the built-in worked-example checks").set_defaults(run=_verify_paper)
    # the usage line lists the commands above; oracle-h0, a debugging aid, stays hidden
    sub.metavar = "{" + ",".join(sub.choices) + "}"

    sp = sub.add_parser("oracle-h0", parents=[common, classarg])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(run=_oracle_h0)
    return p


_NEGCLASS = re.compile(r"-[0-9]+;")


def run(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # classes with negative a would otherwise be eaten as option strings;
    # a leading space keeps them positional and parse_class strips it
    argv = [(" " + a) if _NEGCLASS.match(a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
        if "run" not in args:  # no command given
            raise _UsageError(parser.format_usage().rstrip("\n"))
        text, code = args.run(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, DegeneratePoints) as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
