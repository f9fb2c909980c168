"""Request stream of the cli-batch workload and the output each request must give.

A request is one ``cubiccurves CMD --stdin --format FMT`` call with a batch of
classes on stdin.  The classes are pinned base classes (``expected.json``,
``pool``) moved to random coordinates by random W(E6) words, so no two
requests repeat an input while every answer stays known: everything the
class-level commands print except the echoed input is invariant under W(E6).

Classes are plain ``(a, (b1, ..., b6))`` tuples here; this module imports
nothing from the program.  The renderers and the reducer below are reference
implementations of the CLI's documented output, kept byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import random
from typing import NamedTuple

CMDS = ("reduce", "cohomology", "normality", "classify", "hilbert-dim", "kleppe")
NEEDS_SMOOTH = ("normality", "classify", "hilbert-dim", "kleppe")
FORMATS = ("json", "csv", "table")
BATCH = 8
REJECT_SHARE = 0.05  # batches that carry one class with no smooth member
ARBITRARY_SHARE = 0.5  # classes of a cohomology batch drawn from arbitrary vectors
MAX_COEFF = 200  # moved classes beyond this are redrawn
IDENTITY = (1, 2, 3, 4, 5, 6)


def fmt_class(c) -> str:
    return f"{c[0]};{','.join(str(x) for x in c[1])}"


def parse_class(text: str):
    a, b = text.split(";")
    return int(a), tuple(int(x) for x in b.split(","))


def perm(c, sigma):
    a, b = c
    return a, tuple(b[s - 1] for s in sigma)


def cremona(c, i, j, k):
    a, b = c
    t = a - b[i - 1] - b[j - 1] - b[k - 1]
    nb = list(b)
    for x in (i, j, k):
        nb[x - 1] += t
    return a + t, tuple(nb)


def move(rng: random.Random, c):
    """A random W(E6) image of c with every coefficient within MAX_COEFF."""
    while True:
        cur = c
        for _ in range(rng.randint(1, 4)):
            cur = perm(cur, rng.sample(IDENTITY, 6))
            cur = cremona(cur, *rng.sample(IDENTITY, 3))
        cur = perm(cur, rng.sample(IDENTITY, 6))
        if max(abs(cur[0]), *(abs(x) for x in cur[1])) <= MAX_COEFF:
            return cur


def reduce_ref(c):
    """Standard form and reducing word: stable descending sort, then Cremona(1,2,3)."""
    word = []
    while True:
        sigma = tuple(i + 1 for i in sorted(range(6), key=lambda i: (-c[1][i], i)))
        if sigma != IDENTITY:
            word.append({"perm": list(sigma)})
            c = perm(c, sigma)
        if c[0] >= sum(c[1][:3]):
            return c, word
        word.append({"cremona": [1, 2, 3]})
        c = cremona(c, 1, 2, 3)


class Request(NamedTuple):
    cmd: str
    fmt: str
    classes: tuple  # moved classes, in stdin order
    bases: tuple  # pinned base class string of each, or None for a non-smooth one

    @property
    def stdin(self) -> str:
        return "".join(fmt_class(c) + "\n" for c in self.classes)


def requests(seed: int, pool: dict):
    """The endless, seed-determined request stream."""
    rng = random.Random(seed)
    smooth = sorted(pool["smooth"])
    arbitrary = sorted(pool["arbitrary"])
    nonsmooth = sorted(pool["nonsmooth"])
    while True:
        reject = rng.random() < REJECT_SHARE
        cmd = rng.choice(NEEDS_SMOOTH if reject else CMDS)
        fmt = rng.choice(FORMATS)
        bases = []
        for _ in range(BATCH):
            if cmd == "cohomology" and rng.random() < ARBITRARY_SHARE:
                bases.append(rng.choice(arbitrary))
            else:
                bases.append(rng.choice(smooth))
        if reject:
            bases[rng.randrange(BATCH)] = None
        classes = tuple(
            move(rng, parse_class(b if b is not None else rng.choice(nonsmooth))) for b in bases
        )
        yield Request(cmd, fmt, classes, tuple(bases))


def expected(req: Request, pool: dict) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) the program must give for req."""
    payloads = []
    for c, base in zip(req.classes, req.bases):
        text = fmt_class(c)
        if base is None:
            std, _ = reduce_ref(c)
            msg = f"error: {text} has no smooth connected member (standard form {fmt_class(std)})\n"
            return "", msg, 2
        if req.cmd == "reduce":
            std, word = reduce_ref(c)
            payloads.append({"input": text, "standard": fmt_class(std), "word": word})
        else:
            pinned = pool["smooth"].get(base) or pool["arbitrary"][base]
            payloads.append({"class": text, **pinned[req.cmd]})
    return render(payloads, req.fmt), "", 0


def render(payloads: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(p, separators=(",", ":")) + "\n" for p in payloads)
    if fmt == "csv":
        flats = [_flat(p) for p in payloads]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([k for k, _ in flats[0]])
        w.writerows([v for _, v in f] for f in flats)
        return buf.getvalue()
    return "\n\n".join("\n".join(_table(p)) for p in payloads) + "\n"


def _flat(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    out = []
    for k, v in payload.items():
        key = prefix + k
        if isinstance(v, dict):
            out.extend(_flat(v, key + "."))
        elif isinstance(v, list):
            out.append((key, " ".join(json.dumps(x, separators=(",", ":")) if isinstance(x, dict) else str(x) for x in v)))
        else:
            out.append((key, "" if v is None else str(v)))
    return out


def _table(payload: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for k, v in payload.items():
        if isinstance(v, dict):
            lines.append(f"{pad}{k}:")
            lines.extend(_table(v, indent + 1))
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            lines.append(f"{pad}{k}:")
            inner = "  " * (indent + 1)
            for x in v:
                sub = _table(x)
                lines.append(f"{inner}- {sub[0]}")
                lines.extend(f"{inner}  {s}" for s in sub[1:])
        elif isinstance(v, list):
            lines.append(f"{pad}{k}: {' '.join(str(x) for x in v)}")
        else:
            lines.append(f"{pad}{k}: {'' if v is None else v}")
    return lines
