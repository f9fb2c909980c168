"""Spans and counters recorded around calls into the program's modules.

The tracer swaps a module-level function for a timing wrapper in every
``cubiccurves`` module namespace that holds it (the defining module and each
``from .x import y`` copy, the package root included), and puts the original
back on ``restore``.  Each call becomes a span (id, request, thread, parent,
name, start, end) kept in memory; self time is derived afterwards as a span's
duration minus the part of it that its child spans cover.

Span stacks are per thread.  A span opened on a thread with an empty stack,
such as a census worker in the thread pool, takes as parent the innermost
open span of the thread that installed the tracer.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, request, thread, parent, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.request = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def see(self, key: str, value) -> None:
        with self._lock:
            self.distinct[key].add(value)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, self.request, threading.get_ident(), parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, module: str, attr: str, name: str, after=None) -> None:
        """Trace every call of module.attr, wherever the package imported it."""
        orig = getattr(importlib.import_module(module), attr)
        traced = self.wrap(name, orig, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cubiccurves" and not mod_name.startswith("cubiccurves."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, orig))

    def restore(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def calls(self) -> Counter:
        return Counter(span[4] for span in self.spans)

    def self_ns(self) -> Counter:
        """Per span name: total duration minus the time covered by child spans."""
        children = defaultdict(list)
        for sid, _, _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        out: Counter = Counter()
        for sid, _, _, _, name, start, end in self.spans:
            covered = 0
            cur_s = cur_e = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[name] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,request,thread,parent,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                f.write(",".join(str(x) for x in span) + "\n")
