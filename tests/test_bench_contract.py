"""The names the benchmark reads from the program resolve, and its tracing leaves no trace.

bench/run.py imports the package from src, empties three caches before each
operation, reads oracle.mpz for its environment line and wraps every
TRACE_TARGETS function in place.  This test takes those steps once, so a
rename in the program fails the test suite, not only a benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _namespaces() -> dict[str, dict]:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "cubiccurves" or name.startswith("cubiccurves.")
    }


def test_bench_reads_resolve_and_tracing_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # undone at teardown, with Env's own insert
    try:
        import run
        import tracer

        env = run.Env()
        snapshot = _namespaces()
        env.cold()
        assert isinstance(run.environment(env)["gmpy2"], bool)
        tr = tracer.Tracer()
        try:
            for module, attr, name, hook in run.TRACE_TARGETS:
                tr.install(f"cubiccurves.{module}", attr, name, hook)
        finally:
            tr.restore()
    finally:
        # run, tracer and batch are generic names: take them out of sys.modules again
        for name, mod in list(sys.modules.items()):
            if Path(getattr(mod, "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]
    after = _namespaces()
    for name, names in snapshot.items():
        assert after[name].keys() == names.keys(), name
        changed = [key for key, value in names.items() if after[name][key] is not value]
        assert not changed, f"{name}: {changed}"
