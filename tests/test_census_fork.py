"""census --threads N: the CSV forks one process per slice of degrees.

Every --threads value prints the bytes census_csv(census_range(...)[0])
gives, in every output format and with or without os.fork.  The parent
renders every slice that does not come back whole, so a fault fails as a
serial run does, a fault in a child alone or a refused fork still prints
the serial bytes, and with no fault the parent renders one slice.  No child
outlives cli.run and no fd is left open.  The fault cases also run in
python -O subprocesses, where an assert would have vanished.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cubiccurves
from cubiccurves import census
from cubiccurves.census import _slices, census_csv, census_range
from cubiccurves.cli import run
from cubiccurves.curve import hodge_genus_bound

SRC = str(Path(cubiccurves.__file__).resolve().parent.parent)


def _argv(d_min, d_max, g_min, g_max, *rest):
    return ["census", "--d-min", str(d_min), "--d-max", str(d_max), "--g-min", str(g_min), "--g-max", str(g_max), *rest]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight CPUs as the census sees them, so --threads up to 8 really forks
    on any machine; returns the list of os.fork calls."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(census, "_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("window", [(10, 22, 0, hodge_genus_bound(22)), (10, 22, 20, 40), (15, 15, 0, 200)])
@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_every_thread_count_prints_the_library_csv(window, threads, eight_cpus, capfd, tmp_path):
    out = tmp_path / "census.csv"
    assert run(_argv(*window, "--format", "csv", "--threads", str(threads), "--out", str(out))) == 0
    text = capfd.readouterr().out
    assert text == census_csv(census_range(*window)[0]) == out.read_text()
    # one child per slice past the parent's: d_min == d_max forks nothing
    assert len(eight_cpus) == len(_slices(window[0], window[1], threads)) - 1
    assert (len(eight_cpus) > 0) == (threads > 1 and window[0] < window[1])
    _no_child_left()


def test_forks_are_capped_by_degrees_and_cpus(eight_cpus, capfd, monkeypatch):
    argv = _argv(10, 12, 0, 20, "--format", "csv")
    assert run([*argv, "--threads", "100000"]) == 0
    assert len(eight_cpus) == 2  # three degrees: the parent's slice and two children
    monkeypatch.setattr(census, "_cpus", lambda: 2)
    assert run([*argv, "--threads", "100000"]) == 0
    assert len(eight_cpus) == 3
    outs = capfd.readouterr().out
    assert outs == 2 * census_csv(census_range(10, 12, 0, 20)[0])
    _no_child_left()


def test_slices_cover_the_window_in_order():
    assert _slices(10, 22, 1) == [(10, 22)]
    assert _slices(10, 22, 2) == [(10, 19), (20, 22)]
    assert _slices(10, 22, 100000) == [(d, d) for d in range(10, 23)]
    for n in range(1, 15):
        cut = _slices(10, 40, n)
        assert len(cut) <= n and cut[0][0] == 10 and cut[-1][1] == 40
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(cut, cut[1:]))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_json_and_table_do_not_fork(fmt, eight_cpus, capfd):
    argv = _argv(10, 14, 0, 40, "--format", fmt)
    assert run([*argv, "--threads", "1"]) == 0
    one = capfd.readouterr().out
    assert run([*argv, "--threads", "2"]) == 0
    assert capfd.readouterr().out == one
    assert eight_cpus == []


def test_without_fork_the_csv_runs_serially(monkeypatch, capfd):
    monkeypatch.setattr(census, "_cpus", lambda: 8)
    monkeypatch.delattr(os, "fork")
    assert run(_argv(10, 22, 0, hodge_genus_bound(22), "--format", "csv", "--threads", "8")) == 0
    assert capfd.readouterr().out == census_csv(census_range(10, 22, 0, hodge_genus_bound(22))[0])


def test_no_fork_beside_another_thread(eight_cpus, capfd):
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(60,))
    other.start()
    try:
        assert run(_argv(10, 16, 0, 60, "--format", "csv", "--threads", "8")) == 0
    finally:
        done.set()
        other.join(60)
    assert not other.is_alive()
    assert eight_cpus == []
    assert capfd.readouterr().out == census_csv(census_range(10, 16, 0, 60)[0])


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(threads, capfd):
    for fmt in ("csv", "json", "table"):
        assert run(_argv(10, 12, 0, 20, "--format", fmt, "--threads", threads)) == 2
        out, err = capfd.readouterr()
        assert (out, err) == ("", f"error: --threads must be at least 1, got {threads}\n")


def test_bad_window_exits_2_before_any_fork(eight_cpus, capfd):
    for window, message in (((9, 22, 0, 10), "census needs d_min > 9, got 9"),
                            ((10, 22, 5, 4), "empty or negative range d=[10,22] g=[5,4]")):
        assert run(_argv(*window, "--format", "csv", "--threads", "8")) == 2
        assert capfd.readouterr() == ("", f"error: {message}\n")
    assert eight_cpus == []
    _no_child_left()


# --threads 3 slices d 10..22 as 10..18 (the parent's), 19..20 and 21..22; with
# more than one slice failing, the lowest degree's error is the one raised
@pytest.mark.parametrize("degrees", [(10,), (22,), (19, 22), (10, 22)])
def test_invariant_violation_in_any_slice_exits_3_as_serially(degrees, eight_cpus, monkeypatch, capfd):
    facts = census._standard_facts
    monkeypatch.setattr(census, "_standard_facts", lambda std, d, g: facts(std, d, g + 1000 * (d in degrees)))
    argv = _argv(10, 22, 0, hodge_genus_bound(22), "--format", "csv")
    assert run([*argv, "--threads", "1"]) == 3
    out, serial = capfd.readouterr()
    assert out == "" and serial.startswith("internal error: InvariantViolation('genus ")
    assert run([*argv, "--threads", "3"]) == 3
    assert capfd.readouterr() == ("", serial)
    assert _slices(10, 22, 3) == [(10, 18), (19, 20), (21, 22)] and len(eight_cpus) == 2
    _no_child_left()


def test_the_parent_renders_one_slice(eight_cpus, monkeypatch, capfd):
    # a silent fall-back to serial work would print the right bytes too
    rendered, serial = [], census.census_range
    monkeypatch.setattr(census, "census_range", lambda *w: rendered.append(w) or serial(*w))
    window = (10, 22, 0, hodge_genus_bound(22))
    assert run(_argv(*window, "--format", "csv", "--threads", "3")) == 0
    assert capfd.readouterr().out == census_csv(serial(*window)[0])
    assert rendered == [(10, 18, *window[2:])] and len(eight_cpus) == 2  # a child's calls stay in the child
    _no_child_left()


@pytest.mark.parametrize("death", ["exit", "cut-off"])
def test_a_child_that_dies_leaves_its_slice_to_the_parent(death, eight_cpus, monkeypatch, capfd):
    parent = os.getpid()
    if death == "exit":  # the child dies before it writes
        facts = census._standard_facts
        monkeypatch.setattr(census, "_standard_facts",
                            lambda std, d, g: os._exit(1) if os.getpid() != parent else facts(std, d, g))
    else:  # the child writes half its bytes, then dies
        fdopen = os.fdopen

        def cut_off(fd, mode="r"):
            pipe = fdopen(fd, mode)
            if os.getpid() != parent:
                def write(data):
                    os.write(fd, data[:len(data) // 2])
                    os._exit(1)
                pipe.write = write
            return pipe
        monkeypatch.setattr(os, "fdopen", cut_off)
    window = (10, 22, 0, hodge_genus_bound(22))
    assert run(_argv(*window, "--format", "csv", "--threads", "2")) == 0
    assert capfd.readouterr() == (census_csv(census_range(*window)[0]), "")
    assert len(eight_cpus) == 1
    _no_child_left()


def test_a_refused_fork_leaves_its_slice_to_the_parent(monkeypatch, capfd):
    monkeypatch.setattr(census, "_cpus", lambda: 8)
    forks, fork = [], os.fork

    def refuse_the_second():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()
    monkeypatch.setattr(os, "fork", refuse_the_second)
    fds = _open_fds()
    window = (10, 22, 0, hodge_genus_bound(22))
    assert run(_argv(*window, "--format", "csv", "--threads", "3")) == 0
    assert capfd.readouterr() == (census_csv(census_range(*window)[0]), "")
    assert len(forks) == 2 and _open_fds() == fds
    _no_child_left()


# The same faults in a fresh interpreter, plain and under -O: the script
# exits 9 if a child is left once cli.run returns.
SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[1])
from cubiccurves import census, cli
census._cpus = lambda: 2
facts = census._standard_facts
{patch}
code = cli.run(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    code = 9
except ChildProcessError:
    pass
sys.exit(code)
"""

FORGE_22 = "census._standard_facts = lambda std, d, g: facts(std, d, g + 1000 * (d == 22))"
DIE_22 = "census._standard_facts = lambda std, d, g: os._exit(1) if d == 22 else facts(std, d, g)"
DIE_IN_CHILD = ("parent = os.getpid(); census._standard_facts = "
                "lambda std, d, g: os._exit(1) if os.getpid() != parent else facts(std, d, g)")


def _census_under(flags, patch, threads):
    argv = _argv(10, 22, 0, hodge_genus_bound(22), "--format", "csv", "--threads", threads)
    return subprocess.run([sys.executable, *flags, "-c", SCRIPT.format(patch=patch), SRC, *argv],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_fault_cases_in_a_fresh_interpreter(flags):
    serial = _census_under(flags, FORGE_22, "1")
    forked = _census_under(flags, FORGE_22, "2")
    assert serial.returncode == forked.returncode == 3, (serial.stderr, forked.stderr)
    assert serial.stdout == forked.stdout == ""
    assert forked.stderr == serial.stderr
    assert serial.stderr.startswith("internal error: InvariantViolation('genus ")
    dead = _census_under(flags, DIE_22, "1")
    assert (dead.returncode, dead.stdout, dead.stderr) == (1, "", "")
    forked = _census_under(flags, DIE_22, "2")
    assert (forked.returncode, forked.stdout, forked.stderr) == (dead.returncode, dead.stdout, dead.stderr)
    expected = census_csv(census_range(10, 22, 0, hodge_genus_bound(22))[0])
    for patch in ("", DIE_IN_CHILD):  # a fault in the child alone leaves its slice to the parent
        clean = _census_under(flags, patch, "2")
        assert (clean.returncode, clean.stdout, clean.stderr) == (0, expected, ""), patch
