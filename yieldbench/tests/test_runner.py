"""Checks of the benchmark itself: nothing survives a run, the oracle bites.

Run from the root of a checkout: ``python3 -m pytest yieldbench/tests -q``.
"""

import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "yieldbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import procs  # noqa: E402
from common import Outcome  # noqa: E402


def tagged(tag, program=b""):
    """Live processes whose environment carries ``tag`` (the test's own mark).

    With ``program``, only those whose command line contains it.
    """
    marker = ("YB_TEST_TAG=%s" % tag).encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/environ" % name, "rb") as handle:
                environ = handle.read()
            with open("/proc/%s/stat" % name) as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
            with open("/proc/%s/cmdline" % name, "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if state != "Z" and marker in environ.split(b"\0") and program in cmdline:
            found.append(int(name))
    return found


def start_runner(workload, tag):
    env = dict(os.environ, YB_TEST_TAG=tag)
    return subprocess.Popen(
        [sys.executable, "yieldbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "60", "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def wait_for_children(runner, tag, minimum, timeout=60.0):
    """Block until at least ``minimum`` program processes are alive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(tagged(tag, b"launcher.py")) >= minimum:
            return
        assert runner.poll() is None, runner.communicate()
        time.sleep(0.05)
    pytest.fail("the runner never started %d processes" % minimum)


def temp_dirs():
    base = os.path.join(ROOT, ".yieldbench_tmp")
    return set(os.listdir(base)) if os.path.isdir(base) else set()


@pytest.mark.parametrize("workload,signum,minimum", [
    ("cli_sweep", signal.SIGTERM, 3),   # CLI process plus its two pool workers
    ("http_serve", signal.SIGINT, 1),   # the server
])
def test_signalled_runner_leaves_nothing(workload, signum, minimum):
    tag = uuid.uuid4().hex
    dirs, shm = temp_dirs(), procs.shm_segments()
    runner = start_runner(workload, tag)
    wait_for_children(runner, tag, minimum)
    runner.send_signal(signum)
    stdout, _ = runner.communicate(timeout=60)
    assert runner.returncode == 128 + signum
    assert b'"correct"' not in stdout  # no result from an interrupted run
    assert tagged(tag) == []
    assert temp_dirs() <= dirs
    assert procs.shm_segments() <= shm


def test_killed_runner_takes_its_processes_along():
    tag = uuid.uuid4().hex
    dirs = temp_dirs()
    runner = start_runner("cli_sweep", tag)
    try:
        wait_for_children(runner, tag, 3)
        runner.kill()
        runner.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while tagged(tag) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert tagged(tag) == []
    finally:
        # a SIGKILLed runner cannot clean its temp dir; the test does
        import shutil

        for name in temp_dirs() - dirs:
            shutil.rmtree(os.path.join(ROOT, ".yieldbench_tmp", name), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".yieldbench_tmp"))
        except OSError:
            pass  # missing, or another run's directory is still there


def test_cli_check_rejects_one_corrupted_expected_value():
    expected = oracle.Reference().sweep("MS2", [0.75, 1.25], max_defects=3)
    rows = [("%g" % mean, m, "%.6f" % y) for mean, y, m in expected]
    assert oracle.cli_matches(rows, expected)
    mean, value, m = expected[1]
    corrupted = [expected[0], (mean, value + 2e-6, m)]
    assert not oracle.cli_matches(rows, corrupted)


def test_library_check_is_bit_for_bit():
    import warm_library

    values = [0.75, 1.25]
    output = oracle.Reference().sweep("ESEN4x2", values, warm_library.M)
    out = Outcome()
    warm_library.check([("sweep", "ESEN4x2", values, output)], out)
    assert (out.attempted, out.failed) == (1, 0)
    mean, value, m = output[0]
    corrupted = [(mean, value + abs(value) * 2.0 ** -52, m)] + output[1:]
    out = Outcome()
    warm_library.check([("sweep", "ESEN4x2", values, corrupted)], out)
    assert (out.attempted, out.failed) == (1, 1)
