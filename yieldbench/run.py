"""End-to-end yield benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 yieldbench/run.py --workload cli_sweep|warm_library|http_serve \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that wraps the program's layer boundaries
(``spans.py``) and reports the per-layer table; it also measures an
untraced stretch of the same workload to report the tracing overhead.

The program receives only inputs generated from ``--seed``.  Every output
is checked against a serial in-process reference (``oracle.py``) after the
timed window.  Every process the run starts is reaped on every exit path,
and the run fails if a process, a shared-memory segment or a temporary
directory it created survives (``procs.py``).

Every metric is printed by name with its unit and sample count; the last
line of standard output is the JSON result.  The layer -> metric ->
workload predictions are in ``PREDICTIONS.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402
from common import END_TO_END, PER_LAYER, Failed, Interrupted  # noqa: E402

WORKLOADS = ("cli_sweep", "warm_library", "http_serve")


class Context:
    """Per-run state shared by the workloads."""

    def __init__(self, root, args):
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.token = uuid.uuid4().hex
        self.base_dir = os.path.join(root, ".yieldbench_tmp")
        self.run_dir = os.path.join(self.base_dir, self.token)
        os.makedirs(self.run_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = self.run_dir
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.reaper = procs.Reaper(self.token, env)
        # one environment for every child, so pin_native reaches them all
        self.env = self.reaper.env
        # the runner runs the program in-process too (warm_library, the
        # oracle): same native cache and temp dir, and the token, so even
        # processes the program starts from here are found by the audit
        os.environ.update(self.reaper.env)
        self.shm_before = procs.shm_segments()
        self._dirs = 0

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def fresh_dir(self, prefix):
        self._dirs += 1
        path = self.path("%s%d" % (prefix, self._dirs))
        os.makedirs(path)
        return path

    def compile_native(self):
        """Build the native kernel library in a child, into a fresh cache.

        Returns ``(seconds, cache dir, loaded)``; ``loaded`` is false on a
        host without a working C compiler (the fused kernel is used).
        """
        cache = self.fresh_dir("native")
        code = ("import sys; from repro.engine import native; "
                "sys.exit(0 if native.load() is not None else 1)")
        started = time.perf_counter()
        proc = self.reaper.spawn([sys.executable, "-c", code],
                                 env=dict(self.env, REPRO_NATIVE_CACHE=cache))
        self.reaper.wait(proc)
        return time.perf_counter() - started, cache, proc.returncode == 0

    def pin_native(self, cache):
        """Make ``cache`` the native cache of every later process."""
        self.env["REPRO_NATIVE_CACHE"] = cache
        os.environ["REPRO_NATIVE_CACHE"] = cache

    def launcher(self, trace_dir=None):
        """argv prefix running one ``repro`` command through ``launcher.py``."""
        return [sys.executable, os.path.join(HERE, "launcher.py"), trace_dir or "-"]

    def audit(self):
        """Stop everything, then list what survived: processes, shm, dirs."""
        problems = []
        self.reaper.close()
        survivors = self.reaper.kill_survivors()
        if survivors:
            problems.append("processes survived: %s" % survivors)
        leaked = procs.shm_segments() - self.shm_before
        if leaked:
            problems.append("shared-memory segments left: %s" % sorted(leaked))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(self.base_dir)
        except OSError:
            pass  # another run's directory is still there
        if os.path.exists(self.run_dir):
            problems.append("temp dir left: %s" % self.run_dir)
        return problems


def cpu_probe_ms():
    """Milliseconds for a fixed pure-Python loop: the host's speed right now.

    The load average misses a shared host's slow stretches (other tenants'
    work does not show in it); this probe shows them.
    """
    started = time.perf_counter()
    total = 0
    for value in range(1000000):
        total += value * value
    return 1e3 * (time.perf_counter() - started)


def host_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "compiler": compiler,
        "loadavg_before": list(os.getloadavg()),
        "cpu_probe_ms_before": cpu_probe_ms(),
    }


def check_checkout(root):
    """The program's source must be in this checkout; nothing is fetched."""
    cli = os.path.join(root, "src", "repro", "cli.py")
    if not os.path.isfile(cli):
        raise Failed("no program source at %s (run from the root of a checkout)" % cli)
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        raise Failed("cannot import the program: %s" % exc)


def run_workload(ctx, name):
    if name == "cli_sweep":
        import cli_sweep as module
    elif name == "warm_library":
        import warm_library as module
    else:
        import http_serve as module
    return module.run(ctx)


def emit(name, outcome, trace, host):
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for metric, unit in wanted.items():
        value, samples = outcome.metrics[metric]
        metrics[metric] = {"value": value, "unit": unit}
        print("%-36s %14.6g %-6s n=%d" % (metric, value, unit, samples))
    correct = outcome.failed == 0 and not outcome.mismatches
    print("report " + json.dumps({
        "workload": name, "host": host, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.mismatches, **outcome.report,
    }, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()

    def interrupted(signum, frame):
        raise Interrupted(signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        check_checkout(root)
        host = host_record()
        ctx = Context(root, args)
    except Failed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    outcome, code = None, None
    try:
        outcome = run_workload(ctx, args.workload)
    except Interrupted as exc:
        code = 128 + exc.args[0]
    except Failed as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2
    finally:
        # no signal may cut the clean-up short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        problems = ctx.audit()
    for problem in problems:
        print("error: %s" % problem, file=sys.stderr)
    if code is not None:
        return code
    host["loadavg_after"] = list(os.getloadavg())
    host["cpu_probe_ms_after"] = cpu_probe_ms()
    host["ru_maxrss_runner_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.mismatches.extend(problems)
    return emit(args.workload, outcome, bool(args.trace), host)


if __name__ == "__main__":
    sys.exit(main())
