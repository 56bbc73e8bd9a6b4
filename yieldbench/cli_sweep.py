"""Workload ``cli_sweep``: fresh ``repro sweep`` processes, closed loop, 1 client.

A fixed rotation of three op kinds, each over 96 seeded densities:

(a) cold ``sweep ESEN4x2 --max-defects 5 --jobs 2`` on an empty store — one
    big build, then intra-group shard dispatch;
(b) cold ``sweep MS2 --jobs 2`` (error-driven M, densities in [0.5, 1.5])
    on an empty store — four builds at M = 4..7 fanned out over the pool;
(c) warm ``sweep ESEN4x2 --max-defects 5`` on the store the last (a) left,
    serial — import and store load dominate.

``sweep_best_ms`` is the fastest run of kind (a).

Set-up compiles the native kernel library and pins a cache compiled before
the timed window as every op's ``REPRO_NATIVE_CACHE``, as a host pays the
compile once.
``setup_s`` is the fastest compile over the run's sampling points
(:class:`common.SetUps`).

``peak_rss_mb`` is the largest resident set of any single process of a CLI
run (``wait4`` reports the maximum over the child and the descendants it
reaped, not their sum).
"""

from __future__ import annotations

import random
import shutil
import time
from statistics import median

import oracle
import spans
from common import Outcome, SetUps, best_points_per_s, layer_metrics, p90

POINTS = 96


def densities(rng, low, high):
    """96 distinct densities, printed by the CLI's ``%g`` without loss."""
    values = []
    while len(values) < POINTS:
        value = round(rng.uniform(low, high), 4)
        if value not in values:
            values.append(value)
    return values


class Op:
    def __init__(self, kind, argv, densities, benchmark, max_defects):
        self.kind = kind
        self.argv = argv
        self.densities = densities
        self.benchmark = benchmark
        self.max_defects = max_defects
        self.wall = 0.0
        self.start = 0.0
        self.stdout = ""
        self.ok = False
        self.pid = None
        self.trace_dir = None


def cycle(ctx, rng):
    """One rotation: (a) cold ESEN4x2, (b) cold MS2, (c) warm ESEN4x2."""
    store_a = ctx.fresh_dir("store-a")
    store_b = ctx.fresh_dir("store-b")
    esen = densities(rng, 0.5, 3.0)
    ms2 = densities(rng, 0.5, 1.5)
    warm = densities(rng, 0.5, 3.0)
    return [
        Op("a", ["sweep", "ESEN4x2", "--max-defects", "5", "--jobs", "2",
                 "--store-dir", store_a, "--densities"] + ["%g" % d for d in esen], esen, "ESEN4x2", 5),
        Op("b", ["sweep", "MS2", "--jobs", "2", "--store-dir", store_b,
                 "--densities"] + ["%g" % d for d in ms2], ms2, "MS2", None),
        Op("c", ["sweep", "ESEN4x2", "--max-defects", "5", "--store-dir", store_a,
                 "--densities"] + ["%g" % d for d in warm], warm, "ESEN4x2", 5),
    ], (store_a, store_b)


def run_op(ctx, op, traced):
    trace_dir = ctx.fresh_dir("trace") if traced else None
    op.trace_dir = trace_dir
    # output goes to files: the child must stay unreaped until wait4 takes
    # its resource usage
    with open(ctx.path("stdout"), "w+b") as stdout, open(ctx.path("stderr"), "w+b") as stderr:
        op.start = time.perf_counter()
        proc = ctx.reaper.spawn(ctx.launcher(trace_dir) + op.argv,
                                stdout=stdout, stderr=stderr)
        op.pid = proc.pid
        _, rss = ctx.reaper.wait(proc)
        op.wall = time.perf_counter() - op.start
        stdout.seek(0)
        stderr.seek(0)
        op.stdout = stdout.read().decode("utf-8", "replace")
        err = stderr.read().decode("utf-8", "replace")
    op.ok = proc.returncode == 0 and "Traceback" not in err
    op.stderr_tail = err[-500:]
    return rss


def run_phase(ctx, rng, seconds, trace=False):
    """Whole rotations until ``seconds`` of op wall clock have passed.

    With ``trace``, rotations alternate untraced and traced, so host drift
    weighs on both alike.
    """
    ops, rss, cycles = [], 0.0, 0
    started = time.perf_counter()
    while cycles < (2 if trace else 1) or time.perf_counter() - started < seconds:
        batch, stores = cycle(ctx, rng)
        for op in batch:
            rss = max(rss, run_op(ctx, op, traced=trace and cycles % 2 == 1))
            ops.append(op)
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
        cycles += 1
    return ops, rss


def check(ops, out):
    reference = oracle.Reference()
    for op in ops:
        out.attempted += 1
        if not op.ok:
            out.fail("op %s exited badly: %s" % (op.kind, op.stderr_tail))
            continue
        expected = reference.sweep(op.benchmark, op.densities, op.max_defects)
        if not oracle.cli_matches(oracle.parse_cli_rows(op.stdout), expected):
            out.fail("op %s output differs from the reference" % op.kind)


def trace_table(ops):
    """Layer table and blocking-path coverage of traced ops."""
    table = spans.LayerTable()
    covered = 0.0
    for op in ops:
        for pid, recorded, counters, extra in spans.read_dir(op.trace_dir):
            table.add_spans(recorded)
            if pid != op.pid:
                continue  # pool workers: busy time only, not blocking path
            table.add_counters(counters)
            imp, main = extra.get("import"), extra.get("main")
            if not (imp and main):
                continue
            roots = spans.root_cover(recorded, main[0], main[1])
            # the process lifetime is split at the launcher's timestamps:
            # interpreter start, import, the command, interpreter exit.
            # The command's own time outside every wrapped layer (cli.main)
            # is what no layer explains: it is reported, but not covered.
            parts = (("process.start", imp[0] - op.start),
                     ("cli.import", imp[1] - imp[0]),
                     ("process.exit", op.start + op.wall - main[1]))
            for layer, seconds in parts + (("cli.main", main[1] - main[0] - roots),):
                table.seconds[layer] = table.seconds.get(layer, 0.0) + seconds
            covered += sum(seconds for _, seconds in parts) + roots
    return table, covered


def run(ctx):
    rng = random.Random(ctx.seed)
    out = Outcome()
    setups = SetUps()
    _, cache, loaded = setups.sample(ctx.compile_native)
    ctx.pin_native(cache)
    out.report["native_kernel"] = loaded

    if not ctx.trace:
        ops, rss = run_phase(ctx, rng, ctx.seconds)
        setups.sample(ctx.compile_native)
        check(ops, out)
        setups.sample(ctx.compile_native)
        walls = [op.wall for op in ops]
        out.put("points_per_s", best_points_per_s([(op.kind, POINTS, op.wall) for op in ops]),
                len(ops))
        out.put("sweep_best_ms", 1e3 * min([op.wall for op in ops if op.kind == "a"]),
                len(ops) // 3)
        out.put("peak_rss_mb", rss, len(ops))
        setups.put(out)
        out.report["op_p50_ms"] = 1e3 * median(walls)
        out.report["op_p90_ms"] = 1e3 * p90(walls)
        out.report["op_ms_by_kind"] = {
            kind: [round(1e3 * op.wall, 1) for op in ops if op.kind == kind]
            for kind in "abc"
        }
        return out

    ops, _ = run_phase(ctx, rng, ctx.seconds, trace=True)
    check(ops, out)
    plain = [op for op in ops if op.trace_dir is None]
    traced = [op for op in ops if op.trace_dir is not None]
    table, covered = trace_table(traced)
    wall = sum(op.wall for op in traced)
    per_point = lambda ops: sum(op.wall for op in ops) / (POINTS * len(ops))  # noqa: E731
    layer_metrics(out, table, len(traced), wall, covered,
                  overhead=per_point(traced) / per_point(plain))
    return out
