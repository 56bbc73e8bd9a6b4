"""Workload ``warm_library``: one long-lived serial ``SweepService`` in-process.

Closed loop, 1 client, zero build work in the timed window: set-up builds
the ESEN4x2 and MS4 structures at M = 5 into a store-backed service.  The
seeded op stream alternates the two benchmarks; in every block of five ops
three are fresh 96-density sweeps, one repeats an earlier sweep exactly (a
result-cache read beside the writes) and one is a 96-point
``gradient_batch``.  ``sweep_best_ms`` is the fastest fresh ESEN4x2 sweep.
``setup_s`` is the fastest set-up over the run's sampling points
(:class:`common.SetUps`); the service of the set-up before the timed window
is the one measured.
"""

from __future__ import annotations

import random
import resource
import time
from statistics import median

import oracle
import spans
from common import Outcome, SetUps, best_points_per_s, layer_metrics, p90

BENCHMARKS = ("ESEN4x2", "MS4")
M = 5
POINTS = 96
BLOCK = ("sweep", "sweep", "sweep", "repeat", "gradient")
RSS_OPS = 100


def set_up(ctx):
    """A store-backed serial service with both structures built."""
    from repro.engine.service import SweepService
    from repro.soc import benchmark_problem

    service = SweepService(store_dir=ctx.fresh_dir("store"))
    for name in BENCHMARKS:
        service.prime_structure(benchmark_problem(name, mean_defects=1.0), M)
    return service


def op_stream(rng):
    """Endless seeded ops: ``(kind, benchmark, densities)``."""
    index = 0
    history = {name: [] for name in BENCHMARKS}
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            name = BENCHMARKS[index % 2]
            index += 1
            if kind == "repeat" and history[name]:
                yield kind, name, rng.choice(history[name])
                continue
            if kind == "repeat":
                kind = "sweep"
            values = [round(rng.uniform(0.5, 3.0), 6) for _ in range(POINTS)]
            if kind == "sweep":
                history[name].append(values)
            yield kind, name, values


def do_op(service, kind, name, values):
    """Run one op the way a library user would; return its comparable output."""
    from repro.engine.service import SweepPoint
    import repro.soc

    if kind == "gradient":
        points = [SweepPoint(repro.soc.benchmark_problem(name, mean_defects=m), max_defects=M)
                  for m in values]
        return oracle.gradient_view(service.gradient_batch(points))
    return service.density_sweep(
        lambda m: repro.soc.benchmark_problem(name, mean_defects=m), values, max_defects=M
    )


def run_phase(service, stream, seconds, recorder=None):
    """Ops until ``seconds`` of wall clock; returns ``(ops, peak RSS in MB)``.

    The peak RSS is read after :data:`RSS_OPS` ops (or at the end, if fewer
    ran): the service's caches grow with every op, so a fixed amount of work
    keeps the figure independent of how fast the host ran.

    With a recorder, ops alternate untraced and traced (so host drift and
    the service's growing caches weigh on both alike); a traced op keeps
    the index range of its spans.
    """
    ops, rss = [], None
    started = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - started < seconds:
        kind, name, values = next(stream)
        traced = recorder is not None and len(ops) % 2 == 1
        if recorder is not None:
            recorder.enabled = traced
        first = len(recorder.spans) if traced else 0
        t0 = time.perf_counter()
        output = do_op(service, kind, name, values)
        wall = time.perf_counter() - t0
        spans_range = (first, len(recorder.spans)) if traced else None
        ops.append((kind, name, values, output, wall, t0, spans_range))
        if len(ops) == RSS_OPS:
            rss = peak_rss_mb()
    if recorder is not None:
        recorder.enabled = False
    return ops, rss if rss is not None else peak_rss_mb()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(ops, out):
    reference = oracle.Reference()
    for kind, name, values, output, *_ in ops:
        out.attempted += 1
        if kind == "gradient":
            expected = reference.gradients(name, values, M)
        else:
            expected = reference.sweep(name, values, M)
        if output != expected:
            out.fail("%s op on %s differs from the reference" % (kind, name))


def run(ctx):
    rng = random.Random(ctx.seed)
    out = Outcome()
    from repro.engine import native

    _, cache, _ = ctx.compile_native()  # a host pays this once: not in set-up
    ctx.pin_native(cache)
    out.report["native_kernel"] = native.available()  # loads from the pinned cache
    setups = SetUps()

    def new_service():
        return setups.sample(lambda: set_up(ctx))

    service = new_service()
    stream = op_stream(rng)

    if not ctx.trace:
        ops, rss = run_phase(service, stream, ctx.seconds)
        service.close()
        new_service().close()
        check(ops, out)
        new_service().close()
        walls = [op[4] for op in ops]
        out.put("points_per_s",
                best_points_per_s([(op[:2], POINTS, op[4]) for op in ops]), len(ops))
        headline = [op[4] for op in ops if op[:2] == ("sweep", "ESEN4x2")]
        out.put("sweep_best_ms", 1e3 * min(headline), len(headline))
        out.put("peak_rss_mb", rss, min(len(ops), RSS_OPS))
        setups.put(out)
        out.report["op_p50_ms"] = 1e3 * median(walls)
        out.report["op_p90_ms"] = 1e3 * p90(walls)
        return out

    recorder = spans.Recorder()
    spans.install(recorder)
    before = service.registry.snapshot()["counters"]
    ops, _ = run_phase(service, stream, ctx.seconds, recorder)
    after = service.registry.snapshot()["counters"]
    service.close()
    check(ops, out)
    plain = [op for op in ops if op[6] is None]
    traced = [op for op in ops if op[6] is not None]

    table = spans.LayerTable()
    # counters cover untraced ops too: only their ratios are reported per op
    table.add_counters({k: (v - before.get(k, 0)) * len(traced) / len(ops)
                        for k, v in after.items()})
    covered = 0.0
    for *_, t0, (lo, hi) in traced:
        # parent indices are positions in the whole recorder list
        rebased = [s[:3] + [s[3] - lo if s[3] >= 0 else -1] + s[4:]
                   for s in recorder.spans[lo:hi]]
        table.add_spans(rebased)
        covered += spans.root_cover(rebased, t0, float("inf"))
    wall = sum(op[4] for op in traced)
    per_point = lambda ops: sum(op[4] for op in ops) / (POINTS * len(ops))  # noqa: E731
    layer_metrics(out, table, len(traced), wall, covered,
                  overhead=per_point(traced) / per_point(plain))
    return out
