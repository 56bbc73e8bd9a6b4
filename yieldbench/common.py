"""Names, result records and statistics shared by the runner and workloads."""

from __future__ import annotations

import statistics
import time

#: name -> unit.  Every workload reports every one of these (``--trace 0``).
#: Times use each op kind's fastest run: on a shared host, stretches of tens
#: of seconds run up to ~40% slower, which lifts medians, tails and even
#: lower quartiles of a whole run, while the fastest of many repeats stays
#: put.  Medians and p90s are printed in the ``report`` line as trend data.
END_TO_END = {
    "points_per_s": "1/s",
    "sweep_best_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit.  Reported by ``--trace 1``; layer times and counts are per op.
PER_LAYER = {
    "process.start_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "process.exit_s": "s",
    "soc.problem_s": "s",
    "soc.problem_calls": "count",
    "engine.service.batch_s": "s",
    "engine.service.key_s": "s",
    "engine.service.key_calls": "count",
    "engine.service.result_hit_ratio": "ratio",
    "engine.service.structures_built": "count",
    "core.method.compile_s": "s",
    "ordering.order_s": "s",
    "bdd.build_s": "s",
    "bdd.robdd_nodes": "count",
    "bdd.ite_lookups": "count",
    "mdd.convert_s": "s",
    "mdd.romdd_nodes": "count",
    "engine.batch.linearize_s": "s",
    "engine.batch.forward_s": "s",
    "engine.batch.backward_s": "s",
    "engine.batch.passes": "count",
    "engine.batch.models_per_pass": "count",
    "engine.native.compile_s": "s",
    "engine.native.fallbacks": "count",
    "core.method.columns_s": "s",
    "core.method.package_s": "s",
    "engine.store.save_s": "s",
    "engine.store.load_s": "s",
    "engine.store.bytes": "bytes",
    "engine.supervise.dispatch_s": "s",
    "engine.supervise.shards": "count",
    "engine.supervise.retries": "count",
    "server.service_ms": "ms",
    "server.overhead_ms": "ms",
    "server.rejected": "count",
    "server.coalesced_joins": "count",
    "unattributed_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "gen.lag_p90_ms": "ms",
}


class SetUps:
    """Set-up times sampled at several points of a run.

    A run sets up once at each of three points (before the timed window,
    after it, after the check), so that one slow stretch of a shared host
    does not carry the whole figure.  ``setup_s`` is the fastest sample,
    like every other gated time; the median and the samples go to the
    ``report`` line.
    """

    def __init__(self):
        self.times = []

    def sample(self, set_up):
        """Time one call of ``set_up``; return its result."""
        started = time.perf_counter()
        result = set_up()
        self.times.append(time.perf_counter() - started)
        return result

    def put(self, out):
        out.put("setup_s", min(self.times), len(self.times))
        out.report["setup_s_median"] = statistics.median(self.times)
        out.report["setup_s_samples"] = [round(t, 4) for t in self.times]


class Failed(Exception):
    """The run cannot produce a result (bad checkout, broken set-up)."""


class Interrupted(BaseException):
    """SIGTERM/SIGINT reached the runner."""


def best_points_per_s(ops):
    """Points per second over ``(kind, points, seconds)`` ops.

    Every op is charged its kind's fastest time, so the mix of kinds is kept
    and the host's slow stretches are left out.
    """
    best = {}
    for kind, _, seconds in ops:
        best[kind] = min(seconds, best.get(kind, seconds))
    return sum(points for _, points, _ in ops) / sum(best[kind] for kind, _, _ in ops)


def p90(values):
    """90th percentile (inclusive method; the value itself for one sample)."""
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Outcome:
    """What a workload measured: counts, metrics with sample counts, notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.metrics = {}  # name -> (value, samples)
        self.report = {}

    def put(self, name, value, samples):
        self.metrics[name] = (float(value), int(samples))

    def fail(self, what):
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)


def layer_metrics(out, table, ops, wall, covered, overhead, lag_p90_ms=0.0,
                  server=None):
    """Fill every per-layer metric from a :class:`spans.LayerTable`.

    Times are self times, summed over every process of the program and
    divided by ``ops``; ``wall``/``covered`` are op wall clock and the part
    of it the named layers account for on the blocking path.
    """
    seconds, calls, counters = table.seconds, table.calls, table.counters

    def per_op(value):
        return value / ops

    forward = calls.get("engine.batch.forward", 0)
    backward = calls.get("engine.batch.backward", 0)
    models = table.attr("engine.batch.forward", "models") + table.attr(
        "engine.batch.backward", "models")
    requested = counters.get("service.points.requested", 0)
    values = {
        "process.start_s": per_op(seconds.get("process.start", 0.0)),
        "cli.import_s": per_op(seconds.get("cli.import", 0.0)),
        "cli.self_s": per_op(seconds.get("cli.main", 0.0)),
        "process.exit_s": per_op(seconds.get("process.exit", 0.0)),
        "soc.problem_s": per_op(seconds.get("soc.problem", 0.0)),
        "soc.problem_calls": per_op(calls.get("soc.problem", 0)),
        "engine.service.batch_s": per_op(seconds.get("engine.service.batch", 0.0)),
        "engine.service.key_s": per_op(seconds.get("engine.service.key", 0.0)),
        "engine.service.key_calls": per_op(calls.get("engine.service.key", 0)),
        "engine.service.result_hit_ratio": (
            counters.get("service.cache.result_hits", 0) / requested if requested else 0.0),
        "engine.service.structures_built": per_op(counters.get("service.structures.built", 0)),
        "core.method.compile_s": per_op(seconds.get("core.method.compile", 0.0)),
        "ordering.order_s": per_op(seconds.get("ordering.order", 0.0)),
        "bdd.build_s": per_op(seconds.get("bdd.build", 0.0)),
        "bdd.robdd_nodes": per_op(table.attr("core.method.compile", "robdd_nodes")),
        "bdd.ite_lookups": per_op(counters.get("kernel.cache.bdd.hits", 0)
                                  + counters.get("kernel.cache.bdd.misses", 0)),
        "mdd.convert_s": per_op(seconds.get("mdd.convert", 0.0)),
        "mdd.romdd_nodes": per_op(table.attr("core.method.compile", "romdd_nodes")),
        "engine.batch.linearize_s": per_op(seconds.get("engine.batch.linearize", 0.0)),
        "engine.batch.forward_s": per_op(seconds.get("engine.batch.forward", 0.0)),
        "engine.batch.backward_s": per_op(seconds.get("engine.batch.backward", 0.0)),
        "engine.batch.passes": per_op(forward + backward),
        "engine.batch.models_per_pass": models / (forward + backward) if forward + backward else 0.0,
        "engine.native.compile_s": per_op(seconds.get("engine.native.compile", 0.0)),
        "engine.native.fallbacks": per_op(counters.get("native.fallbacks", 0)),
        "core.method.columns_s": per_op(seconds.get("core.method.columns", 0.0)),
        "core.method.package_s": per_op(seconds.get("core.method.package", 0.0)),
        "engine.store.save_s": per_op(seconds.get("engine.store.save", 0.0)),
        "engine.store.load_s": per_op(seconds.get("engine.store.load", 0.0)),
        "engine.store.bytes": per_op(counters.get("store.bytes", 0)),
        "engine.supervise.dispatch_s": per_op(seconds.get("engine.supervise.dispatch", 0.0)),
        "engine.supervise.shards": per_op(table.attr("engine.supervise.dispatch", "shards")),
        "engine.supervise.retries": per_op(counters.get("retry.attempts", 0)),
        "server.service_ms": 0.0,
        "server.overhead_ms": 0.0,
        "server.rejected": per_op(counters.get("server.rejected", 0)),
        "server.coalesced_joins": per_op(counters.get("server.coalesced_joins", 0)),
        "unattributed_s": per_op(wall - covered),
        "trace.coverage": covered / wall if wall else 0.0,
        "trace.overhead": overhead,
        "gen.lag_p90_ms": lag_p90_ms,
    }
    values.update(server or {})
    for name, value in values.items():
        out.put(name, value, ops)
