"""Workload ``http_serve``: ``repro serve`` under an open loop of seeded arrivals.

The server runs as a child process (``--workers 0 --http-threads 2``) on an
empty store; set-up boots it and pre-builds the ESEN4x2 and MS4 structures
at M = 5 with one request each.  Requests arrive with seeded exponential
gaps (a Poisson stream) and are sent over at most two connections; a
request due while both are busy waits in the generator and is still timed
from its due time.  Every block of eight requests holds three
``POST /v1/sweep`` with 96 fresh densities per benchmark (1 sweep in 5
repeats an earlier body exactly) and one ``POST /v1/importance`` per
benchmark, so a phase of whole blocks always has the same mix.

Phases: *light* (2 req/s) and *heavy* (5 req/s); *saturation*, two
connections sending back to back, which bounds any sustainable rate; then a
search on a fixed geometric ladder (5% steps) for the highest rate whose
phase keeps the p90 latency within 500 ms with every reply a 200 and no
growing backlog.  The search bisects the rungs between the highest fixed
rate that held and saturation, with at most :data:`MAX_PROBES` short
probes, so ``max_rps`` is known to within about two rungs; it is None when
no phase held.

``points_per_s`` charges every request sent in any phase its kind's fastest
latency, a repeated sweep body being a kind of its own (the server answers
it from its result cache); ``sweep_best_ms`` is the fastest fresh ESEN4x2
sweep of the run.  The percentiles, saturation rate and ``max_rps`` are in
the ``report`` line.  ``setup_s`` is the fastest boot over the run's
sampling points (:class:`common.SetUps`).
"""

from __future__ import annotations

import http.client
import json
import math
import random
import select
import subprocess
import threading
import time
from statistics import median

import oracle
import spans
from common import Failed, Outcome, SetUps, best_points_per_s, layer_metrics, p90

BENCHMARKS = ("ESEN4x2", "MS4")
M = 5
POINTS = 96
CONNECTIONS = 2
LIGHT, HEAVY = 2.0, 5.0
LIMIT_S = 0.5
LADDER = tuple(1.05 ** k for k in range(80))  # 1 .. ~47 req/s
PROBE_REQUESTS = 16
MAX_PROBES = 3
#: Registry counters read from ``GET /stats`` around the measured phases.
COUNTERS = ("server.rejected", "server.coalesced_joins", "service.cache.result_hits",
            "service.points.requested", "service.structures.built",
            "kernel.cache.bdd.hits", "kernel.cache.bdd.misses", "store.bytes",
            "native.fallbacks", "retry.attempts")


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, ctx, trace_dir=None):
        self.ctx = ctx
        self.trace_dir = trace_dir
        argv = ctx.launcher(trace_dir) + [
            "serve", "--port", "0", "--workers", "0", "--http-threads", "2",
            "--store-dir", ctx.fresh_dir("store")]
        self.stderr = open(ctx.path("server-stderr"), "w+b")
        self.proc = ctx.reaper.spawn(argv, stdout=subprocess.PIPE, stderr=self.stderr)
        self.port = self._read_port(deadline=time.monotonic() + 60)

    def _read_port(self, deadline):
        line = b""
        while not line.endswith(b"\n"):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise Failed("repro serve did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = self.proc.stdout.read1(256)
                if not chunk:
                    raise Failed("repro serve closed its output")
                line += chunk
        # "repro serve: listening on http://127.0.0.1:PORT (...)"
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0].rsplit(b":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def counters(self):
        status, data = request(self.port, "GET", "/stats", None, "stats")
        if status != 200:
            raise Failed("GET /stats answered %d" % status)
        values = {}
        for line in data.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return {name: values.get("repro_" + name.replace(".", "_"), 0.0)
                for name in COUNTERS}

    def stop(self):
        """SIGTERM drain, deadline, group kill, reap; output read afterwards."""
        self.ctx.reaper.stop(self.proc, grace=10.0)
        self.proc.stdout.close()
        self.stderr.seek(0)
        err = self.stderr.read().decode("utf-8", "replace")
        self.stderr.close()
        return err


def request(port, method, path, body, rid):
    """One request on a fresh connection (the server closes after each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json", "X-Request-Id": rid})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def start_server(ctx, trace_dir=None):
    """Boot a server and pre-build both structures; return it."""
    server = Server(ctx, trace_dir)
    for name in BENCHMARKS:
        status, _ = request(server.port, "POST", "/v1/sweep",
                            {"benchmark": name, "densities": [1.0], "max_defects": M},
                            "setup-" + name)
        if status != 200:
            server.stop()
            raise Failed("pre-build request for %s answered %d" % (name, status))
    return server


def request_stream(rng):
    """Endless seeded requests ``(path, body, points, repeat)``, in blocks of eight.

    ``repeat`` marks a sweep body sent before, word for word.
    """
    history = {name: [] for name in BENCHMARKS}
    repeats = []
    while True:
        block = [("sweep", name) for name in BENCHMARKS] * 3
        block += [("importance", name) for name in BENCHMARKS]
        rng.shuffle(block)
        for kind, name in block:
            if kind == "importance":
                yield "/v1/importance", {"benchmark": name, "max_defects": M,
                                         "mean_defects": round(rng.uniform(0.5, 3.0), 6)}, 1, False
                continue
            if not repeats:
                repeats = [False] * 4 + [True]
                rng.shuffle(repeats)
            if repeats.pop() and history[name]:
                yield "/v1/sweep", rng.choice(history[name]), POINTS, True
                continue
            body = {"benchmark": name, "max_defects": M,
                    "densities": [round(rng.uniform(0.5, 3.0), 6) for _ in range(POINTS)]}
            history[name].append(body)
            yield "/v1/sweep", body, POINTS, False


class Sent:
    """One request of a phase and what became of it (times from phase start)."""

    def __init__(self, rid, path, body, points, repeat, due):
        self.rid, self.path, self.body, self.points, self.due = rid, path, body, points, due
        self.repeat = repeat
        self.start = self.end = None
        self.status = None
        self.data = b""

    @property
    def latency(self):
        return math.inf if self.end is None else self.end - self.due

    @property
    def lag(self):
        return self.start - self.due


class Phase:
    """``count`` requests at ``rate`` (or back to back when ``rate`` is None).

    With ``give_up``, a request not sent within the latency limit of its due
    time is never sent and counts as a miss.
    """

    def __init__(self, port, stream, rng, rate, count, label, give_up=False):
        self.port, self.rate, self.give_up = port, rate, give_up
        self.requests = []
        due = 0.0
        for index in range(count):
            if rate is not None:
                due += rng.expovariate(rate)
            path, body, points, repeat = next(stream)
            self.requests.append(Sent("%s-%d" % (label, index), path, body, points, repeat, due))
        self.duration = due
        self._next = 0
        self._lock = threading.Lock()
        self.backlog = []

    def _sender(self):
        while True:
            with self._lock:
                if self._next >= len(self.requests):
                    return
                sent = self.requests[self._next]
                self._next += 1
            now = time.perf_counter() - self.t0
            if sent.due > now:
                time.sleep(sent.due - now)
            elif self.give_up and now > sent.due + LIMIT_S:
                continue
            sent.start = time.perf_counter() - self.t0
            try:
                sent.status, sent.data = request(self.port, "POST", sent.path, sent.body, sent.rid)
            except (OSError, http.client.HTTPException):
                sent.status = 0
            sent.end = time.perf_counter() - self.t0

    def _backlog_at(self, moment):
        """Requests due by ``moment`` (phase time) that no connection has taken."""
        with self._lock:
            taken = self._next
        return sum(1 for s in self.requests[taken:] if s.due <= moment)

    def run(self):
        self.t0 = time.perf_counter() + 0.02
        threads = [threading.Thread(target=self._sender, daemon=True)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        try:
            if self.rate is not None:
                for fraction in (0.5, 1.0):
                    moment = fraction * self.duration
                    time.sleep(max(0.0, self.t0 + moment - time.perf_counter()))
                    self.backlog.append(self._backlog_at(moment))
        finally:
            for thread in threads:
                thread.join()
        ends = [s.end for s in self.requests if s.end is not None]
        self.elapsed = max(ends + [self.duration])
        self.window = (self.t0, self.t0 + self.elapsed)
        return self

    def sent(self):
        return [s for s in self.requests if s.start is not None]

    def latencies(self):
        return [s.latency for s in self.requests]

    def meets_limit(self):
        """p90 (unsent counted as misses) within the limit, all 200, no growth."""
        if any(s.status != 200 for s in self.sent()):
            return False
        growing = self.backlog[-1] >= CONNECTIONS and self.backlog[-1] > self.backlog[0]
        return not growing and p90(self.latencies()) <= LIMIT_S


def search_max_rate(port, stream, rng, held, saturation_rps):
    """Highest :data:`LADDER` rate that meets the limit, by bisection.

    ``held`` is the highest fixed rate whose phase met the limit (None if
    none did); the search starts from the highest rung not above it and
    takes the first rung at or above ``saturation_rps`` as failing.
    Returns ``(rate or None, probe phases)``.
    """
    good = max((k for k, r in enumerate(LADDER) if held is not None and r <= held),
               default=-1)
    bad = min((k for k, r in enumerate(LADDER) if r >= saturation_rps), default=len(LADDER))
    best, probes = held, []
    while bad - good > 1 and len(probes) < MAX_PROBES:
        rung = (good + bad) // 2
        phase = Phase(port, stream, rng, LADDER[rung], PROBE_REQUESTS,
                      "probe%d" % rung, give_up=True).run()
        probes.append(phase)
        if phase.meets_limit():
            good, best = rung, max(LADDER[rung], best or 0.0)
        else:
            bad = rung
    return best, probes


def check(phases, out):
    reference = oracle.Reference()
    for phase in phases:
        for sent in phase.sent():
            out.attempted += 1
            if sent.status != 200:
                out.fail("%s answered %s" % (sent.path, sent.status))
                continue
            if sent.path == "/v1/sweep":
                expected = reference.sweep_body(sent.body)
            else:
                expected = reference.importance_body(sent.body)
            if json.loads(sent.data) != expected:
                out.fail("%s reply differs from the reference" % sent.path)


def run(ctx):
    rng = random.Random(ctx.seed)
    out = Outcome()
    _, cache, loaded = ctx.compile_native()  # a host pays this once: not in set-up
    ctx.pin_native(cache)
    out.report["native_kernel"] = loaded
    stream = request_stream(rng)
    # phases of whole blocks of eight, sized to the run length
    light_n = max(8, 8 * round(0.4 * ctx.seconds * LIGHT / 8))
    heavy_n = max(8, 8 * round(0.4 * ctx.seconds * HEAVY / 8))

    if not ctx.trace:
        setups = SetUps()

        def stop(server):
            if "Traceback" in server.stop():
                out.fail("server stderr has a traceback")

        def new_server():
            return setups.sample(lambda: start_server(ctx))

        server = new_server()
        try:
            light = Phase(server.port, stream, rng, LIGHT, light_n, "light").run()
            heavy = Phase(server.port, stream, rng, HEAVY, heavy_n, "heavy").run()
            saturation = Phase(server.port, stream, rng, None,
                               max(8, 8 * round(0.15 * ctx.seconds)), "sat").run()
            sat_rps = len(saturation.requests) / saturation.elapsed
            held = max((p.rate for p in (light, heavy) if p.meets_limit()), default=None)
            max_rps, probes = search_max_rate(server.port, stream, rng, held, sat_rps)
            rss = server.peak_rss_mb()
        finally:
            stop(server)
        stop(new_server())
        check([light, heavy, saturation] + probes, out)
        stop(new_server())
        light_lat, heavy_lat = light.latencies(), heavy.latencies()
        answered = [s for p in [light, heavy, saturation] + probes for s in p.sent()]
        out.put("points_per_s", best_points_per_s(
            [((s.path, s.body["benchmark"], s.repeat), s.points, s.latency) for s in answered]),
            len(answered))
        headline = [s.latency for s in answered if s.path == "/v1/sweep"
                    and s.body["benchmark"] == "ESEN4x2" and not s.repeat]
        out.put("sweep_best_ms", 1e3 * min(headline), len(headline))
        out.put("peak_rss_mb", rss, 1)
        setups.put(out)
        sat_points = sum(s.points for s in saturation.requests if s.status == 200)
        out.report["http"] = {
            "light_p50_ms": 1e3 * median(light_lat), "light_p90_ms": 1e3 * p90(light_lat),
            "heavy_p50_ms": 1e3 * median(heavy_lat), "heavy_p90_ms": 1e3 * p90(heavy_lat),
            "light_n": len(light_lat), "heavy_n": len(heavy_lat),
            "saturation_rps": sat_rps, "saturation_points_per_s": sat_points / saturation.elapsed,
            "max_rps": max_rps,
            "probes": [[p.rate, p.meets_limit(), len(p.requests)] for p in probes],
            "backlog": {"light": light.backlog, "heavy": heavy.backlog},
            "gen_lag_p90_ms": 1e3 * p90([s.lag for s in light.sent() + heavy.sent()]),
        }
        return out

    # an untraced light phase, then a traced server for light + heavy
    server = start_server(ctx)
    try:
        plain = Phase(server.port, stream, rng, LIGHT, light_n, "plain").run()
    finally:
        err = server.stop()
    server = start_server(ctx, trace_dir=ctx.fresh_dir("trace"))
    try:
        before = server.counters()
        light = Phase(server.port, stream, rng, LIGHT, light_n, "light").run()
        heavy = Phase(server.port, stream, rng, HEAVY, heavy_n, "heavy").run()
        after = server.counters()
    finally:
        err += server.stop()
    if "Traceback" in err:
        out.fail("server stderr has a traceback")
    check([plain, light, heavy], out)

    requests = light.sent() + heavy.sent()
    windows = [light.window, heavy.window]
    table = spans.LayerTable()
    table.add_counters({k: after[k] - before[k] for k in COUNTERS})
    by_rid, service = {}, 0.0
    for _, recorded, _, _ in spans.read_dir(server.trace_dir):
        table.add_spans(recorded, windows)
        for span in recorded:
            if span[0] == "server.request":
                by_rid[span[5]["rid"]] = span[2] - span[1]
            elif (span[0] == "engine.service.batch" and span[3] == -1
                  and any(lo <= span[1] <= hi for lo, hi in windows)):
                service += span[2] - span[1]
    wall = sum(s.latency for s in requests)
    covered = sum(s.lag + by_rid.get(s.rid, 0.0) for s in requests)
    n = len(requests)
    mean_latency = lambda phase: sum(phase.latencies()) / len(phase.requests)  # noqa: E731
    layer_metrics(
        out, table, n, wall, covered,
        overhead=mean_latency(light) / mean_latency(plain),
        lag_p90_ms=1e3 * p90([s.lag for s in requests]),
        server={
            "server.service_ms": 1e3 * service / n,
            "server.overhead_ms": 1e3 * (sum(s.latency - s.lag for s in requests) - service) / n,
        },
    )
    return out
