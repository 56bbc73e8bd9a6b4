"""The correctness oracle: a serial, store-less, in-process ``SweepService``.

It is run after every timed window, so it never competes with the program
for the cores.  Library and HTTP outputs must equal it bit for bit (JSON
floats are shortest-repr, so a decoded value is the exact double); CLI
outputs must match ``M`` and the yields at the precision the CLI prints.
"""

from __future__ import annotations

import json


class Reference:
    """Recomputes every checked output; identical requests are computed once."""

    def __init__(self):
        from repro.engine.service import SweepService

        self.service = SweepService()
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _problems(self, benchmark, densities):
        from repro.soc import benchmark_problem

        return [benchmark_problem(benchmark, mean_defects=m) for m in densities]

    def sweep(self, benchmark, densities, max_defects=None):
        """``[(mean, yield, M)]`` as :meth:`SweepService.density_sweep` returns."""
        from repro.soc import benchmark_problem

        return self._once(
            ("sweep", benchmark, tuple(densities), max_defects),
            lambda: self.service.density_sweep(
                lambda m: benchmark_problem(benchmark, mean_defects=m),
                densities,
                max_defects=max_defects,
            ),
        )

    def gradients(self, benchmark, densities, max_defects):
        """Comparable view of :meth:`SweepService.gradient_batch` results."""
        from repro.engine.service import SweepPoint

        def compute():
            points = [SweepPoint(p, max_defects=max_defects)
                      for p in self._problems(benchmark, densities)]
            return gradient_view(self.service.gradient_batch(points))

        return self._once(("gradients", benchmark, tuple(densities), max_defects), compute)

    def sweep_body(self, body):
        """The JSON a correct ``POST /v1/sweep`` answers for ``body``."""
        from repro.engine.service import SweepPoint
        from repro.server.app import result_to_dict

        def compute():
            densities = body["densities"]
            points = [SweepPoint(p, max_defects=body.get("max_defects"))
                      for p in self._problems(body["benchmark"], densities)]
            results = self.service.evaluate_batch(points)
            return _json_roundtrip({
                "benchmark": body["benchmark"],
                "points": [result_to_dict(r, i, densities[i]) for i, r in enumerate(results)],
            })

        return self._once(("http", json.dumps(body, sort_keys=True)), compute)

    def importance_body(self, body):
        """The JSON a correct ``POST /v1/importance`` answers for ``body``."""
        from repro.engine.service import SweepPoint
        from repro.server.app import gradients_to_dict

        def compute():
            (problem,) = self._problems(body["benchmark"], [body["mean_defects"]])
            (gradients,) = self.service.gradient_batch(
                [SweepPoint(problem, max_defects=body.get("max_defects"))]
            )
            return _json_roundtrip(
                dict(gradients_to_dict(gradients), benchmark=body["benchmark"])
            )

        return self._once(("http", json.dumps(body, sort_keys=True)), compute)


def gradient_view(gradients):
    """Every number a gradient result carries, in a comparable form."""
    return [
        (g.name, g.truncation, g.yield_estimate, tuple(g.ranking()))
        for g in gradients
    ]


def _json_roundtrip(payload):
    return json.loads(json.dumps(payload))


def parse_cli_rows(stdout):
    """``[(mean text, M, yield text)]`` from the table ``repro sweep`` prints."""
    rows = []
    lines = stdout.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.startswith("------"))
    except StopIteration:
        return rows
    for line in lines[start + 1:]:
        fields = line.split()
        if len(fields) != 3 or not line[:1].strip():
            break
        rows.append((fields[0], int(fields[1]), fields[2]))
    return rows


def cli_matches(rows, expected):
    """Whether CLI table rows print exactly what the reference sweep gives."""
    want = [("%g" % mean, m, "%.6f" % y) for mean, y, m in expected]
    return rows == want
