"""Sweep-service invariants: reuse correctness, caching, fan-out."""

import pytest

from repro.core.method import YieldAnalyzer
from repro.core.problem import YieldProblem
from repro.distributions import ComponentDefectModel, PoissonDefectDistribution
import repro.engine.service as service_module
from repro.engine.service import (
    SweepPoint,
    SweepService,
    result_key,
    structure_key,
)
from repro.faulttree import Circuit, FaultTreeBuilder
from repro.faulttree.parser import loads
from repro.ordering import OrderingSpec
from repro.soc import benchmark_problem


def build_tree():
    ft = FaultTreeBuilder("svc-tmr")
    ft.set_top(ft.k_out_of_n_failed(2, ["M1", "M2", "M3"]))
    return ft.build()


TREE = build_tree()


def make_problem(mean_defects):
    model = ComponentDefectModel.uniform(["M1", "M2", "M3"], lethality=0.8)
    distribution = PoissonDefectDistribution(mean=mean_defects)
    return YieldProblem(TREE, model, distribution, name="svc-tmr")


MEANS = [0.4, 0.8, 1.2, 1.6, 2.0]


class TestStructureReuse:
    def test_five_point_density_sweep_builds_one_structure(self):
        service = SweepService()
        rows = service.density_sweep(make_problem, MEANS, max_defects=3)
        assert len(rows) == len(MEANS)
        assert service.stats.structures_built == 1
        assert service.stats.points_evaluated == len(MEANS)

    def test_sweep_results_match_the_serial_analyzer(self):
        service = SweepService()
        rows = service.density_sweep(make_problem, MEANS, max_defects=3)
        analyzer = YieldAnalyzer()
        for (mean, estimate, truncation), expected_mean in zip(rows, MEANS):
            reference = analyzer.evaluate(make_problem(expected_mean), max_defects=3)
            assert mean == expected_mean
            assert truncation == reference.truncation
            assert estimate == pytest.approx(reference.yield_estimate, abs=1e-12)

    def test_batch_results_keep_request_order(self):
        service = SweepService()
        points = [SweepPoint(make_problem(m), max_defects=3) for m in MEANS]
        results = list(reversed(service.evaluate_batch(list(reversed(points)))))
        forward = service.evaluate_batch(points)
        for a, b in zip(results, forward):
            assert a.yield_estimate == pytest.approx(b.yield_estimate, abs=1e-15)

    def test_reused_points_are_flagged(self):
        service = SweepService()
        points = [SweepPoint(make_problem(m), max_defects=3) for m in MEANS]
        results = service.evaluate_batch(points)
        flags = sorted(r.extra["structure_reused"] for r in results)
        assert flags[0] == 0.0  # the point that paid for the build
        assert flags[-1] == 1.0  # everyone else rode along

    def test_truncation_sweep_is_monotone(self):
        service = SweepService()
        rows = service.truncation_sweep(make_problem(1.0), [1, 2, 3, 4])
        estimates = [estimate for _, estimate, _ in rows]
        bounds = [bound for _, _, bound in rows]
        assert estimates == sorted(estimates)
        assert bounds == sorted(bounds, reverse=True)

    def test_epsilon_resolves_truncation_per_point(self):
        service = SweepService(epsilon=1e-2)
        loose = service.evaluate(make_problem(1.0))
        tight = service.evaluate(make_problem(1.0), epsilon=1e-6)
        assert tight.truncation > loose.truncation
        assert tight.error_bound <= 1e-6


class TestResultCaching:
    def test_repeated_sweep_hits_the_memory_cache(self):
        service = SweepService()
        service.density_sweep(make_problem, MEANS, max_defects=3)
        evaluated = service.stats.points_evaluated
        service.density_sweep(make_problem, MEANS, max_defects=3)
        assert service.stats.points_evaluated == evaluated
        assert service.stats.result_cache_hits == len(MEANS)

    def test_disk_cache_survives_service_instances(self, tmp_path):
        cache_dir = str(tmp_path / "yield-cache")
        first = SweepService(cache_dir=cache_dir)
        rows = first.density_sweep(make_problem, MEANS, max_defects=3)

        second = SweepService(cache_dir=cache_dir)
        cached_rows = second.density_sweep(make_problem, MEANS, max_defects=3)
        assert second.stats.disk_cache_hits == len(MEANS)
        assert second.stats.structures_built == 0
        for row, cached in zip(rows, cached_rows):
            assert cached[1] == pytest.approx(row[1], abs=1e-15)

    def test_different_densities_never_collide(self):
        ordering = OrderingSpec("w", "ml")
        key_a = result_key(make_problem(0.5), 3, ordering)
        key_b = result_key(make_problem(0.6), 3, ordering)
        assert key_a != key_b
        # but the structure is shared
        assert structure_key(make_problem(0.5), 3, ordering) == structure_key(
            make_problem(0.6), 3, ordering
        )

    def test_structure_lru_is_bounded(self):
        service = SweepService(max_structures=1)
        service.evaluate(make_problem(1.0), max_defects=2)
        service.evaluate(make_problem(1.0), max_defects=3)
        service.evaluate(make_problem(1.0), max_defects=4)
        assert len(service._structures) == 1

    def test_result_cache_is_bounded(self):
        service = SweepService(max_results=3)
        service.density_sweep(make_problem, MEANS, max_defects=2)
        assert len(service._results) == 3


#: Circuit digests as the store has always keyed them; a change here turns
#: every existing store entry and result-cache file into a miss.
GOLDEN_DIGESTS = {
    "ESEN4x2": "a797e750a20a3f0b8b04f0c29aeeb930e5e0e320431dcd4d2a4df5e071b7e615",
    "MS4": "94ad825aa252ec7ea201a5c62ffe78ead132f530d4e9987b1573143207394e52",
}

PARSED_TREE = """
toplevel SYSTEM;
SYSTEM and MASTERS CLUSTER1;
MASTERS and IPM_1 IPM_2;
CLUSTER1 2of3 IPS_1 IPS_2 IPS_3;
IPM_1 prob 0.1;
IPM_2 prob 0.1;
IPS_1 prob 0.05;
IPS_2 prob 0.05;
IPS_3 prob 0.05;
"""


class TestKeys:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_benchmark_digests_are_pinned(self, name):
        assert benchmark_problem(name).fault_tree.digest() == GOLDEN_DIGESTS[name]

    def test_parsed_tree_digest_is_pinned(self):
        circuit, _ = loads(PARSED_TREE)
        assert circuit.digest() == (
            "5cd41bdd9b0d5177fdd5544a4a213596ad12f0e74a8dd8f1c16db07a1284e9a8"
        )

    def test_result_key_extends_a_given_structure_key(self):
        ordering = OrderingSpec("w", "ml")
        problem = make_problem(0.7)
        skey = structure_key(problem, 3, ordering)
        full = result_key(problem, 3, ordering, skey)
        assert full == result_key(problem, 3, ordering)
        assert full[: len(skey)] == skey

    def test_warm_sweep_digests_once_and_keys_once_per_point(self, tmp_path, monkeypatch):
        densities = [0.5 + 0.025 * i for i in range(96)]

        def factory(mean):
            return benchmark_problem("MS2", mean_defects=mean)

        warm = SweepService(store_dir=str(tmp_path / "store"))
        warm.prime_structure(factory(1.0), 3)

        digests = []
        original_digest = Circuit._compute_digest

        def counting_digest(circuit):
            digests.append(circuit)
            return original_digest(circuit)

        structure_keys = []
        original_key = service_module.structure_key

        def counting_key(*args, **kwargs):
            structure_keys.append(args)
            return original_key(*args, **kwargs)

        built = warm.stats.structures_built
        monkeypatch.setattr(Circuit, "_compute_digest", counting_digest)
        monkeypatch.setattr(service_module, "structure_key", counting_key)
        rows = warm.density_sweep(factory, densities, max_defects=3)
        assert len(digests) <= 1
        assert len(structure_keys) == len(densities)
        assert warm.stats.structures_built == built
        monkeypatch.undo()

        reference = SweepService().density_sweep(factory, densities, max_defects=3)
        assert rows == reference  # bit for bit


class TestSharedMemoryDispatch:
    DENSITIES = [0.2 + 0.05 * index for index in range(48)]

    def run_sweep(self, tmp_path, name, **kwargs):
        service = SweepService(
            workers=2, shard_size=8, store_dir=str(tmp_path / name), **kwargs
        )
        rows = service.density_sweep(make_problem, self.DENSITIES, max_defects=3)
        service.close()
        return service.stats, rows

    def test_shm_dispatch_matches_pickled_dispatch_exactly(self, tmp_path):
        reference = SweepService().density_sweep(
            make_problem, self.DENSITIES, max_defects=3
        )
        shm_stats, shm_rows = self.run_sweep(tmp_path, "shm")
        pickled_stats, pickled_rows = self.run_sweep(
            tmp_path, "pickled", use_shared_memory=False
        )
        assert shm_rows == reference  # bit-for-bit on every route
        assert pickled_rows == reference
        if shm_stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert pickled_stats.shm_bytes == 0

    def test_shm_shrinks_the_pickled_payload(self, tmp_path):
        shm_stats, _ = self.run_sweep(tmp_path, "shm")
        pickled_stats, _ = self.run_sweep(
            tmp_path, "pickled", use_shared_memory=False
        )
        if shm_stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert shm_stats.shm_bytes > 0
        # the problems no longer ride along with every shard: the payload
        # shrinks to indices plus a shared-memory block name
        assert shm_stats.shard_payload_bytes * 10 <= pickled_stats.shard_payload_bytes

    def test_workers_mmap_the_store_on_shm_dispatch(self, tmp_path):
        stats, _ = self.run_sweep(tmp_path, "shm")
        if stats.shards_dispatched == 0:
            pytest.skip("platform cannot spawn worker processes")
        assert stats.mmap_loads >= 1  # each worker maps the fused arrays
        assert stats.batched_passes >= stats.shards_dispatched


class TestParallelFanOut:
    def test_worker_fan_out_matches_serial_results(self):
        serial = SweepService()
        serial_rows = serial.truncation_sweep(make_problem(1.0), [2, 3, 4])

        parallel = SweepService(workers=2)
        parallel_rows = parallel.truncation_sweep(make_problem(1.0), [2, 3, 4])

        for a, b in zip(serial_rows, parallel_rows):
            assert a[0] == b[0]
            assert b[1] == pytest.approx(a[1], abs=1e-15)
            assert b[2] == pytest.approx(a[2], abs=1e-15)

    def test_single_group_batches_stay_in_process(self):
        service = SweepService(workers=4)
        service.density_sweep(make_problem, MEANS, max_defects=3)
        assert service.stats.parallel_batches == 0
        assert service.stats.structures_built == 1

    def test_worker_built_structures_serve_later_batches(self):
        service = SweepService(workers=2)
        service.truncation_sweep(make_problem(1.0), [2, 3])
        built = service.stats.structures_built
        assert len(service._structures) == 2
        # same structures, different defect model: no rebuild anywhere
        service.truncation_sweep(make_problem(1.5), [2, 3])
        assert service.stats.structures_built == built
        assert service.stats.structure_reuses == 2
