"""Unit tests for the benchmark registry."""

import pytest

from repro.faulttree import CircuitError
from repro.soc import BENCHMARK_NAMES, BENCHMARKS, benchmark_problem

#: Table 1 of the paper.
PAPER_TABLE1 = {
    "MS2": 18,
    "MS4": 30,
    "MS6": 42,
    "MS8": 54,
    "MS10": 66,
    "ESEN4x1": 14,
    "ESEN4x2": 26,
    "ESEN4x4": 34,
    "ESEN8x1": 32,
    "ESEN8x2": 56,
    "ESEN8x4": 72,
}


class TestRegistry:
    def test_all_paper_benchmarks_are_registered(self):
        assert set(BENCHMARK_NAMES) == set(PAPER_TABLE1)
        assert list(BENCHMARKS) == BENCHMARK_NAMES

    @pytest.mark.parametrize("name,expected", sorted(PAPER_TABLE1.items()))
    def test_component_counts_reproduce_table1(self, name, expected):
        problem = benchmark_problem(name)
        assert problem.num_components == expected

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            benchmark_problem("MS3")

    def test_keyword_arguments_are_forwarded(self):
        problem = benchmark_problem("MS2", mean_defects=4.0, lethality=0.25)
        assert problem.lethality == pytest.approx(0.25)
        assert problem.lethal_defect_distribution().mean() == pytest.approx(1.0)


class TestSharedCircuits:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_density_shares_one_frozen_circuit(self, name):
        low = benchmark_problem(name, mean_defects=0.5)
        high = benchmark_problem(name, mean_defects=3.0, clustering=1.0)
        assert low.fault_tree is high.fault_tree
        with pytest.raises(CircuitError):
            low.fault_tree.add_input("EXTRA")
        assert low.lethal_defect_distribution().mean() != high.lethal_defect_distribution().mean()

    def test_arguments_are_validated_on_every_call(self):
        from repro.soc import esen_fault_tree

        shared = esen_fault_tree(4, 2)
        assert esen_fault_tree(4, 2, required_ipa=3, required_ipb=3) is shared
        assert esen_fault_tree(4, 2, required_ipa=2) is not shared
        with pytest.raises(ValueError):
            esen_fault_tree(4, 2, required_ipa=9)
        with pytest.raises(ValueError):
            esen_fault_tree(4, 3)
