"""Unit tests for the gate-level circuit representation."""

import pytest

from repro.faulttree import Circuit, CircuitError, GateOp


def build_small_circuit():
    """out = (a AND b) OR (NOT c)"""
    circuit = Circuit("small")
    a = circuit.add_input("a")
    b = circuit.add_input("b")
    c = circuit.add_input("c")
    g1 = circuit.add_gate(GateOp.AND, [a, b])
    g2 = circuit.add_gate(GateOp.NOT, [c])
    g3 = circuit.add_gate(GateOp.OR, [g1, g2])
    circuit.set_output(g3, "out")
    return circuit


class TestConstruction:
    def test_inputs_are_deduplicated(self):
        circuit = Circuit()
        first = circuit.add_input("x")
        second = circuit.add_input("x")
        assert first == second
        assert circuit.num_inputs == 1

    def test_constants_are_shared(self):
        circuit = Circuit()
        assert circuit.add_const(True) == circuit.add_const(True)
        assert circuit.add_const(True) != circuit.add_const(False)

    def test_structural_sharing_of_gates(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        g1 = circuit.add_gate(GateOp.AND, [a, b])
        g2 = circuit.add_gate(GateOp.AND, [a, b])
        g3 = circuit.add_gate(GateOp.AND, [b, a])  # different fanin order
        assert g1 == g2
        assert g1 != g3

    def test_sharing_can_be_disabled(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        g1 = circuit.add_gate(GateOp.AND, [a, b], share=False)
        g2 = circuit.add_gate(GateOp.AND, [a, b], share=False)
        assert g1 != g2

    def test_invalid_fanin_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_gate(GateOp.AND, [0, 99])

    def test_invalid_arity_rejected(self):
        circuit = Circuit()
        a, b = circuit.add_input("a"), circuit.add_input("b")
        with pytest.raises(CircuitError):
            circuit.add_gate(GateOp.NOT, [a, b])

    def test_output_bookkeeping(self):
        circuit = build_small_circuit()
        assert circuit.outputs == {"out": circuit.primary_output}
        with pytest.raises(CircuitError):
            circuit.set_output(10_000)

    def test_primary_output_requires_single_output(self):
        circuit = Circuit()
        a = circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.primary_output
        circuit.set_output(a, "o1")
        circuit.set_output(a, "o2")
        with pytest.raises(CircuitError):
            circuit.primary_output

    def test_node_counts(self):
        circuit = build_small_circuit()
        assert circuit.num_inputs == 3
        assert circuit.num_gates == 3
        assert len(circuit) == 6


class TestEvaluation:
    def test_truth_table(self):
        circuit = build_small_circuit()
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    expected = (a and b) or (not c)
                    got = circuit.evaluate({"a": a, "b": b, "c": c})["out"]
                    assert got is expected

    def test_missing_input_raises(self):
        circuit = build_small_circuit()
        with pytest.raises(CircuitError):
            circuit.evaluate({"a": True, "b": False})

    def test_evaluate_output_named_and_unnamed(self):
        circuit = build_small_circuit()
        assignment = {"a": True, "b": True, "c": True}
        assert circuit.evaluate_output(assignment) is True
        assert circuit.evaluate_output(assignment, "out") is True
        with pytest.raises(CircuitError):
            circuit.evaluate_output(assignment, "nope")

    def test_constants_evaluate(self):
        circuit = Circuit()
        t = circuit.add_const(True)
        a = circuit.add_input("a")
        g = circuit.add_gate(GateOp.AND, [t, a])
        circuit.set_output(g, "out")
        assert circuit.evaluate({"a": True})["out"] is True
        assert circuit.evaluate({"a": False})["out"] is False


class TestStructuralQueries:
    def test_cone_and_support(self):
        circuit = Circuit()
        a, b, c = (circuit.add_input(x) for x in "abc")
        g = circuit.add_gate(GateOp.OR, [a, b])
        circuit.set_output(g, "out")
        support = circuit.support()
        assert [circuit.node(i).name for i in support] == ["a", "b"]
        assert c not in circuit.cone(circuit.primary_output)

    def test_depth(self):
        circuit = build_small_circuit()
        assert circuit.depth() == 2

    def test_fanouts(self):
        circuit = build_small_circuit()
        fanouts = circuit.fanouts()
        a = circuit.input_index("a")
        and_gate = [n.index for n in circuit.nodes if n.is_gate and n.op is GateOp.AND][0]
        assert and_gate in fanouts[a]

    def test_dfs_leftmost_visits_leftmost_branch_first(self):
        circuit = build_small_circuit()
        names = [
            circuit.node(i).name
            for i in circuit.dfs_leftmost()
            if circuit.node(i).is_input
        ]
        # out = (a AND b) OR (NOT c): left branch first -> a, b, then c
        assert names == ["a", "b", "c"]

    def test_dfs_visits_each_node_once(self):
        circuit = build_small_circuit()
        visited = list(circuit.dfs_leftmost())
        assert len(visited) == len(set(visited))

    def test_input_index_unknown(self):
        circuit = build_small_circuit()
        with pytest.raises(CircuitError):
            circuit.input_index("zzz")

    def test_stats(self):
        stats = build_small_circuit().stats()
        assert stats["inputs"] == 3
        assert stats["gates"] == 3
        assert stats["depth"] == 2


class TestFreezeAndDigest:
    def test_frozen_circuit_rejects_every_mutator(self):
        circuit = build_small_circuit().freeze()
        before = circuit.digest()
        with pytest.raises(CircuitError):
            circuit.add_input("d")
        with pytest.raises(CircuitError):
            circuit.add_const(True)
        with pytest.raises(CircuitError):
            circuit.add_gate(GateOp.AND, [0, 1])
        with pytest.raises(CircuitError):
            circuit.set_output(0, "other")
        with pytest.raises(CircuitError):
            circuit.name = "renamed"
        assert circuit.digest() == before
        assert len(circuit) == 6 and circuit.outputs == {"out": 5}

    def test_frozen_circuit_still_answers_queries(self):
        circuit = build_small_circuit()
        assert circuit.freeze() is circuit
        assert circuit.freeze() is circuit  # idempotent
        assert circuit.evaluate_output({"a": True, "b": True, "c": True}) is True
        assert circuit.has_input("a") and not circuit.has_input("d")

    def test_digest_is_computed_once(self, monkeypatch):
        circuit = build_small_circuit()
        calls = []
        original = Circuit._compute_digest

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Circuit, "_compute_digest", counting)
        first = circuit.digest()
        assert circuit.digest() == first
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.add_input("d"),
            lambda c: c.add_const(False),
            lambda c: c.add_gate(GateOp.XOR, [0, 1]),
            lambda c: c.set_output(0, "second"),
            lambda c: setattr(c, "name", "renamed"),
        ],
        ids=["add_input", "add_const", "add_gate", "set_output", "rename"],
    )
    def test_mutation_invalidates_the_cached_digest(self, mutate):
        circuit = build_small_circuit()
        before = circuit.digest()
        mutate(circuit)
        after = circuit.digest()
        assert after != before
        rebuilt = build_small_circuit()
        mutate(rebuilt)
        assert rebuilt.digest() == after  # the cache held nothing stale
