"""Unit tests for repro._util."""

import random
from collections import deque

import pytest

from repro._util import (
    check_name,
    format_table,
    percent,
    stable_unique,
    topological_order,
)
from repro.corpus.families import corpus_circuit, tier_specs
from repro.errors import CombinationalCycleError


def reference_order(nodes, predecessors):
    """A plain dict-and-deque Kahn sort: the oracle of the index-based
    ``topological_order`` (same FIFO order, duplicates counted)."""
    node_list = list(nodes)
    node_set = set(node_list)
    indegree = {}
    successors = {n: [] for n in node_list}
    for n in node_list:
        preds = [p for p in predecessors(n) if p in node_set]
        indegree[n] = len(preds)
        for p in preds:
            successors[p].append(n)
    queue = deque(n for n in node_list if indegree[n] == 0)
    order = []
    while queue:
        n = queue.popleft()
        order.append(n)
        for s in successors[n]:
            indegree[s] -= 1
            if indegree[s] == 0:
                queue.append(s)
    assert len(order) == len(node_list), "reference input has a cycle"
    return order


def random_dag(rng, n):
    """Nodes in shuffled order; each reads up to four earlier nodes of a
    hidden rank order, with repeats, plus names outside the node set."""
    ranked = [f"n{i}" for i in range(n)]
    preds = {}
    for i, node in enumerate(ranked):
        picks = [rng.choice(ranked[:i]) for _ in range(rng.randint(0, 4))] \
            if i else []
        if picks and rng.random() < 0.3:
            picks.append(picks[0])  # a duplicate fanin
        if rng.random() < 0.3:
            picks.insert(rng.randint(0, len(picks)), f"ext{i}")
        preds[node] = picks
    nodes = list(ranked)
    rng.shuffle(nodes)
    return nodes, preds


class TestTopologicalOrder:
    def test_linear_chain(self):
        preds = {"a": [], "b": ["a"], "c": ["b"]}
        order = topological_order(["c", "b", "a"], lambda n: preds[n])
        assert order.index("a") < order.index("b") < order.index("c")

    def test_diamond(self):
        preds = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}
        order = topological_order("abcd", lambda n: preds[n])
        assert order[0] == "a" and order[-1] == "d"

    def test_external_predecessors_ignored(self):
        order = topological_order(["x"], lambda n: ["not-in-set"])
        assert order == ["x"]

    def test_cycle_detected(self):
        preds = {"a": ["b"], "b": ["a"]}
        with pytest.raises(CombinationalCycleError) as exc:
            topological_order("ab", lambda n: preds[n])
        assert set(exc.value.cycle) == {"a", "b"}

    def test_self_loop(self):
        with pytest.raises(CombinationalCycleError):
            topological_order(["a"], lambda n: ["a"])

    def test_empty(self):
        assert topological_order([], lambda n: []) == []

    def test_deterministic(self):
        preds = {c: [] for c in "abcdef"}
        first = topological_order("abcdef", lambda n: preds[n])
        second = topological_order("abcdef", lambda n: preds[n])
        assert first == second


class TestTopologicalOrderOracle:
    """The index-based sort returns exactly the reference Kahn order."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dags(self, seed):
        rng = random.Random(seed)
        nodes, preds = random_dag(rng, rng.randint(1, 60))
        assert topological_order(nodes, lambda n: preds[n]) == \
            reference_order(nodes, lambda n: preds[n])

    @pytest.mark.parametrize("name",
                             [spec.name for spec in tier_specs("small")])
    def test_small_corpus(self, name):
        circuit = corpus_circuit("small", name)
        gates = circuit.gates
        want = reference_order(
            gates, lambda g: [i for i in gates[g].inputs if i in gates])
        assert circuit.topo_gates() == want

    @pytest.mark.parametrize("seed", range(20))
    def test_cycle_is_real(self, seed):
        rng = random.Random(seed)
        nodes, preds = random_dag(rng, rng.randint(2, 40))
        # Close a loop: two nodes read each other, or one reads itself.
        order = reference_order(nodes, lambda n: preds[n])
        early, late = sorted(rng.sample(range(len(order)), 2))
        if rng.random() < 0.2:
            early = late
        preds[order[early]] = preds[order[early]] + [order[late]]
        preds[order[late]] = preds[order[late]] + [order[early]]
        with pytest.raises(CombinationalCycleError) as exc:
            topological_order(nodes, lambda n: preds[n])
        cycle = exc.value.cycle
        assert cycle and len(set(cycle)) == len(cycle)
        for i, node in enumerate(cycle):
            assert node in preds[cycle[(i + 1) % len(cycle)]]


class TestCheckName:
    def test_valid(self):
        assert check_name("G17_a.b[3]", "net") == "G17_a.b[3]"

    @pytest.mark.parametrize("bad", ["", "a b", "a(b", "x=y", "a,b", "a#b"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            check_name(bad, "net")

    def test_non_string(self):
        with pytest.raises(ValueError):
            check_name(3, "net")  # type: ignore[arg-type]


class TestStableUnique:
    def test_preserves_order(self):
        assert stable_unique([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_empty(self):
        assert stable_unique([]) == []


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [["a", 10], ["bb", 2]],
                            align="lr")
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert lines[2].startswith("a")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_align_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [], align="lrl")


class TestPercent:
    def test_basic(self):
        assert percent(110.0, 100.0) == pytest.approx(10.0)

    def test_decrease(self):
        assert percent(50.0, 100.0) == pytest.approx(-50.0)

    def test_zero_base(self):
        assert percent(5.0, 0.0) == 0.0
