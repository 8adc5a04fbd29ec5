from dataclasses import replace

import numpy as np
import pytest

from treebelief import bench, exact
from treebelief.dynamic import DynamicEngine
from treebelief.errors import ScaleError, UsageError
from util import assert_same_evidence, evidence_state


def spy_on_generator(monkeypatch, shape):
    """Replace `shape`'s generator by one that only records its calls; the
    list of their arguments."""
    calls = []
    monkeypatch.setitem(bench.SHAPES, shape, (lambda *a: calls.append(a), bench.SHAPES[shape][1]))
    return calls


class TestGenerators:
    def test_chain_shape(self):
        t = bench.make_chain(10, 2, np.random.default_rng(0))
        assert t.validate() == []
        assert len(t.names) == 21
        assert len(t.in_order_leaves()) == 11

    def test_balanced_shape(self):
        t = bench.make_balanced(8, 3, np.random.default_rng(1))
        assert t.validate() == []
        assert len(t.in_order_leaves()) == 8

    def test_random_shape(self):
        t = bench.make_random(15, 2, np.random.default_rng(2))
        assert t.validate() == []
        assert sum(1 for n in t.names if not t.is_leaf(n)) == 15

    def test_unknown_shape(self):
        with pytest.raises(UsageError):
            bench.make_model("ring", 8, 2, np.random.default_rng(3))

    @pytest.mark.parametrize("shape", list(bench.SHAPES))
    def test_node_count_known_before_build(self, shape):
        count = bench.SHAPES[shape][1]
        for size in range(2 if shape == "balanced" else 1, 40):
            t = bench.make_model(shape, size, 2, np.random.default_rng(size))
            assert count(size) == len(t.names), size

    @pytest.mark.parametrize(
        "shape, size",
        [("chain", 10**6), ("random", 10**6), ("balanced", 2**20 + 1), ("balanced", 2**20)],
    )
    def test_node_limit_checked_before_build(self, monkeypatch, shape, size):
        calls = spy_on_generator(monkeypatch, shape)
        with pytest.raises(ScaleError, match="exceeds bench limit"):
            bench.make_model(shape, size, 2, np.random.default_rng(0))
        assert calls == []

    def test_largest_size_within_limit_reaches_the_generator(self, monkeypatch):
        calls = spy_on_generator(monkeypatch, "chain")
        size = (bench.MAX_BENCH_NODES - 1) // 2
        bench.make_model("chain", size, 2, np.random.default_rng(0))
        assert [a[0] for a in calls] == [size]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_before_build(self, monkeypatch, k):
        calls = spy_on_generator(monkeypatch, "chain")
        with pytest.raises(UsageError, match=f"k must be >= 1, got {k}"):
            bench.make_model("chain", 4, k, np.random.default_rng(0))
        assert calls == []


class TestEngineWrappers:
    def test_three_engines_agree(self):
        rng = np.random.default_rng(4)
        tree = bench.make_model("random", 10, 2, rng)
        updates, queries = bench.tree_targets(tree)
        tree.set_evidence((leaf, rng.random(2) * 1e-300) for leaf in updates[:3])
        script = bench.make_script(updates, queries, tree.k, 12, rng)
        base = evidence_state(tree)
        answers = {}
        for name in bench.ENGINES:
            tree.drop_evidence(tree.evidence)
            tree.set_evidence(base[0].items())
            assert_same_evidence(tree, base)
            engine = bench.make_engine(name, tree)
            out = []
            for op, target, lik in script:
                if op == "update":
                    engine.update_evidence(target, lik)
                else:
                    out.append(engine.bel_query(target))
            answers[name] = out
        for name in ("path", "hierarchy"):
            for a, b in zip(answers["full"], answers[name]):
                assert np.allclose(a, b, atol=1e-9)


class TestEngineRegistry:
    def test_names_map_to_engine_classes(self):
        tree = bench.make_model("chain", 4, 2, np.random.default_rng(0))
        assert bench.ENGINES == ("full", "path", "hierarchy")
        assert isinstance(bench.make_engine("hierarchy", tree), DynamicEngine)
        assert isinstance(bench.make_engine("path", tree), exact.PropagationState)


class TestRunBench:
    def test_csv_shape(self):
        recs = bench.run_bench("chain", [8, 16], 2, 6, seed=0)
        csv = bench.to_csv(recs)
        lines = csv.strip().split("\n")
        assert lines[0] == bench.CSV_HEADER
        # 2 sizes x 3 engines x 2 op kinds
        assert len(lines) == 1 + 12
        for line in lines[1:]:
            assert len(line.split(",")) == 9

    def test_zero_ops_header_only(self):
        recs = bench.run_bench("chain", [8], 2, 0, seed=0)
        assert bench.to_csv(recs) == bench.CSV_HEADER + "\n"

    def test_deterministic_modulo_ns(self):
        def strip_ns(records):
            return [
                (r.engine, r.shape, r.n, r.k, r.op, r.count_mv, r.count_mm)
                for r in records
            ]

        a = bench.run_bench("random", [8, 12], 2, 10, seed=5)
        b = bench.run_bench("random", [8, 12], 2, 10, seed=5)
        assert strip_ns(a) == strip_ns(b)

    def test_one_seed_same_records_twice(self):
        """Every field but the wall time repeats."""
        a, b = (bench.run_bench("balanced", [16], 3, 40, seed=8) for _ in range(2))
        assert [replace(r, ns_total=0) for r in a] == [replace(r, ns_total=0) for r in b]
        assert len(a) == 2 * len(bench.ENGINES)

    def test_negative_ops_rejected_before_any_work(self, monkeypatch):
        built = []
        monkeypatch.setattr(bench, "make_model", lambda *a: built.append(a))
        with pytest.raises(UsageError, match="ops must be >= 0, got -3"):
            bench.run_bench("chain", [8], 2, -3, 0)
        assert built == []

    def test_sizes_must_ascend(self):
        with pytest.raises(UsageError):
            bench.run_bench("chain", [16, 8], 2, 2, seed=0)

    def test_unknown_engine_rejected_before_any_work(self, monkeypatch):
        built = []
        monkeypatch.setattr(bench, "make_model", lambda *a: built.append(a))
        with pytest.raises(UsageError, match="unknown engine 'bogus'"):
            bench.run_bench("chain", [8], 2, 4, 0, engines=("full", "bogus"))
        assert built == []

    def test_scaling_trend(self):
        # hierarchy counts grow in log N, full grows in N
        recs = bench.run_bench(
            "chain", [64, 256], 2, 20, seed=1, engines=("full", "hierarchy")
        )
        by = {(r.engine, r.n, r.op): r for r in recs}
        full_growth = by[("full", 256, "query")].count_mv / by[("full", 64, "query")].count_mv
        hier_growth = (
            by[("hierarchy", 256, "query")].count_mv
            / by[("hierarchy", 64, "query")].count_mv
        )
        assert full_growth > 3.0  # linear: x4 expected
        assert hier_growth < 2.0  # logarithmic: ~x1.3 expected


class TestCycleRatio:
    def test_chain_speedup(self):
        r = bench.cycle_op_ratio(300, 2, cycles=20, seed=0)
        assert r["nodes"] == 601
        assert r["ratio"] >= 5.0
