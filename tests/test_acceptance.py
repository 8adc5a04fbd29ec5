"""Acceptance gate: ten criteria, one pass/fail line each.

Run with `pytest -rP tests/test_acceptance.py` to see the report lines for
passing criteria as well.
"""

import math

import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import cycle_op_ratio, make_chain, make_random
from treebelief.contract import build_hierarchy
from treebelief.dynamic import DynamicEngine
from treebelief.errors import InconsistentEvidenceError
from treebelief.tree import RawTree, binarize
from util import (
    post_random_evidence,
    random_binarized_tree,
    random_join_tree,
    random_polytree,
    updatable_leaves,
)


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_01_oracle_equivalence_small():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = 0
    while cases < 1000:
        k = 2 if rng.random() < 0.6 else 3
        raw_nodes = int(rng.integers(2, 8 if k == 2 else 6))
        t = random_binarized_tree(rng, raw_nodes, k)
        if len(t.names) > 14:
            continue
        post_random_evidence(t, rng, int(rng.integers(0, 5)), hard_prob=0.3)
        oracle = exact.joint_marginals(t)
        bel = exact.propagate_all(t)
        eng = DynamicEngine(t)
        for n in t.names:
            worst = max(worst, float(np.max(np.abs(oracle[n] - bel[n]))))
            worst = max(worst, float(np.max(np.abs(oracle[n] - eng.bel_query(n)))))
        cases += 1
    report(1, "small-scale oracle equivalence (1000 trees <= 14 nodes)",
           worst <= 1e-9, f"max |delta| = {worst:.2e}")


def test_02_oracle_equivalence_medium():
    rng = np.random.default_rng(102)
    worst = 0.0
    biggest = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        internal = int(np.exp(rng.uniform(np.log(2), np.log(4000))))
        t = make_random(internal, k, rng)
        biggest = max(biggest, len(t.names))
        eng = DynamicEngine(t)
        leaves = updatable_leaves(t)
        nodes = list(t.names)
        for step in range(100):
            if step % 2 == 0:
                leaf = leaves[int(rng.integers(len(leaves)))]
                eng.update_evidence(leaf, rng.random(k) + 0.01)
            else:
                node = nodes[int(rng.integers(len(nodes)))]
                bel = exact.propagate_all(t)
                d = float(np.max(np.abs(eng.bel_query(node) - bel[node])))
                worst = max(worst, d)
    report(2, "medium-scale oracle equivalence (100 trees, 100 interleaved ops)",
           worst <= 1e-9 and biggest <= 10**4,
           f"max |delta| = {worst:.2e}, largest tree {biggest} nodes")


def test_03_contraction_structure():
    rng = np.random.default_rng(103)
    trees = [
        ("chain", make_chain(10**5, 2, rng)),
        ("random", make_random(30000, 2, rng)),
        ("chain", make_chain(977, 2, rng)),
    ]
    ok = True
    details = []
    for name, t in trees:
        leaves = len(t.in_order_leaves())
        hier = build_hierarchy(t)
        top_ok = len(hier.levels[-1].contains) == 3
        bound = 4 * math.ceil(math.log2(leaves)) + 2
        levels_ok = len(hier.levels) <= bound
        edges = len(t.names) - 1
        fresh_ok = len(hier.recipes) <= 2 * edges
        leaf_counts = [len(lt.in_order_leaves()) for lt in hier.levels]
        ratios = [b / a for a, b in zip(leaf_counts, leaf_counts[1:])]
        ok = ok and top_ok and levels_ok and fresh_ok
        details.append(
            f"{name}: {leaves} leaves, {len(hier.levels)} levels (bound {bound}), "
            f"fresh {len(hier.recipes)}, "
            f"per-pass leaf ratio {min(ratios):.2f}..{max(ratios):.2f}"
        )
    report(3, "contraction structure (3-node top, level bound, fresh-matrix bound)",
           ok, "; ".join(details))


def test_04_logarithmic_work_bounds():
    rng = np.random.default_rng(104)
    max_mm = {}
    max_mv = {}
    ok = True
    for m in range(6, 15):
        t = make_chain(2**m, 2, rng)
        eng = DynamicEngine(t)
        leaves = updatable_leaves(t)
        nodes = list(t.names)
        mm = mv = 0
        for _ in range(25):
            before = eng.counter.snapshot()
            eng.update_evidence(leaves[int(rng.integers(len(leaves)))], rng.random(2) + 0.01)
            mm = max(mm, eng.counter.delta(before).mat_mat)
            before = eng.counter.snapshot()
            eng.bel_query(nodes[int(rng.integers(len(nodes)))])
            mv = max(mv, eng.counter.delta(before).mat_vec)
        max_mm[m], max_mv[m] = mm, mv
        ok = ok and mm <= m + 1 and mv <= 6 * (m + 1)
    for m in range(6, 14):
        ok = ok and (max_mm[m + 1] - max_mm[m]) <= 8
        ok = ok and (max_mv[m + 1] - max_mv[m]) <= 8
    report(4, "logarithmic work on chains 2^6..2^14 (mm<=m+1, mv<=6(m+1), affine growth)",
           ok, f"mm per update {max_mm}, mv per query {max_mv}")


def test_05_update_rebuild_bitwise():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(200):
        t = random_binarized_tree(rng, int(rng.integers(2, 40)), 2)
        eng = DynamicEngine(t)
        leaves = updatable_leaves(t)
        for _ in range(int(rng.integers(1, 15))):
            eng.update_evidence(
                leaves[int(rng.integers(len(leaves)))],
                np.round(rng.random(2) + 0.01, 6),
            )
        rebuilt = build_hierarchy(eng.tree)
        ok = ok and len(rebuilt.recipes) == len(eng.hier.recipes)
        names, rebuilt_names = eng.hier.names(), rebuilt.names()
        for a, b in zip(eng.hier.recipes, rebuilt.recipes):
            ok = ok and names[a.target] == rebuilt_names[b.target]
            ok = ok and np.array_equal(a.target.value, b.target.value)
        if not ok:
            break
    report(5, "update-rebuild bitwise equivalence (200 random cases)", ok)


def test_06_golden_chain():
    rng = np.random.default_rng(106)
    raw = RawTree(2)
    names = ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"]
    for i, nm in enumerate(names):
        raw.add_node(i, nm)
    raw.set_root(0, [0.5, 0.5])
    for p, c in [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]:
        m = rng.random((2, 2)) + 0.05
        raw.add_edge(p, c, m / m.sum(axis=1, keepdims=True))
    t = binarize(raw)
    eng = DynamicEngine(t)
    t1_ok = eng.hier.levels[1].contains == {0, 1, 4, 5, 8}
    t2_ok = eng.hier.levels[2].contains == {0, 1, 8}
    eng.update_evidence(7, [1, 0])  # e4
    r1 = eng.hier.recipe_by_leaf[7]
    names = eng.hier.names()
    chain_ok = (
        eng.last_recipe_recomputes == 2
        and names[r1.target][:2] == (4, "B")  # B(x3), born at level 1
        and names[r1.target][2] == 1
        and names[eng.hier.consumer(r1.target).target][:3] == (0, "B", 2)  # B(x1) at 2
    )
    report(6, "golden length-4 chain (T_1/T_2 node sets, e4 recipe chain)",
           t1_ok and t2_ok and chain_ok)


def test_07_jointree_factored_vs_expanded():
    rng = np.random.default_rng(107)
    worst = 0.0
    flops_ok = True
    for n, c in [(2, 1), (3, 1), (3, 2), (2, 2)]:
        for _ in range(5):
            tf, td, leaf_cliques, K = random_join_tree(rng, k=2, n=n, c=c, depth=3)
            ef, ed = DynamicEngine(tf), DynamicEngine(td)
            cf, cd = ef.counter, ed.counter
            for _ in range(6):
                leaf = leaf_cliques[int(rng.integers(len(leaf_cliques)))]
                lik = rng.random(K) + 0.05
                ef.update_evidence(leaf, lik)
                ed.update_evidence(leaf, lik)
                node = int(rng.integers(len(tf.names)))
                d = float(np.max(np.abs(ef.bel_query(node) - ed.bel_query(node))))
                worst = max(worst, d)
            if c < n:
                ff = ef.build_counter.flops + cf.flops
                fd = ed.build_counter.flops + cd.flops
                flops_ok = flops_ok and ff < fd
    report(7, "join-tree factored vs expanded (k=2, n<=3, c<=2)",
           worst <= 1e-9 and flops_ok,
           f"max |delta| = {worst:.2e}, factored flops < expanded when c < n: {flops_ok}")


def test_08_polytree_end_to_end():
    from treebelief.polytree import PolytreeEngine

    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(2, 4))
        pt = random_polytree(rng, n, k, max_parents=3)
        eng = PolytreeEngine(pt)
        evidence = {}
        for _ in range(int(rng.integers(1, 6))):
            var = int(rng.integers(n))
            lik = rng.random(k) + 0.01
            evidence[var] = lik
            eng.update_evidence(var, lik)
        oracle = pt.joint_conditionals(evidence)
        for v in pt.variables():
            worst = max(worst, float(np.max(np.abs(eng.bel_query(v) - oracle[v]))))
    report(8, "polytree end-to-end vs brute force (300 nets, <= 12 vars, p <= 3)",
           worst <= 1e-9, f"max |delta| = {worst:.2e}")


def test_09_chain_speedup_ratio():
    r = cycle_op_ratio(300, 2, cycles=100, seed=109)
    report(9, "600-node k=2 chain per-cycle matrix-op ratio, full vs hierarchy",
           r["ratio"] >= 5.0,
           f"ratio = {r['ratio']:.1f} (reference value ~10; hard gate >= 5); "
           f"full {r['full']:.0f} ops/cycle, hierarchy {r['hierarchy']:.1f} ops/cycle")


def test_10_inconsistent_evidence_fuzzing():
    rng = np.random.default_rng(110)
    inconsistent_seen = 0
    ok = True
    for _ in range(300):
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [1.0, 0.0] if rng.random() < 0.5 else [0.6, 0.4])
        leaves, next_id = [0], 1
        for _ in range(int(rng.integers(1, 6))):
            pick = int(rng.integers(len(leaves)))
            node = leaves[pick]
            leaves[pick] = leaves[-1]
            leaves.pop()
            for _ in range(2):
                raw.add_node(next_id)
                if rng.random() < 0.6:  # structurally-zero deterministic edge
                    m = np.eye(2) if rng.random() < 0.5 else np.eye(2)[::-1].copy()
                else:
                    m = rng.random((2, 2)) + 0.05
                    m /= m.sum(axis=1, keepdims=True)
                raw.add_edge(node, next_id, m)
                leaves.append(next_id)
                next_id += 1
        t = binarize(raw)
        for leaf in updatable_leaves(t):
            if rng.random() < 0.7:
                v = np.zeros(2)
                v[int(rng.integers(2))] = 1.0
                t.set_evidence([(leaf, v)])

        outcomes = []
        for run in range(4):
            try:
                if run == 0:
                    beliefs = list(exact.propagate_all(t).values())
                elif run == 1:
                    beliefs = list(exact.joint_marginals(t).values())
                elif run == 2:
                    eng = DynamicEngine(t)
                    beliefs = [eng.bel_query(n) for n in t.names]
                else:
                    st = exact.PropagationState(t)
                    beliefs = [st.bel_query(n) for n in t.names]
                ok = ok and all(np.all(np.isfinite(b)) for b in beliefs)
                outcomes.append("ok")
            except InconsistentEvidenceError:
                outcomes.append("inconsistent")
        ok = ok and len(set(outcomes)) == 1  # all engines agree on the verdict
        if outcomes[0] == "inconsistent":
            inconsistent_seen += 1
    report(10, "inconsistent evidence raises cleanly in all engines (no NaN)",
           ok and inconsistent_seen >= 30,
           f"{inconsistent_seen}/300 fuzz cases were inconsistent")
