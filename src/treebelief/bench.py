"""Benchmark harness: random model generators, the engine registries (causal
trees and polytrees) with the two baseline engines, and CSV scaling tables.

Timing columns (ns) are reported for orientation only; every assertion made
elsewhere is on the instrumented matrix-op counters, which are deterministic
under a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import exact
from .dynamic import DynamicEngine
from .errors import ScaleError, UsageError
from .linalg import OpCounter
from .polytree import Polytree, PolytreeEngine
from .tree import CausalTree, RawTree, as_likelihood, binarize

CSV_HEADER = "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
MAX_BENCH_NODES = 2 * 10**6

def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    m = rng.random((rows, cols)) + 0.05
    return m / m.sum(axis=1, keepdims=True)


def make_chain(length: int, k: int, rng: np.random.Generator) -> CausalTree:
    """Backbone x_0..x_{L-1}; every x_t carries an evidence leaf, the last one
    two.  2L+1 nodes, L+1 evidence leaves."""
    if length < 1:
        raise UsageError("chain length must be >= 1")
    raw = RawTree(k)
    ev = lambda t: length + t
    for t in range(length):
        raw.add_node(t, f"x{t}")
    for t in range(length + 1):
        raw.add_node(ev(t), f"e{t}")
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    for t in range(length):
        raw.add_edge(t, ev(t), random_stochastic(rng, k, k))
        if t + 1 < length:
            raw.add_edge(t, t + 1, random_stochastic(rng, k, k))
    raw.add_edge(length - 1, ev(length), random_stochastic(rng, k, k))
    return binarize(raw)


def make_balanced(leaves: int, k: int, rng: np.random.Generator) -> CausalTree:
    """Full binary tree; `leaves` is rounded up to a power of two."""
    if leaves < 2:
        raise UsageError("balanced tree needs at least 2 leaves")
    depth = int(np.ceil(np.log2(leaves)))
    raw = RawTree(k)
    raw.add_node(0, "n0")
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            for _ in range(2):
                raw.add_node(next_id, f"n{next_id}")
                raw.add_edge(node, next_id, random_stochastic(rng, k, k))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return binarize(raw)


def make_random(internal: int, k: int, rng: np.random.Generator) -> CausalTree:
    """Random binary tree grown by splitting uniformly random leaves."""
    if internal < 1:
        raise UsageError("random tree needs at least 1 internal node")
    raw = RawTree(k)
    raw.add_node(0, "n0")
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    leaves = [0]
    next_id = 1
    for _ in range(internal):
        pick = int(rng.integers(len(leaves)))
        node = leaves[pick]
        leaves[pick] = leaves[-1]  # O(1) removal, order is irrelevant
        leaves.pop()
        for _ in range(2):
            raw.add_node(next_id, f"n{next_id}")
            raw.add_edge(node, next_id, random_stochastic(rng, k, k))
            leaves.append(next_id)
            next_id += 1
    return binarize(raw)


# each shape's generator, and the node count of its tree for a size it accepts
SHAPES = {
    "chain": (make_chain, lambda length: 2 * length + 1),
    "balanced": (make_balanced, lambda leaves: 2 * (1 << int(leaves - 1).bit_length()) - 1),
    "random": (make_random, lambda internal: 2 * internal + 1),
}


def make_model(shape: str, size: int, k: int, rng: np.random.Generator) -> CausalTree:
    """A `shape` tree of `size`, its arguments and node count checked first."""
    if shape not in SHAPES:
        raise UsageError(f"unknown shape {shape!r}")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    make, count = SHAPES[shape]
    if count(size) > MAX_BENCH_NODES:
        raise ScaleError(f"{count(size)} nodes exceeds bench limit {MAX_BENCH_NODES}")
    return make(size, k, rng)


# ----------------------------------------------------------------------
# engines: every one answers update_evidence(node, likelihood), bel_query(node)
# and counter, and is built as cls(model)


class FullEngine:
    """Linear baseline: every query reruns the full two-pass propagation."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counter = OpCounter()

    def update_evidence(self, leaf: int, likelihood) -> None:
        self.tree.set_evidence([(leaf, likelihood)])

    def bel_query(self, x: int) -> np.ndarray:
        x = self.tree.resolve(x)
        return exact.propagate_all(self.tree, self.counter)[x]


class PolytreeFullEngine:
    """Brute-force enumeration baseline for polytree variables."""

    def __init__(self, pt: Polytree):
        self.pt = pt
        self.evidence: dict = {}
        self.counter = OpCounter()

    def update_evidence(self, var, likelihood) -> None:
        if var not in self.pt.parents:
            raise UsageError(f"unknown variable {var}")
        self.evidence[var] = as_likelihood(likelihood, self.pt.k).copy()

    def bel_query(self, var) -> np.ndarray:
        if var not in self.pt.parents:
            raise UsageError(f"unknown variable {var}")
        return self.pt.joint_conditionals(self.evidence, self.counter)[var]


ENGINE_CLASSES = {
    "full": FullEngine,
    "path": exact.PropagationState,
    "hierarchy": DynamicEngine,
}
POLYTREE_ENGINE_CLASSES = {
    "hierarchy": PolytreeEngine,
    "full": PolytreeFullEngine,
}
ENGINES = tuple(ENGINE_CLASSES)


def make_engine(name: str, model):
    """Engine `name` over a CausalTree or a Polytree."""
    classes = POLYTREE_ENGINE_CLASSES if isinstance(model, Polytree) else ENGINE_CLASSES
    try:
        cls = classes[name]
    except KeyError:
        raise UsageError(f"unknown engine {name!r}")
    return cls(model)


# ----------------------------------------------------------------------


@dataclass
class BenchRecord:
    engine: str
    shape: str
    n: int
    k: int
    op: str
    count_mv: int
    count_mm: int
    ns_total: int
    ops: int

    def csv_row(self) -> str:
        per = self.ns_total // self.ops if self.ops else 0
        return (
            f"{self.engine},{self.shape},{self.n},{self.k},{self.op},"
            f"{self.count_mv},{self.count_mm},{self.ns_total},{per}"
        )


def make_script(updates, queries, k: int, ops: int, rng: np.random.Generator):
    """Deterministic alternating update/query op list shared by all engines.
    An update draws its target from `updates`, then k likelihood entries; a
    query draws its target from `queries`."""
    script = []
    for i in range(ops):
        if i % 2 == 0:
            target = updates[int(rng.integers(len(updates)))]
            script.append(("update", target, rng.random(k) + 0.05))
        else:
            script.append(("query", queries[int(rng.integers(len(queries)))], None))
    return script


def tree_targets(tree: CausalTree) -> tuple[list[int], list[int]]:
    """`make_script`'s pools: the updatable leaves in order, the non-dummies."""
    leaves = [l for l in tree.in_order_leaves() if l not in tree.dummies]
    return leaves, [n for n in tree.names if n not in tree.dummies]


def run_script(name: str, engine, script, shape: str, n: int, k: int) -> list[BenchRecord]:
    """Execute a script on the engine registered as `name`, returning one
    aggregate record per op kind that occurs in it."""
    totals = {"update": [0, 0, 0, 0], "query": [0, 0, 0, 0]}  # mv, mm, ns, ops
    for op, target, lik in script:
        before = engine.counter.snapshot()
        t0 = time.perf_counter_ns()
        if op == "update":
            engine.update_evidence(target, lik)
        else:
            engine.bel_query(target)
        ns = time.perf_counter_ns() - t0
        d = engine.counter.delta(before)
        agg = totals[op]
        agg[0] += d.mat_vec
        agg[1] += d.mat_mat
        agg[2] += ns
        agg[3] += 1
    return [
        BenchRecord(name, shape, n, k, op, *totals[op])
        for op in ("update", "query")
        if totals[op][3]
    ]


def run_bench(
    shape: str,
    sizes,
    k: int,
    ops: int,
    seed: int,
    engines=ENGINES,
) -> list[BenchRecord]:
    if ops < 0:
        raise UsageError(f"ops must be >= 0, got {ops}")
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise UsageError("sizes must be ascending")
    unknown = [name for name in engines if name not in ENGINE_CLASSES]
    if unknown:  # before any model is built or engine run
        raise UsageError(f"unknown engine {unknown[0]!r}")
    records = []
    for size in sizes:
        rng = np.random.default_rng(seed + size)
        tree = make_model(shape, size, k, rng)
        script = make_script(*tree_targets(tree), k, ops, rng)
        records += run_engines(tree, engines, script, shape, size)
    return records


def run_engines(tree: CausalTree, engines, script, shape: str, n: int) -> list[BenchRecord]:
    """Run the script on a fresh engine of each name, every engine starting
    from the evidence the tree holds on entry."""
    base_evidence = list(tree.evidence.items())  # read-only arrays, never rewritten
    records = []
    for name in engines:
        tree.drop_evidence(tree.evidence)
        tree.set_evidence(base_evidence)
        records += run_script(name, make_engine(name, tree), script, shape, n, tree.k)
    return records


def to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def cycle_op_ratio(length: int, k: int, cycles: int, seed: int) -> dict:
    """Per-cycle (update+query) matrix-op totals on one chain, full vs
    hierarchy engine; the headline speedup figure."""
    rng = np.random.default_rng(seed)
    tree = make_model("chain", length, k, rng)
    script = make_script(*tree_targets(tree), k, 2 * cycles, rng)
    names = ("full", "hierarchy")
    totals = dict.fromkeys(names, 0)
    for r in run_engines(tree, names, script, "chain", length):
        totals[r.engine] += r.count_mv + r.count_mm
    out = {"nodes": len(tree.names), "k": k, "cycles": cycles}
    out.update((name, ops / cycles) for name, ops in totals.items())
    out["ratio"] = out["full"] / out["hierarchy"]
    return out
