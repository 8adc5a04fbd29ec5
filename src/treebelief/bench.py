"""Benchmark harness: random model generators, engine wrappers with a shared
update/query interface (causal trees and polytrees), and CSV scaling tables.

Timing columns (ns) are reported for orientation only; every assertion made
elsewhere is on the instrumented matrix-op counters, which are deterministic
under a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import exact, linalg
from .dynamic import DynamicEngine
from .errors import ScaleError, UsageError
from .linalg import OpCounter
from .polytree import Polytree, PolytreeEngine
from .tree import CausalTree, RawTree, binarize

CSV_HEADER = "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
MAX_BENCH_NODES = 2 * 10**6

SHAPES = ("chain", "balanced", "random")
ENGINES = ("full", "path", "hierarchy")


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


def make_model(shape: str, size: int, k: int, rng: np.random.Generator) -> CausalTree:
    if shape == "chain":
        tree = make_chain(size, k, rng)
    elif shape == "balanced":
        tree = make_balanced(size, k, rng)
    elif shape == "random":
        tree = make_random(size, k, rng)
    else:
        raise UsageError(f"unknown shape {shape!r}")
    if len(tree.names) > MAX_BENCH_NODES:
        raise ScaleError(f"{len(tree.names)} nodes exceeds bench limit {MAX_BENCH_NODES}")
    return tree


# ----------------------------------------------------------------------
# engine wrappers sharing one update/query surface


class FullEngine:
    """Linear baseline: every query reruns the full two-pass propagation."""

    name = "full"

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counter = OpCounter()

    def update(self, leaf: int, likelihood) -> None:
        self.tree.set_evidence(leaf, likelihood)

    def query(self, node: int) -> np.ndarray:
        return exact.propagate_all(self.tree, self.counter)[self.tree.resolve(node)]

    def stats(self) -> OpCounter:
        return self.counter


class PathEngine:
    """Depth-bounded engine: lambda kept current, pi walked per query."""

    name = "path"

    def __init__(self, tree: CausalTree):
        self.state = exact.PropagationState(tree)
        self.counter = self.state.counter

    def update(self, leaf: int, likelihood) -> None:
        self.state.path_update(leaf, likelihood)

    def query(self, node: int) -> np.ndarray:
        return self.state.path_query(self.state.tree.resolve(node))

    def stats(self) -> OpCounter:
        return self.counter


class HierarchyEngine:
    """Logarithmic engine over the contraction hierarchy."""

    name = "hierarchy"

    def __init__(self, tree: CausalTree):
        self.engine = DynamicEngine(tree)
        self.counter = self.engine.counter

    def update(self, leaf: int, likelihood) -> None:
        self.engine.update_evidence(leaf, likelihood)

    def query(self, node: int) -> np.ndarray:
        return self.engine.bel_query(node)

    def stats(self) -> OpCounter:
        return self.counter


class PolytreeHierarchyEngine:
    """Polytree variables through the family-clique join tree and the
    logarithmic engine."""

    name = "hierarchy"

    def __init__(self, pt: Polytree):
        self.engine = PolytreeEngine(pt)
        self.counter = self.engine.counter

    def update(self, var, likelihood) -> None:
        self.engine.pt_update(var, likelihood)

    def query(self, var) -> np.ndarray:
        return self.engine.pt_query(var)

    def stats(self) -> OpCounter:
        return self.counter


class PolytreeFullEngine:
    """Brute-force enumeration baseline for polytree variables."""

    name = "full"

    def __init__(self, pt: Polytree):
        self.pt = pt
        self.evidence: dict = {}
        self.counter = OpCounter()

    def update(self, var, likelihood) -> None:
        if var not in self.pt.parents:
            raise UsageError(f"unknown variable {var}")
        lik = np.asarray(likelihood, dtype=np.float64)
        if lik.shape != (self.pt.k,):
            raise UsageError(f"likelihood must have length {self.pt.k}")
        if np.any(lik < 0):
            raise UsageError("likelihood entries must be nonnegative")
        self.evidence[var] = lik

    def query(self, var) -> np.ndarray:
        if var not in self.pt.parents:
            raise UsageError(f"unknown variable {var}")
        return self.pt.joint_conditionals(self.evidence)[var]

    def stats(self) -> OpCounter:
        return self.counter


ENGINE_CLASSES = {
    "full": FullEngine,
    "path": PathEngine,
    "hierarchy": HierarchyEngine,
}
POLYTREE_ENGINE_CLASSES = {
    "hierarchy": PolytreeHierarchyEngine,
    "full": PolytreeFullEngine,
}


def make_engine(name: str, model):
    """Engine wrapper `name` over a CausalTree or a Polytree."""
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


def make_script(tree: CausalTree, ops: int, rng: np.random.Generator):
    """Deterministic alternating update/query op list shared by all engines."""
    leaves = [
        l for l in tree.in_order_leaves() if l not in tree.dummies
    ]
    nodes = [n for n in tree.names if n not in tree.dummies]
    script = []
    for i in range(ops):
        if i % 2 == 0:
            leaf = leaves[int(rng.integers(len(leaves)))]
            lik = rng.random(tree.k) + 0.05
            script.append(("update", leaf, lik))
        else:
            node = nodes[int(rng.integers(len(nodes)))]
            script.append(("query", node, None))
    return script


def run_script(engine, script, shape: str, n: int, k: int) -> list[BenchRecord]:
    """Execute a script, returning one aggregate record per op kind that
    occurs in it."""
    totals = {"update": [0, 0, 0, 0], "query": [0, 0, 0, 0]}  # mv, mm, ns, ops
    for op, target, lik in script:
        before = engine.counter.snapshot()
        t0 = time.perf_counter_ns()
        if op == "update":
            engine.update(target, lik)
        else:
            engine.query(target)
        ns = time.perf_counter_ns() - t0
        d = engine.counter.delta(before)
        agg = totals[op]
        agg[0] += d.mat_vec
        agg[1] += d.mat_mat
        agg[2] += ns
        agg[3] += 1
    return [
        BenchRecord(engine.name, shape, n, k, op, *totals[op])
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
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise UsageError("sizes must be ascending")
    records = []
    for size in sizes:
        rng = np.random.default_rng(seed + size)
        tree = make_model(shape, size, k, rng)
        script = make_script(tree, ops, rng)
        base_evidence = {l: v.copy() for l, v in tree.evidence.items()}
        for name in engines:
            tree.evidence = {l: v.copy() for l, v in base_evidence.items()}
            records += run_script(make_engine(name, tree), script, shape, size, k)
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
    leaves = [l for l in tree.in_order_leaves() if l not in tree.dummies]
    nodes = [n for n in tree.names if n not in tree.dummies]
    cycle_script = []
    for _ in range(cycles):
        leaf = leaves[int(rng.integers(len(leaves)))]
        lik = rng.random(k) + 0.05
        node = nodes[int(rng.integers(len(nodes)))]
        cycle_script.append((leaf, lik, node))

    out = {"nodes": len(tree.names), "k": k, "cycles": cycles}
    base_evidence = {l: v.copy() for l, v in tree.evidence.items()}
    for name in ("full", "hierarchy"):
        tree.evidence = {l: v.copy() for l, v in base_evidence.items()}
        engine = make_engine(name, tree)
        start = engine.counter.snapshot()
        for leaf, lik, node in cycle_script:
            engine.update(leaf, lik)
            engine.query(node)
        d = engine.counter.delta(start)
        out[name] = (d.mat_vec + d.mat_mat) / cycles
    out["ratio"] = out["full"] / out["hierarchy"]
    return out
