"""Shared random-model generators for the test suite."""

from __future__ import annotations

import numpy as np

from treebelief import linalg, protein
from treebelief.bench import random_stochastic
from treebelief.jointree import CliqueNode, build_projection
from treebelief.linalg import FactoredMatrix
from treebelief.polytree import Polytree
from treebelief.tree import CausalTree, RawTree, binarize


def random_raw_tree(rng, n_nodes: int, k: int, max_children: int = 3) -> RawTree:
    """Random rooted tree with arbitrary fan-out up to max_children."""
    raw = RawTree(k)
    raw.add_node(0)
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    open_slots = [0]  # nodes that can still take children
    for node in range(1, n_nodes):
        while True:
            parent = open_slots[int(rng.integers(len(open_slots)))]
            if len(raw.children[parent]) < max_children:
                break
            open_slots.remove(parent)
        raw.add_node(node)
        raw.add_edge(parent, node, random_stochastic(rng, k, k))
        open_slots.append(node)
    return raw


def ps_index(tables: protein.ChainTables, mer: str) -> int:
    """Index of a structure window among `tables.ps_mers`."""
    return protein._window_index(mer, protein._PS_DIGIT, tables.w, "structure window")


def factored_identity(size: int) -> FactoredMatrix:
    """The size x size identity as a factored matrix (identity . identity)."""
    eye = np.eye(size)
    return FactoredMatrix(eye, eye.copy())


def random_binarized_tree(rng, n_raw_nodes: int, k: int) -> CausalTree:
    return binarize(random_raw_tree(rng, n_raw_nodes, k))


def depth(tree: CausalTree, x: int) -> int:
    d = 0
    while x != tree.root:
        x = tree.parent[x]
        d += 1
    return d


def attach_evidence_leaf(tree: CausalTree, x: int) -> int:
    """Give node x a dedicated identity-linked evidence leaf; returns its id.

    Internal nodes are copied so the tree stays binary complete; the copy is
    aliased back to x and its identity edge leaves all beliefs intact.
    """
    ident = np.eye(tree.k)
    e = tree.fresh_id()
    tree.add_node(e, f"{tree.names[x]}_ev")
    if tree.is_leaf(x):
        # x becomes internal; its evidence (if any) moves to the new leaf
        d = tree.fresh_id()
        tree.add_node(d, f"{tree.names[x]}_pad")
        tree.dummies.add(d)
        if x in tree.evidence:
            tree.evidence[e] = tree.evidence.pop(x)
        tree.matrix[e] = ident.copy()
        tree.matrix[d] = ident.copy()
        tree.link(x, e, d)
    else:
        cp = tree.fresh_id()
        tree.add_node(cp, f"{tree.names[x]}_cp")
        tree.alias[cp] = x
        tree.link(cp, *tree.kids[x])
        tree.matrix[cp] = ident.copy()
        tree.matrix[e] = ident.copy()
        tree.link(x, e, cp)
    return e


def level_lambdas(hier, i: int) -> dict:
    """lambda of every node of T_i by the exact bottom-up recursion inside T_i."""
    lt = hier.levels[i]
    order, stack = [], [lt.root]
    while stack:  # pre-order: every node before its children
        x = stack.pop()
        order.append(x)
        if not lt.is_leaf(x):
            stack += lt.kids[x]
    lam = {}
    for x in reversed(order):
        if lt.is_leaf(x):
            lam[x] = hier.tree.leaf_lambda(x)
        else:
            l, r = lt.kids[x]
            lam[x] = linalg.rescale_if_tiny(
                linalg.apply(lt.cell[l].value, lam[l]) * linalg.apply(lt.cell[r].value, lam[r])
            )
    return lam


def updatable_leaves(tree: CausalTree) -> list[int]:
    return [l for l in tree.in_order_leaves() if l not in tree.dummies]


def random_likelihood(rng, k: int, hard_prob: float = 0.3) -> np.ndarray:
    if rng.random() < hard_prob:
        v = np.zeros(k)
        v[int(rng.integers(k))] = 1.0
        return v
    return rng.random(k) + 0.01


def post_random_evidence(tree: CausalTree, rng, count: int, hard_prob: float = 0.3):
    leaves = updatable_leaves(tree)
    posted = []
    for _ in range(count):
        leaf = leaves[int(rng.integers(len(leaves)))]
        lik = random_likelihood(rng, tree.k, hard_prob)
        tree.set_evidence(leaf, lik)
        posted.append((leaf, lik))
    return posted


def random_polytree(rng, n_vars: int, k: int, max_parents: int = 3) -> Polytree:
    """Random singly connected network: a random undirected tree with random
    edge orientations, capped at max_parents incoming edges per variable."""
    pt = Polytree(k=k)
    parents: dict[int, list[int]] = {v: [] for v in range(n_vars)}
    for v in range(1, n_vars):
        u = int(rng.integers(v))
        if rng.random() < 0.5 and len(parents[v]) < max_parents:
            parents[v].append(u)
        elif len(parents[u]) < max_parents:
            parents[u].append(v)
        else:
            parents[v].append(u)
    for v in range(n_vars):
        pt.add_variable(v, tuple(parents[v]))
    for v in range(n_vars):
        p = len(parents[v])
        if p:
            pt.set_cpt(v, random_stochastic(rng, k**p, k))
        else:
            pt.set_cpt(v, random_stochastic(rng, 1, k)[0])
    return pt


def random_join_tree(rng, k: int, n: int, c: int, depth: int = 3):
    """Full binary tree of same-size cliques (n members each, intersections of
    size c with the parent), returned twice: once with factored edges, once
    with the same edges expanded to dense K x K matrices.

    Returns (factored tree, dense tree, leaf clique node ids, K).
    """
    K = k**n
    var_counter = [0]

    def fresh_vars(count):
        out = tuple(f"v{var_counter[0] + i}" for i in range(count))
        var_counter[0] += count
        return out

    root_clique = CliqueNode(members=fresh_vars(n), k=k)
    prior = rng.random(K) + 0.05
    prior /= prior.sum()

    raw_f = RawTree(K)
    raw_d = RawTree(K)
    for raw in (raw_f, raw_d):
        raw.add_node(0)
        raw.set_root(0, prior)

    cliques = {0: root_clique}
    next_id = [1]
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for parent_id in frontier:
            parent = cliques[parent_id]
            for _ in range(2):
                shared = tuple(
                    parent.members[i]
                    for i in sorted(rng.choice(n, size=c, replace=False))
                )
                clique = CliqueNode(
                    members=shared + fresh_vars(n - c), k=k, intersection=shared
                )
                table = random_stochastic(rng, k**c, K)
                fm = build_projection(clique, parent, table)
                nid = next_id[0]
                next_id[0] += 1
                cliques[nid] = clique
                for raw in (raw_f, raw_d):
                    raw.add_node(nid)
                raw_f.add_edge(parent_id, nid, fm)
                raw_d.add_edge(parent_id, nid, fm.expand())
                new_frontier.append(nid)
        frontier = new_frontier
    return binarize(raw_f), binarize(raw_d), frontier, K
