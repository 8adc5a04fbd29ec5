"""Shared random-model generators for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from treebelief import contract, exact, linalg, protein
from treebelief.bench import random_stochastic
from treebelief.jointree import CliqueNode, build_projection
from treebelief.linalg import FactoredMatrix, OpCounter
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
    (code,) = protein._window_codes(mer, protein.STRUCTURE_SYMBOLS, tables.w)
    assert code >= 0, mer
    return int(code)


def factored_identity(size: int) -> FactoredMatrix:
    """The size x size identity as a factored matrix (identity . identity)."""
    eye = np.eye(size)
    return FactoredMatrix(eye, eye.copy())


def split_order_btn(rng, internal: int, k: int) -> list[str]:
    """BTN lines of a random binary tree grown by splitting uniformly random
    leaves, 2 * internal + 1 nodes, with its edge lines in split order, which
    is not node order: `parse_btn` reads the edges in another order than it
    links them."""
    open_leaves, splits = [0], []
    for _ in range(internal):
        node = open_leaves.pop(int(rng.integers(len(open_leaves))))
        nxt = 2 * len(splits) + 1
        splits.append((node, nxt, nxt + 1))
        open_leaves += [nxt, nxt + 1]
    fields = lambda v: " ".join(f"{x:.17g}" for x in v)
    lines = ["BTN 1", f"k {k}"] + [f"node {i} n{i}" for i in range(2 * internal + 1)]
    lines += ["root 0", f"prior 0 {fields(random_stochastic(rng, 1, k)[0])}"]
    for p, *pair in splits:
        lines += (f"edge {p} {c} {fields(random_stochastic(rng, k, k).ravel())}" for c in pair)
    return lines


def random_binarized_tree(rng, n_raw_nodes: int, k: int) -> CausalTree:
    return binarize(random_raw_tree(rng, n_raw_nodes, k))


def depth(tree: CausalTree, x: int) -> int:
    up = {c: p for p, pair in tree.kids.items() for c in pair}
    d = 0
    while x != tree.root:
        x = up[x]
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
            tree.set_evidence([(e, tree.evidence[x])])
            tree.drop_evidence([x])
        tree.link(x, e, d, ident.copy(), ident.copy())
    else:
        cp = tree.fresh_id()
        tree.add_node(cp, f"{tree.names[x]}_cp")
        tree.alias[cp] = x
        l, r = tree.kids[x]
        tree.link(cp, l, r, tree.matrix[l], tree.matrix[r])
        tree.link(x, e, cp, ident.copy(), ident.copy())
    return e


def relink_edge(tree: CausalTree, child: int, m) -> None:
    """Put matrix m on the edge into `child`, through `CausalTree.link`."""
    p = next(p for p, pair in tree.kids.items() if child in pair)
    l, r = tree.kids[p]
    tree.link(p, l, r, *(m if c == child else tree.matrix[c] for c in (l, r)))


def link_orphan_pair(tree: CausalTree, m) -> list[int]:
    """Three new nodes, a parent no node links to and its two children, each
    edge carrying matrix m; returns their ids."""
    ids = []
    for _ in range(3):
        ids.append(tree.fresh_id())
        tree.add_node(ids[-1])
    tree.link(*ids, m, m)
    return ids


def evidence_state(tree: CausalTree) -> tuple[dict, dict]:
    """Copies of a tree's evidence, leaf id -> vector: as posted
    (`tree.evidence`) and as read (`leaf_lambda`)."""
    return (
        {leaf: v.copy() for leaf, v in tree.evidence.items()},
        {leaf: tree.leaf_lambda(leaf).copy() for leaf in tree.evidence},
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_evidence(tree: CausalTree, state: tuple[dict, dict]) -> None:
    """The tree's evidence, posted and guarded, is bitwise `state` (an
    `evidence_state`, of this tree earlier or of another tree)."""
    for now, then in zip(evidence_state(tree), state):
        assert now.keys() == then.keys()
        for leaf, v in then.items():
            assert same_bits(now[leaf], v), leaf


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
        tree.set_evidence([(leaf, lik)])
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


# an entry of a wide-range likelihood: zero, subnormal, or m * 2**e anywhere
# in the normal range, so that one vector can hold a max near 1e308 and
# entries more than 2**1021 below it
WIDE_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=np.nextafter(2.0**-1022, 0.0)),
    st.builds(
        math.ldexp,
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.one_of(st.integers(-1022, 1023), st.integers(900, 1023)),
    ),
)


def wide_likelihood(k: int):
    """Length-k likelihoods of `WIDE_ENTRY`s, not all zero."""
    return st.lists(WIDE_ENTRY, min_size=k, max_size=k).filter(lambda v: max(v) > 0.0).map(np.array)


def by_max(v: np.ndarray) -> np.ndarray:
    """The same likelihood at max 1: the oracle's form, which cannot overflow."""
    return v / v.max()


def fraction_marginals(tree: CausalTree) -> dict:
    """Exact beliefs: `exact.enumerate_marginals` over the tree's prior, edge
    matrices and likelihoods as posted, every entry read as the Fraction it
    is, so nothing rounds or underflows."""
    exact_table = np.vectorize(Fraction, otypes=[object])
    factors = [((tree.root,), tree.prior)]
    for p, pair in tree.kids.items():
        factors += [((p, c), linalg.dense(tree.matrix[c])) for c in pair]
    factors += [((leaf,), v) for leaf, v in tree.evidence.items()]
    return exact.enumerate_marginals(tree.k, [(vs, exact_table(t)) for vs, t in factors])


def per_node_sweep(tree: CausalTree, counter: OpCounter | None = None) -> dict:
    """Bel(x) for every node by the two-pass recursion over the tree's dicts,
    one `linalg.apply`, `apply_transpose` and `rescale_if_tiny` per node and
    direction: the compiled sweep's bitwise reference."""
    order = [tree.root]  # breadth-first: each node before its children
    for x in order:
        order += tree.kids.get(x, ())
    lam, msg = {}, {}
    for x in reversed(order):
        if tree.is_leaf(x):
            lam[x] = tree.leaf_lambda(x)
        else:
            l, r = tree.kids[x]
            lam[x] = linalg.rescale_if_tiny(msg[l] * msg[r])
        if x != tree.root:
            msg[x] = linalg.apply(tree.matrix[x], lam[x], counter)
    pi = {tree.root: tree.prior}
    for p in order:
        for x, sib in zip(tree.kids.get(p, ()), reversed(tree.kids.get(p, ()))):
            v = linalg.apply_transpose(tree.matrix[x], pi[p] * msg[sib], counter)
            pi[x] = linalg.rescale_if_tiny(v)
    bel = {x: lam[x] * pi[x] for x in order}
    return {x: b / b.sum() for x, b in bel.items()}


def per_rake_build(tree: CausalTree, counter: OpCounter | None = None):
    """The hierarchy with its derived matrices made one rake at a time: each
    recipe's own `rake_compose`, in recipe order (level order, so every
    input is made before it is read), from emptied targets.  The stacked
    build's bitwise reference, counting one `rake_compose` per recipe."""
    hier = contract.build_hierarchy(tree)
    for r in hier.recipes:
        r.target.value = None
    for r in hier.recipes:
        r.recompute(tree, counter)
    return hier
