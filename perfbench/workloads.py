"""Seeded inputs and operations for the three benchmark workloads.

A workload turns a seed into plain inputs (model text or tables, plus pools
of operations) in its constructor; the package never sees the seed.  Every
workload then offers the same operations to the runner:

* ``setup()``      builds the model through the public API (the timed set-up)
* ``release()``    drops the model, so that freeing it is not timed
* ``update(i)``    one evidence write from the op pool
* ``query(i)``     one belief read, returns the belief vector
* ``burst(i)``     one mutant-shaped burst: watch reads, w adjacent writes,
                   watch reads, reverting writes
* ``predict()``    one all-beliefs pass, returns answers to check (or None)
* ``check(bel)``   compares engine beliefs with the ``exact.propagate_all``
                   result ``bel``; returns (compared, mismatched)
* ``session_chunks()``  protocol text for ``cli.run_session``

Pools are indexed modulo their length, so loops of any length stay seeded.
"""

from __future__ import annotations

import hashlib

import numpy as np

from treebelief import dynamic, formats, jointree, protein, tree

TOL = 1e-9
POOL = 4096  # mixed-loop (update, query) pairs
BURSTS = 1024
SESSION_OPS = 1024  # protocol lines per session pass, in chunks
SESSION_CHUNK = 64
W = 3  # burst width: protein window length, adjacent leaves elsewhere
SAMPLE = 500  # nodes in the all-beliefs pass (protein: every window)


def _stochastic(rng, shape):
    m = rng.random(shape) + 0.05
    return m / m.sum(axis=-1, keepdims=True)


def _floats(v) -> str:
    return " ".join(map(repr, np.asarray(v).tolist()))


class SessionEngine:
    """The update/query/stats surface that ``cli.run_session`` drives."""

    def __init__(self, engine: dynamic.DynamicEngine):
        self.engine = engine

    def update(self, leaf, likelihood):
        self.engine.update_evidence(leaf, likelihood)

    def query(self, node):
        return self.engine.bel_query(node)

    def stats(self):
        return self.engine.counter


class _EngineWorkload:
    """Operations shared by workloads whose model is a tree plus DynamicEngine.

    Subclasses fill: ``upd`` (leaf, likelihood) and ``qry`` node pools,
    ``bursts`` of (leaves, new likelihoods, watch nodes), ``sample`` nodes
    for the all-beliefs pass, and implement ``build()``.
    """

    setup_reps = 9
    checkpoints = 15  # checkpoints (full sweep + comparison) per untraced run
    predict_name = "bel_query over a 500-node sample"

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.tree = None
        self.engine = None
        self.digest = hashlib.sha256()
        self.make_inputs()
        self._session = None

    # --- model -------------------------------------------------------
    def setup(self) -> None:
        self.tree, self.engine = self.build()

    def release(self) -> None:
        self.tree = self.engine = None

    def model(self):
        return self.engine

    # --- operations --------------------------------------------------
    def update(self, i: int) -> None:
        leaf, lik = self.upd[i % len(self.upd)]
        self.engine.update_evidence(leaf, lik)

    def query(self, i: int) -> np.ndarray:
        return self.engine.bel_query(self.qry[i % len(self.qry)])

    def burst(self, i: int) -> None:
        leaves, liks, watch = self.bursts[i % len(self.bursts)]
        eng = self.engine
        old = [self.tree.leaf_lambda(l).copy() for l in leaves]
        for x in watch:
            eng.bel_query(x)
        for l, v in zip(leaves, liks):
            eng.update_evidence(l, v)
        for x in watch:
            eng.bel_query(x)
        for l, v in zip(leaves, old):
            eng.update_evidence(l, v)

    def predict(self):
        return [self.engine.bel_query(x) for x in self.sample]

    def check(self, bel, answers) -> tuple[int, int]:
        bad = 0
        for x, b in zip(self.sample, answers):
            if not np.allclose(b, bel[self.tree.resolve(x)], rtol=0.0, atol=TOL):
                bad += 1
        return len(self.sample), bad

    def session_chunks(self) -> list[str]:
        """Protocol text: the mixed pool as update/query lines, in chunks."""
        if self._session is None:
            lines = []
            for i in range(SESSION_OPS // 2):
                leaf, lik = self.session_update(i)
                lines.append(f"update {leaf} {_floats(lik)}\n")
                lines.append(f"query {self.session_query(i)}\n")
            self._session = [
                "".join(lines[j : j + SESSION_CHUNK])
                for j in range(0, len(lines), SESSION_CHUNK)
            ]
        return self._session

    def session_update(self, i):
        return self.upd[(POOL // 2 + i) % len(self.upd)]

    def session_query(self, i):
        return self.qry[(POOL // 2 + i) % len(self.qry)]

    def input_digest(self) -> str:
        return self.digest.hexdigest()[:16]


class TreeOnline(_EngineWorkload):
    """Random binary tree (leaf splitting), k=4, loaded from BTN text."""

    name = "tree-online"
    setup_reps = 4
    checkpoints = 10
    k = 4

    def make_inputs(self):
        rng, k = self.rng, self.k
        internal = 200 if self.tiny else 20_000
        children: dict[int, tuple[int, int]] = {}
        parent: dict[int, int] = {}
        open_leaves = [0]
        nxt = 1
        for _ in range(internal):
            pick = int(rng.integers(len(open_leaves)))
            node = open_leaves[pick]
            open_leaves[pick] = open_leaves[-1]
            open_leaves.pop()
            children[node] = (nxt, nxt + 1)
            parent[nxt] = parent[nxt + 1] = node
            open_leaves += [nxt, nxt + 1]
            nxt += 2
        n = nxt
        mats = _stochastic(rng, (n, k, k))
        prior = _stochastic(rng, k)
        lines = ["BTN 1", f"k {k}"]
        lines += [f"node {i} n{i}" for i in range(n)]
        lines += ["root 0", f"prior 0 {_floats(prior)}"]
        for p, cs in children.items():
            for c in cs:
                lines.append(f"edge {p} {c} {_floats(mats[c].ravel())}")
        self.btn = [line + "\n" for line in lines]
        for line in self.btn:
            self.digest.update(line.encode())

        in_order = []
        stack = [0]
        while stack:
            x = stack.pop()
            if x in children:
                stack += [children[x][1], children[x][0]]
            else:
                in_order.append(x)
        self.upd = [
            (in_order[int(rng.integers(len(in_order)))], rng.random(k) + 0.05)
            for _ in range(POOL)
        ]
        self.qry = [int(q) for q in rng.integers(n, size=POOL)]
        self.bursts = []
        for _ in range(BURSTS):
            j = int(rng.integers(len(in_order) - W + 1))
            leaves = in_order[j : j + W]
            self.bursts.append(
                (leaves, rng.random((W, k)) + 0.05, [parent[l] for l in leaves])
            )
        self.sample = [int(x) for x in rng.choice(n, size=min(SAMPLE, n), replace=False)]

    def build(self):
        t = formats.parse_btn(self.btn)
        return t, dynamic.DynamicEngine(t)


class JointreeFactored(_EngineWorkload):
    """Full binary join tree of cliques (n=3 members over k=3, K=27) sharing
    one variable with the parent (L=3); every edge a FactoredMatrix."""

    name = "jointree-factored"
    k = 3
    members = 3

    def make_inputs(self):
        rng, k, nm = self.rng, self.k, self.members
        depth = 4 if self.tiny else 12
        n = 2 ** (depth + 1) - 1
        K = k**nm
        codes = np.arange(K)
        cliques = [jointree.CliqueNode(tuple(range(nm)), k)]
        raw = tree.RawTree(K)
        for i in range(n):
            raw.add_node(i, f"c{i}")
        raw.set_root(0, _stochastic(rng, K))
        next_var = nm
        for i in range(1, n):
            par = cliques[(i - 1) // 2]
            shared = par.members[int(rng.integers(nm))]
            fresh = list(range(next_var, next_var + nm - 1))
            next_var += nm - 1
            c = jointree.CliqueNode(
                tuple(int(v) for v in rng.permutation([shared] + fresh)), k, (shared,)
            )
            cliques.append(c)
            # P(clique | shared value s): zero unless the clique's copy of the
            # shared variable equals s; the other members are random.
            digit = (codes // k ** (nm - 1 - c.position(shared))) % k
            table = np.zeros((k, K))
            for s in range(k):
                table[s, digit == s] = _stochastic(rng, K // k)
            raw.add_edge((i - 1) // 2, i, jointree.build_projection(c, par, table))
            self.digest.update(table.tobytes())
        self.raw = raw
        self.digest.update(raw.prior.tobytes())

        leaves = list(range(2**depth - 1, n))  # heap order: left to right

        def lift(leaf):
            c = cliques[leaf]
            var = c.members[int(rng.integers(nm))]
            return jointree.clique_evidence(c, var, rng.random(k) + 0.05)

        self.upd = []
        for _ in range(POOL):
            leaf = leaves[int(rng.integers(len(leaves)))]
            self.upd.append((leaf, lift(leaf)))
        self.qry = [int(q) for q in rng.integers(n, size=POOL)]
        self.bursts = []
        for _ in range(BURSTS):
            j = int(rng.integers(len(leaves) - W + 1))
            bl = leaves[j : j + W]
            self.bursts.append((bl, [lift(l) for l in bl], [(l - 1) // 2 for l in bl]))
        self.sample = [int(x) for x in rng.choice(n, size=min(SAMPLE, n), replace=False)]

    def build(self):
        t = tree.binarize(self.raw)
        return t, dynamic.DynamicEngine(t)


class ProteinMutagenesis(_EngineWorkload):
    """Synthetic labelled corpus, w=3 (k=27) tables, 2,000-residue chain;
    bursts are ``protein.mutagenesis`` mutants reverted with ``mutate``."""

    name = "protein-mutagenesis"
    predict_name = "ProteinChain.predict()"
    k = 27

    def make_inputs(self):
        rng = self.rng
        aa = protein.AMINO_ACIDS
        symbols = protein.STRUCTURE_SYMBOLS
        prefs = rng.dirichlet(np.full(len(aa), 0.5), size=len(symbols))

        def labelled(length):
            ss = []
            while len(ss) < length:
                ss += [int(rng.integers(len(symbols)))] * int(rng.integers(3, 12))
            ss = np.array(ss[:length])
            res = np.empty(length, dtype=int)
            for s in range(len(symbols)):
                m = ss == s
                res[m] = rng.choice(len(aa), size=int(m.sum()), p=prefs[s])
            return "".join(aa[r] for r in res), "".join(symbols[s] for s in ss)

        n_seq, residues = (20, 60) if self.tiny else (300, 2000)
        self.corpus = [labelled(int(rng.integers(40, 120))) for _ in range(n_seq)]
        self.sequence = labelled(residues)[0]
        for a, s in self.corpus:
            self.digest.update(f"{a} {s}\n".encode())
        self.digest.update(self.sequence.encode())

        n_windows = residues - W + 1
        self.upd = [
            (int(rng.integers(n_windows)), rng.random(self.k) + 0.05)
            for _ in range(POOL)
        ]
        self.qry = [int(q) for q in rng.integers(n_windows, size=POOL)]
        self.bursts = []
        for _ in range(BURSTS):
            site = int(rng.integers(residues))
            others = [r for r in aa if r != self.sequence[site]]
            watch = [min(max(site - d, 0), n_windows - 1) for d in (2, 1, 0)]
            self.bursts.append((site, others[int(rng.integers(len(others)))], watch))

    def build(self):
        tables = protein.train(self.corpus, W)
        chain = protein.ProteinChain(self.sequence, tables)
        self.chain = chain
        return chain.tree, chain.engine

    def release(self) -> None:
        self.chain = None
        super().release()

    def model(self):
        return self.chain

    def update(self, i: int) -> None:
        t, lik = self.upd[i % len(self.upd)]
        self.engine.update_evidence(self.chain.ev_nodes[t], lik)

    def query(self, i: int) -> np.ndarray:
        return self.engine.bel_query(self.chain.ps_nodes[self.qry[i % len(self.qry)]])

    def burst(self, i: int) -> None:
        site, residue, watch = self.bursts[i % len(self.bursts)]
        original = self.chain.sequence[site]
        protein.mutagenesis(self.chain, site, residue, watch)
        self.chain.mutate(site, original)

    def predict(self):
        self.chain.predict()
        return None

    def check(self, bel, answers) -> tuple[int, int]:
        beliefs = self.chain.window_beliefs()
        bad = 0
        for x, b in zip(self.chain.ps_nodes, beliefs):
            if not np.allclose(b, bel[x], rtol=0.0, atol=TOL):
                bad += 1
        return len(beliefs), bad

    def session_update(self, i):
        t, lik = super().session_update(i)
        return self.chain.ev_nodes[t], lik

    def session_query(self, i):
        return self.chain.ps_nodes[super().session_query(i)]


WORKLOADS = {w.name: w for w in (TreeOnline, ProteinMutagenesis, JointreeFactored)}
