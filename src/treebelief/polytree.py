"""Polytree frontend.

A polytree (singly connected network, multiple parents allowed) is turned
into a directed join tree over its family cliques {v} union parents(v); each
pair of adjacent family cliques shares exactly one variable, so the factored
join-tree machinery runs with c = 1.  Variable-level evidence and queries are
lifted to / marginalized from the clique domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dynamic import DynamicEngine
from .errors import (
    DimensionError,
    ScaleError,
    StructureError,
    UsageError,
)
from .jointree import CliqueNode, FactoredMatrix, build_projection, clique_evidence, marginalize
from .linalg import OpCounter
from .tree import ROW_SUM_TOL, CausalTree, RawTree, binarize

MAX_PARENTS = 4  # a family clique has k^(parents+1) values


@dataclass
class Polytree:
    """Directed singly connected network with uniform domain size k.

    cpt[v] has shape (k^p_v, k): row index is the mixed-radix code of the
    parent value tuple (first parent most significant), column the child
    value.  Parentless variables carry a (k,) prior instead.
    """

    k: int
    parents: dict = field(default_factory=dict)  # var -> tuple of vars
    cpt: dict = field(default_factory=dict)
    names: dict = field(default_factory=dict)

    def add_variable(self, var, parents=(), cpt=None, name=None):
        self.parents[var] = tuple(parents)
        self.names[var] = name if name is not None else str(var)
        if cpt is not None:
            self.set_cpt(var, cpt)

    def set_cpt(self, var, cpt):
        p = len(self.parents[var])
        arr = np.asarray(cpt, dtype=np.float64)
        want = (self.k**p, self.k) if p else (self.k,)
        arr = arr.reshape(want)
        self.cpt[var] = arr

    def variables(self):
        return list(self.parents)

    def validate(self) -> list[str]:
        out = []
        vars_ = set(self.parents)
        edges = []
        for v, ps in self.parents.items():
            for q in ps:
                if q not in vars_:
                    out.append(f"variable {v} has unknown parent {q}")
                edges.append((q, v))
        if len(edges) != len(vars_) - 1:
            out.append(
                f"{len(edges)} edges for {len(vars_)} variables: not singly connected"
            )
        # undirected connectivity + acyclicity
        adj: dict = {v: [] for v in vars_}
        for a, b in edges:
            if a in adj and b in adj:
                adj[a].append(b)
                adj[b].append(a)
        if vars_:
            seen = set()
            start = next(iter(vars_))
            stack = [(start, None)]
            while stack:
                v, came = stack.pop()
                if v in seen:
                    out.append(f"undirected cycle through {v}")
                    break
                seen.add(v)
                stack.extend((w, v) for w in adj[v] if w != came)
            if len(seen) < len(vars_) and not out:
                out.append("underlying undirected graph is disconnected")
        for v in vars_:
            t = self.cpt.get(v)
            if t is None:
                out.append(f"variable {v} has no table")
                continue
            rows = t.reshape(-1, self.k) if t.ndim > 1 else t.reshape(1, self.k)
            bad = np.where(np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL)[0]
            for r in bad:
                out.append(f"table of {v}: row {r} sums to {rows[r].sum():.6g}")
            if np.any(t < 0):
                out.append(f"table of {v} has negative entries")
        return out

    def prior_marginals(self) -> dict:
        """No-evidence marginal of every variable (parents of any node sit in
        disjoint subtrees, hence are independent)."""
        marg: dict = {}
        pending = dict(self.parents)
        while pending:
            progressed = False
            for v in list(pending):
                ps = pending[v]
                if all(q in marg for q in ps):
                    if not ps:
                        marg[v] = self.cpt[v].copy()
                    else:
                        joint = np.ones(1)
                        for q in ps:
                            joint = np.multiply.outer(joint, marg[q])
                        marg[v] = joint.reshape(-1) @ self.cpt[v]
                    del pending[v]
                    progressed = True
            if not progressed:
                raise StructureError("directed cycle in polytree")
        return marg

    def joint_conditionals(self, evidence: dict | None = None) -> dict:
        """Brute-force oracle: conditional marginal of every variable given
        per-variable likelihood evidence, by enumerating the product joint."""
        vars_ = sorted(self.parents)
        axis = {v: i for i, v in enumerate(vars_)}
        n, k = len(vars_), self.k
        if k**n > 10**7:
            raise ScaleError("joint enumeration too large")
        w = np.ones((k,) * n)
        for v in vars_:
            ps = self.parents[v]
            involved = tuple(axis[q] for q in ps) + (axis[v],)
            t = self.cpt[v].reshape((k,) * (len(ps) + 1))
            order = np.argsort(involved)
            t = np.transpose(t, order)
            shape = [1] * n
            for a in involved:
                shape[a] = k
            w = w * t.reshape(shape)
        for v, lik in (evidence or {}).items():
            shape = [1] * n
            shape[axis[v]] = k
            w = w * np.asarray(lik, dtype=np.float64).reshape(shape)
        total = float(w.sum())
        if total <= 0:
            from .errors import InconsistentEvidenceError

            raise InconsistentEvidenceError("evidence has zero joint probability")
        out = {}
        for v in vars_:
            others = tuple(i for i in range(n) if i != axis[v])
            out[v] = w.sum(axis=others) / total
        return out


class PolytreeEngine:
    """Family-clique join tree plus the factored dynamic engine (c = 1)."""

    def __init__(self, pt: Polytree, counter: OpCounter | None = None):
        problems = pt.validate()
        if problems:
            raise StructureError("; ".join(problems))
        p_max = max((len(ps) for ps in pt.parents.values()), default=0)
        if p_max > MAX_PARENTS:
            raise ScaleError(f"max in-degree {p_max} exceeds limit {MAX_PARENTS}")
        self.pt = pt
        self.n_clique = p_max + 1
        self.cliques: dict = {}
        self.ev_leaf: dict = {}
        self.tree = self._build_join_tree()
        self.engine = DynamicEngine(self.tree, counter)
        self.counter = self.engine.counter

    # ------------------------------------------------------------------

    def _build_join_tree(self) -> CausalTree:
        pt = self.pt
        k, n = pt.k, self.n_clique
        K = k**n
        marg = pt.prior_marginals()

        # family clique per variable, dummy-padded to uniform size n
        next_dummy = [0]

        def dummies(count):
            out = []
            for _ in range(count):
                out.append(("_pad", next_dummy[0]))
                next_dummy[0] += 1
            return tuple(out)

        for v in pt.parents:
            members = (v,) + pt.parents[v]
            members = members + dummies(n - len(members))
            self.cliques[v] = CliqueNode(members=members, k=k)

        # adjacency between families: one undirected edge per polytree edge
        adj: dict = {v: [] for v in pt.parents}
        for v, ps in pt.parents.items():
            for q in ps:
                adj[v].append((q, q))  # neighbor family, shared variable
                adj[q].append((v, q))

        roots = [v for v, ps in pt.parents.items() if not ps]
        root = min(roots)
        order = []
        jparent: dict = {root: (None, None)}
        stack = [root]
        seen = {root}
        while stack:
            v = stack.pop()
            order.append(v)
            for w, shared in adj[v]:
                if w not in seen:
                    seen.add(w)
                    jparent[w] = (v, shared)
                    stack.append(w)

        raw = RawTree(K)
        var_ids = {v: i for i, v in enumerate(sorted(pt.parents))}
        ev_base = len(var_ids)
        for v in order:
            raw.add_node(var_ids[v], f"C({pt.names[v]})")
        # root prior over the padded clique: variable marginal x dummy deltas
        root_cl = self.cliques[root]
        prior = clique_evidence(root_cl, root, marg[root])
        for mvar in root_cl.members[1:]:
            delta = np.zeros(k)
            delta[0] = 1.0
            prior = prior * clique_evidence(root_cl, mvar, delta)
        raw.set_root(var_ids[root], prior)

        for v in order:
            parent_family, shared = jparent[v]
            if parent_family is None:
                continue
            clique = self.cliques[v]
            clique.intersection = (shared,)
            table = self._clique_conditional(v, shared, marg)
            fm = build_projection(clique, self.cliques[parent_family], table)
            raw.add_edge(var_ids[parent_family], var_ids[v], fm)

        # per-variable evidence leaf on its own family clique, identity edge
        for i, v in enumerate(sorted(pt.parents)):
            leaf = ev_base + i
            raw.add_node(leaf, f"ev({pt.names[v]})")
            raw.add_edge(var_ids[v], leaf, FactoredMatrix.identity(K))
            self.ev_leaf[v] = leaf
        self._var_node = var_ids
        return binarize(raw)

    def _clique_conditional(self, v, shared, marg) -> np.ndarray:
        """L x K table Pr(family(v) | shared variable); rows are values of the
        shared variable, columns padded-clique values."""
        pt = self.pt
        k = pt.k
        clique = self.cliques[v]
        ps = pt.parents[v]
        K = clique.K
        table = np.zeros((k, K))
        cpt = pt.cpt[v].reshape((k,) * len(ps) + (k,)) if ps else pt.cpt[v]
        for val in range(K):
            coords = clique.coords(val)
            v_val = coords[0]
            par_vals = coords[1 : 1 + len(ps)]
            pad_vals = coords[1 + len(ps) :]
            if any(pad_vals):  # dummy members pinned to value 0
                continue
            p_v = cpt[tuple(par_vals) + (v_val,)] if ps else cpt[v_val]
            if shared == v:
                weight = p_v
                for q, q_val in zip(ps, par_vals):
                    weight *= marg[q][q_val]
                m_v = marg[v][v_val]
                table[v_val, val] = weight / m_v if m_v > 0 else 0.0
            else:
                weight = p_v
                for q, q_val in zip(ps, par_vals):
                    if q != shared:
                        weight *= marg[q][q_val]
                s_val = par_vals[ps.index(shared)]
                table[s_val, val] = weight
        # a shared-variable value of prior probability zero yields an all-zero
        # row; pin it to an arbitrary consistent clique value to keep the
        # table stochastic (the row is unreachable)
        for r in range(k):
            if table[r].sum() <= 0:
                coords = [0] * clique.n
                coords[clique.position(shared)] = r
                table[r, clique.encode(coords)] = 1.0
        return table

    # ------------------------------------------------------------------

    def pt_update(self, var, likelihood) -> None:
        """Absorb variable-level evidence: lift to the clique domain and push
        through the factored hierarchy."""
        if var not in self.ev_leaf:
            raise UsageError(f"unknown variable {var}")
        lik = linalg.as_vector(likelihood)
        if lik.shape[0] != self.pt.k:
            raise DimensionError(f"likelihood length {lik.shape[0]} != k={self.pt.k}")
        lifted = clique_evidence(self.cliques[var], var, lik)
        self.engine.update_evidence(self.ev_leaf[var], lifted)

    def pt_query(self, var) -> np.ndarray:
        """Posterior marginal of one variable, via its own family clique."""
        if var not in self.cliques:
            raise UsageError(f"unknown variable {var}")
        bel = self.engine.bel_query(self._var_node[var])
        return linalg.normalize(marginalize(bel, self.cliques[var], var))

    def query_via_clique(self, var, home) -> np.ndarray:
        """Marginal of var read out of another clique containing it (audit)."""
        cl = self.cliques[home]
        if var not in cl.members:
            raise UsageError(f"variable {var} not in clique of {home}")
        bel = self.engine.bel_query(self._var_node[home])
        return linalg.normalize(marginalize(bel, cl, var))
