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
from .errors import DimensionError, ScaleError, StructureError, UsageError
from .exact import enumerate_marginals
from .jointree import CliqueNode, build_projection, clique_evidence, marginalize
from .linalg import OpCounter
from .tree import ROW_SUM_TOL, CausalTree, RawTree, binarize

MAX_PARENTS = 4  # a family clique has k^(parents+1) values


@dataclass
class Polytree:
    """Directed singly connected network with uniform domain size k.

    cpt[v] has shape (k^p_v, k): row index is the mixed-radix code of the
    parent value tuple (first parent most significant), column the child
    value.  Parentless variables carry a (k,) prior instead.  Variables and
    tables change through add_variable and set_cpt, which clear the record
    that `check` passed.
    """

    k: int
    parents: dict = field(default_factory=dict)  # var -> tuple of vars
    cpt: dict = field(default_factory=dict)
    names: dict = field(default_factory=dict)
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def add_variable(self, var, parents=(), cpt=None, name=None):
        self._checked = False
        self.parents[var] = tuple(parents)
        self.names[var] = name if name is not None else str(var)
        if cpt is not None:
            self.set_cpt(var, cpt)

    def set_cpt(self, var, cpt):
        if var not in self.parents:
            raise UsageError(f"unknown variable {var}")
        self._checked = False
        p = len(self.parents[var])
        arr = np.asarray(cpt, dtype=np.float64)
        size = self.k ** (p + 1)
        if arr.size != size:
            raise DimensionError(f"table of variable {var} has {arr.size} entries, expected {size}")
        self.cpt[var] = arr.reshape((self.k**p, self.k) if p else (self.k,))

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
            if not np.all(np.isfinite(t)):
                out.append(f"table of {v} has non-finite entries")
                continue
            rows = t.reshape(-1, self.k) if t.ndim > 1 else t.reshape(1, self.k)
            bad = np.where(~(np.abs(rows.sum(axis=1) - 1.0) <= ROW_SUM_TOL))[0]
            for r in bad:
                out.append(f"table of {v}: row {r} sums to {rows[r].sum():.6g}")
            if np.any(t < 0):
                out.append(f"table of {v} has negative entries")
        return out

    def check(self) -> None:
        """Raise StructureError naming every `validate` violation.  Once passed,
        it is not repeated until add_variable or set_cpt changes the polytree,
        so parsing and then building an engine validate once."""
        if self._checked:
            return
        problems = self.validate()
        if problems:
            raise StructureError("; ".join(problems))
        self._checked = True

    def prior_marginals(self) -> dict:
        """No-evidence marginal of every variable (parents of any node sit in
        disjoint subtrees, hence are independent)."""
        children: dict = {}
        waiting = {v: len(ps) for v, ps in self.parents.items()}
        for v, ps in self.parents.items():
            for q in ps:
                children.setdefault(q, []).append(v)
        ready = [v for v, count in waiting.items() if count == 0]
        marg: dict = {}
        while ready:  # Kahn's algorithm: a variable once all its parents are done
            v = ready.pop()
            ps = self.parents[v]
            if not ps:
                marg[v] = self.cpt[v].copy()
            else:
                joint = np.ones(1)
                for q in ps:
                    joint = np.multiply.outer(joint, marg[q])
                marg[v] = joint.reshape(-1) @ self.cpt[v]
            for w in children.get(v, ()):
                waiting[w] -= 1
                if waiting[w] == 0:
                    ready.append(w)
        if len(marg) < len(self.parents):
            raise StructureError("directed cycle in polytree")
        return marg

    def joint_conditionals(
        self, evidence: dict | None = None, counter: OpCounter | None = None
    ) -> dict:
        """Brute-force oracle: conditional marginal of every variable given
        per-variable likelihood evidence (`exact.enumerate_marginals`)."""
        factors = [
            (self.parents[v] + (v,), self.cpt[v]) for v in sorted(self.parents)
        ]
        factors += [((v,), lik) for v, lik in (evidence or {}).items()]
        return enumerate_marginals(self.k, factors, counter)


def _pad_zero(family, n: int) -> np.ndarray:
    """Embed an array over a clique's leading members into its (k,)*n array,
    the pad members after them pinned to value 0."""
    out = np.zeros(family.shape[:1] * n)
    out[(...,) + (0,) * (n - family.ndim)] = family
    return out


class PolytreeEngine:
    """Family-clique join tree plus the factored dynamic engine (c = 1),
    answering the engine protocol per polytree variable."""

    def __init__(self, pt: Polytree):
        pt.check()
        p_max = max((len(ps) for ps in pt.parents.values()), default=0)
        if p_max > MAX_PARENTS:
            raise ScaleError(f"max in-degree {p_max} exceeds limit {MAX_PARENTS}")
        self.pt = pt
        self.n_clique = p_max + 1
        self.cliques: dict = {}
        self.ev_leaf: dict = {}
        self.tree = self._build_join_tree()
        self.engine = DynamicEngine(self.tree)
        self.counter = self.engine.counter

    # ------------------------------------------------------------------

    def _build_join_tree(self) -> CausalTree:
        pt = self.pt
        k, n = pt.k, self.n_clique
        K = k**n
        marg = pt.prior_marginals()

        # family clique per variable, padded to uniform size n
        for v, ps in pt.parents.items():
            pads = tuple(("_pad", v, i) for i in range(n - 1 - len(ps)))
            self.cliques[v] = CliqueNode(members=(v,) + ps + pads, k=k)

        # adjacency between families: one undirected edge per polytree edge
        adj: dict = {v: [] for v in pt.parents}
        for v, ps in pt.parents.items():
            for q in ps:
                adj[v].append((q, q))  # neighbor family, shared variable
                adj[q].append((v, q))

        root = min(v for v, ps in pt.parents.items() if not ps)
        order = []
        jparent: dict = {root: (None, None)}
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w, shared in adj[v]:
                if w not in jparent:
                    jparent[w] = (v, shared)
                    stack.append(w)

        raw = RawTree(K)
        var_ids = {v: i for i, v in enumerate(sorted(pt.parents))}
        for v in order:
            raw.add_node(var_ids[v], f"C({pt.names[v]})")
        raw.set_root(var_ids[root], _pad_zero(marg[root], n).reshape(K))

        for v in order:
            parent_family, shared = jparent[v]
            if parent_family is None:
                continue
            clique = self.cliques[v]
            clique.intersection = (shared,)
            table = self._clique_conditional(v, shared, marg)
            fm = build_projection(clique, self.cliques[parent_family], table)
            raw.add_edge(var_ids[parent_family], var_ids[v], fm)

        # per-variable evidence leaf under its family clique, sharing v; the
        # lifted likelihood depends on v alone, so T's row a can be one-hot at
        # the value (v=a, others 0), flat index a * k^(n-1) (v is first)
        one_hot = np.zeros((k, K))
        one_hot[np.arange(k), np.arange(k) * k ** (n - 1)] = 1.0
        for i, v in enumerate(sorted(pt.parents)):
            leaf = len(var_ids) + i
            family = self.cliques[v]
            ev_clique = CliqueNode(members=family.members, k=k, intersection=(v,))
            raw.add_node(leaf, f"ev({pt.names[v]})")
            raw.add_edge(var_ids[v], leaf, build_projection(ev_clique, family, one_hot))
            self.ev_leaf[v] = leaf
        self._var_node = var_ids
        return binarize(raw)

    def _clique_conditional(self, v, shared, marg) -> np.ndarray:
        """L x K table Pr(family(v) | shared variable); rows are values of the
        shared variable, columns padded-clique values."""
        k, ps = self.pt.k, self.pt.parents[v]
        clique = self.cliques[v]
        # axes (v, *parents): Pr(v | parents) times each unshared parent's
        # marginal, a (k, 1, ..., 1) column broadcast onto that parent's axis
        family = np.moveaxis(self.pt.cpt[v].reshape((k,) * (len(ps) + 1)), -1, 0)
        for i, q in enumerate(ps):
            if q != shared:
                family = family * marg[q].reshape((k,) + (1,) * (len(ps) - 1 - i))
        if shared == v:
            m_v = marg[v].reshape((k,) + (1,) * len(ps))
            family = np.divide(family, m_v, out=np.zeros(family.shape), where=m_v > 0)
        pos = clique.position(shared)
        select = np.eye(k).reshape((k,) + (1,) * pos + (k,) + (1,) * (clique.n - 1 - pos))
        table = (select * _pad_zero(family, clique.n)).reshape(k, clique.K)
        # a shared-variable value of prior probability zero yields an all-zero
        # row; pin it to an arbitrary consistent clique value to keep the
        # table stochastic (the row is unreachable)
        for r in np.flatnonzero(table.sum(axis=1) <= 0):
            digits = [0] * clique.n
            digits[pos] = r
            table[r, np.ravel_multi_index(digits, (k,) * clique.n)] = 1.0
        return table

    # ------------------------------------------------------------------

    def update_evidence(self, var, likelihood) -> None:
        """Absorb variable-level evidence: lift to the clique domain and push
        through the factored hierarchy."""
        if var not in self.ev_leaf:
            raise UsageError(f"unknown variable {var}")
        # clique_evidence checks the length, set_evidence the entries
        lifted = clique_evidence(self.cliques[var], var, likelihood)
        self.engine.update_evidence(self.ev_leaf[var], lifted)

    def bel_query(self, var) -> np.ndarray:
        """Posterior marginal of one variable, via its own family clique."""
        if var not in self.cliques:
            raise UsageError(f"unknown variable {var}")
        bel = self.engine.bel_query(self._var_node[var])
        return linalg.normalize(marginalize(bel, self.cliques[var], var))
