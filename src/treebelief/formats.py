"""Text model formats.

BTN: causal-tree files (line-oriented, `#` comments, whitespace separated):

    BTN 1
    k <int>
    node <id> <name>
    root <id>
    prior <id> <k floats>
    edge <parent-id> <child-id> <k*k floats row-major, row = parent value>
    evidence <leaf-id> <k floats>        # optional initial likelihoods

A BTN file has one `k`, one `root` and one `prior` line, and at most one
`evidence` line per leaf.  `parse_btn` checks each line as it reads it, but
converts the floats of all `edge` lines at the end, as one (n, k, k) stack
with one finiteness test; the first fault in file order is the one reported,
with its line.

PTN: polytree files:

    PTN 1
    k <int>
    node <id> <name>
    parents <id> <parent-ids...>
    cpt <id> <k^(parents+1) floats>      # row = mixed-radix parent tuple
    prior <id> <k floats>                # parentless nodes

Each PTN node has at most one `parents` line and one table (`cpt` or
`prior`), and the node they are for must be declared by a `node` line.
"""

from __future__ import annotations

from array import array

import numpy as np

from . import linalg
from .errors import FormatError
from .polytree import Polytree
from .tree import CausalTree, RawTree, binarize


# fewest tokens (keyword included) each line kind needs
BTN_ARITY = {"k": 2, "node": 2, "root": 2, "prior": 2, "edge": 3, "evidence": 2}
BTN_ONCE = {"k", "root", "prior", "evidence"}  # evidence: once per leaf
PTN_ARITY = {"k": 2, "node": 2, "parents": 2, "cpt": 3, "prior": 2}


def _tokenized_lines(lines, arity):
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        need = arity.get(toks[0], 1)
        if len(toks) < need:
            raise FormatError(
                f"`{toks[0]}` needs {need - 1} or more fields, got {len(toks) - 1}",
                line=lineno,
            )
        yield lineno, toks


def _float_list(tokens, lineno, expected=None):
    try:
        vals = list(map(float, tokens))
    except ValueError as exc:
        raise FormatError(f"bad float: {exc}", line=lineno)
    if expected is not None and len(vals) != expected:
        raise FormatError(f"expected {expected} floats, got {len(vals)}", line=lineno)
    return vals


def _floats(tokens, lineno, expected=None):
    vals = np.array(_float_list(tokens, lineno, expected))
    if not np.all(np.isfinite(vals)):
        raise FormatError("non-finite number", line=lineno)
    return vals


def _edge_stack(edges, flat, k):
    """The k * k floats of each edge line in `edges`, read in order from
    `flat`, as one (n, k, k) stack; FormatError naming the first line with a
    non-finite number."""
    stack = np.frombuffer(flat, dtype=np.float64).reshape(len(edges), k, k)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise FormatError("non-finite number", line=edges[int(finite.argmin())][0])
    return stack


def _int(token, lineno):
    try:
        v = int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", line=lineno)
    if v < 0:
        raise FormatError(f"ids must be nonnegative, got {v}", line=lineno)
    return v


def _k(token, lineno):
    k = _int(token, lineno)
    if k < 1:
        raise FormatError("k must be at least 1", line=lineno)
    return k


def parse_btn(lines) -> CausalTree:
    """Parse BTN text (iterable of lines) into a validated CausalTree."""
    it = _tokenized_lines(lines, BTN_ARITY)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty file", line=1)
    if header != ["BTN", "1"]:
        raise FormatError("missing `BTN 1` header", line=lineno)

    raw: RawTree | None = None
    root = None
    prior = None
    evidence = {}
    read = set()  # the BTN_ONCE lines read so far: keywords, or leaf ids
    edges = []  # (line, parent, child) of each edge line, in file order
    flat = array("d")  # the k * k floats of each edge line, in the same order
    try:
        for lineno, toks in it:
            kw = toks[0]
            if raw is None and kw != "k":
                raise FormatError(f"`k` must precede `{kw}`", line=lineno)
            key = _int(toks[1], lineno) if kw == "evidence" else kw
            if key in read:
                leaf = f" for leaf {key}" if kw == "evidence" else ""
                raise FormatError(f"duplicate `{kw}` line{leaf}", line=lineno)
            if kw in BTN_ONCE:
                read.add(key)
            if kw == "k":
                raw = RawTree(_k(toks[1], lineno))
            elif kw == "node":
                nid = _int(toks[1], lineno)
                if nid in raw.names:
                    raise FormatError(f"duplicate node id {nid}", line=lineno)
                raw.add_node(nid, toks[2] if len(toks) > 2 else None)
            elif kw == "root":
                root = _int(toks[1], lineno)
            elif kw == "prior":
                nid = _int(toks[1], lineno)
                prior = (nid, _floats(toks[2:], lineno, raw.k))
            elif kw == "edge":
                parent = _int(toks[1], lineno)
                child = _int(toks[2], lineno)
                flat.extend(_float_list(toks[3:], lineno, raw.k * raw.k))
                edges.append((lineno, parent, child))
                if parent not in raw.names or child not in raw.names:
                    raise FormatError(
                        f"edge {parent}->{child} references unknown node", line=lineno
                    )
            elif kw == "evidence":
                evidence[key] = _floats(toks[2:], lineno, raw.k)
            else:
                raise FormatError(f"unknown keyword {kw!r}", line=lineno)
    except FormatError:
        if edges:  # a non-finite number on an earlier edge line comes first
            _edge_stack(edges, flat, raw.k)
        raise
    if raw is None:
        raise FormatError("missing `k` line")
    stack = _edge_stack(edges, flat, raw.k)
    if root is None:
        raise FormatError("missing `root` line")
    if prior is None or prior[0] != root:
        raise FormatError("missing `prior` line for the root")
    for (_, parent, child), m in zip(edges, stack):
        raw.add_edge(parent, child, m)
    raw.set_root(root, prior[1])
    raw.evidence = evidence
    return binarize(raw)


def serialize_btn(tree: CausalTree) -> str:
    """Normalized BTN text for a (binary) causal tree; parse(serialize(t))
    reproduces t."""
    out = ["BTN 1", f"k {tree.k}"]
    for nid in sorted(tree.names):
        out.append(f"node {nid} {tree.names[nid]}")
    out.append(f"root {tree.root}")
    out.append(f"prior {tree.root} " + " ".join(f"{v:.17g}" for v in tree.prior))
    for nid in sorted(tree.names):
        if tree.is_leaf(nid):
            continue
        for child in tree.kids[nid]:
            flat = " ".join(f"{v:.17g}" for v in linalg.dense(tree.matrix[child]).ravel())
            out.append(f"edge {nid} {child} {flat}")
    for leaf in sorted(tree.evidence):
        flat = " ".join(f"{v:.17g}" for v in tree.evidence[leaf])
        out.append(f"evidence {leaf} {flat}")
    return "\n".join(out) + "\n"


def parse_ptn(lines) -> Polytree:
    """Parse PTN text into a validated Polytree."""
    it = _tokenized_lines(lines, PTN_ARITY)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise FormatError("empty file", line=1)
    if header != ["PTN", "1"]:
        raise FormatError("missing `PTN 1` header", line=lineno)

    pt: Polytree | None = None
    declared: dict[int, str | None] = {}
    parents: dict[int, tuple] = {}
    tables: dict[int, np.ndarray] = {}
    line_of: dict[tuple, int] = {}  # ("parents" or "table", node id) -> line
    for lineno, toks in it:
        kw = toks[0]
        if kw == "k":
            if pt is not None:
                raise FormatError("duplicate `k` line", line=lineno)
            pt = Polytree(k=_k(toks[1], lineno))
        elif pt is None:
            raise FormatError(f"`k` must precede `{kw}`", line=lineno)
        elif kw == "node":
            nid = _int(toks[1], lineno)
            if nid in declared:
                raise FormatError(f"duplicate node id {nid}", line=lineno)
            declared[nid] = toks[2] if len(toks) > 2 else None
        elif kw in ("parents", "cpt", "prior"):
            nid = _int(toks[1], lineno)
            key = ("parents" if kw == "parents" else "table", nid)
            if key in line_of:
                raise FormatError(f"duplicate {key[0]} for node {nid}", line=lineno)
            line_of[key] = lineno
            if kw == "parents":
                parents[nid] = tuple(_int(t, lineno) for t in toks[2:])
            else:
                tables[nid] = _floats(toks[2:], lineno, pt.k if kw == "prior" else None)
        else:
            raise FormatError(f"unknown keyword {kw!r}", line=lineno)
    if pt is None:
        raise FormatError("missing `k` line")
    for (what, nid), lineno in line_of.items():
        if nid not in declared:
            raise FormatError(f"{what} for undeclared node {nid}", line=lineno)
    for nid, name in declared.items():
        pt.add_variable(nid, parents.get(nid, ()), name=name)
    for nid, table in tables.items():
        p = len(pt.parents[nid])
        want = pt.k ** (p + 1) if p else pt.k
        if table.size != want:
            raise FormatError(
                f"node {nid}: expected {want} floats in table, got {table.size}",
                line=line_of["table", nid],
            )
        pt.set_cpt(nid, table)
    pt.check()
    return pt
