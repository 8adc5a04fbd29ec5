"""Text model formats.

BTN: causal-tree files (line-oriented, `#` comments, whitespace separated):

    BTN 1
    k <int>
    node <id> <name>
    root <id>
    prior <id> <k floats>
    edge <parent-id> <child-id> <k*k floats row-major, row = parent value>
    evidence <leaf-id> <k floats>        # optional initial likelihoods
    pad <leaf-id>                        # optional: a padding leaf, never evidenced
    copy <id> <original-id>              # optional: a copy, queried as its original

A BTN file has one `k`, one `root` and one `prior` line, and at most one
`evidence`, `pad` or `copy` line per node, declared above it.  `pad` and
`copy` lines keep `binarize`'s marks (`CausalTree.dummies` and `alias`)
through `serialize_btn`: a padding leaf has no children and no evidence, and
a copy's original is not itself a copy.  Floats are read by numpy's cast
(`np.array(tokens, dtype=float)`), which on numpy 2.x reads `float`'s grammar
and raises its error text.

`parse_btn` checks each line as it reads it, except the floats of `edge`
lines: it keeps their tokens and casts all of them at the end, in one call,
to one (n, k, k) stack with one finiteness test, whose rows are the raw
tree's edge matrices.  The first fault in file order is still the one
reported, with its line: a fault found while reading first has the edge
lines above it cast and tested, and a failed cast is retried line by line
only to name its line.  Within an edge line, a bad id comes first, then a
bad float, then a wrong count, then a non-finite number, then an unknown
node.  Evidence on a node with children is found once every edge is read,
and named by its line too.

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

import numpy as np

from . import linalg
from .errors import FormatError
from .polytree import Polytree
from .tree import CausalTree, RawTree, binarize


# fewest tokens (keyword included) each line kind needs
BTN_ARITY = {
    "k": 2, "node": 2, "root": 2, "prior": 2, "edge": 3, "evidence": 2, "pad": 2, "copy": 3
}
BTN_ONCE = {"k", "root", "prior"}
BTN_PER_NODE = {"evidence": "leaf", "pad": "node", "copy": "node"}  # once per node
PTN_ARITY = {"k": 2, "node": 2, "parents": 2, "cpt": 3, "prior": 2}


def _tokenized_lines(lines, arity):
    for lineno, line in enumerate(lines, 1):
        toks = line.partition("#")[0].split()
        if not toks:
            continue
        need = arity.get(toks[0], 1)
        if len(toks) < need:
            raise FormatError(
                f"`{toks[0]}` needs {need - 1} or more fields, got {len(toks) - 1}",
                line=lineno,
            )
        yield lineno, toks


def _cast(tokens, lineno, expected=None) -> np.ndarray:
    """`tokens` as floats, by numpy's cast, which reads `float`'s grammar and
    raises its error text; FormatError naming `lineno` for a bad float, then
    for a count other than `expected`."""
    try:
        vals = np.array(tokens, dtype=float)
    except ValueError as exc:
        raise FormatError(f"bad float: {exc}", line=lineno)
    if expected is not None and len(vals) != expected:
        raise FormatError(f"expected {expected} floats, got {len(vals)}", line=lineno)
    return vals


def _floats(tokens, lineno, expected=None):
    vals = _cast(tokens, lineno, expected)
    if not np.all(np.isfinite(vals)):
        raise FormatError("non-finite number", line=lineno)
    return vals


def _edge_stack(lines, tokens, k):
    """The k * k float tokens of the edge lines numbered `lines`, in order in
    `tokens`, cast at once to one (n, k, k) stack.  FormatError naming the
    first line with a bad float or a non-finite number, a bad float first
    within a line; only a failed cast goes through the lines one by one."""
    kk = k * k
    try:
        stack = np.array(tokens, dtype=float).reshape(len(lines), k, k)
    except ValueError:
        for i, lineno in enumerate(lines):
            try:
                _cast(tokens[i * kk : (i + 1) * kk], lineno)
            except FormatError:
                _edge_stack(lines[:i], tokens[: i * kk], k)  # a non-finite number first
                raise
        raise
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise FormatError("non-finite number", line=lines[int(finite.argmin())])
    return stack


def _int(token, lineno):
    try:
        v = int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", line=lineno)
    if v < 0:
        raise FormatError(f"ids must be nonnegative, got {v}", line=lineno)
    return v


def _node_name(toks, lineno):
    """The name field of a `node` line, or None when it has none."""
    if len(toks) > 3:
        raise FormatError(f"`node` takes one name field, got {len(toks) - 2}", line=lineno)
    return toks[2] if len(toks) == 3 else None


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
    ev_line = {}  # line of each evidence line, by leaf id
    pads = {}  # line of each pad line, by leaf id
    copies = {}  # (original, line) of each copy line, by copy id
    read = set()  # the BTN_ONCE keywords and (BTN_PER_NODE keyword, id) read so far
    edge_lines, parents, children = [], [], []  # of each edge line, in file order
    tokens = []  # the k * k float tokens of each edge line, in the same order
    try:
        for lineno, toks in it:
            kw = toks[0]
            if raw is None and kw != "k":
                raise FormatError(f"`k` must precede `{kw}`", line=lineno)
            per_node = BTN_PER_NODE.get(kw)
            if per_node or kw in BTN_ONCE:
                key = (kw, _int(toks[1], lineno)) if per_node else kw
                if key in read:
                    what = f" for {per_node} {key[1]}" if per_node else ""
                    raise FormatError(f"duplicate `{kw}` line{what}", line=lineno)
                read.add(key)
            if kw == "edge":  # the floats are cast after the loop, all at once
                parent = _int(toks[1], lineno)
                child = _int(toks[2], lineno)
                if len(toks) != 3 + raw.k * raw.k:
                    _cast(toks[3:], lineno, raw.k * raw.k)  # a bad float, else the count
                tokens += toks[3:]
                edge_lines.append(lineno)
                parents.append(parent)
                children.append(child)
                if parent not in raw.names or child not in raw.names:
                    raise FormatError(
                        f"edge {parent}->{child} references unknown node", line=lineno
                    )
            elif kw == "node":
                nid = _int(toks[1], lineno)
                if nid in raw.names:
                    raise FormatError(f"duplicate node id {nid}", line=lineno)
                raw.add_node(nid, _node_name(toks, lineno))
            elif kw == "k":
                raw = RawTree(_k(toks[1], lineno))
            elif per_node and key[1] not in raw.names:
                raise FormatError(f"{kw} for unknown node {key[1]}", line=lineno)
            elif kw == "root":
                root = _int(toks[1], lineno)
            elif kw == "prior":
                nid = _int(toks[1], lineno)
                prior = (nid, _floats(toks[2:], lineno, raw.k))
            elif kw == "evidence":
                evidence[key[1]] = _floats(toks[2:], lineno, raw.k)
                ev_line[key[1]] = lineno
            elif kw == "pad":
                pads[key[1]] = lineno
            elif kw == "copy":
                original = _int(toks[2], lineno)
                if original not in raw.names:
                    raise FormatError(f"copy of unknown node {original}", line=lineno)
                copies[key[1]] = original, lineno
            else:
                raise FormatError(f"unknown keyword {kw!r}", line=lineno)
    except FormatError:
        if edge_lines:  # a fault in the floats of an earlier edge line comes first
            _edge_stack(edge_lines, tokens, raw.k)
        raise
    if raw is None:
        raise FormatError("missing `k` line")
    stack = _edge_stack(edge_lines, tokens, raw.k)
    if root is None:
        raise FormatError("missing `root` line")
    if prior is None or prior[0] != root:
        raise FormatError("missing `prior` line for the root")
    for parent, child, m in zip(parents, children, stack):  # row views of the one stack
        raw.children[parent].append(child)
        raw.matrix[child] = m
    for leaf, lineno in ev_line.items():
        if raw.children[leaf]:
            raise FormatError(f"evidence on non-leaf node {leaf}", line=lineno)
    for leaf, lineno in pads.items():
        if raw.children[leaf]:
            raise FormatError(f"padding node {leaf} has children", line=lineno)
        if leaf in ev_line:
            raise FormatError(f"evidence on padding leaf {leaf}", line=ev_line[leaf])
    for cp, (original, lineno) in copies.items():
        if original in copies:
            raise FormatError(f"copy {cp} of {original}, itself a copy", line=lineno)
    raw.set_root(root, prior[1])
    raw.evidence = evidence
    raw.dummies = set(pads)
    raw.alias = {cp: original for cp, (original, _) in copies.items()}
    return binarize(raw)


def serialize_btn(tree: CausalTree) -> str:
    """Normalized BTN text for a (binary) causal tree.  parse(serialize(t))
    keeps its node ids, names, links, edge matrices, prior and evidence, so
    its beliefs, and its padding leaves and copies (`pad` and `copy` lines,
    written only when the tree has any).  A name is one BTN field, so one
    that is empty or holds whitespace or `#` is a FormatError naming its
    node."""
    out = ["BTN 1", f"k {tree.k}"]
    for nid in sorted(tree.names):
        name = tree.names[nid]
        if name.split() != [name] or "#" in name:
            raise FormatError(f"node {nid} name {name!r} is not one field without `#`")
        out.append(f"node {nid} {name}")
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
    out += (f"pad {leaf}" for leaf in sorted(tree.dummies))
    out += (f"copy {cp} {original}" for cp, original in sorted(tree.alias.items()))
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
            declared[nid] = _node_name(toks, lineno)
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
