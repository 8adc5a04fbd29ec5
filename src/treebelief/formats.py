"""Text model formats.

BTN: causal-tree files (line-oriented, `#` comments, whitespace separated):

    BTN 1
    k <int>
    node <id> <name>
    root <id>
    prior <id> <k floats>
    edge <parent-id> <child-id> <k*k floats row-major, row = parent value>
    evidence <leaf-id> <k floats>        # optional initial likelihoods

PTN: polytree files:

    PTN 1
    k <int>
    node <id> <name>
    parents <id> <parent-ids...>
    cpt <id> <k^(parents+1) floats>      # row = mixed-radix parent tuple
    prior <id> <k floats>                # parentless nodes
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, StructureError
from .polytree import Polytree
from .tree import CausalTree, RawTree, binarize


# fewest tokens (keyword included) each line kind needs
BTN_ARITY = {"k": 2, "node": 2, "root": 2, "prior": 2, "edge": 3, "evidence": 2}
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


def _floats(tokens, lineno, expected=None):
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise FormatError(f"bad float: {exc}", line=lineno)
    if expected is not None and len(vals) != expected:
        raise FormatError(f"expected {expected} floats, got {len(vals)}", line=lineno)
    if not np.all(np.isfinite(vals)):
        raise FormatError("non-finite number", line=lineno)
    return vals


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
    for lineno, toks in it:
        kw = toks[0]
        if kw == "k":
            if raw is not None:
                raise FormatError("duplicate `k` line", line=lineno)
            raw = RawTree(_k(toks[1], lineno))
        elif raw is None:
            raise FormatError(f"`k` must precede `{kw}`", line=lineno)
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
            m = _floats(toks[3:], lineno, raw.k * raw.k).reshape(raw.k, raw.k)
            try:
                raw.add_edge(parent, child, m)
            except StructureError as exc:
                raise FormatError(str(exc), line=lineno)
        elif kw == "evidence":
            leaf = _int(toks[1], lineno)
            evidence[leaf] = _floats(toks[2:], lineno, raw.k)
        else:
            raise FormatError(f"unknown keyword {kw!r}", line=lineno)

    if raw is None:
        raise FormatError("missing `k` line")
    if root is None:
        raise FormatError("missing `root` line")
    if prior is None or prior[0] != root:
        raise FormatError("missing `prior` line for the root")
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
        for child in tree.children_of(nid):
            m = tree.matrix[child]
            if hasattr(m, "expand"):
                m = m.expand()
            flat = " ".join(f"{v:.17g}" for v in np.asarray(m).ravel())
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
        elif kw == "parents":
            nid = _int(toks[1], lineno)
            parents[nid] = tuple(_int(t, lineno) for t in toks[2:])
        elif kw == "cpt":
            nid = _int(toks[1], lineno)
            tables[nid] = _floats(toks[2:], lineno)
        elif kw == "prior":
            nid = _int(toks[1], lineno)
            tables[nid] = _floats(toks[2:], lineno, pt.k)
        else:
            raise FormatError(f"unknown keyword {kw!r}", line=lineno)
    if pt is None:
        raise FormatError("missing `k` line")
    for nid, name in declared.items():
        pt.add_variable(nid, parents.get(nid, ()), name=name)
    for nid, table in tables.items():
        if nid not in declared:
            raise FormatError(f"table for undeclared node {nid}")
        p = len(pt.parents[nid])
        want = pt.k ** (p + 1) if p else pt.k
        if table.size != want:
            raise FormatError(
                f"node {nid}: expected {want} floats in table, got {table.size}"
            )
        pt.set_cpt(nid, table)
    problems = pt.validate()
    if problems:
        raise StructureError("; ".join(problems))
    return pt
