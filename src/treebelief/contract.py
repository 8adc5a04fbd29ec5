"""Preprocessing: the contracted-tree sequence T_0..T_top.

Each contraction pass rakes alternating non-extreme leaves (a rake removes a
leaf together with its parent, folding their effect into a freshly derived
edge matrix of the grandparent).  Every derived matrix keeps a Recipe -- its
defining equation in terms of lower-level matrices and one leaf likelihood --
and each matrix or leaf likelihood feeds at most one Recipe at the next level,
so an evidence update touches a single chain of recipes.  Leaf likelihoods are
not copied: recipes read the tree's guarded form (`CausalTree.leaf_lambda`).
A rake makes only structure; a pass fills its targets with one
`linalg.rake_rows` per operand form, bitwise the `rake_compose` of updates.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from . import linalg
from .errors import StructureError
from .linalg import FactoredMatrix, OpCounter
from .tree import BinaryLinks, CausalTree


class MatCell:
    """Stable holder for one edge matrix of the hierarchy: the edge from
    `parent` into the child that keys the cell in `LevelTree.cell`.

    Carried-over levels share the cell object; recomputation replaces the
    whole value, never mutates it in place.  `parent` never changes: the one
    splice that re-parents a node (`rake`'s z under u) gives it a new cell.
    `consumer` is the position in `ContractionHierarchy.recipes` of the recipe
    that reads the cell, if any (not the Recipe, which holds the cell: no
    reference cycles to collect).  A derived value owns its data (array or
    right factor), so replacing it frees the old one.
    """

    __slots__ = ("value", "parent", "consumer")

    def __init__(self, value, parent: int):
        self.value = value
        self.parent = parent
        self.consumer: int | None = None


class Recipe:
    """Defining equation of a derived matrix:

        target = m_u . Diag(m_diag . lambda(leaf)) . m_pass

    with fixed left-to-right operand order so recomputation is bitwise
    reproducible against a full rebuild.
    """

    __slots__ = ("level", "target", "m_u", "m_diag", "m_pass", "leaf")

    def __init__(self, level, target, m_u, m_diag, m_pass, leaf):
        self.level = level  # rake happened between level and level+1
        self.target = target
        self.m_u = m_u
        self.m_diag = m_diag
        self.m_pass = m_pass
        self.leaf = leaf

    def recompute(self, tree: CausalTree, counter: OpCounter | None = None) -> None:
        self.target.value = linalg.rake_compose(
            self.m_u.value, self.m_diag.value, self.m_pass.value,
            tree.leaf_lambda(self.leaf), counter,
        )

    def inputs(self):
        return (self.m_u, self.m_diag, self.m_pass)


class LevelTree(BinaryLinks):
    """One contracted tree T_i: `kids` links plus edge-matrix cells.

    `cell[c]` holds the edge into c, so its keys are the non-root nodes and
    `cell[c].parent` is c's parent.  The node set is derived (the root plus
    every node with a cell), not stored.
    """

    def __init__(self, level: int, root: int):
        super().__init__(root)
        self.level = level
        self.cell: dict[int, MatCell] = {}

    def copy_next(self) -> "LevelTree":
        nxt = LevelTree(self.level + 1, self.root)
        nxt.kids = dict(self.kids)
        nxt.cell = dict(self.cell)
        return nxt

    @property
    def contains(self) -> set[int]:
        return {self.root, *self.cell}


class ContractionHierarchy:
    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.levels: list[LevelTree] = []
        self.recipes: list[Recipe] = []
        self.recipe_by_leaf: dict[int, Recipe] = {}
        self.ind: dict[int, int] = {}  # internal node -> its last level

    def consumer(self, cell: MatCell) -> Recipe | None:
        """The one recipe that reads `cell`, if any."""
        return None if cell.consumer is None else self.recipes[cell.consumer]

    def names(self) -> dict[MatCell, tuple[int, str, int]]:
        """The paper's name of every cell: (parent x, "A" for its left edge
        or "B" for its right one, birth level i), read where the cell first
        appears; a carried-over cell keeps its edge."""
        out = {}
        for lt in self.levels:
            for c, cell in lt.cell.items():
                if cell not in out:
                    x = cell.parent
                    out[cell] = (x, "A" if lt.kids[x][0] == c else "B", lt.level)
        return out

    def dump_lines(self) -> list[str]:
        """Diagnostic text: per-level node sets and the recipe graph."""
        out = []
        for lt in self.levels:
            nodes = " ".join(str(n) for n in sorted(lt.contains))
            out.append(f"level {lt.level} nodes {nodes}")
        names = self.names()
        for r in self.recipes:
            ins = " ".join("{}.{}@{}".format(*names[c]) for c in r.inputs())
            t = names[r.target]
            out.append(
                f"level {r.level + 1} {t[0]}.{t[1]} <- {ins} lambda({r.leaf})"
            )
        return out


def rake(hier: ContractionHierarchy, cur: LevelTree, nxt: LevelTree, e: int) -> Recipe:
    """Apply one rake of leaf e (read from T_i `cur`, applied to `nxt`); e is
    one of `contract_pass`'s eligible leaves, so its parent is not the root.
    Its target is left empty, for `contract_pass` to fill."""
    x = cur.cell[e].parent
    u = cur.cell[x].parent
    xl, xr = cur.kids[x]
    z = xr if e == xl else xl

    target = MatCell(None, u)
    recipe = Recipe(cur.level, target, cur.cell[x], cur.cell[e], cur.cell[z], e)

    # single-consumer audit; a leaf raked twice fails it too (its rake read its edge)
    pos = len(hier.recipes)  # where `recipe` is appended below
    for c, cell in zip((x, e, z), recipe.inputs()):
        if cell.consumer is not None:
            raise StructureError(f"edge matrix into {c} at level {cur.level} consumed twice")
        cell.consumer = pos
    hier.recipe_by_leaf[e] = recipe
    hier.recipes.append(recipe)
    hier.ind[x] = cur.level

    # splice the next-level tree: z takes x's place under u.  u's pair is read
    # from `nxt`: an earlier rake this pass may have replaced its other child.
    del nxt.cell[e], nxt.cell[x], nxt.kids[x]
    ul, ur = nxt.kids[u]
    nxt.kids[u] = (z, ur) if ul == x else (ul, z)
    nxt.cell[z] = target
    return recipe


def contract_pass(
    hier: ContractionHierarchy, cur: LevelTree, leaves: list[int],
    counter: OpCounter | None = None,
) -> tuple[LevelTree, list[int]] | None:
    """One CONTRACT pass over `cur` and its in-order `leaves`: rake
    alternating eligible non-extreme leaves.  Returns the next tree and its
    in-order leaves (`leaves` minus the raked ones: each survivor takes its
    parent's place), or None when no leaf is eligible.

    Parity is decided once on the eligible list before any raking; a candidate
    is skipped (without shifting parity) when an earlier rake this pass
    already removed its parent or refreshed one of its input matrices.  The
    rakes read only cells of `cur`, so their targets are filled after them.
    """
    eligible = [e for e in leaves[1:-1] if cur.cell[e].parent != cur.root]
    if not eligible:
        return None

    nxt = cur.copy_next()
    first = len(hier.recipes)
    removed: set[int] = set()
    fresh_targets: set[int] = set()
    for idx, e in enumerate(eligible):
        if idx % 2 != 0:
            continue
        x = cur.cell[e].parent
        u = cur.cell[x].parent
        if x in removed or x in fresh_targets or u in removed:
            continue
        rake(hier, cur, nxt, e)
        removed.update((x, e))
        fresh_targets.add(u)
    _fill(hier.tree, hier.recipes[first:], counter)
    # fresh copies drop the room the rakes' deletions left
    nxt.kids, nxt.cell = dict(nxt.kids), dict(nxt.cell)
    return nxt, [e for e in leaves if e not in removed]


def _form(m) -> int:
    """An edge matrix's operand form: 0 when dense, else the inner size L of
    its k x L and L x k factors (in a valid tree every matrix is k x k, so L
    fixes the factor shapes)."""
    return len(m.right) if isinstance(m, FactoredMatrix) else 0


def _operands(m_u: list, m_diag: list, m_pass: list, lams: list) -> list:
    """A group's `rake_rows` operands (`_operand`) and the stack of lams.
    The stacks share one allocation, as the kernel's products do: several
    blocks of one size freed together after each pass let glibc's heap trim
    its top, and every build then faulted its stacks in again (about 3,000
    page faults, 5-12 ms of system time per protein build)."""
    # room for every column stacked; a shared operand's part is never touched
    free = np.empty(sum(len(c) * _size(c[0]) for c in (m_u, m_diag, m_pass, lams)))

    def stack(values: list) -> np.ndarray:
        nonlocal free
        out, free = np.split(free, [len(values) * values[0].size])
        np.concatenate(values, out=out.reshape(-1, *values[0].shape[1:]))
        return out.reshape(len(values), *values[0].shape)

    return [_operand(m_u, stack), _operand(m_diag, stack), _operand(m_pass, stack), stack(lams)]


def _operand(values: list, stack):
    """One `rake_rows` operand: the one object all values are, not gathered,
    or their stack, factor by factor when factored."""
    first = values[0]
    if all(v is first for v in values):
        return first
    if isinstance(first, FactoredMatrix):
        left, right = [v.left for v in values], [v.right for v in values]
        return FactoredMatrix.of(_operand(left, stack), _operand(right, stack))
    return stack(values)


def _size(m) -> int:
    return m.left.size + m.right.size if isinstance(m, FactoredMatrix) else m.size


def _fill(tree: CausalTree, recipes: list[Recipe], counter: OpCounter | None) -> None:
    """Fill one pass's targets, one `linalg.rake_rows` per operand form (the
    forms of m_u, m_diag and m_pass); each target gets its own copy of its
    row, so a later recomputation frees the old value."""
    cols = (
        [r.m_u.value for r in recipes], [r.m_diag.value for r in recipes],
        [r.m_pass.value for r in recipes], [tree.leaf_lambda(r.leaf) for r in recipes],
    )
    forms = list(zip(*(map(_form, col) for col in cols[:3])))
    for form in dict.fromkeys(forms):
        mask = list(map(form.__eq__, forms))
        m_u, m_diag, m_pass, lams = (list(compress(col, mask)) for col in cols)
        result = linalg.rake_rows(*_operands(m_u, m_diag, m_pass, lams), counter)
        rows = map(np.ndarray.copy, result)
        if form[0]:  # a factored m_u's left factor carries over
            rows = map(FactoredMatrix.of, [u.left for u in m_u], rows)
        for r, value in zip(compress(recipes, mask), rows):
            r.target.value = value


def build_hierarchy(
    tree: CausalTree, counter: OpCounter | None = None
) -> ContractionHierarchy:
    """Repeat CONTRACT until the three-node top tree remains.

    The tree must already be valid (`binarize` validates it); leaf
    likelihoods are read through `CausalTree.leaf_lambda`.  Level 0 reads
    the tree's own `kids` dict, not a copy: a rake writes only the next
    level, which `copy_next` copies from its predecessor.  T_0's cells take
    their parents from the tree's `kids` pairs, the tree's one link store.
    The leaves are walked once, on T_0; each pass derives the next level's.
    Values are filled per pass; `counter` counts one `rake_compose` per rake.
    """
    hier = ContractionHierarchy(tree)

    t0 = LevelTree(0, tree.root)
    t0.kids = tree.kids
    t0.cell = {c: MatCell(tree.matrix[c], p) for p, pair in tree.kids.items() for c in pair}
    hier.levels.append(t0)

    cur, leaves = t0, t0.in_order_leaves()
    n_leaves = len(leaves)
    while (step := contract_pass(hier, cur, leaves, counter)) is not None:
        cur, leaves = step
        hier.levels.append(cur)
    if not cur.is_leaf(cur.root):
        hier.ind[cur.root] = cur.level

    if n_leaves >= 3 and len(leaves) != 2:
        raise StructureError(f"contraction stalled with {2 * len(leaves) - 1} nodes remaining")
    bound = 4 * math.ceil(math.log2(max(2, n_leaves))) + 2
    if len(hier.levels) > bound:
        raise StructureError(f"level count {len(hier.levels)} exceeds bound {bound}")
    return hier
