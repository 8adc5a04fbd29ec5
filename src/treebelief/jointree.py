"""Join-tree specialization: factored clique-edge matrices.

A directed join tree is an ordinary causal tree whose variables are cliques
(domain size K = k^n).  Because a clique depends on its parent clique only
through their intersection (L = k^c values), every edge matrix factors as a
K x L selection matrix times an L x K conditional table; rakes preserve the
factored form, so derived matrices cost O(K L^2) instead of O(K^3) to
recompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, StructureError, UsageError
from .linalg import OpCounter


class FactoredMatrix:
    """Edge matrix in product form: semantic value = left @ right.

    left is K x L, right is L x K; level-0 left factors are 0/1 selection
    matrices with exactly one 1 per row.  Applications and rakes never expand
    the product.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left = linalg.as_matrix(left)
        right = linalg.as_matrix(right)
        if left.shape[1] != right.shape[0]:
            raise DimensionError(
                f"factored shapes do not chain: {left.shape} x {right.shape}"
            )
        self.left = left
        self.right = right

    @property
    def shape(self):
        return (self.left.shape[0], self.right.shape[1])

    def expand(self) -> np.ndarray:
        return self.left @ self.right

    def copy(self) -> "FactoredMatrix":
        return FactoredMatrix(self.left.copy(), self.right.copy())

    def mv(self, v, counter: OpCounter | None = None) -> np.ndarray:
        v = linalg.as_vector(v)
        if counter is not None:
            counter.mat_vec += 2
            counter.flops += self.left.size + self.right.size
        return self.left @ (self.right @ v)

    def mv_t(self, v, counter: OpCounter | None = None) -> np.ndarray:
        # (left . right)^T v = right^T (left^T v); factors transposed lazily
        v = linalg.as_vector(v)
        if counter is not None:
            counter.mat_vec += 2
            counter.flops += self.left.size + self.right.size
        return self.right.T @ (self.left.T @ v)

    @classmethod
    def identity(cls, size: int) -> "FactoredMatrix":
        eye = np.eye(size)
        return cls(eye, eye.copy())


@dataclass
class CliqueNode:
    """One clique variable: ordered members, mixed-radix value encoding with
    the first-listed member most significant."""

    members: tuple
    k: int
    intersection: tuple = ()  # shared with the parent clique, fixed order

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def K(self) -> int:
        return self.k ** len(self.members)

    @property
    def L(self) -> int:
        return self.k ** len(self.intersection)

    def position(self, var) -> int:
        try:
            return self.members.index(var)
        except ValueError:
            raise UsageError(f"variable {var} not in clique {self.members}")

    def coords(self, value: int) -> tuple:
        digits = []
        for _ in range(self.n):
            digits.append(value % self.k)
            value //= self.k
        return tuple(reversed(digits))

    def encode(self, coords) -> int:
        v = 0
        for d in coords:
            v = v * self.k + int(d)
        return v

    def coord_of(self, value: int, var) -> int:
        pos = self.position(var)
        return (value // self.k ** (self.n - 1 - pos)) % self.k

    def project(self, value: int, variables) -> int:
        """Mixed-radix code of the given member variables, in listed order."""
        v = 0
        for var in variables:
            v = v * self.k + self.coord_of(value, var)
        return v


def build_projection(clique: CliqueNode, parent: CliqueNode, table) -> FactoredMatrix:
    """Factor the parent->clique edge as J . table.

    J maps each parent-clique value to its intersection code (one 1 per row);
    `table` is the L x K conditional of the child clique given the
    intersection.
    """
    inter = clique.intersection
    for var in inter:
        if var not in parent.members or var not in clique.members:
            raise StructureError(f"intersection variable {var} is not shared")
    table = linalg.as_matrix(table)
    L, K = clique.k ** len(inter), clique.K
    if table.shape != (L, K):
        raise DimensionError(f"conditional table must be {L}x{K}, got {table.shape}")
    j = np.zeros((parent.K, L))
    for r in range(parent.K):
        j[r, parent.project(r, inter)] = 1.0
    return FactoredMatrix(j, table)


def clique_evidence(clique: CliqueNode, var, likelihood) -> np.ndarray:
    """Lift a k-vector likelihood on one member to the clique's K-domain."""
    lik = linalg.as_vector(likelihood)
    if lik.shape[0] != clique.k:
        raise DimensionError(f"likelihood length {lik.shape[0]} != k={clique.k}")
    pos = clique.position(var)
    shape = [1] * clique.n
    shape[pos] = clique.k
    out = np.broadcast_to(
        lik.reshape(shape), (clique.k,) * clique.n
    )
    return out.reshape(clique.K).copy()


def marginalize(bel, clique: CliqueNode, var) -> np.ndarray:
    """Sum a clique belief down to one member variable's k-vector."""
    bel = linalg.as_vector(bel)
    if bel.shape[0] != clique.K:
        raise DimensionError(f"belief length {bel.shape[0]} != K={clique.K}")
    pos = clique.position(var)
    cube = bel.reshape((clique.k,) * clique.n)
    axes = tuple(i for i in range(clique.n) if i != pos)
    return cube.sum(axis=axes)

