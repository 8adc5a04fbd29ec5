"""Join-tree specialization: cliques and their factored edge matrices.

A directed join tree is an ordinary causal tree whose variables are cliques
(domain size K = k^n).  A clique value is the C-order flat index of a
(k,)*n array with one axis per member, in listed order.  Because a clique
depends on its parent clique only through their intersection (L = k^c
values), every edge matrix factors as a K x L selection matrix times an
L x K conditional table; rakes preserve the factored form, so derived
matrices cost O(K L^2) instead of O(K^3) to recompute.  The factored kind,
`linalg.FactoredMatrix`, lives with the kernels that apply it; this module
builds one per clique edge (`build_projection`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, StructureError, UsageError
from .linalg import FactoredMatrix


@dataclass
class CliqueNode:
    """One clique variable: ordered members, one value axis each."""

    members: tuple
    k: int
    intersection: tuple = ()  # shared with the parent clique, fixed order

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def K(self) -> int:
        return self.k ** len(self.members)

    def position(self, var) -> int:
        try:
            return self.members.index(var)
        except ValueError:
            raise UsageError(f"variable {var} not in clique {self.members}")


def build_projection(clique: CliqueNode, parent: CliqueNode, table) -> FactoredMatrix:
    """Factor the parent->clique edge as J . table.

    J maps each parent-clique value to its intersection code, the flat index
    of the intersection's values in listed order (one 1 per row); `table` is
    the L x K conditional of the child clique given the intersection.
    """
    inter = clique.intersection
    for var in inter:
        if var not in parent.members or var not in clique.members:
            raise StructureError(f"intersection variable {var} is not shared")
    table = linalg.as_matrix(table)
    L, K = clique.k ** len(inter), clique.K
    if table.shape != (L, K):
        raise DimensionError(f"conditional table must be {L}x{K}, got {table.shape}")
    digits = np.indices((parent.k,) * parent.n).reshape(parent.n, parent.K)
    code = np.ravel_multi_index(
        tuple(digits[parent.position(var)] for var in inter), (parent.k,) * len(inter)
    )
    j = np.zeros((parent.K, L))
    j[np.arange(parent.K), code] = 1.0
    return FactoredMatrix(j, table)


def clique_evidence(clique: CliqueNode, var, likelihood) -> np.ndarray:
    """Lift a k-vector likelihood on one member to the clique's K-domain."""
    lik = linalg.as_vector(likelihood)
    if lik.shape[0] != clique.k:
        raise DimensionError(f"likelihood length {lik.shape[0]} != k={clique.k}")
    pos = clique.position(var)
    shape = [1] * clique.n
    shape[pos] = clique.k
    out = np.broadcast_to(lik.reshape(shape), (clique.k,) * clique.n)
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

