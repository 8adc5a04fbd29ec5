"""Small vector/matrix kernels shared by every engine, and both kinds of
edge matrix.

Vectors are 1-D float64 numpy arrays (likelihood or belief vectors).  An
edge matrix (entry (x, y) = Pr(child=y | parent=x)) is a 2-D float64 array
or a `FactoredMatrix`; `isinstance(m, FactoredMatrix)` is the one test of
its kind, and `dense(m)` reads either kind as an array.

All functions are pure; the optional OpCounter argument only accumulates
instrumentation counts.  The product kernels trust their operands, which
were converted and checked once, where they entered the program.

Products are `ndarray.dot` calls, not the `@` operator.  At the sizes here
(k = 2..27) a product's cost is numpy's fixed cost per call, not its flops,
and `dot` reaches the same BLAS routine as `@` with less dispatch (less than
half the time of `@` for a 4 x 4 matrix-vector product); the results are
bitwise equal.  A transpose is never built: `v.dot(m)` is m^T v.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InconsistentEvidenceError

# Outside this max-entry range likelihood vectors / derived matrices are
# rescaled by a power of two into [0.5, 1); beliefs are invariant under
# positive scaling, and a power of two scales every entry exactly.
SCALE_MIN = 2.0**-128
SCALE_MAX = 2.0**128
# A sum of squares in [n * _FAST_MIN, _FAST_MAX] puts the max of n entries
# in [2**-125, 2**125]: `rescale_if_tiny`'s one-product accept.
_FAST_MIN = 2.0**-250
_FAST_MAX = 2.0**250
# That sum overflows to inf for entries above about 1e154 and takes the exact
# test, so numpy's warning reports no fault (a per-call `np.errstate` costs ~1 us).
warnings.filterwarnings(
    "ignore", "overflow encountered in dot", RuntimeWarning, r"treebelief\.linalg"
)


@dataclass
class OpCounter:
    """Instrumented operation counts; the testable form of complexity claims."""

    mat_vec: int = 0
    mat_mat: int = 0
    flops: int = 0

    def snapshot(self) -> "OpCounter":
        return OpCounter(self.mat_vec, self.mat_mat, self.flops)

    def delta(self, before: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.mat_vec - before.mat_vec,
            self.mat_mat - before.mat_mat,
            self.flops - before.flops,
        )


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    return a


class FactoredMatrix:
    """Edge matrix in product form: semantic value = left . right.

    left is K x L, right is L x K; level-0 left factors are 0/1 selection
    matrices with exactly one 1 per row.  Applications and rakes never expand
    the product.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left = as_matrix(left)
        right = as_matrix(right)
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
        return self.left.dot(self.right)

    def copy(self) -> "FactoredMatrix":
        out = FactoredMatrix.__new__(FactoredMatrix)  # factors already checked
        out.left, out.right = self.left.copy(), self.right.copy()
        return out

    def mv(self, v, counter: OpCounter | None = None) -> np.ndarray:
        if counter is not None:
            counter.mat_vec += 2
            counter.flops += self.left.size + self.right.size
        return self.left.dot(self.right.dot(v))

    def mv_t(self, v, counter: OpCounter | None = None) -> np.ndarray:
        # (left . right)^T v = right^T (left^T v) = (v . left) . right
        if counter is not None:
            counter.mat_vec += 2
            counter.flops += self.left.size + self.right.size
        return v.dot(self.left).dot(self.right)


def dense(m) -> np.ndarray:
    """An edge matrix of either kind as a 2-D array (a factored one expanded)."""
    return m.expand() if isinstance(m, FactoredMatrix) else m


def apply(m, v, counter: OpCounter | None = None) -> np.ndarray:
    """Matrix-vector product: result[x] = sum_y m[x, y] * v[y].

    A factored matrix applies its two factors (`FactoredMatrix.mv`), so the
    contraction and query code paths take either kind.
    """
    if isinstance(m, FactoredMatrix):
        return m.mv(v, counter)
    if counter is not None:
        counter.mat_vec += 1
        counter.flops += m.size
    return m.dot(v)


def apply_transpose(m, v, counter: OpCounter | None = None) -> np.ndarray:
    """Product of a matrix's transpose with a vector (the D-alias application).

    Transposes are taken lazily here, never materialized or cached.
    """
    if isinstance(m, FactoredMatrix):
        return m.mv_t(v, counter)
    if counter is not None:
        counter.mat_vec += 1
        counter.flops += m.size
    return v.dot(m)


def matmul(m, n, counter: OpCounter | None = None) -> np.ndarray:
    """Plain matrix product (naive cubic; matrices here are tiny)."""
    if counter is not None:
        counter.mat_mat += 1
        counter.flops += m.shape[0] * m.shape[1] * n.shape[1]
    return m.dot(n)


def normalize(v) -> np.ndarray:
    """Scale a nonnegative vector to sum 1; zero total mass means the posted
    evidence has zero joint probability."""
    v = as_vector(v)
    s = v.sum()
    if not 0.0 < s < math.inf:  # NaN fails too
        raise InconsistentEvidenceError("evidence has zero joint probability")
    return v / s


def rescale_if_tiny(v: np.ndarray) -> np.ndarray:
    """Under- and overflow guard for a nonnegative vector or matrix: when its
    max entry leaves [SCALE_MIN, SCALE_MAX], multiply by the power of two that
    brings the max into [0.5, 1); otherwise return v itself.  The scaling is
    exact, so rebuilt and recomputed values stay bitwise equal: a shift that
    would round an entry (one more than 2**1021 below the max, pushed below
    the normal range) is not made, and v is returned as it is.  No scale
    tracking; normalization absorbs it.

    v must be nonnegative (every likelihood, pi vector and derived matrix
    is).  The common case is accepted with one product: the sum of squares s
    satisfies max**2 <= s <= n * max**2 for n entries, so
    n * 2**-250 <= s <= 2**250 puts the max in [2**-125, 2**125], inside the
    guard's range with a margin far wider than the rounding of s (an empty
    v passes too: n = s = 0).  Anything else (NaN, inf, all zeros, a max
    near a bound) takes the exact max test.
    """
    # a vector's own `dot` skips `np.vdot`'s dispatch; vdot flattens a matrix
    s = v.dot(v) if v.ndim == 1 else np.vdot(v, v)
    if v.size * _FAST_MIN <= s <= _FAST_MAX:
        return v
    m = v.max()
    if SCALE_MIN <= m <= SCALE_MAX or not 0.0 < m < math.inf:
        return v
    e = np.frexp(m)[1]
    out = np.ldexp(v, -e)
    return out if np.array_equal(np.ldexp(out, e), v) else v


def rescale_rows(v: np.ndarray) -> np.ndarray:
    """`rescale_if_tiny` applied to each row of a 2-D array at once, bitwise
    equal to it row by row; returns v itself when no row is rescaled."""
    m = v.max(axis=1, initial=0.0)
    out = ((m < SCALE_MIN) | (m > SCALE_MAX)) & (0.0 < m) & (m < math.inf)
    if not out.any():
        return v
    e = np.where(out, np.frexp(m)[1], 0)[:, np.newaxis]
    scaled = np.ldexp(v, -e)
    exact = (np.ldexp(scaled, e) == v).all(axis=1)
    if exact.all():
        return scaled
    if not (out & exact).any():
        return v
    return np.where(exact[:, np.newaxis], scaled, v)


def apply_stacked(factors, v: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Row-wise `apply` over stacked matrices: result[n] = M_n . v[n], where
    M_n = factors[0][n] . factors[1][n] ... (one (n, a, b) stack per factor,
    as for a run of dense or of equally shaped factored matrices).  Counts
    one mat-vec per factor per row, as `apply` does."""
    for f in reversed(factors):
        v = np.einsum("nij,nj->ni", f, v)
    _count_stacked(factors, counter)
    return v


def apply_transpose_stacked(
    factors, v: np.ndarray, counter: OpCounter | None = None
) -> np.ndarray:
    """Row-wise `apply_transpose` over stacked matrices: result[n] = M_n^T . v[n]."""
    for f in factors:
        v = np.einsum("nji,nj->ni", f, v)
    _count_stacked(factors, counter)
    return v


def _count_stacked(factors, counter: OpCounter | None) -> None:
    if counter is not None:
        counter.mat_vec += len(factors) * len(factors[0])
        counter.flops += sum(f.size for f in factors)


def rake_compose(m_u, m_diag, m_pass, lam_e, counter: OpCounter | None = None):
    """The rake matrix equation: m_u . Diag(m_diag . lam_e) . m_pass.

    Evaluated strictly left-to-right so an incremental recomputation is
    bitwise identical to a from-scratch rebuild.  The diagonal is applied as a
    column scaling of m_u (of its right factor when m_u is factored, whose
    left factor carries over untouched), then multiplied by each factor of
    m_pass; `apply` and `matmul` count every true product.
    """
    d = apply(m_diag, lam_e, counter)
    factored = isinstance(m_u, FactoredMatrix)
    core = (m_u.right if factored else m_u) * d[np.newaxis, :]
    if counter is not None:
        counter.flops += core.size
    passing = (m_pass.left, m_pass.right) if isinstance(m_pass, FactoredMatrix) else (m_pass,)
    for factor in passing:
        core = matmul(core, factor, counter)
    core = rescale_if_tiny(core)
    return FactoredMatrix(m_u.left, core) if factored else core
