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

Many rows at once (the full sweep, a CONTRACT pass) take one stacked family,
`apply_rows`/`apply_transpose_rows` and `rake_rows`: a broadcast `np.matmul`
per factor, over one shared matrix or a stack of them, bitwise `dot` row by
row; and `rescale_rows`, bitwise `rescale_if_tiny` row by row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InconsistentEvidenceError

# Outside this max-entry range likelihood vectors / derived matrices are
# rescaled by a power of two into [0.5, 1); beliefs are invariant under
# positive scaling, and a power of two scales exactly every entry that stays
# in the normal range.
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
    the product, and nothing writes a factor in place, so one factor array
    may serve many edges (`binarize` keeps one copy of each distinct factor
    value; a rake's result keeps its operand's left factor).
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

    @classmethod
    def of(cls, left: np.ndarray, right: np.ndarray) -> "FactoredMatrix":
        """The product of two factors already converted and checked: no
        conversion and no shape check, as `__init__` makes."""
        out = cls.__new__(cls)
        out.left, out.right = left, right
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
    brings the max into [0.5, 1); otherwise return v itself.  The shift is
    exact for every entry within 2**1021 of the max.  An entry further below
    lands under the normal range and rounds, by at most 2**-1075 against a
    max of at least 0.5, which no belief can see; declining that shift would
    leave a max above 2**128 for the next product to overflow.  Rebuilt and
    recomputed values stay bitwise equal, since both shift the same operands.
    No scale tracking; normalization absorbs it.

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
    return np.ldexp(v, -np.frexp(m)[1])


def rescale_rows(v: np.ndarray) -> np.ndarray:
    """`rescale_if_tiny` applied to each row of a 2-D array at once, bitwise
    equal to it row by row: its one-product accept, row-wise, then the max
    test on the rows not accepted, and a shift, in a copy, of those found
    out of range; returns v itself when no row is rescaled."""
    s = np.einsum("ij,ij->i", v, v)  # no overflow warning; an inf fails the accept
    fail = np.flatnonzero(~((v.shape[1] * _FAST_MIN <= s) & (s <= _FAST_MAX)))
    if not fail.size:
        return v
    m = v[fail].max(axis=1, initial=0.0)
    out = ((m < SCALE_MIN) | (m > SCALE_MAX)) & (0.0 < m) & (m < math.inf)
    if not out.any():
        return v
    fail = fail[out]
    v = v.copy()
    v[fail] = np.ldexp(v[fail], -np.frexp(m[out])[1][:, np.newaxis])
    return v


def apply_rows(m, rows: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Row-wise `apply`: result[n] = m . rows[n] for one shared edge matrix,
    or result[n] = m[n] . rows[n] for a stack, an (n, k, k) array or a
    `FactoredMatrix` of an (n, k, l) and an (n, l, k) factor stack.  Each
    factor is one broadcast `np.matmul`, which makes the same product per
    row as `ndarray.dot`, so the result is bitwise `apply` row by row; it
    counts as `apply` does, once per row."""
    v = rows[:, :, np.newaxis]
    for f in reversed(_counted_factors(m, len(rows), counter)):
        v = np.matmul(f, v)
    return v[:, :, 0]


def apply_transpose_rows(m, rows: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Row-wise `apply_transpose` of one shared edge matrix, result[n] =
    m^T . rows[n], or of a stack, result[n] = m[n]^T . rows[n]; bitwise
    `apply_transpose` row by row."""
    v = rows[:, np.newaxis, :]
    for f in _counted_factors(m, len(rows), counter):
        v = np.matmul(v, f)
    return v[:, 0, :]


def _counted_factors(m, n: int, counter: OpCounter | None) -> tuple:
    """The factor arrays of edge matrix m (or of a stack of n matrices),
    counted as n applications of one matrix."""
    factors = (m.left, m.right) if isinstance(m, FactoredMatrix) else (m,)
    if counter is not None:
        counter.mat_vec += len(factors) * n
        counter.flops += sum(f.shape[-2] * f.shape[-1] for f in factors) * n
    return factors


def rake_compose(m_u, m_diag, m_pass, lam_e, counter: OpCounter | None = None):
    """The rake matrix equation: m_u . Diag(m_diag . lam_e) . m_pass.

    Evaluated strictly left-to-right so an incremental recomputation is
    bitwise identical to the build's `rake_rows`.  The diagonal is applied as a
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
    return FactoredMatrix.of(m_u.left, core) if factored else core


def rake_rows(m_u, m_diag, m_pass, lams: np.ndarray, counter: OpCounter | None = None):
    """Row-wise `rake_compose`, each operand one shared edge matrix or a
    stack as `apply_rows` takes them, bitwise `rake_compose` row by row and
    counted as n calls of it.  Returns the (n, a, b) stack of results, or of
    their right factors when m_u is factored (its left factor carries over)."""
    n = len(lams)
    d = apply_rows(m_diag, lams, counter)
    u = m_u.right if isinstance(m_u, FactoredMatrix) else m_u
    passing = (m_pass.left, m_pass.right) if isinstance(m_pass, FactoredMatrix) else (m_pass,)
    a = u.shape[-2]
    shapes = [(n, a, f.shape[-1]) for f in (u, *passing)]
    sizes = [math.prod(shape) for shape in shapes]
    if counter is not None:
        counter.mat_mat += len(passing) * n
        counter.flops += sizes[0] + sum(a * f.shape[-2] * f.shape[-1] for f in passing) * n
    # the scaled m_u and each product share one allocation (see contract._operands)
    outs = np.split(np.empty(sum(sizes)), np.cumsum(sizes[:-1]))
    core = np.multiply(u, d[:, np.newaxis, :], out=outs[0].reshape(shapes[0]))
    for factor, out, shape in zip(passing, outs[1:], shapes[1:]):
        core = np.matmul(core, factor, out=out.reshape(shape))
    return rescale_rows(core.reshape(n, -1)).reshape(core.shape)
