"""Protein secondary-structure chain model and mutation simulations.

PS-nodes are w-length windows over the structure alphabet {h, e, c}; each
window carries one evidence leaf whose likelihood is the emission column of
the observed amino-acid window.  Consecutive windows must agree on their
(w-1)-overlap, enforced as structural zeros in the transition matrix.
Mutation experiments re-post the evidence for the windows covering a site as
one batch (`update_many`) and read the watch windows before and after as one
batch each (`bel_many`), exercising the logarithmic engine; predictions read
every window from one `exact.propagate_all` sweep.

Set-up is array passes, not a Python step per symbol or window: a window's
index among the product-ordered windows is its mixed-radix code, computed for
every window of a string at once (`_window_codes`).  `train` codes the whole
corpus in one pass and fills each table with one `np.bincount`;
`ProteinChain` reads every window's evidence as one column take of the
emission table; `predict` votes over all window labels in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from zipfile import BadZipFile

import numpy as np

from . import exact
from .dynamic import DynamicEngine
from .errors import FormatError, UsageError
from .tree import RawTree, binarize

# 'c' first so argmax ties resolve toward coil
STRUCTURE_SYMBOLS = ("c", "e", "h")
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
WINDOW_LENGTHS = (2, 3)

# a digit so far below zero that every window code holding it is negative
_OUTSIDE = -(2**40)


def _digits(symbols) -> np.ndarray:
    """Lookup from a code point below 128 to its symbol's position in
    `symbols`; every other code point reads as _OUTSIDE."""
    table = np.full(128, _OUTSIDE, dtype=np.int64)
    table[[ord(s) for s in symbols]] = range(len(symbols))
    return table


_DIGITS = {symbols: _digits(symbols) for symbols in (STRUCTURE_SYMBOLS, AMINO_ACIDS)}


def _mers(symbols, w):
    return list(map("".join, product(symbols, repeat=w)))


def _window_codes(text: str, symbols, w: int) -> np.ndarray:
    """Position in `_mers(symbols, w)` of every w-window of `text`: its
    mixed-radix code over the symbols' digits, first symbol most significant,
    as one array pass.  A window holding a symbol outside them gets a
    negative code."""
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    d = _DIGITS[symbols][np.minimum(points, 127)]
    n = max(len(d) - w + 1, 0)
    codes = d[:n]
    for j in range(1, w):
        codes = codes * len(symbols) + d[j : j + n]
    return codes


@dataclass
class ChainTables:
    """Trained model: window transition, emission, and start tables.  The
    window lists are the product-ordered windows for w, so a window's index
    is computed from its symbols."""

    w: int
    ps_mers: list
    aa_mers: list
    transition: np.ndarray  # (k, k), structural zeros off the overlap
    emission: np.ndarray  # (k, len(aa_mers))
    initial: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return len(self.ps_mers)

    def save(self, path) -> None:
        try:
            np.savez(
                path,
                w=self.w,
                ps_mers=np.array(self.ps_mers),
                aa_mers=np.array(self.aa_mers),
                transition=self.transition,
                emission=self.emission,
                initial=self.initial,
            )
        except OSError as exc:
            raise FormatError(f"cannot write protein model: {exc}") from None

    @classmethod
    def load(cls, path) -> "ChainTables":
        """The one check of a model file: an .npz holding every table, its
        window lists the product-ordered windows for w, its arrays shaped
        to match them."""
        try:
            with np.load(path, allow_pickle=False) as z:
                tables = cls(
                    int(z["w"]),
                    [str(s) for s in z["ps_mers"]],
                    [str(s) for s in z["aa_mers"]],
                    *(np.asarray(z[t], np.float64)
                      for t in ("transition", "emission", "initial")),
                )
        except (
            OSError, EOFError, BadZipFile, KeyError, ValueError, TypeError, AttributeError
        ) as exc:
            raise FormatError(f"cannot read protein model: {exc}") from None
        w = tables.w
        if w not in WINDOW_LENGTHS:
            raise FormatError(f"protein model window length {w} is not 2 or 3")
        ps_mers, aa_mers = _mers(STRUCTURE_SYMBOLS, w), _mers(AMINO_ACIDS, w)
        if tables.ps_mers != ps_mers or tables.aa_mers != aa_mers:
            raise FormatError(f"protein model windows are not the {w}-windows in order")
        k = len(ps_mers)
        shapes = (tables.transition.shape, tables.emission.shape, tables.initial.shape)
        if shapes != ((k, k), (k, len(aa_mers)), (k,)):
            raise FormatError("protein model tables do not match its windows")
        return tables


def train(corpus, w: int) -> ChainTables:
    """Add-one-smoothed frequency tables from (amino, structure) pairs.

    Transition smoothing runs only over overlap-consistent successors;
    inconsistent transitions stay exactly zero.  The records are read as one
    joined string per side: every window is coded at once, a window counts
    when it lies inside one record (so records shorter than w add nothing),
    and each table is one `np.bincount`.  A fault raises for the first
    record holding one: a length mismatch, or its first bad window.
    """
    if w not in WINDOW_LENGTHS:
        raise UsageError(f"window length must be 2 or 3, got {w}")
    corpus = list(corpus)
    if not corpus:
        raise UsageError("empty training corpus")
    ps_mers = _mers(STRUCTURE_SYMBOLS, w)
    aa_mers = _mers(AMINO_ACIDS, w)
    k, n_aa = len(ps_mers), len(aa_mers)
    # records before the first length mismatch: a bad window in them comes first
    mismatch = next((i for i, (x, y) in enumerate(corpus) if len(x) != len(y)), None)
    records = corpus[:mismatch]
    ss = "".join(s for _, s in records)
    aa = "".join(a for a, _ in records)
    s = _window_codes(ss, STRUCTURE_SYMBOLS, w)
    a = _window_codes(aa, AMINO_ACIDS, w)
    lengths = np.array([len(r) for _, r in records], dtype=np.int64)
    record = np.repeat(np.arange(len(records)), lengths)  # of each symbol
    inside = record[: len(s)] == record[w - 1 :]  # window within one record
    bad = inside & ((s < 0) | (a < 0))
    if bad.any():
        i = int(bad.argmax())
        if s[i] < 0:
            raise FormatError(f"structure symbols outside h/e/c: {ss[i : i + w]!r}")
        raise FormatError(f"unknown amino acid in window {aa[i : i + w]!r}")
    if mismatch is not None:
        aa_seq, ss_seq = corpus[mismatch]
        raise FormatError(f"sequence/structure length mismatch: {aa_seq!r} / {ss_seq!r}")

    first = (np.cumsum(lengths) - lengths)[lengths >= w]  # each record's first window
    pair = inside[:-1] & inside[1:]  # successive windows of one record
    emit = np.bincount(s[inside] * n_aa + a[inside], minlength=k * n_aa).reshape(k, n_aa)
    init = np.bincount(s[first], minlength=k)
    trans = np.bincount(s[:-1][pair] * k + s[1:][pair], minlength=k * k).reshape(k, k)

    # x's last w-1 symbols are y's first w-1: x's code mod 3**(w-1) is y's div 3
    base = len(STRUCTURE_SYMBOLS)
    codes = np.arange(k)
    consistent = np.equal.outer(codes % base ** (w - 1), codes // base).astype(float)
    trans = (trans + 1.0) * consistent
    trans /= trans.sum(axis=1, keepdims=True)
    emit = emit + 1.0
    emit /= emit.sum(axis=1, keepdims=True)
    init = (init + 1.0) / (init + 1.0).sum()
    return ChainTables(w, ps_mers, aa_mers, trans, emit, init)


class ProteinChain:
    """Built model for one sequence: PS-node chain plus the dynamic engine."""

    def __init__(self, sequence: str, tables: ChainTables):
        w = tables.w
        if len(sequence) < w:
            raise UsageError(f"sequence shorter than window length {w}")
        sequence = "".join(sequence)  # a list of residues reads as their string
        codes = _window_codes(sequence, AMINO_ACIDS, w)
        if codes.min() < 0:  # name the first bad window
            t = int(np.argmax(codes < 0))
            raise UsageError(f"unknown amino-acid window {sequence[t : t + w]!r}")
        self.tables = tables
        self.sequence = list(sequence)
        self.n_windows = len(sequence) - w + 1

        k = tables.k
        raw = RawTree(k)
        self.ps_nodes = list(range(self.n_windows))
        self.ev_nodes = [self.n_windows + t for t in range(self.n_windows)]
        for t in self.ps_nodes:
            raw.add_node(t, f"ps{t}")
        for t, e in enumerate(self.ev_nodes):
            raw.add_node(e, f"ev{t}")
        raw.set_root(0, tables.initial)
        ident = np.eye(k)
        for t in self.ps_nodes:
            raw.add_edge(t, self.ev_nodes[t], ident)
            if t + 1 < self.n_windows:
                raw.add_edge(t, t + 1, tables.transition)
        raw.evidence = dict(zip(self.ev_nodes, tables.emission.T[codes]))
        self.tree = binarize(raw)
        self.engine = DynamicEngine(self.tree)

    def window_beliefs(self) -> list[np.ndarray]:
        """The logarithmic engine's own answer for each window, read as one
        `bel_many` batch: `predict` reads the O(N) sweep instead, so comparing
        these with `exact.propagate_all` checks the engine, not the sweep with
        itself."""
        return self.engine.bel_many(self.ps_nodes)

    def predict(self) -> str:
        """Per-position structure: majority vote over the argmax window labels
        covering each position, ties broken toward 'c'.  Every window belief
        comes from one `exact.propagate_all` sweep, and the vote is one array
        pass: a window's label is its `ps_mers` index, whose base-3 digits are
        its symbols."""
        w, n, base = self.tables.w, self.n_windows, len(STRUCTURE_SYMBOLS)
        bel = exact.propagate_all(self.tree, self.engine.counter)
        labels = bel.rows[[bel.levels.pos[t] for t in self.ps_nodes]].argmax(axis=1)
        votes = np.zeros((len(self.sequence), base), dtype=np.int64)
        for j in range(w):  # window t votes for its j-th symbol at position t + j
            votes[np.arange(j, j + n), labels // base ** (w - 1 - j) % base] += 1
        tie = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
        winner = np.where(tie, STRUCTURE_SYMBOLS.index("c"), votes.argmax(axis=1))
        return "".join(map(STRUCTURE_SYMBOLS.__getitem__, winner.tolist()))

    def mutate(self, site: int, residue: str) -> list[int]:
        """Replace the residue at `site` and re-post evidence for the covering
        windows, coded in one `_window_codes` pass; returns their indices."""
        if not 0 <= site < len(self.sequence):
            raise UsageError(f"site {site} outside sequence")
        if len(residue) != 1 or residue not in AMINO_ACIDS:
            raise UsageError(f"invalid residue {residue!r}")
        self.sequence[site] = residue
        w = self.tables.w
        lo, hi = max(0, site - w + 1), min(self.n_windows - 1, site) + 1
        codes = _window_codes("".join(self.sequence[lo : hi + w - 1]), AMINO_ACIDS, w)
        self.engine.update_many(zip(self.ev_nodes[lo:hi], self.tables.emission.T[codes]))
        return list(range(lo, hi))


@dataclass
class MutationRecord:
    site: int
    residue: str
    watch: int
    bel_before: np.ndarray
    bel_after: np.ndarray

    @property
    def argmax_changed(self) -> bool:
        return int(np.argmax(self.bel_before)) != int(np.argmax(self.bel_after))


def mutagenesis(chain: ProteinChain, site: int, residue: str, watch_sites):
    """One mutation step: before/after beliefs at each watch window, each side
    read as one `bel_many` batch."""
    watch_sites = list(watch_sites)
    for ws in watch_sites:
        if not 0 <= ws < chain.n_windows:
            raise UsageError(f"watch window {ws} out of range")
    before = chain.engine.bel_many(watch_sites)
    chain.mutate(site, residue)
    after = chain.engine.bel_many(watch_sites)
    return [
        MutationRecord(site, residue, ws, b, a)
        for ws, b, a in zip(watch_sites, before, after)
    ]


def parse_corpus(lines) -> list[tuple[str, str]]:
    """Corpus format: one `<amino string> <structure string>` record per line,
    '#' comments allowed."""
    out = []
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError("expected `<amino> <structure>`", line=lineno)
        if len(parts[0]) != len(parts[1]):
            raise FormatError("amino and structure strings differ in length", line=lineno)
        out.append((parts[0], parts[1]))
    return out
