"""Protein secondary-structure chain model and mutation simulations.

PS-nodes are w-length windows over the structure alphabet {h, e, c}; each
window carries one evidence leaf whose likelihood is the emission column of
the observed amino-acid window.  Consecutive windows must agree on their
(w-1)-overlap, enforced as structural zeros in the transition matrix.
Mutation experiments re-post the evidence for the windows covering a site as
one batch (`update_many`) and read the watch windows before and after as one
batch each (`bel_many`), exercising the logarithmic engine; predictions read
every window from one `exact.propagate_all` sweep.
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
_PS_DIGIT = {s: i for i, s in enumerate(STRUCTURE_SYMBOLS)}
_AA_DIGIT = {s: i for i, s in enumerate(AMINO_ACIDS)}


def _mers(symbols, w):
    return ["".join(p) for p in product(symbols, repeat=w)]


def _window_codes(seq: str, digit: dict, w: int) -> list[int]:
    """Position in `_mers(symbols, w)` of every w-window of `seq`: its
    mixed-radix code over the symbols' digits, first symbol most significant.
    A symbol outside them reads as digit -base**w, which makes the code of
    every window holding it negative."""
    base = len(digit)
    d = [digit.get(ch, -(base**w)) for ch in seq]
    codes = d[: max(len(d) - w + 1, 0)]
    for j in range(1, w):
        codes = [c * base + x for c, x in zip(codes, d[j:])]
    return codes


def _window_index(mer: str, digit: dict, w: int, what: str) -> int:
    code = _window_codes(mer, digit, w)[0] if len(mer) == w else -1
    if code < 0:
        raise UsageError(f"unknown {what} {mer!r}")
    return code


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

    def aa_index(self, mer: str) -> int:
        return _window_index(mer, _AA_DIGIT, self.w, "amino-acid window")

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


def _consistent(a: str, b: str) -> bool:
    return a[1:] == b[:-1]


def train(corpus, w: int) -> ChainTables:
    """Add-one-smoothed frequency tables from (amino, structure) pairs.

    Transition smoothing runs only over overlap-consistent successors;
    inconsistent transitions stay exactly zero.
    """
    if w not in WINDOW_LENGTHS:
        raise UsageError(f"window length must be 2 or 3, got {w}")
    corpus = list(corpus)
    if not corpus:
        raise UsageError("empty training corpus")
    ps_mers = _mers(STRUCTURE_SYMBOLS, w)
    aa_mers = _mers(AMINO_ACIDS, w)
    k = len(ps_mers)
    tables = ChainTables(
        w, ps_mers, aa_mers, np.zeros((k, k)), np.zeros((k, len(aa_mers))), np.zeros(k)
    )
    trans, emit, init = tables.transition, tables.emission, tables.initial
    for aa_seq, ss_seq in corpus:
        if len(aa_seq) != len(ss_seq):
            raise FormatError(
                f"sequence/structure length mismatch: {aa_seq!r} / {ss_seq!r}"
            )
        if len(aa_seq) < w:
            continue
        s = _window_codes(ss_seq, _PS_DIGIT, w)
        a = _window_codes(aa_seq, _AA_DIGIT, w)
        if min(s) < 0 or min(a) < 0:  # name the first bad window
            i = next(i for i, (x, y) in enumerate(zip(s, a)) if x < 0 or y < 0)
            if s[i] < 0:
                raise FormatError(f"structure symbols outside h/e/c: {ss_seq[i : i + w]!r}")
            raise FormatError(f"unknown amino acid in window {aa_seq[i : i + w]!r}")
        np.add.at(emit, (s, a), 1)
        init[s[0]] += 1
        np.add.at(trans, (s[:-1], s[1:]), 1)

    consistent = np.array(
        [[_consistent(x, y) for y in ps_mers] for x in ps_mers], dtype=float
    )
    trans = (trans + 1.0) * consistent
    trans /= trans.sum(axis=1, keepdims=True)
    emit = emit + 1.0
    emit /= emit.sum(axis=1, keepdims=True)
    init = (init + 1.0) / (init + 1.0).sum()
    tables.transition, tables.emission, tables.initial = trans, emit, init
    return tables


class ProteinChain:
    """Built model for one sequence: PS-node chain plus the dynamic engine."""

    def __init__(self, sequence: str, tables: ChainTables):
        w = tables.w
        if len(sequence) < w:
            raise UsageError(f"sequence shorter than window length {w}")
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
        raw.evidence = {
            self.ev_nodes[t]: self._window_likelihood(t)
            for t in range(self.n_windows)
        }
        self.tree = binarize(raw)
        self.engine = DynamicEngine(self.tree)

    def _window_likelihood(self, t: int) -> np.ndarray:
        w = self.tables.w
        mer = "".join(self.sequence[t : t + w])
        return self.tables.emission[:, self.tables.aa_index(mer)].copy()

    def window_beliefs(self) -> list[np.ndarray]:
        """The logarithmic engine's own answer for each window, read as one
        `bel_many` batch: `predict` reads the O(N) sweep instead, so comparing
        these with `exact.propagate_all` checks the engine, not the sweep with
        itself."""
        return self.engine.bel_many(self.ps_nodes)

    def predict(self) -> str:
        """Per-position structure: majority vote over the argmax window labels
        covering each position, ties broken toward 'c'.  Every window belief
        comes from one `exact.propagate_all` sweep."""
        w = self.tables.w
        bel = exact.propagate_all(self.tree, self.engine.counter)
        labels = [self.tables.ps_mers[int(np.argmax(bel[t]))] for t in self.ps_nodes]
        out = []
        for pos in range(len(self.sequence)):
            votes = {}
            lo = max(0, pos - w + 1)
            hi = min(self.n_windows - 1, pos)
            for t in range(lo, hi + 1):
                sym = labels[t][pos - t]
                votes[sym] = votes.get(sym, 0) + 1
            best = max(votes.values())
            winners = sorted(s for s, c in votes.items() if c == best)
            out.append("c" if len(winners) > 1 else winners[0])
        return "".join(out)

    def mutate(self, site: int, residue: str) -> list[int]:
        """Replace the residue at `site` and re-post evidence for the covering
        windows; returns the updated window indices."""
        if not 0 <= site < len(self.sequence):
            raise UsageError(f"site {site} outside sequence")
        if len(residue) != 1 or residue not in AMINO_ACIDS:
            raise UsageError(f"invalid residue {residue!r}")
        self.sequence[site] = residue
        w = self.tables.w
        touched = range(max(0, site - w + 1), min(self.n_windows - 1, site) + 1)
        self.engine.update_many(
            (self.ev_nodes[t], self._window_likelihood(t)) for t in touched
        )
        return list(touched)


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
