"""Protein secondary-structure chain model and mutation simulations.

PS-nodes are w-length windows over the structure alphabet {h, e, c}; each
window carries one evidence leaf whose likelihood is the emission column of
the observed amino-acid window.  Consecutive windows must agree on their
(w-1)-overlap, enforced as structural zeros in the transition matrix.
Mutation experiments re-post the evidence for the windows covering a site and
re-query watch windows, exercising the logarithmic engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamic import DynamicEngine
from .errors import FormatError, UsageError
from .tree import RawTree, binarize

# 'c' first so argmax ties resolve toward coil
STRUCTURE_SYMBOLS = ("c", "e", "h")
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


def _mers(symbols, w):
    return ["".join(p) for p in product(symbols, repeat=w)]


@dataclass
class ChainTables:
    """Trained model: window transition, emission, and start tables."""

    w: int
    ps_mers: list
    aa_mers: list
    transition: np.ndarray  # (k, k), structural zeros off the overlap
    emission: np.ndarray  # (k, len(aa_mers))
    initial: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return len(self.ps_mers)

    def ps_index(self, mer: str) -> int:
        try:
            return self.ps_mers.index(mer)
        except ValueError:
            raise UsageError(f"unknown structure window {mer!r}")

    def aa_index(self, mer: str) -> int:
        try:
            return self.aa_mers.index(mer)
        except ValueError:
            raise UsageError(f"unknown amino-acid window {mer!r}")

    def save(self, path) -> None:
        np.savez(
            path,
            w=self.w,
            ps_mers=np.array(self.ps_mers),
            aa_mers=np.array(self.aa_mers),
            transition=self.transition,
            emission=self.emission,
            initial=self.initial,
        )

    @classmethod
    def load(cls, path) -> "ChainTables":
        z = np.load(path, allow_pickle=False)
        return cls(
            w=int(z["w"]),
            ps_mers=[str(s) for s in z["ps_mers"]],
            aa_mers=[str(s) for s in z["aa_mers"]],
            transition=z["transition"],
            emission=z["emission"],
            initial=z["initial"],
        )


def _consistent(a: str, b: str) -> bool:
    return a[1:] == b[:-1]


def train(corpus, w: int) -> ChainTables:
    """Add-one-smoothed frequency tables from (amino, structure) pairs.

    Transition smoothing runs only over overlap-consistent successors;
    inconsistent transitions stay exactly zero.
    """
    if w not in (2, 3):
        raise UsageError(f"window length must be 2 or 3, got {w}")
    corpus = list(corpus)
    if not corpus:
        raise UsageError("empty training corpus")
    ps_mers = _mers(STRUCTURE_SYMBOLS, w)
    aa_mers = _mers(AMINO_ACIDS, w)
    k, a = len(ps_mers), len(aa_mers)
    ps_idx = {m: i for i, m in enumerate(ps_mers)}
    aa_idx = {m: i for i, m in enumerate(aa_mers)}

    trans = np.zeros((k, k))
    emit = np.zeros((k, a))
    init = np.zeros(k)
    for aa_seq, ss_seq in corpus:
        if len(aa_seq) != len(ss_seq):
            raise FormatError(
                f"sequence/structure length mismatch: {aa_seq!r} / {ss_seq!r}"
            )
        if len(aa_seq) < w:
            continue
        windows = [
            (aa_seq[i : i + w], ss_seq[i : i + w])
            for i in range(len(aa_seq) - w + 1)
        ]
        for aa_mer, ss_mer in windows:
            if ss_mer not in ps_idx:
                raise FormatError(f"structure symbols outside h/e/c: {ss_mer!r}")
            if aa_mer not in aa_idx:
                raise FormatError(f"unknown amino acid in window {aa_mer!r}")
            emit[ps_idx[ss_mer], aa_idx[aa_mer]] += 1
        init[ps_idx[windows[0][1]]] += 1
        for (_, s1), (_, s2) in zip(windows, windows[1:]):
            trans[ps_idx[s1], ps_idx[s2]] += 1

    consistent = np.array(
        [[_consistent(x, y) for y in ps_mers] for x in ps_mers], dtype=float
    )
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
        return [self.engine.bel_query(t) for t in self.ps_nodes]

    def predict(self) -> str:
        """Per-position structure: majority vote over the argmax window labels
        covering each position, ties broken toward 'c'."""
        w = self.tables.w
        labels = [
            self.tables.ps_mers[int(np.argmax(b))] for b in self.window_beliefs()
        ]
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
        for t in touched:
            self.engine.update_evidence(self.ev_nodes[t], self._window_likelihood(t))
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
    """One mutation step: before/after beliefs at each watch window."""
    watch_sites = list(watch_sites)
    for ws in watch_sites:
        if not 0 <= ws < chain.n_windows:
            raise UsageError(f"watch window {ws} out of range")
    before = {ws: chain.engine.bel_query(ws) for ws in watch_sites}
    chain.mutate(site, residue)
    return [
        MutationRecord(site, residue, ws, before[ws], chain.engine.bel_query(ws))
        for ws in watch_sites
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
