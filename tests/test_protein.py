import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebelief import exact, protein
from treebelief.errors import FormatError, UsageError
from util import assert_same_evidence, evidence_state, ps_index


def toy_tables():
    return protein.train([("GSAT", "cchh")], w=2)


# an (amino, structure) record of length 0 to 8: empty, shorter than w, or not
RECORD = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.text(st.sampled_from(protein.AMINO_ACIDS), min_size=n, max_size=n),
    st.text(st.sampled_from(protein.STRUCTURE_SYMBOLS), min_size=n, max_size=n),
))

# (w, corpus, message): faults in several records, of which the first in
# corpus order raises; within a record, its first bad window, and in that
# window a structure fault before an amino-acid fault
FIRST_FAULTS = [
    (2, [("GSAT", "cchh"), ("GSA", "cc"), ("GXAT", "cchh")],
     "sequence/structure length mismatch: 'GSA' / 'cc'"),
    (2, [("GSAT", "cchh"), ("G", ""), ("GSAT", "cxhh")],
     "sequence/structure length mismatch: 'G' / ''"),
    (2, [("GSAT", "cxhh"), ("GSA", "cc")], "structure symbols outside h/e/c: 'cx'"),
    (2, [("GSBT", "cchh"), ("GSAT", "cchx")], "unknown amino acid in window 'SB'"),
    (3, [("GSATK", "cchhe"), ("GSATK", "cchHe"), ("GSXTK", "cchhe")],
     "structure symbols outside h/e/c: 'chH'"),
    (2, [("GSATK", "cchhe"), ("GSAXK", "cchxe")], "structure symbols outside h/e/c: 'hx'"),
    (2, [("GS\u0661T", "cchh")], "unknown amino acid in window 'S\u0661'"),
    (3, [("GSAT", "cché")], "structure symbols outside h/e/c: 'ché'"),
    (2, [("X", "q"), ("GSAé", "cchh"), ("GSAT", "cc\u0661h")],
     "unknown amino acid in window 'Aé'"),
    (3, [("GS", "cx"), ("GSAT", "cchh"), ("GSaT", "cchh")],
     "unknown amino acid in window 'GSa'"),
    (2, [("G\ud800", "cc")], "unknown amino acid in window 'G\\ud800'"),
]
FIRST_FAULT_IDS = [
    "mismatch-before-bad-amino", "short-mismatch", "structure-before-mismatch",
    "amino-before-structure", "w3-structure-before-amino", "structure-wins-in-window",
    "arabic-digit-amino", "e-acute-structure", "short-record-skipped", "w3-short-skipped",
    "lone-surrogate",
]


class TestTrain:
    def test_window_extraction(self):
        tables = toy_tables()
        assert tables.w == 2
        assert tables.k == 9
        # observed structure windows cc, ch, hh get the count boosts
        i_cc, i_ch, i_hh = (ps_index(tables, m) for m in ("cc", "ch", "hh"))
        assert tables.initial[i_cc] == tables.initial.max()
        assert tables.transition[i_cc, i_ch] > tables.transition[i_cc, i_cc]
        assert tables.transition[i_ch, i_hh] == tables.transition[i_ch].max()

    def test_row_stochastic(self):
        tables = toy_tables()
        assert np.allclose(tables.transition.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(tables.emission.sum(axis=1), 1.0, atol=1e-9)
        assert abs(tables.initial.sum() - 1.0) <= 1e-9

    def test_overlap_structural_zeros(self):
        tables = toy_tables()
        for i, a in enumerate(tables.ps_mers):
            for j, b in enumerate(tables.ps_mers):
                if a[1:] != b[:-1]:
                    assert tables.transition[i, j] == 0.0
                else:
                    assert tables.transition[i, j] > 0.0

    def test_empty_corpus(self):
        with pytest.raises(UsageError):
            protein.train([], w=2)

    def test_bad_w(self):
        with pytest.raises(UsageError):
            protein.train([("GS", "cc")], w=4)

    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            protein.train([("GSAT", "cch")], w=2)

    @pytest.mark.parametrize("w, corpus, message", FIRST_FAULTS, ids=FIRST_FAULT_IDS)
    def test_first_fault_in_corpus_order_raises(self, w, corpus, message):
        with pytest.raises(FormatError) as exc:
            protein.train(corpus, w)
        assert str(exc.value) == message

    @pytest.mark.parametrize("w, short", [(2, ("X", "q")), (3, ("G\u0661", "cé")), (3, ("", ""))])
    def test_record_shorter_than_w_is_skipped(self, w, short):
        # its symbols are never read, so a bad one raises nothing
        clean = [("GSATW", "cchhe"), ("KLVE", "eecc")]
        got = protein.train([clean[0], short, clean[1]], w)
        want = protein.train(clean, w)
        for name in ("transition", "emission", "initial"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_save_load_roundtrip(self, tmp_path):
        tables = toy_tables()
        path = tmp_path / "m.npz"
        tables.save(path)
        loaded = protein.ChainTables.load(path)
        assert loaded.w == tables.w
        assert loaded.ps_mers == tables.ps_mers
        assert np.array_equal(loaded.transition, tables.transition)
        assert np.array_equal(loaded.emission, tables.emission)

    @pytest.mark.parametrize(
        "change",
        [
            {"ps_mers": np.array(["cc", "ce"])},  # too few windows
            {"aa_mers": np.array(protein._mers(protein.AMINO_ACIDS, 2)[::-1])},
            {"w": 3},  # windows of another length
            {"w": 7},
            {"emission": np.ones((9, 5))},
        ],
        ids=["short-ps", "reversed-aa", "other-w", "bad-w", "emission-shape"],
    )
    def test_load_rejects_tables_that_do_not_match_w(self, tmp_path, change):
        path = tmp_path / "m.npz"
        toy_tables().save(path)
        with np.load(path) as z:
            arrays = {**z, **change}
        np.savez(path, **arrays)
        with pytest.raises(FormatError):
            protein.ChainTables.load(path)

    @pytest.mark.parametrize("w", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(corpus=st.lists(RECORD, min_size=1, max_size=12))
    def test_counts_match_window_loop(self, w, corpus):
        """`train` counts every window of the corpus in one pass; the tables
        equal a per-window loop over the mer lists bitwise."""
        tables = protein.train(corpus, w)
        ps, aa = tables.ps_mers, tables.aa_mers
        trans, emit, init = np.zeros((len(ps), len(ps))), np.zeros((len(ps), len(aa))), np.zeros(len(ps))
        for a_seq, s_seq in corpus:
            states = [ps.index(s_seq[i : i + w]) for i in range(len(s_seq) - w + 1)]
            for i, s in enumerate(states):
                emit[s, aa.index(a_seq[i : i + w])] += 1
            if states:
                init[states[0]] += 1
            for s1, s2 in zip(states, states[1:]):
                trans[s1, s2] += 1
        consistent = np.array([[x[1:] == y[:-1] for y in ps] for x in ps], dtype=float)
        trans = (trans + 1.0) * consistent
        assert np.array_equal(tables.transition, trans / trans.sum(axis=1, keepdims=True))
        emit = emit + 1.0
        assert np.array_equal(tables.emission, emit / emit.sum(axis=1, keepdims=True))
        assert np.array_equal(tables.initial, (init + 1.0) / (init + 1.0).sum())

    def test_window_index_is_product_position(self):
        for w in (2, 3):
            tables = protein.train([("GSATW", "cchhe")], w=w)
            for i, m in enumerate(tables.ps_mers):
                assert ps_index(tables, m) == i
            for i in (0, 1, 19, 20, 399, len(tables.aa_mers) - 1):
                mer = tables.aa_mers[i]
                assert protein._window_codes(mer, protein.AMINO_ACIDS, w).tolist() == [i]
            # every window of a string at once: window t at position t
            text = "".join(tables.aa_mers[:5])
            codes = protein._window_codes(text, protein.AMINO_ACIDS, w)
            assert codes[::w].tolist() == list(range(5)) and len(codes) == 5 * w - w + 1
            assert protein._window_codes("c" * (w - 1), protein.STRUCTURE_SYMBOLS, w).size == 0
            for bad in ("x" * w, "c" * (w - 1) + "A", "\u00e9" * w):
                assert protein._window_codes(bad, protein.STRUCTURE_SYMBOLS, w).tolist()[0] < 0


class TestChain:
    def test_structure(self):
        chain = protein.ProteinChain("GSAT", toy_tables())
        assert chain.n_windows == 3
        assert chain.tree.validate() == []
        assert len(chain.ps_nodes) == 3 and len(chain.ev_nodes) == 3

    def test_residue_list_reads_as_its_string(self):
        chain = protein.ProteinChain(list("GSATGS"), toy_tables())
        assert chain.predict() == protein.ProteinChain("GSATGS", toy_tables()).predict()
        with pytest.raises(UsageError, match="'SX'"):
            protein.ProteinChain(list("GSXT"), toy_tables())

    def test_minimal_chain(self):
        chain = protein.ProteinChain("GS", toy_tables())
        assert chain.n_windows == 1
        assert chain.tree.validate() == []

    def test_too_short(self):
        with pytest.raises(UsageError):
            protein.ProteinChain("G", toy_tables())

    @pytest.mark.parametrize(
        "sequence, window", [("GSXTB", "SX"), ("GéAT", "Gé"), ("GSA\u0661", "A\u0661"), ("gSAT", "gS")]
    )
    def test_bad_residue_names_first_window(self, sequence, window):
        with pytest.raises(UsageError) as exc:
            protein.ProteinChain(sequence, toy_tables())
        assert str(exc.value) == f"unknown amino-acid window {window!r}"

    def test_edges_share_three_matrices(self):
        # every evidence edge shares one identity copy, every chain edge one
        # transition copy, and the last window's dummy pad the shared identity
        chain = protein.ProteinChain("GSATKLVE", toy_tables())
        assert len(chain.tree.matrix) == 7 + 6 + 1  # evidence, chain, dummy
        assert len({id(m) for m in chain.tree.matrix.values()}) == 3

    def test_predict_recovers_training(self):
        chain = protein.ProteinChain("GSAT", toy_tables())
        assert chain.predict() == "cchh"

    def test_uniform_tables_tiebreak_coil(self):
        tables = toy_tables()
        k = tables.k
        consistent = np.array(
            [[a[1:] == b[:-1] for b in tables.ps_mers] for a in tables.ps_mers],
            dtype=float,
        )
        tables.transition = consistent / consistent.sum(axis=1, keepdims=True)
        tables.emission = np.ones_like(tables.emission) / tables.emission.shape[1]
        tables.initial = np.ones(k) / k
        chain = protein.ProteinChain("GSAT", tables)
        assert chain.predict() == "cccc"

    def test_argmax_matches_oracle(self):
        chain = protein.ProteinChain("GSATGS", toy_tables())
        bel = exact.propagate_all(chain.tree)
        for t, b in zip(chain.ps_nodes, chain.window_beliefs()):
            assert np.argmax(b) == np.argmax(bel[t])
            assert np.allclose(b, bel[t], atol=1e-9)

    def test_predict_deterministic(self):
        c1 = protein.ProteinChain("GSATGS", toy_tables())
        c2 = protein.ProteinChain("GSATGS", toy_tables())
        assert c1.predict() == c2.predict()


class TestMutagenesis:
    def test_mutate_and_restore(self):
        chain = protein.ProteinChain("GSATGS", toy_tables())
        before = [b.copy() for b in chain.window_beliefs()]
        chain.mutate(2, "W")
        chain.mutate(2, "A")
        after = chain.window_beliefs()
        for b, a in zip(before, after):
            assert np.allclose(b, a, atol=1e-12)

    def test_touched_windows(self):
        chain = protein.ProteinChain("GSATGS", toy_tables())
        assert chain.mutate(0, "A") == [0]
        assert chain.mutate(2, "W") == [1, 2]

    def test_mutated_evidence_is_a_fresh_chains(self):
        tables = protein.train([("GSATGSATKL", "ccchhheecc")], w=3)
        chain = protein.ProteinChain("GSATGSATKL", tables)
        for site, residue in ((0, "W"), (4, "K"), (9, "Y"), (8, "A")):
            chain.mutate(site, residue)
        fresh = protein.ProteinChain("".join(chain.sequence), tables)
        assert chain.sequence == list("WSATKSATAY")
        assert_same_evidence(chain.tree, evidence_state(fresh.tree))

    def test_report_matches_oracle(self):
        chain = protein.ProteinChain("GSATGS", toy_tables())
        records = protein.mutagenesis(chain, 2, "W", watch_sites=[0, 4])
        bel = exact.propagate_all(chain.tree)
        for r in records:
            assert np.allclose(r.bel_after, bel[chain.ps_nodes[r.watch]], atol=1e-9)

    def test_vacuous_mutation_changes_nothing(self):
        chain = protein.ProteinChain("GSAT", toy_tables())
        records = protein.mutagenesis(chain, 1, "S", watch_sites=[0, 1, 2])
        for r in records:
            assert np.allclose(r.bel_before, r.bel_after, atol=1e-12)
            assert not r.argmax_changed

    def test_invalid_inputs(self):
        chain = protein.ProteinChain("GSAT", toy_tables())
        with pytest.raises(UsageError):
            chain.mutate(9, "A")
        with pytest.raises(UsageError):
            chain.mutate(0, "Z")
        with pytest.raises(UsageError):
            protein.mutagenesis(chain, 0, "A", watch_sites=[7])


class TestBatchedMutation:
    def test_mutate_is_one_batch(self):
        tables = protein.train([("GSATGSATKL", "ccchhheecc")], w=3)
        batched = protein.ProteinChain("GSATGSATKLGS", tables)
        single = protein.ProteinChain("GSATGSATKLGS", tables)
        site = 6
        touched = batched.mutate(site, "K")
        assert touched == [4, 5, 6]
        single.sequence[site] = "K"
        codes = protein._window_codes("".join(single.sequence), protein.AMINO_ACIDS, 3)
        chains = 0
        for t in touched:
            single.engine.update_evidence(single.ev_nodes[t], tables.emission[:, codes[t]])
            chains += single.engine.last_recipe_recomputes
        assert 0 < batched.engine.last_recipe_recomputes < chains
        for a, b in zip(batched.window_beliefs(), single.window_beliefs()):
            assert np.array_equal(a, b)
        for a, b in zip(batched.engine.hier.recipes, single.engine.hier.recipes):
            assert np.array_equal(a.target.value, b.target.value)

    def test_predict_makes_no_single_queries(self, monkeypatch):
        # predict reads one propagate_all sweep; its window labels are the
        # argmax of beliefs within 1e-12 of the engine's own bel_query answers
        chain = protein.ProteinChain("GSATGSATKL", toy_tables())
        chain.mutate(3, "W")
        swept, propagate_all = [], exact.propagate_all

        def sweep(tree, counter=None):
            swept.append(propagate_all(tree, counter))
            return swept[-1]

        with monkeypatch.context() as m:
            m.setattr(protein.exact, "propagate_all", sweep)
            m.setattr(chain.engine, "bel_query", None)  # not callable
            assert len(chain.predict()) == len(chain.sequence)
        assert len(swept) == 1
        for t, b in zip(chain.ps_nodes, chain.window_beliefs()):
            assert np.allclose(swept[0][t], b, rtol=0.0, atol=1e-12), t
            assert np.argmax(swept[0][t]) == np.argmax(b), t


def per_position_vote(chain, bel) -> str:
    """`ProteinChain.predict`'s vote as a loop over positions, from the
    window beliefs `bel`."""
    w = chain.tables.w
    labels = [chain.tables.ps_mers[int(np.argmax(bel[t]))] for t in chain.ps_nodes]
    out = []
    for pos in range(len(chain.sequence)):
        votes = {}
        for t in range(max(0, pos - w + 1), min(chain.n_windows - 1, pos) + 1):
            sym = labels[t][pos - t]
            votes[sym] = votes.get(sym, 0) + 1
        best = max(votes.values())
        winners = sorted(s for s, c in votes.items() if c == best)
        out.append("c" if len(winners) > 1 else winners[0])
    return "".join(out)


class TestPredictVote:
    @pytest.mark.parametrize("w", [2, 3])
    def test_vote_equals_per_position_loop(self, w, monkeypatch):
        # random window beliefs, half of them small integers so that argmax
        # and vote ties are common
        rng = np.random.default_rng(w)
        tables = protein.train([("GSATWKLVEN", "cchhheeccc")], w)
        propagate_all, swept = exact.propagate_all, []

        def sweep(tree, counter=None):
            bel = propagate_all(tree, counter)
            shape = bel.rows.shape
            bel.rows[:] = rng.integers(0, 3, shape) if len(swept) % 2 else rng.random(shape)
            swept.append(bel)
            return bel

        monkeypatch.setattr(protein.exact, "propagate_all", sweep)
        for n in [w, w + 1, *rng.integers(w, 60, size=30)]:
            chain = protein.ProteinChain("".join(rng.choice(list(protein.AMINO_ACIDS), n)), tables)
            got = chain.predict()
            assert got == per_position_vote(chain, swept[-1])
            assert len(got) == n


class TestCorpus:
    def test_parse(self):
        lines = ["# comment", "", "GSAT cchh", "AS ce  # trailing"]
        assert protein.parse_corpus(lines) == [("GSAT", "cchh"), ("AS", "ce")]

    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            protein.parse_corpus(["GSAT cch"])

    def test_bad_record(self):
        with pytest.raises(FormatError):
            protein.parse_corpus(["GSAT"])
