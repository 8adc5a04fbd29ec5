import io

import numpy as np
import pytest

from treebelief import cli
from test_formats import LARGE_ID_PTN, THREE_NODE_BTN, V_STRUCTURE_PTN

GOLDEN_CHAIN_BTN = "\n".join(
    ["BTN 1", "k 2"]
    + [f"node {i} {nm}" for i, nm in enumerate(
        ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"])]
    + ["root 0", "prior 0 0.5 0.5"]
    + [f"edge {p} {c} 0.9 0.1 0.2 0.8"
       for p, c in [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]]
) + "\n"

# undeclared id 2 becomes the dummy pad of the single-child root
DUMMY_EVIDENCE_BTN = (
    "BTN 1\nk 2\nnode 0 a\nnode 1 b\nroot 0\nprior 0 0.5 0.5\n"
    "edge 0 1 0.9 0.1 0.2 0.8\nevidence 2 1 0\n"
)


def _bad(name, base, old, new, message):
    assert old in base
    return name, base.replace(old, new), message


BAD_INPUTS = [
    _bad("btn-k", THREE_NODE_BTN, "k 2", "k", "line 2:"),
    _bad("btn-root", THREE_NODE_BTN, "root 0", "root", "line 6:"),
    _bad("btn-prior", THREE_NODE_BTN, "prior 0 0.5 0.5", "prior", "line 7:"),
    _bad("btn-edge", THREE_NODE_BTN, "edge 0 1 0.9 0.1 0.2 0.8", "edge 0", "line 8:"),
    _bad("btn-evidence", THREE_NODE_BTN, "evidence 1 1 0", "evidence", "line 10:"),
    _bad("btn-duplicate-node", THREE_NODE_BTN, "node 2 Z", "node 1 Z",
         "duplicate node id 1"),
    _bad("btn-nan-evidence", THREE_NODE_BTN, "evidence 1 1 0", "evidence 1 nan 0",
         "non-finite"),
    _bad("btn-inf-prior", THREE_NODE_BTN, "prior 0 0.5", "prior 0 inf", "non-finite"),
    _bad("btn-nan-edge", THREE_NODE_BTN, "edge 0 2 0.7", "edge 0 2 nan", "non-finite"),
    _bad("btn-negative-prior", THREE_NODE_BTN, "prior 0 0.5 0.5", "prior 0 -1 2",
         "nonnegative"),
    _bad("btn-zero-prior", THREE_NODE_BTN, "prior 0 0.5 0.5", "prior 0 0 0", "all zero"),
    _bad("btn-k-zero", THREE_NODE_BTN, "k 2", "k 0", "line 2:"),
    ("btn-evidence-on-dummy", DUMMY_EVIDENCE_BTN, "dummy leaf 2"),
    _bad("ptn-k", V_STRUCTURE_PTN, "k 2", "k", "line 2:"),
    _bad("ptn-k-zero", V_STRUCTURE_PTN, "k 2", "k 0", "line 2:"),
    _bad("ptn-node", V_STRUCTURE_PTN, "node 2 c", "node", "line 5:"),
    _bad("ptn-parents", V_STRUCTURE_PTN, "parents 2 0 1", "parents", "line 6:"),
    _bad("ptn-cpt", V_STRUCTURE_PTN, "cpt 2 0.9 0.1 0.5 0.5 0.4 0.6 0.2 0.8", "cpt 2",
         "line 9:"),
    _bad("ptn-prior", V_STRUCTURE_PTN, "prior 0 0.3 0.7", "prior", "line 7:"),
    _bad("ptn-duplicate-node", V_STRUCTURE_PTN, "node 2 c", "node 1 c",
         "duplicate node id 1"),
    _bad("ptn-negative-prior", V_STRUCTURE_PTN, "prior 1 0.6 0.4", "prior 1 -1 2",
         "negative entries"),
    _bad("ptn-nan-prior", V_STRUCTURE_PTN, "prior 1 0.6", "prior 1 nan", "non-finite"),
    _bad("ptn-inf-cpt", V_STRUCTURE_PTN, "cpt 2 0.9", "cpt 2 inf", "non-finite"),
]


@pytest.fixture
def btn_file(tmp_path):
    p = tmp_path / "m.btn"
    p.write_text(THREE_NODE_BTN)
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.btn"
    p.write_text(GOLDEN_CHAIN_BTN)
    return str(p)


@pytest.fixture
def ptn_file(tmp_path):
    p = tmp_path / "m.ptn"
    p.write_text(V_STRUCTURE_PTN)
    return str(p)


def run_session(monkeypatch, capsys, argv, commands):
    monkeypatch.setattr("sys.stdin", io.StringIO(commands))
    code = cli.main(argv)
    return code, capsys.readouterr().out.splitlines()


class TestCheck:
    def test_btn_ok(self, btn_file, capsys):
        assert cli.main(["check", btn_file]) == 0
        assert "causal tree" in capsys.readouterr().out

    def test_ptn_ok(self, ptn_file, capsys):
        assert cli.main(["check", ptn_file]) == 0
        assert "polytree" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, capsys):
        assert cli.main(["check", "/no/such/file"]) == 2

    def test_bad_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.btn"
        p.write_text("BTN 1\nk 2\nnode 0 a\nprior 0 0.5 0.5\n")
        assert cli.main(["check", str(p)]) == 2

    def test_large_id_ptn_ok(self, tmp_path, capsys):
        p = tmp_path / "large.ptn"
        p.write_text(LARGE_ID_PTN)
        assert cli.main(["check", str(p)]) == 0

    @pytest.mark.parametrize("text, message", [
        pytest.param(text, message, id=name) for name, text, message in BAD_INPUTS
    ])
    def test_bad_input_is_data_error(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.model"
        p.write_text(text)
        assert cli.main(["check", str(p)]) == 2
        assert message in capsys.readouterr().err


class TestSession:
    def test_query_prior_before_updates(self, btn_file, monkeypatch, capsys):
        # evidence in the file applies; retract it first
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file],
            "update 1 1 1\nquery 0\nquit\n",
        )
        assert code == 0
        assert out[0] == "ok"
        assert out[1].startswith("bel 0.5")

    def test_engines_agree_line_for_line(self, chain_file, monkeypatch, capsys):
        script = (
            "update 3 0.3 0.9\nquery 0\nquery 4\nupdate 7 1 0\nquery 6\n"
            "query 8\nquit\n"
        )
        outs = {}
        for eng in ("hierarchy", "path", "full"):
            code, out = run_session(
                monkeypatch, capsys, ["session", chain_file, "--engine", eng], script
            )
            assert code == 0
            outs[eng] = out
        for eng in ("path", "full"):
            assert len(outs[eng]) == len(outs["hierarchy"])
            for a, b in zip(outs["hierarchy"], outs[eng]):
                if a.startswith("bel"):
                    va = np.array([float(x) for x in a.split()[1:]])
                    vb = np.array([float(x) for x in b.split()[1:]])
                    assert np.allclose(va, vb, atol=1e-9)
                else:
                    assert a == b

    def test_seventeen_significant_digits(self, btn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file], "query 0\nquit\n"
        )
        val = out[0].split()[1]
        assert len(val.replace("0.", "")) >= 16

    def test_malformed_command_continues(self, btn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file],
            "frobnicate\nupdate 1\nquery 0\nquit\n",
        )
        assert code == 0
        assert out[0].startswith("err ")
        assert out[1].startswith("err ")
        assert out[2].startswith("bel ")

    def test_inconsistent_evidence_line(self, btn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file],
            "update 1 0 0\nquery 0\nquit\n",
        )
        assert code == 0
        assert out[0] == "ok"
        assert out[1] == "err inconsistent"

    def test_update_dummy_leaf_errs_and_state_unchanged(
        self, tmp_path, monkeypatch, capsys
    ):
        # single-child root gets a dummy pad during normalization
        p = tmp_path / "pad.btn"
        p.write_text(
            "BTN 1\nk 2\nnode 0 a\nnode 1 b\nroot 0\nprior 0 0.5 0.5\n"
            "edge 0 1 0.9 0.1 0.2 0.8\n"
        )
        code, out = run_session(
            monkeypatch, capsys, ["session", str(p)],
            "query 0\nupdate 2 1 0\nquery 0\nquit\n",
        )
        assert code == 0
        assert out[1].startswith("err ")
        assert out[0] == out[2]

    def test_stats_line(self, btn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file], "query 0\nstats\nquit\n"
        )
        assert out[1].startswith("stats mv=")


class TestDifferential:
    def test_hundred_random_scripts_three_engines(self, tmp_path, monkeypatch, capsys):
        from treebelief.formats import serialize_btn
        from util import random_binarized_tree, updatable_leaves

        rng = np.random.default_rng(42)
        for case in range(100):
            tree = random_binarized_tree(rng, int(rng.integers(2, 100)), 2)
            path = tmp_path / f"m{case}.btn"
            path.write_text(serialize_btn(tree))
            leaves = updatable_leaves(tree)
            nodes = list(tree.names)
            cmds = []
            for _ in range(6):
                if rng.random() < 0.5:
                    leaf = leaves[int(rng.integers(len(leaves)))]
                    lik = " ".join(f"{v:.6f}" for v in rng.random(2) + 0.01)
                    cmds.append(f"update {leaf} {lik}")
                else:
                    cmds.append(f"query {nodes[int(rng.integers(len(nodes)))]}")
            cmds.append("quit")
            script = "\n".join(cmds) + "\n"
            outs = {}
            for eng in ("hierarchy", "path", "full"):
                code, out = run_session(
                    monkeypatch, capsys,
                    ["session", str(path), "--engine", eng], script,
                )
                assert code == 0
                outs[eng] = out
            for eng in ("path", "full"):
                for a, b in zip(outs["hierarchy"], outs[eng]):
                    if a.startswith("bel"):
                        va = np.array([float(x) for x in a.split()[1:]])
                        vb = np.array([float(x) for x in b.split()[1:]])
                        assert np.allclose(va, vb, atol=1e-9)
                    else:
                        assert a == b


class TestContractDump:
    def test_golden_levels(self, chain_file, capsys):
        assert cli.main(["contract-dump", chain_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "level 1 nodes 0 1 4 5 8" in out
        assert sum(1 for l in out if "<-" in l) == 3


class TestBench:
    def test_csv_output(self, capsys):
        code = cli.main(
            ["bench", "--shape", "chain", "--sizes", "8,16", "--k", "2",
             "--ops", "4", "--seed", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
        assert len(lines) == 13

    def test_zero_ops_header_only(self, capsys):
        assert cli.main(["bench", "--sizes", "8", "--ops", "0"]) == 0
        assert capsys.readouterr().out.strip() == (
            "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
        )

    def test_ratio_reported(self, capsys):
        code = cli.main(
            ["bench", "--shape", "chain", "--sizes", "300", "--ops", "4",
             "--engines", "hierarchy", "--ratio"]
        )
        assert code == 0
        out = capsys.readouterr().out
        ratio_line = [l for l in out.splitlines() if l.startswith("#")][0]
        assert "ratio full/hierarchy" in ratio_line
        assert float(ratio_line.rsplit(":", 1)[1]) >= 5.0

    def test_descending_sizes_usage_error(self, capsys):
        assert cli.main(["bench", "--sizes", "16,8"]) == 1


class TestProtein:
    def test_train_predict_mutate(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("GSAT cchh\n")
        model = str(tmp_path / "model.npz")
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model]
        ) == 0
        capsys.readouterr()
        assert cli.main(
            ["protein", "predict", "--model", model, "--sequence", "GSAT"]
        ) == 0
        assert capsys.readouterr().out.strip() == "cchh"
        assert cli.main(
            ["protein", "mutate", "--model", model, "--sequence", "GSAT",
             "--site", "1", "--residue", "W", "--watch", "0,2"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("site,watch_site,bel_before_0")
        assert lines[0].endswith("argmax_changed")
        assert len(lines) == 3

    def test_bad_corpus_data_error(self, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("GSAT cch\n")
        model = str(tmp_path / "m.npz")
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model]
        ) == 2

    def test_bad_site_usage_error(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("GSAT cchh\n")
        model = str(tmp_path / "m.npz")
        cli.main(["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model])
        assert cli.main(
            ["protein", "mutate", "--model", model, "--sequence", "GSAT",
             "--site", "99", "--residue", "A", "--watch", "0"]
        ) == 1


class TestPolytreeCli:
    def test_session_engines_agree(self, ptn_file, monkeypatch, capsys):
        script = "update 2 1 0\nquery 0\nquery 1\nquit\n"
        outs = {}
        for eng in ("hierarchy", "full"):
            code, out = run_session(
                monkeypatch, capsys,
                ["polytree", "session", ptn_file, "--engine", eng], script,
            )
            assert code == 0
            outs[eng] = out
        for a, b in zip(outs["hierarchy"], outs["full"]):
            if a.startswith("bel"):
                va = np.array([float(x) for x in a.split()[1:]])
                vb = np.array([float(x) for x in b.split()[1:]])
                assert np.allclose(va, vb, atol=1e-9)
            else:
                assert a == b

    def test_bench_csv(self, ptn_file, capsys):
        assert cli.main(["polytree", "bench", ptn_file, "--ops", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
        assert any(l.startswith("hierarchy,polytree,3,2,") for l in lines)

    def test_btn_file_rejected(self, btn_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert cli.main(["polytree", "session", btn_file]) == 1
