import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebelief import cli, protein
from treebelief.bench import ENGINE_CLASSES, POLYTREE_ENGINE_CLASSES, make_engine
from treebelief.dynamic import DynamicEngine
from treebelief.formats import parse_btn, parse_ptn
from test_formats import GOLDEN_CHAIN_LINES, LARGE_ID_PTN, THREE_NODE_BTN, V_STRUCTURE_PTN

GOLDEN_CHAIN_BTN = "\n".join(GOLDEN_CHAIN_LINES) + "\n"

# undeclared id 2 would become the dummy pad of the single-child root; a
# file names only its own nodes, so its evidence line is for an unknown node
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
    _bad("btn-nan-edge", THREE_NODE_BTN, "edge 0 2 0.7", "edge 0 2 nan",
         "line 9: non-finite number"),
    # faults in the second edge line, which `parse_btn` converts in one stack
    # with the first
    _bad("btn-inf-edge", THREE_NODE_BTN, "edge 0 2 0.7 0.3", "edge 0 2 0.7 inf",
         "line 9: non-finite number"),
    _bad("btn-bad-float-edge", THREE_NODE_BTN, "0.4 0.6", "0.4 0,6",
         "line 9: bad float: could not convert string to float: '0,6'"),
    _bad("btn-short-edge", THREE_NODE_BTN, "0.4 0.6", "0.4", "line 9: expected 4 floats, got 3"),
    _bad("btn-long-edge", THREE_NODE_BTN, "0.4 0.6", "0.4 0.6 0",
         "line 9: expected 4 floats, got 5"),
    _bad("btn-unknown-node-edge", THREE_NODE_BTN, "edge 0 2", "edge 0 5",
         "line 9: edge 0->5 references unknown node"),
    _bad("btn-negative-prior", THREE_NODE_BTN, "prior 0 0.5 0.5", "prior 0 -1 2",
         "nonnegative"),
    _bad("btn-zero-prior", THREE_NODE_BTN, "prior 0 0.5 0.5", "prior 0 0 0", "all zero"),
    _bad("btn-k-zero", THREE_NODE_BTN, "k 2", "k 0", "line 2:"),
    ("btn-evidence-on-dummy", DUMMY_EVIDENCE_BTN, "line 8: evidence for unknown node 2"),
    _bad("btn-evidence-unknown-node", THREE_NODE_BTN, "evidence 1 1 0", "evidence 7 1 1",
         "error: line 10: evidence for unknown node 7"),
    _bad("btn-evidence-on-root", THREE_NODE_BTN, "evidence 1 1 0", "evidence 0 1 1",
         "error: line 10: evidence on non-leaf node 0"),
    _bad("btn-repeated-prior", THREE_NODE_BTN, "prior 0 0.5 0.5",
         "prior 0 0.5 0.5\nprior 0 0.9 0.1", "line 8: duplicate `prior` line"),
    ("btn-repeated-evidence", THREE_NODE_BTN + "evidence 1 0 1\n",
     "line 11: duplicate `evidence` line for leaf 1"),
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
    ("ptn-undeclared-parents", V_STRUCTURE_PTN + "parents 9 0\n",
     "line 10: parents for undeclared node 9"),
    ("ptn-repeated-parents", V_STRUCTURE_PTN + "parents 2 0\n",
     "line 10: duplicate parents for node 2"),
    ("ptn-repeated-prior", V_STRUCTURE_PTN + "prior 0 0.5 0.5\n",
     "line 10: duplicate table for node 0"),
    ("ptn-repeated-cpt", V_STRUCTURE_PTN + "cpt 2 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n",
     "line 10: duplicate table for node 2"),
    ("ptn-cpt-then-prior", V_STRUCTURE_PTN + "prior 2 0.5 0.5\n",
     "line 10: duplicate table for node 2"),
]


MUTATE_CORPUS = (
    "GSATKLVEHH cchhhhheec\nMKVLAAGWPE ccceeehhhc\n"
    "PQRSTVWYAC hhhhccceee\nDEFGHIKLMN cceeeecchh\n"
)
MUTATE_ARGS = ["--sequence", "GSATKLVEHHMKVLAAGWPE", "--site", "9", "--residue", "W",
               "--watch", "7,8,9"]
# `protein mutate` output for MUTATE_CORPUS (w=2) and MUTATE_ARGS, taken when
# each watch window was read with its own `bel_query`
MUTATE_CSV = (
    "site,watch_site,bel_before_0,bel_before_1,bel_before_2,bel_before_3,"
    "bel_before_4,bel_before_5,bel_before_6,bel_before_7,bel_before_8,bel_after_0,"
    "bel_after_1,bel_after_2,bel_after_3,bel_after_4,bel_after_5,bel_after_6,"
    "bel_after_7,bel_after_8,argmax_changed\n"
    "9,7,0.081911670014343269,0.071143796419513627,0.052716924455258121,"
    "0.064060873490374703,0.37077277196895886,0.059119257045682813,"
    "0.067568334725860033,0.067617667264023407,0.1650887046159851,"
    "0.09157681928835508,0.068687251460786733,0.05893724622427654,"
    "0.071619722001211306,0.32196966678236727,0.066095020623877995,"
    "0.075541045344597005,0.061004918697646252,0.18456830957688181,0\n"
    "9,8,0.086277221993548786,0.068465122383168986,0.058798533853860267,"
    "0.21108287772210974,0.218020046546715,0.080431311383671197,0.065624624664178635,"
    "0.055320460000501552,0.15597980145224591,0.096457483601799274,"
    "0.076543649261951244,0.065736453770412845,0.1179947774513615,0.2437452734189301,"
    "0.08992178607050863,0.073367987646757518,0.061847985366767673,"
    "0.17438460341151121,0\n"
    "9,9,0.19208761666835927,0.089892978231107701,0.081004129480370252,"
    "0.1255380292092057,0.15951271871409159,0.056754881007088268,0.10343243434033746,"
    "0.05162472725205422,0.14015248509738568,0.14646738012395122,"
    "0.075480083838981638,0.06587278473698549,0.14035086102742841,"
    "0.17833438645942243,0.063451660560798137,0.11563692141157812,"
    "0.057716175455147588,0.15668974638570693,1\n"
)


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

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.btn"
        p.write_bytes(b"\x80" + THREE_NODE_BTN.encode())
        assert cli.main(["check", str(p)]) == 2
        assert "not UTF-8 text: byte 0" in capsys.readouterr().err

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

    def test_huge_likelihood_prints_no_warning(self, tmp_path):
        """Entries near 1e300 overflow the guard's sum of squares to inf, which
        takes its exact test; the session answers and writes nothing to stderr."""
        p = tmp_path / "m.btn"
        p.write_text(THREE_NODE_BTN.replace("evidence 1 1 0\n", ""))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(x for x in (src, env.get("PYTHONPATH")) if x)
        proc = subprocess.run(
            [sys.executable, "-m", "treebelief.cli", "session", str(p)],
            input="update 1 1e300 2e300\nquery 0\nquit\n",
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        ok, bel = proc.stdout.splitlines()
        want = np.array([[0.9, 0.1], [0.2, 0.8]]).dot([1.0, 2.0])  # the prior is uniform
        assert ok == "ok" and bel.startswith("bel ")
        assert np.allclose([float(v) for v in bel.split()[1:]], want / want.sum(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lik", ["1e300 1e-10", "1e300 1e-8", "1e200 1e-120"])
    def test_wide_range_likelihoods_answer(self, tmp_path, lik):
        """Both leaves of a two-leaf root posted a likelihood whose small entry
        is more than 2**1021 below its max: the guard shifts them anyway, so
        the product at the root stays finite, and the session answers and
        writes nothing to stderr."""
        p = tmp_path / "m.btn"
        edge = "0.9 0.1 0.2 0.8"
        p.write_text(
            THREE_NODE_BTN.replace("evidence 1 1 0\n", "").replace("0.7 0.3 0.4 0.6", edge)
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(x for x in (src, env.get("PYTHONPATH")) if x)
        proc = subprocess.run(
            [sys.executable, "-m", "treebelief.cli", "session", str(p)],
            input=f"update 1 {lik}\nupdate 2 {lik}\nquery 0\nquery 1\nquit\n",
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        ok1, ok2, root, leaf = proc.stdout.splitlines()
        assert (ok1, ok2) == ("ok", "ok")
        # the small entries carry no visible weight: lambda(root) = M[:, 0]**2
        want = np.array([0.81, 0.04])
        assert np.allclose([float(v) for v in root.split()[1:]], want / want.sum(), rtol=0, atol=1e-15)
        assert np.allclose([float(v) for v in leaf.split()[1:]], [1.0, 0.0], rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("engine", ["full", "path"])
    def test_unknown_node_query_errs(self, btn_file, monkeypatch, capsys, engine):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file, "--engine", engine],
            "query 999\nquit\n",
        )
        assert code == 0
        assert out == ["err unknown node 999"]

    def test_bad_tokens_named(self, btn_file, ptn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys, ["session", btn_file], "update 1 x\nquery y\nquit\n"
        )
        assert (code, out) == (0, ["err not a number: 'x'", "err not a node id: 'y'"])
        code, out = run_session(
            monkeypatch, capsys, ["polytree", "session", ptn_file], "query x\nquit\n"
        )
        assert (code, out) == (0, ["err not a node id: 'x'"])


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

    def test_unknown_engine_usage_error_before_output(self, capsys):
        assert cli.main(["bench", "--sizes", "8", "--engines", "bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown engine 'bogus'" in captured.err

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--k", "-1"], "k must be >= 1, got -1"),
            (["--k", "0"], "k must be >= 1, got 0"),
            (["--ops", "-3"], "ops must be >= 0, got -3"),
        ],
    )
    def test_bad_counts_usage_error_before_output(self, capsys, argv, message):
        assert cli.main(["bench", "--sizes", "4", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_size_over_node_limit_is_a_scale_error(self, capsys):
        assert cli.main(["bench", "--sizes", "1000000", "--ops", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2000001 nodes exceeds bench limit 2000000\n"

    def test_descending_sizes_usage_error(self, capsys):
        assert cli.main(["bench", "--sizes", "16,8"]) == 1

    @pytest.mark.parametrize("sizes", ["", "8,,16", "8,", ",8", "8,x"])
    def test_bad_sizes_name_the_option(self, capsys, sizes):
        assert cli.main(["bench", "--sizes", sizes, "--ops", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --sizes must be comma-separated integers, got {sizes!r}\n"
        )


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

    def test_mutate_csv_pinned_and_watch_reads_batched(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(MUTATE_CORPUS)
        model = str(tmp_path / "model.npz")
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model]
        ) == 0
        costs, mutagenesis = [], protein.mutagenesis

        def measured(chain, *args):
            before = chain.engine.counter.snapshot()
            records = mutagenesis(chain, *args)
            costs.append(chain.engine.counter.delta(before))
            return records

        monkeypatch.setattr(protein, "mutagenesis", measured)
        argv = ["protein", "mutate", "--model", model] + MUTATE_ARGS
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == MUTATE_CSV
        # the same run with every watch window read on its own: between two
        # writes, single reads share the engine's memo as a batch does
        monkeypatch.setattr(
            DynamicEngine, "bel_many", lambda self, nodes: [self.bel_query(x) for x in nodes]
        )
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == MUTATE_CSV
        batched, per_node = costs
        assert (batched.mat_vec, per_node.mat_vec) == (53, 53)
        assert batched.mat_mat == per_node.mat_mat  # the same mutation

    @pytest.mark.parametrize("watch", ["", "0,,2", "0,", "a"])
    def test_bad_watch_names_the_option(self, tmp_path, capsys, watch):
        corpus = tmp_path / "c.txt"
        corpus.write_text("GSAT cchh\n")
        model = str(tmp_path / "m.npz")
        cli.main(["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model])
        capsys.readouterr()
        assert cli.main(
            ["protein", "mutate", "--model", model, "--sequence", "GSAT",
             "--site", "1", "--residue", "W", "--watch", watch]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --watch must be comma-separated integers, got {watch!r}\n"
        )

    def test_bad_corpus_data_error(self, tmp_path):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("GSAT cch\n")
        model = str(tmp_path / "m.npz")
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model]
        ) == 2

    @pytest.mark.parametrize("record, message", [
        ("GSBT cchh", "unknown amino acid in window 'SB'"),
        ("GSAT cxhh", "structure symbols outside h/e/c: 'cx'"),
        ("GS\u0661T cchh", "unknown amino acid in window 'S\u0661'"),
    ])
    def test_corpus_symbol_fault_names_the_first_window(self, tmp_path, capsys, record, message):
        corpus = tmp_path / "bad.txt"
        corpus.write_text(f"GSAT cchh\nX q\n{record}\nGSAT ccxx\n", encoding="utf-8")
        model = tmp_path / "m.npz"
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", str(model)]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()

    def test_bad_site_usage_error(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("GSAT cchh\n")
        model = str(tmp_path / "m.npz")
        cli.main(["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", model])
        assert cli.main(
            ["protein", "mutate", "--model", model, "--sequence", "GSAT",
             "--site", "99", "--residue", "A", "--watch", "0"]
        ) == 1

    @pytest.mark.parametrize("kind", ["missing", "not-npz", "no-ps-mers", "shuffled"])
    @pytest.mark.parametrize("command", ["predict", "mutate"])
    def test_bad_model_file_data_error(self, tmp_path, capsys, kind, command):
        model = tmp_path / "m.npz"
        if kind == "not-npz":
            model.write_text("GSAT cchh\n")
        elif kind != "missing":
            corpus = tmp_path / "c.txt"
            corpus.write_text("GSAT cchh\n")
            cli.main(["protein", "train", "--corpus", str(corpus), "--w", "2",
                      "--out", str(model)])
            with np.load(model) as z:
                arrays = dict(z)
            if kind == "no-ps-mers":
                del arrays["ps_mers"]
            else:
                arrays["ps_mers"] = arrays["ps_mers"][::-1]
            np.savez(model, **arrays)
        capsys.readouterr()
        args = ["protein", command, "--model", str(model), "--sequence", "GSAT"]
        if command == "mutate":
            args += ["--site", "1", "--residue", "W", "--watch", "0"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_train_out_in_missing_directory_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("GSAT cchh\n")
        out = str(tmp_path / "missing_dir" / "m.npz")
        assert cli.main(
            ["protein", "train", "--corpus", str(corpus), "--w", "2", "--out", out]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    @pytest.mark.parametrize("second", [1, 2])
    @pytest.mark.parametrize("scale", ["1e308", "1e-320"])
    def test_full_engine_at_extreme_scales(
        self, ptn_file, monkeypatch, capsys, scale, second
    ):
        script = f"update 0 {scale} {scale}\nupdate {second} {scale} {scale}\nquery 2\nquit\n"
        bels = {}
        for eng in ("hierarchy", "full"):
            code, out = run_session(
                monkeypatch, capsys,
                ["polytree", "session", ptn_file, "--engine", eng], script,
            )
            assert code == 0 and out[:2] == ["ok", "ok"] and out[2].startswith("bel "), out
            bels[eng] = np.array([float(x) for x in out[2].split()[1:]])
        assert np.allclose(bels["full"], bels["hierarchy"], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("engine", ["hierarchy", "full"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_likelihood_rejected(
        self, ptn_file, monkeypatch, capsys, engine, value
    ):
        code, out = run_session(
            monkeypatch, capsys,
            ["polytree", "session", ptn_file, "--engine", engine],
            f"update 2 {value} 1\nquery 0\nquit\n",
        )
        assert code == 0
        assert out[0] == "err likelihood entries must be finite and nonnegative"
        assert np.all(np.isfinite([float(x) for x in out[1].split()[1:]]))

    def test_full_engine_counts_enumeration(self, ptn_file, monkeypatch, capsys):
        code, out = run_session(
            monkeypatch, capsys,
            ["polytree", "session", ptn_file, "--engine", "full"],
            "update 2 1 0\nquery 0\nstats\nquit\n",
        )
        assert code == 0
        flops = int(out[-1].split("flops=")[1])
        assert flops > 0

    def test_bench_csv(self, ptn_file, capsys):
        assert cli.main(["polytree", "bench", ptn_file, "--ops", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "engine,shape,N,k,op,count_mv,count_mm,ns_total,ns_per_op"
        assert any(l.startswith("hierarchy,polytree,3,2,") for l in lines)

    def test_bench_negative_ops_usage_error(self, ptn_file, capsys):
        assert cli.main(["polytree", "bench", ptn_file, "--ops", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ops must be >= 0, got -3\n"

    def test_bench_op_counts(self, ptn_file, capsys):
        assert cli.main(["polytree", "bench", ptn_file, "--ops", "20", "--seed", "1"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(r[0], r[4], r[5], r[6]) for r in rows] == [
            ("hierarchy", "update", "10", "10"),
            ("hierarchy", "query", "66", "0"),
            ("full", "update", "0", "0"),
            ("full", "query", "0", "0"),
        ]

    def test_btn_file_rejected(self, btn_file, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert cli.main(["polytree", "session", btn_file]) == 1


# the fuzz alphabet: format keywords, numbers of every sign and size, and
# bytes that are not text at all
FUZZ_TOKENS = [
    "BTN", "PTN", "1", "k", "node", "root", "prior", "edge", "evidence", "parents",
    "cpt", "0", "2", "3", "-1", "0.5", "1e308", "1e-320", "nan", "inf", "#", "\n",
    " ", "99999999999999999999", "é",
]


@st.composite
def mutated_model(draw):
    """A valid BTN or PTN text after a few random token or byte edits."""
    text = draw(st.sampled_from([THREE_NODE_BTN, GOLDEN_CHAIN_BTN, V_STRUCTURE_PTN,
                                 LARGE_ID_PTN]))
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "token", "truncate"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            toks = lines[i].split()
            pos = draw(st.integers(0, len(toks)))
            toks[pos:pos + draw(st.integers(0, 1))] = [draw(st.sampled_from(FUZZ_TOKENS))]
            lines[i] = " ".join(toks) + "\n"
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    data = "".join(lines).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


class TestCheckFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_model())
    def test_only_exit_codes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.model")
            with open(path, "wb") as fh:
                fh.write(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["check", path])  # any exception fails the test
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


# the root has three children, so binarize hangs two of them off an alias
# copy (id 5); node 3 has one child, so it gets a dummy pad (id 6)
FANOUT_BTN = """BTN 1
k 2
node 0 r
node 1 a
node 2 b
node 3 c
node 4 d
root 0
prior 0 0.5 0.5
edge 0 1 0.9 0.1 0.2 0.8
edge 0 2 0.7 0.3 0.3 0.7
edge 0 3 0.6 0.4 0.1 0.9
edge 3 4 0.8 0.2 0.4 0.6
"""

SESSION_IDS = ["0", "1", "2", "3", "4", "5", "6", "7", "999", "-1", "x", "1e3"]
SESSION_NUMBERS = ["0", "0.5", "1", "1e308", "1e-320", "-0.5", "nan", "inf", "-inf", "x"]
SESSION_TOKENS = SESSION_IDS + SESSION_NUMBERS + ["99999999999999999999"]

# well-formed queries and two-entry updates of any id, and lines of any
# command, arity and tokens
session_line = st.one_of(
    st.builds("query {}".format, st.sampled_from(SESSION_IDS)),
    st.builds(
        "update {} {} {}".format,
        st.sampled_from(SESSION_IDS),
        st.sampled_from(SESSION_NUMBERS),
        st.sampled_from(SESSION_NUMBERS),
    ),
    st.builds(
        lambda cmd, args: " ".join([cmd, *args]),
        st.sampled_from(["update", "query", "stats", "frob"]),
        st.lists(st.sampled_from(SESSION_TOKENS), max_size=4),
    ),
)

SESSION_CASES = [
    *(pytest.param(name, parse_btn, FANOUT_BTN, id=f"btn-{name}") for name in ENGINE_CLASSES),
    *(pytest.param(name, parse_ptn, V_STRUCTURE_PTN, id=f"ptn-{name}")
      for name in POLYTREE_ENGINE_CLASSES),
]


class TestSessionFuzz:
    @pytest.mark.parametrize("engine, parse, text", SESSION_CASES)
    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(session_line, min_size=1, max_size=12))
    def test_every_line_answers(self, engine, parse, text, lines):
        out = io.StringIO()
        session = cli.SessionEngine(make_engine(engine, parse(text.splitlines())))
        code = cli.run_session(session, io.StringIO("\n".join(lines) + "\n"), out)
        answers = out.getvalue().splitlines()
        assert code == 0
        assert len(answers) == len(lines)
        for answer in answers:
            assert answer == "ok" or answer.startswith(("bel ", "stats ", "err ")), answer
