import numpy as np
import pytest

from treebelief import exact
from treebelief.errors import FormatError, StructureError
from treebelief.formats import parse_btn, parse_ptn, serialize_btn

THREE_NODE_BTN = """\
BTN 1
k 2
node 0 X
node 1 Y
node 2 Z
root 0
prior 0 0.5 0.5
edge 0 1 0.9 0.1 0.2 0.8
edge 0 2 0.7 0.3 0.4 0.6
evidence 1 1 0
"""

V_STRUCTURE_PTN = """\
PTN 1
k 2
node 0 a
node 1 b
node 2 c
parents 2 0 1
prior 0 0.3 0.7
prior 1 0.6 0.4
cpt 2 0.9 0.1 0.5 0.5 0.4 0.6 0.2 0.8
"""

LARGE_ID_PTN = """\
PTN 1
k 2
node 1000 a
node 1001 b
parents 1001 1000
prior 1000 0.3 0.7
cpt 1001 0.9 0.1 0.2 0.8
"""


class TestParseBtn:
    def test_three_node(self):
        t = parse_btn(THREE_NODE_BTN.splitlines())
        assert t.validate() == []
        assert t.k == 2 and t.root == 0
        bel = exact.propagate_all(t)
        assert np.allclose(bel[0], [9 / 11, 2 / 11], atol=1e-12)

    def test_round_trip_identity(self):
        t = parse_btn(THREE_NODE_BTN.splitlines())
        s1 = serialize_btn(t)
        t2 = parse_btn(s1.splitlines())
        assert serialize_btn(t2) == s1
        b1, b2 = exact.propagate_all(t), exact.propagate_all(t2)
        for n in b1:
            assert np.array_equal(b1[n], b2[n])

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + THREE_NODE_BTN.replace(
            "root 0", "root 0  # the root"
        )
        assert parse_btn(text.splitlines()).validate() == []

    def test_missing_root_named(self):
        bad = THREE_NODE_BTN.replace("root 0\n", "")
        with pytest.raises(FormatError, match="root"):
            parse_btn(bad.splitlines())

    def test_missing_header(self):
        with pytest.raises(FormatError, match="BTN 1"):
            parse_btn(["k 2"])

    def test_syntax_error_reports_line(self):
        bad = THREE_NODE_BTN.replace("prior 0 0.5 0.5", "prior 0 0.5 oops")
        with pytest.raises(FormatError) as exc:
            parse_btn(bad.splitlines())
        assert exc.value.line == 7

    @pytest.mark.parametrize("extra, line, message", [
        ("k 2", 11, "duplicate `k` line"),
        ("root 0", 11, "duplicate `root` line"),
        ("prior 0 0.9 0.1", 11, "duplicate `prior` line"),
        ("evidence 1 0 1", 11, "duplicate `evidence` line for leaf 1"),
        ("evidence 01 0 1", 11, "duplicate `evidence` line for leaf 1"),
    ])
    def test_repeated_line_rejected(self, extra, line, message):
        with pytest.raises(FormatError, match=message) as exc:
            parse_btn((THREE_NODE_BTN + extra + "\n").splitlines())
        assert exc.value.line == line

    def test_evidence_on_two_leaves(self):
        t = parse_btn((THREE_NODE_BTN + "evidence 2 0.5 0.5\n").splitlines())
        assert set(t.evidence) == {1, 2}

    def test_wrong_matrix_arity(self):
        bad = THREE_NODE_BTN.replace(
            "edge 0 1 0.9 0.1 0.2 0.8", "edge 0 1 0.9 0.1 0.2"
        )
        with pytest.raises(FormatError, match="expected 4 floats"):
            parse_btn(bad.splitlines())

    def test_non_stochastic_rejected(self):
        bad = THREE_NODE_BTN.replace("0.9 0.1", "0.9 0.3")
        with pytest.raises(StructureError):
            parse_btn(bad.splitlines())

    def test_golden_chain_hierarchy(self):
        # length-4 chain: first contraction level keeps {x1, e1, x3, e3, e5}
        from treebelief.contract import build_hierarchy

        lines = ["BTN 1", "k 2"]
        names = ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"]
        for i, nm in enumerate(names):
            lines.append(f"node {i} {nm}")
        lines += ["root 0", "prior 0 0.5 0.5"]
        for p, c in [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]:
            lines.append(f"edge {p} {c} 0.9 0.1 0.2 0.8")
        t = parse_btn(lines)
        hier = build_hierarchy(t)
        assert hier.levels[1].contains == {0, 1, 4, 5, 8}


class TestParsePtn:
    def test_v_structure(self):
        pt = parse_ptn(V_STRUCTURE_PTN.splitlines())
        assert pt.validate() == []
        assert pt.parents[2] == (0, 1)
        assert pt.cpt[2].shape == (4, 2)

    def test_first_parent_most_significant(self):
        pt = parse_ptn(V_STRUCTURE_PTN.splitlines())
        # row index 2 = (parent0=1, parent1=0)
        assert np.allclose(pt.cpt[2][2], [0.4, 0.6])

    def test_missing_header(self):
        with pytest.raises(FormatError, match="PTN 1"):
            parse_ptn(["k 2"])

    def test_wrong_cpt_size(self):
        bad = V_STRUCTURE_PTN.replace(
            "cpt 2 0.9 0.1 0.5 0.5 0.4 0.6 0.2 0.8", "cpt 2 0.9 0.1 0.5 0.5"
        )
        with pytest.raises(FormatError, match="expected 8"):
            parse_ptn(bad.splitlines())

    def test_large_ids(self):
        pt = parse_ptn(LARGE_ID_PTN.splitlines())
        assert pt.parents[1001] == (1000,)
        assert pt.validate() == []

    def test_not_singly_connected(self):
        bad = V_STRUCTURE_PTN + "node 3 d\nparents 3 0 1\ncpt 3 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"
        with pytest.raises(StructureError):
            parse_ptn(bad.splitlines())
