import numpy as np
import pytest

from treebelief import exact, formats, linalg
from treebelief.bench import make_random, random_stochastic
from treebelief.errors import FormatError, StructureError, UsageError
from treebelief.formats import parse_btn, parse_ptn, serialize_btn
from treebelief.tree import RawTree, binarize
from util import split_order_btn

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


CHAIN_EDGES = [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]
GOLDEN_CHAIN_LINES = (
    ["BTN 1", "k 2"]
    + [f"node {i} {nm}" for i, nm in enumerate(
        ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"])]
    + ["root 0", "prior 0 0.5 0.5"]
    + [f"edge {p} {c} 0.9 0.1 0.2 0.8" for p, c in CHAIN_EDGES]
)
FIRST_EDGE_LINE = 14  # line number of the chain's first edge line

# one fault in an edge line: (parent, child, floats) of the line, message
EDGE_FAULTS = {
    "bad-float": ("{p}", "{c}", "0.9 0.1 0.2 0.8x", "bad float: could not convert "
                  "string to float: '0.8x'"),
    "too-few": ("{p}", "{c}", "0.9 0.1 0.2", "expected 4 floats, got 3"),
    "too-many": ("{p}", "{c}", "0.9 0.1 0.2 0.8 0.0", "expected 4 floats, got 5"),
    "nan": ("{p}", "{c}", "0.9 nan 0.2 0.8", "non-finite number"),
    "inf": ("{p}", "{c}", "0.9 0.1 -inf 0.8", "non-finite number"),
    "unknown-child": ("{p}", "99", "0.9 0.1 0.2 0.8", "edge {p}->99 references unknown node"),
    "unknown-parent": ("99", "{c}", "0.9 0.1 0.2 0.8", "edge 99->{c} references unknown node"),
}


def chain_with_fault(edge, fault):
    """The golden chain with `fault` put in its `edge`-th edge line; the text
    and the error `parse_btn` must give for it."""
    p, c = CHAIN_EDGES[edge]
    *fields, message = (f.format(p=p, c=c) for f in EDGE_FAULTS[fault])
    lines = list(GOLDEN_CHAIN_LINES)
    line = FIRST_EDGE_LINE + edge
    lines[line - 1] = "edge " + " ".join(fields)
    return lines, f"line {line}: {message}"


# the float grammar of an edge line, token by token: the value read, or the
# error of its line.  It is `float`'s: underscores, Unicode digits and
# underflow to zero are read, a no-break space separates tokens, and hex
# floats and decimal commas are rejected
FLOAT_TOKEN_VALUES = {
    "1_0": 10.0, ".5": 0.5, "5.": 5.0, "+0.5": 0.5, "-0": -0.0,
    "\u0661": 1.0, "\u0661\u0662": 12.0, "1e-400": 0.0, "0.5\xa0": 0.5,
}
BAD_FLOAT_TOKENS = ["0x1p3", "0,5"]
NON_FINITE_TOKENS = ["nan", "NaN", "+nan", "inf", "Infinity", "1e999"]
TOKEN_EDGE = 2  # the golden chain's edge line that takes the token


def chain_with_token(token):
    """The golden chain with `token` as entry (0, 1) of one edge line, the
    line's number and the edge's child."""
    p, c = CHAIN_EDGES[TOKEN_EDGE]
    lines = list(GOLDEN_CHAIN_LINES)
    line = FIRST_EDGE_LINE + TOKEN_EDGE
    lines[line - 1] = f"edge {p} {c} 0.9 {token} 0.2 0.8"
    return lines, line, c


class TestBtnFloatTokens:
    @pytest.mark.parametrize("token", list(FLOAT_TOKEN_VALUES))
    def test_read_as_value(self, monkeypatch, token):
        monkeypatch.setattr(formats, "binarize", lambda raw: raw)  # the parsed edges
        lines, _, c = chain_with_token(token)
        m = parse_btn(lines).matrix[c]
        want = FLOAT_TOKEN_VALUES[token]
        assert m[0, 1] == want and np.signbit(m[0, 1]) == np.signbit(want)
        assert np.array_equal(m, [[0.9, want], [0.2, 0.8]])

    @pytest.mark.parametrize("token", BAD_FLOAT_TOKENS)
    def test_bad_float(self, token):
        lines, line, _ = chain_with_token(token)
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == (
            f"line {line}: bad float: could not convert string to float: {token!r}"
        )
        assert exc.value.line == line

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS)
    def test_non_finite(self, token):
        lines, line, _ = chain_with_token(token)
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == f"line {line}: non-finite number"
        assert exc.value.line == line

    @pytest.mark.parametrize("token", [*FLOAT_TOKEN_VALUES, *BAD_FLOAT_TOKENS, *NON_FINITE_TOKENS])
    def test_one_cast_reads_as_float(self, token):
        """`parse_btn` casts all edge floats with one numpy cast: it reads
        each token as `float` does, and fails with `float`'s text."""
        try:
            want = np.array([float(token)])
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                np.array([token], dtype=float)
            assert str(got.value) == str(exc)
        else:
            assert np.array([token], dtype=float).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("old, new, line, message", [
        ("evidence 1 1 0", "evidence 7 1 1", 10, "evidence for unknown node 7"),
        ("evidence 1 1 0", "evidence 0 1 1", 10, "evidence on non-leaf node 0"),
        ("node 2 Z", "node 2 Z\nevidence 0 1 1", 6, "evidence on non-leaf node 0"),
        ("node 2 Z", "evidence 2 1 1\nnode 2 Z", 5, "evidence for unknown node 2"),
    ])
    def test_evidence_fault_names_its_line(self, old, new, line, message):
        bad = THREE_NODE_BTN.replace(old, new)
        with pytest.raises(FormatError, match=message) as exc:
            parse_btn(bad.splitlines())
        assert exc.value.line == line

    def test_round_trip_keeps_ids_links_matrices_evidence(self):
        """A tree with a padded one-child node and a copied three-child node:
        the round trip keeps everything, the padding and copy marks too, and
        a second round writes the same text."""
        rng = np.random.default_rng(3)
        raw = RawTree(2)
        for x in range(5):
            raw.add_node(x, f"n{x}")
        raw.set_root(0, [0.3, 0.7])
        for parent, child in ((0, 1), (0, 2), (0, 3), (1, 4)):
            raw.add_edge(parent, child, random_stochastic(rng, 2, 2))
        raw.evidence = {2: [0.2, 0.9], 4: [1e-300, 3e-300]}
        t = binarize(raw)
        assert t.dummies and t.alias
        text = serialize_btn(t)
        t2 = parse_btn(text.splitlines())
        assert serialize_btn(t2) == text
        assert t2.dummies == t.dummies and t2.alias == t.alias
        for pad in t.dummies:
            with pytest.raises(UsageError, match="dummy"):
                t2.set_evidence([(pad, [0.5, 0.5])])
        for cp, original in t.alias.items():
            assert t2.resolve(cp) == original
        assert t2.names == t.names and t2.root == t.root and t2.kids == t.kids
        assert np.array_equal(t2.prior, t.prior)
        assert t2.matrix.keys() == t.matrix.keys()
        for c, m in t.matrix.items():
            assert np.array_equal(t2.matrix[c], m), c
        assert t2.evidence.keys() == t.evidence.keys()
        for leaf, v in t.evidence.items():
            assert np.array_equal(t2.evidence[leaf], v), leaf
            assert np.array_equal(t2.leaf_lambda(leaf), t.leaf_lambda(leaf)), leaf
        b1, b2 = exact.propagate_all(t), exact.propagate_all(t2)
        for x in t.names:
            assert np.array_equal(b1[x], b2[x]), x

    @pytest.mark.parametrize("extra, line, message", [
        ("pad 7", 11, "pad for unknown node 7"),
        ("pad 0", 11, "padding node 0 has children"),
        ("pad 1", 10, "evidence on padding leaf 1"),
        ("pad 2\npad 2", 12, "duplicate `pad` line for node 2"),
        ("pad x", 11, "expected an integer"),
        ("copy 9 0", 11, "copy for unknown node 9"),
        ("copy 2 9", 11, "copy of unknown node 9"),
        ("copy 2", 11, "`copy` needs 2 or more fields, got 1"),
        ("copy 1 1", 11, "copy 1 of 1, itself a copy"),
        ("copy 2 1\ncopy 1 0", 11, "copy 2 of 1, itself a copy"),
        ("copy 1 0\ncopy 1 2", 12, "duplicate `copy` line for node 1"),
    ])
    def test_mark_fault_names_its_line(self, extra, line, message):
        with pytest.raises(FormatError, match=message) as exc:
            parse_btn((THREE_NODE_BTN + extra + "\n").splitlines())
        assert exc.value.line == line

    def test_tree_without_marks_writes_no_mark_lines(self):
        text = serialize_btn(parse_btn(THREE_NODE_BTN.splitlines()))
        assert not [l for l in text.splitlines() if l.split()[0] in ("pad", "copy")]

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

        assert GOLDEN_CHAIN_LINES[FIRST_EDGE_LINE - 1].startswith("edge 0 1 ")
        t = parse_btn(GOLDEN_CHAIN_LINES)
        hier = build_hierarchy(t)
        assert hier.levels[1].contains == {0, 1, 4, 5, 8}


class TestNodeNames:
    """A node name is one field: `serialize_btn` writes only names that
    `parse_btn` reads back, and a `node` line holds at most one name field."""

    @pytest.mark.parametrize("name", ["root node", "a#b", "", "tab\there", "end\n"])
    def test_unwritable_name_named(self, name):
        t = parse_btn(THREE_NODE_BTN.splitlines())
        t.names[2] = name
        with pytest.raises(FormatError) as exc:
            serialize_btn(t)
        assert str(exc.value) == f"node 2 name {name!r} is not one field without `#`"
        assert exc.value.line is None

    @pytest.mark.parametrize("line", ["node 2 root node", "node 2 a b c"])
    def test_btn_node_line_with_two_names_rejected(self, line):
        text = THREE_NODE_BTN.replace("node 2 Z", line)
        fields = len(line.split()) - 2
        with pytest.raises(FormatError, match=f"^line 5: `node` takes one name field, got {fields}$"):
            parse_btn(text.splitlines())

    def test_ptn_node_line_with_two_names_rejected(self):
        text = V_STRUCTURE_PTN.replace("node 1 b", "node 1 b c")
        with pytest.raises(FormatError, match="^line 4: `node` takes one name field, got 2$"):
            parse_ptn(text.splitlines())


class TestBtnEdgeStack:
    """`parse_btn` converts every edge line's floats as one stack; each fault
    still names its own line, with the message of a line-by-line parse."""

    @pytest.mark.parametrize("edge", [1, 5, 7])
    @pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
    def test_fault_in_later_edge_line_named(self, fault, edge):
        lines, want = chain_with_fault(edge, fault)
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == want
        assert exc.value.line == FIRST_EDGE_LINE + edge

    @pytest.mark.parametrize("later", [
        "bogus 1",  # unknown keyword
        "edge 0 2 0.9 0.1 0.2 x",  # bad float
        "edge 0 99 0.9 0.1 0.2 0.8",  # unknown node
        "node 3 again",  # duplicate node id
    ])
    def test_first_fault_in_file_order_wins(self, later):
        """A non-finite number on an earlier edge line is reported before a
        fault found on a later line while reading."""
        lines, want = chain_with_fault(2, "nan")
        lines.append(later)
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == want

    @pytest.mark.parametrize("later", [
        "node 3 again",  # duplicate node id
        "bogus 1",  # unknown keyword
        "edge 0 2 0.9 nan 0.2 0.8",  # non-finite number
    ])
    def test_bad_float_before_a_later_fault(self, later):
        """A bad float, found only when the floats are cast, is reported
        before a fault on a later line, found while reading."""
        lines, want = chain_with_fault(2, "bad-float")
        lines.append(later)
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == want

    def test_bad_float_before_the_count_on_one_line(self):
        lines = list(GOLDEN_CHAIN_LINES)
        lines[FIRST_EDGE_LINE] = "edge 0 2 0.9 1,0 0.2"
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == (
            "line 15: bad float: could not convert string to float: '1,0'"
        )

    def test_bad_token_on_the_last_of_2000_edge_lines_named(self):
        lines = serialize_btn(make_random(1000, 2, np.random.default_rng(3))).splitlines()
        edge_at = [i for i, line in enumerate(lines) if line.startswith("edge ")]
        assert len(edge_at) == 2000
        lines[edge_at[-1]] += "x"
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert exc.value.line == edge_at[-1] + 1
        assert str(exc.value).startswith(f"line {edge_at[-1] + 1}: bad float: ")

    def test_non_finite_before_unknown_node_on_one_line(self):
        lines = list(GOLDEN_CHAIN_LINES)
        lines[FIRST_EDGE_LINE] = "edge 0 99 0.9 inf 0.2 0.8"
        with pytest.raises(FormatError, match=r"^line 15: non-finite number$"):
            parse_btn(lines)

    def test_non_finite_edge_before_missing_root(self):
        lines, want = chain_with_fault(3, "inf")
        lines.remove("root 0")
        with pytest.raises(FormatError) as exc:
            parse_btn(lines)
        assert str(exc.value) == f"line {FIRST_EDGE_LINE + 2}: non-finite number"

    def test_node_declared_after_its_edge_rejected(self):
        lines = list(GOLDEN_CHAIN_LINES)
        lines.remove("node 8 e5")
        lines.append("node 8 e5")
        with pytest.raises(FormatError, match=r"^line 20: edge 6->8 references unknown node$"):
            parse_btn(lines)

    def test_floats_bitwise_those_of_float(self):
        """Every parsed edge matrix is bitwise the array of `float(token)`,
        on a serialized random tree with hand-made tokens in two edge lines:
        subnormals, the smallest double, signed zero, 17 and more digits."""
        k = 4
        text = serialize_btn(make_random(300, k, np.random.default_rng(1)))
        hand = [
            "1e-320 5e-324 0.1 0.90000000000000002",
            "-0.0 0.33333333333333331 0.33333333333333331 0.33333333333333337",
            "0.2500000000000000000001 2.5E-1 +0.25 .25",
            "0.70000000000000007 0.1 0.1 0.099999999999999867",
        ]
        lines = text.splitlines()
        edge_at = [i for i, line in enumerate(lines) if line.startswith("edge ")]
        for i in edge_at[3], edge_at[-1]:
            lines[i] = " ".join(lines[i].split()[:3] + hand)
        t = parse_btn(lines)
        for i in edge_at:
            toks = lines[i].split()
            want = np.array([float(x) for x in toks[3:]]).reshape(k, k)
            got = t.matrix[int(toks[2])]
            assert got.tobytes() == want.tobytes()
        assert np.signbit(t.matrix[int(lines[edge_at[3]].split()[2])][1, 0])

    def test_round_trip_of_a_large_tree_unchanged(self):
        text = serialize_btn(make_random(2000, 4, np.random.default_rng(1)))
        assert serialize_btn(parse_btn(text.splitlines())) == text


class TestNoPerEdgeCall:
    def test_parse_calls_no_per_edge_constructor(self, monkeypatch):
        """`parse_btn` fills the raw tree's links and matrices from its one
        stack: neither `RawTree.add_edge` nor `linalg.as_matrix` runs, once
        per edge or at all."""
        calls = {"add_edge": 0, "as_matrix": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(RawTree, "add_edge", counted("add_edge", RawTree.add_edge))
        monkeypatch.setattr(linalg, "as_matrix", counted("as_matrix", linalg.as_matrix))
        t = parse_btn(split_order_btn(np.random.default_rng(2), 1000, 3))
        assert len(t.names) == 2001 and len(t.matrix) == 2000
        assert calls == {"add_edge": 0, "as_matrix": 0}


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
