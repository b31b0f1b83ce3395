"""DOT frontend tests against the shipped corpus and hand-built fragments."""

import random

import pytest

import reference_dotio
from hetcomp import (Direction, HetcompError, Label, ParseError, channels_of,
                     parse_dot, parse_label)
from hetcomp.dotio import document_to_lts, parse_dot_document, strip_markup


def test_minimal_graph():
    lts = parse_dot('digraph g { a -> b [label="c!"] }')
    assert lts.states == frozenset({"a", "b"})
    assert lts.initial == "a"
    (t,) = lts.transitions
    assert t.label == Label.send("c")


def test_data_collector_corpus(corpus_dir):
    lts = parse_dot((corpus_dir / "dataCollector.dot").read_text())
    assert set(lts.states) == {"initSCRT", "S2", "S3", "S4", "S5"}
    assert lts.initial == "initSCRT"
    assert len(lts.transitions) == 7
    assert channels_of(lts) == {"connection", "KO", "OK", "ready", "stop",
                                "readState", "getState"}
    texts = {(t.source, t.label.text, t.target) for t in lts.transitions}
    assert ("initSCRT", "connection!", "S2") in texts
    assert ("S4", "readState!", "S5") in texts


def test_spin_dialect_corpus(corpus_dir):
    lts = parse_dot((corpus_dir / "spin_follower.dot").read_text())
    assert lts.initial == "S1"
    by_pair = {(t.source, t.target): t.label for t in lts.transitions}
    label = by_pair[("S2", "S3")]
    assert label.comm.channel == "OK"
    assert label.comm.direction is Direction.RECEIVE


def test_markup_stripping():
    assert strip_markup(r"{\red connection!}") == "connection!"
    assert strip_markup(r"{\blue readState!}") == "readState!"
    assert strip_markup("plain?") == "plain?"
    # one surrounding quote layer also goes
    assert strip_markup('"OK?"') == "OK?"


def test_markup_inside_parse():
    lts = parse_dot(r'digraph g { a -> b [label={\red connection!}] }')
    (t,) = lts.transitions
    assert t.label.text == "connection!"


def test_init_attribute_wins_over_first_edge():
    lts = parse_dot("""
        digraph g {
          b [init=true];
          a -> b [label="x!"];
        }
    """)
    assert lts.initial == "b"


def test_two_distinct_init_nodes_rejected():
    with pytest.raises(ParseError):
        parse_dot("""
            digraph g {
              a [init=true];
              b [init=true];
              a -> b [label="x!"];
            }
        """)


def test_repeated_init_on_same_node_fine():
    lts = parse_dot("""
        digraph g {
          a [init=true];
          a [init=true, shape=circle];
          a -> b [label="x!"];
        }
    """)
    assert lts.initial == "a"


def test_empty_graph_rejected():
    with pytest.raises(ParseError):
        parse_dot("digraph g { }")


def test_nodes_without_edges_need_explicit_init():
    with pytest.raises(ParseError):
        parse_dot("digraph g { a; b; }")
    lts = parse_dot("digraph g { a [init=true]; b; }")
    assert lts.initial == "a"
    assert set(lts.states) == {"a", "b"}
    assert lts.transitions == frozenset()


def test_missing_or_empty_label_is_internal_tau():
    lts = parse_dot("digraph g { a -> b; c -> d [label=\"\"]; a -> c [label=x] }")
    by_pair = {(t.source, t.target): t.label for t in lts.transitions}
    assert by_pair[("a", "b")] == Label.internal()
    assert by_pair[("c", "d")] == Label.internal()
    assert by_pair[("a", "c")] == Label.internal("x")


def test_edge_chains_expand():
    lts = parse_dot('digraph g { a -> b -> c [label="x!"] }')
    assert len(lts.transitions) == 2
    assert {(t.source, t.target) for t in lts.transitions} == {("a", "b"),
                                                               ("b", "c")}
    assert all(t.label == Label.send("x") for t in lts.transitions)


def test_defaults_and_decorations_ignored():
    lts = parse_dot("""
        // top comment
        digraph g {
          graph [rankdir=LR];
          node [shape=circle];
          edge [color=red];
          /* block
             comment */
          a -> b [label="c!", color=blue, style=dashed];
          # hash comment
        }
    """)
    (t,) = lts.transitions
    assert t.label == Label.send("c")


def test_facets_attribute_merges_into_label():
    lts = parse_dot('digraph g { a -> b [label="c!", facets="time:t<5"] }')
    (t,) = lts.transitions
    assert t.label == parse_label("c!|time:t<5")


def test_facets_inside_label_text():
    lts = parse_dot('digraph g { a -> b [label="c!|guard:x>0|note"] }')
    (t,) = lts.transitions
    assert t.label.facets == (("guard", "x>0"), ("other", "note"))


def test_quoted_names_and_escapes():
    # quoted identifiers may use characters bare names cannot
    lts = parse_dot('digraph g { "n-1" -> "n-2" [label="go!|guard:say \\"hi\\""] }')
    assert set(lts.states) == {"n-1", "n-2"}
    (t,) = lts.transitions
    assert t.label.comm.channel == "go"
    assert t.label.facet("guard") == 'say "hi"'


def test_state_names_with_whitespace_rejected():
    with pytest.raises(ParseError):
        parse_dot('digraph g { "n 1" -> b [label="c!"] }')


def test_graph_name_captured():
    doc = parse_dot_document("digraph p_dataCollectorBot { a -> b }")
    assert doc.graph_name == "p_dataCollectorBot"
    assert parse_dot_document("digraph { a -> b }").graph_name == ""


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_dot("digraph g {\n  a -> [label=x]\n}")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_dot("graph g { a -- b }")
    with pytest.raises(ParseError):
        parse_dot("digraph g { a -> b } trailing")


def test_bad_channel_token_reported_as_parse_error():
    with pytest.raises(ParseError):
        parse_dot('digraph g { a -> b [label="bad name!"] }')


def test_statement_order_does_not_matter_with_explicit_init(rng):
    stmts = [
        "s0 [init=true];",
        's0 -> s1 [label="a!"];',
        's1 -> s2 [label="b?"];',
        's2 -> s0 [label="go"];',
        "s2 [shape=doublecircle];",
    ]
    reference = parse_dot("digraph g {\n" + "\n".join(stmts) + "\n}")
    for _ in range(10):
        shuffled = stmts[:]
        rng.shuffle(shuffled)
        lts = parse_dot("digraph g {\n" + "\n".join(shuffled) + "\n}")
        assert lts == reference


def test_parse_is_deterministic(corpus_dir):
    for path in sorted(corpus_dir.glob("*.dot")):
        text = path.read_text()
        assert parse_dot(text) == parse_dot(text)


def test_quoted_strings_unescape_only_quote_and_backslash():
    doc = parse_dot_document(
        r'digraph g { "" -> "a\"b"; "t\\" [label="x\y\\z\"w"] }')
    (edge,) = doc.edges
    assert (edge.source, edge.target) == ("", 'a"b')
    (node,) = doc.nodes
    assert node.name == "t\\"
    assert node.attrs["label"] == 'x\\y\\z"w'


@pytest.mark.parametrize("tail", ["# note", "// note", "/* a */ # b", "#"])
def test_comment_at_end_of_input_without_newline(tail):
    doc = parse_dot_document("digraph g { a -> b }" + tail)
    assert [(e.source, e.target) for e in doc.edges] == [("a", "b")]


def test_block_comments_between_tokens():
    doc = parse_dot_document(
        '/*h*/digraph/**/g/* x\n */{a/*1*/->/*2*/b/*3*/[/*4*/label/*5*/='
        '/*6*/"c!"/*7*/]/*8*/;/*9*/}/**/')
    (edge,) = doc.edges
    assert (edge.source, edge.target, edge.attrs) == ("a", "b", {"label": "c!"})
    assert (edge.line, edge.col) == (2, 5)


@pytest.mark.parametrize("text, message, line, col", [
    ('digraph g {\n  a -> "b\n}', "unterminated string", 2, 8),
    ('digraph g {\n  a -> "b\\"\n}', "unterminated string", 2, 8),
    ('digraph g {\n  a /* x\n}', "unterminated /* comment", 2, 5),
    ('digraph g {\n  a -> b [label={\\red {x}\n]', "unterminated { group", 2, 17),
    ("graph g { a -- b }", "expected 'digraph'", 1, 6),
    ("\n\n  ", "expected 'digraph'", 3, 3),
    ("digraph g {\n  a -> b", "unexpected end of input: missing '}'", 2, 9),
])
def test_scanner_errors_name_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_dot_document(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, line, col)


def test_error_position_at_the_end_of_a_large_document():
    edges = "".join(f'  s{i} -> s{i + 1} [label="c!"];\n'
                    for i in range(20_000))
    text = "digraph g {\n" + edges + "  s0 -> [label=x]\n}"
    with pytest.raises(ParseError) as exc:
        parse_dot_document(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        ("expected an edge target", 20_002, 9)


def _chain_document(edges: int) -> str:
    body = "".join(f'  s{i} -> s{i + 1} [label="c!"];\n' for i in range(edges))
    return "digraph g {\n" + body + "}\n"


def test_a_large_document_parses():
    lts = parse_dot(_chain_document(20_000))
    assert (len(lts.states), len(lts.transitions)) == (20_001, 20_000)
    assert lts.initial == "s0"


@pytest.mark.parametrize("last, message, col", [
    ('  s0 -> "s1 [label=x]', "unterminated string", 9),
    ("  s0 -> s1 [label=x] /* open", "unterminated /* comment", 22),
    ("  s0 -> s1 [label=x]; } x", "trailing input after closing '}'", 25),
])
def test_errors_on_the_last_line_of_a_large_document(last, message, col):
    text = _chain_document(20_000)[:-2] + last
    with pytest.raises(ParseError) as exc:
        parse_dot_document(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, 20_002, col)


def test_deeply_nested_brace_label_parses():
    label = "{" * 5_000 + "x" + "}" * 5_000
    text = f"digraph g {{ a -> b [label={label}, x=y]; }}"
    assert parse_dot_document(text).edges[0].attrs == {"label": label, "x": "y"}
    (t,) = parse_dot(text).transitions
    assert t.label.text == label


# ---- document_to_lts: one label per distinct label attribute ----

def test_plain_and_marked_up_labels_are_equal():
    lts = parse_dot('digraph g { a -> b [label="a!"]; b -> a [label={\\red a!}];'
                    ' a -> a [label="a!", facets="time:t<1"]; }')
    by_source = {(t.source, t.target): t.label for t in lts.transitions}
    assert by_source[("a", "b")] == by_source[("b", "a")] == Label.send("a")
    assert by_source[("a", "a")] == Label.send("a", [("time", "t<1")])


def test_a_bad_label_after_good_edges_reports_its_own_position():
    text = ('digraph g {\n  a -> b [label="c!"];\n  b -> a [label="c!"];\n'
            '  b -> b [label="d?"]; a -> a [label="bad name!"];\n'
            '  b -> b [label="bad name!"];\n}')
    with pytest.raises(HetcompError) as want:
        parse_label("bad name!")
    with pytest.raises(ParseError) as exc:
        document_to_lts(parse_dot_document(text, "m.dot"), "m.dot")
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (f"bad edge label: {want.value}", 4, 24)


def test_a_comment_in_a_large_document_matches_the_reference():
    # the statement pattern reads every statement but the commented one
    rng = random.Random(16)
    lines = []
    for i in range(2_000):
        facets = rng.choice(["", ', facets="guard:x>0"', ', facets="time:t<5"'])
        src, dst = f"s{rng.randrange(300)}", f'"s{rng.randrange(300)}"'
        lines.append(f'  {src} -> {dst} [label="c{rng.randrange(9)}!"{facets}];')
    lines[1_000] = lines[1_000].replace("->", "/* comment */ ->")
    text = "digraph g {\n" + "\n".join(lines) + "\n}\n"
    doc = parse_dot_document(text)
    assert doc == reference_dotio.parse_dot_document(text)
    assert len(doc.edges) == 2_000 and doc.edges[1_000].line == 1_002
