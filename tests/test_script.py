"""Script-language parser tests: statement forms and static checks."""

import pytest

from hetcomp import ParseError, parse_script
from hetcomp.scriptlang import (COMMANDS, PRODUCING, _SHAPES, Binding, Call,
                                ChannelDecl, Command, Str, Var)


def stmts(text):
    return parse_script(text).statements


def test_minimal_program():
    prog = stmts('p = dot("x.dot")\nchans(p)\n')
    assert len(prog) == 2
    bind, cmd = prog
    assert isinstance(bind, Binding) and bind.name == "p"
    assert bind.expr == Call("dot", (Str("x.dot", 1),), 1)
    assert isinstance(cmd, Command)
    assert cmd.call == Call("chans", (Var("p", 2),), 2)


def test_comments_and_blank_lines():
    prog = stmts("""
# a pipeline
p = dot("x.dot")   # trailing comment

chans(p)
""")
    assert [type(s) for s in prog] == [Binding, Command]
    assert prog[0].line == 3
    assert prog[1].line == 5


def test_lines_end_at_newline_only():
    # a form feed, a vertical tab or a Unicode line break stays inside
    # its comment, and line numbers count "\n" as editors do
    for brk in "\x0c\x0b\x1c\x85\u2028":
        prog = stmts(f'p = dot("a.dot")  # page break {brk} here\n')
        assert [type(s) for s in prog] == [Binding]
    text = 'p = dot("a.dot")  # page break \x0c here\r\nchans(p)\r\nchans(q)\n'
    with pytest.raises(ParseError) as exc:
        parse_script(text, source="s.hcs")
    assert exc.value.line == 3
    assert stmts(text.replace("chans(q)", "chans(p)"))[2].line == 3


def test_compose_is_variadic_and_nests():
    prog = stmts('a = dot("a.dot")\n'
                 'b = dot("b.dot")\n'
                 'c = dot("c.dot")\n'
                 's = compose(a, b, c)\n'
                 't = compose(compose(a, b), c)\n')
    s, t = prog[3], prog[4]
    assert [a.name for a in s.expr.args] == ["a", "b", "c"]
    inner = t.expr.args[0]
    assert isinstance(inner, Call) and inner.func == "compose"
    with pytest.raises(ParseError):
        stmts("s = compose()")
    with pytest.raises(ParseError, match="argument 2 of compose must be a "
                                         "model expression, not a string") as exc:
        stmts('p = dot("p.dot")\ns = compose(p, "q.dot")\n')
    assert exc.value.line == 2


def test_rename_and_replace_shapes():
    prog = stmts('p = dot("p.dot")\n'
                 'q = rename(p, connection, connect)\n'
                 'r = replace(compose(p, q), p, q)\n')
    q = prog[1].expr
    assert q.args[1] == Var("connection", 2)
    # channel arguments are tokens, not strings
    with pytest.raises(ParseError):
        stmts('p = dot("p.dot")\nq = rename(p, "connection", connect)\n')
    with pytest.raises(ParseError):
        stmts('p = dot("p.dot")\nq = rename(p, connection)\n')


def test_filter_accepts_known_facets_only():
    prog = stmts('p = dot("p.dot")\nf = filter(p, guard, time)\n')
    assert [a.name for a in prog[1].expr.args[1:]] == ["guard", "time"]
    with pytest.raises(ParseError) as exc:
        stmts('p = dot("p.dot")\nf = filter(p, speed)\n')
    assert "facet" in str(exc.value) and exc.value.line == 2


def test_channel_declarations():
    sync, asy = stmts("channel c sync\nchannel d async 2\n")
    assert sync == ChannelDecl("c", "sync", None, 1)
    assert asy == ChannelDecl("d", "async", 2, 2)
    for bad in ["channel c maybe", "channel c async", "channel c async 0",
                "channel c sync 2", "channel c", "channel c async two"]:
        with pytest.raises(ParseError):
            stmts(bad)


def test_check_and_emits_take_string_second():
    prog = stmts('p = dot("p.dot")\n'
                 'check(p, "A[] not deadlock")\n'
                 'emit_uppaal(p, "out.xml")\n'
                 'emit_dot(p, "out.dot")\n'
                 'emit_lotos(p, "out.lotos")\n')
    assert all(isinstance(s, Command) for s in prog[1:])
    with pytest.raises(ParseError):
        stmts('p = dot("p.dot")\ncheck(p, deadlock)\n')


def test_unknown_operation_rejected():
    with pytest.raises(ParseError) as exc:
        stmts("p = dotfile(\"x.dot\")")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        stmts('p = dot("x.dot")\nhide(p)\n')


def test_every_operation_has_a_shape_and_every_shape_an_operation():
    assert PRODUCING | COMMANDS == set(_SHAPES)


def test_use_before_bind_rejected():
    with pytest.raises(ParseError) as exc:
        stmts("s = compose(a, b)")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        stmts('chans(p)\np = dot("x.dot")\n')
    # rebinding works and later lines see earlier names
    prog = stmts('p = dot("x.dot")\np = compose(p, p)\nchans(p)\n')
    assert len(prog) == 3


def test_producing_calls_cannot_be_bare_statements():
    with pytest.raises(ParseError) as exc:
        stmts('p = dot("x.dot")\ncompose(p, p)\n')
    assert "compose" in str(exc.value)
    with pytest.raises(ParseError):
        stmts('dot("x.dot")')


def test_commands_cannot_be_bound_or_nested():
    with pytest.raises(ParseError):
        stmts('p = dot("x.dot")\nx = chans(p)\n')
    with pytest.raises(ParseError):
        stmts('p = dot("x.dot")\ns = compose(chans(p), p)\n')


def test_filter_may_be_bound_and_bare():
    prog = stmts('p = dot("x.dot")\nf = filter(p, guard)\nfilter(p, time)\n')
    assert isinstance(prog[1], Binding) and isinstance(prog[2], Command)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        stmts('p = dot("x.dot")\nq = rename(p, a b)\n')
    assert exc.value.line == 2
    for bad in ['p = dot("x.dot") extra', "p =", "= dot(\"x\")",
                'p = dot("x.dot"', 'p = dot("unterminated',
                "channel", "p = dot(3)", "2 = dot(\"x\")"]:
        with pytest.raises(ParseError):
            stmts(bad)


def test_string_escapes():
    (bind,) = stmts('p = dot("dir\\\\sub \\"quoted\\".dot")')
    assert bind.expr.args[0].value == 'dir\\sub "quoted".dot'


def test_keywords_are_not_reserved_as_names():
    # binding a name equal to an operation is allowed; call position
    # still resolves to the operation
    prog = stmts('filter = dot("x.dot")\nf = filter(filter, guard)\n')
    assert prog[1].expr.args[0] == Var("filter", 2)
