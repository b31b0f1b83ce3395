"""Reading LTS models from a DOT subset.

The accepted subset covers what transition-system tools actually emit:
a single ``digraph``, node statements, edge statements, and attribute
lists.  Only the ``label``, ``facets`` and ``init`` attributes are
interpreted; everything else is kept as opaque decoration.  Labels may
be bare tokens, quoted strings (including SPIN's quoted-inside-quoted
dialect), or TeX-ish brace groups like ``{\\red connection!}`` whose
colour markup is stripped before the label grammar applies.

The initial state is the node marked ``init=true`` when present, and
the source of the first edge statement otherwise.

Most statements are read whole by one compiled pattern, `_STMT_RE`,
which takes the shape that generators and `emit_dot` write: a name,
maybe ``-> name``, maybe one ``[...]`` list of ``key=value`` pairs
(each followed by any ``,`` and ``;``), then ``;``, with only
whitespace between the tokens.  The whitespace, comments and further
``;`` after it are read with it.  Names and values are bare runs or
quoted strings, and quoted bodies are unescaped only when the text
holds a backslash.  The pattern has no atomic groups (Python 3.10 has
none), so a bare value carries a lookahead that lets it end only where
its class ends: backtracking would otherwise split ``[ab=cd=e]`` into
two attributes, where the tokens report an error.

Every other statement is read by tokens from its start: comments inside
it, ``{`` values, longer chains, several lists, a missing ``;``, and
every error, so errors and their line and column come only from the
tokens.  The statement pattern is tried again at the next statement,
so one odd statement does not send the rest of the document down the
slow path.

`_TOKEN_RE`, walked with `finditer`, matches the whitespace and
comments in front of a token (group 1), then the token, whose kind is
the outer group that matched, so ``m.lastindex`` names it: a bare name
``[A-Za-z0-9_.]+``, ``->``, one of ``[ ] { } ; ,``, ``=`` with its
value, a quoted name, any other single character, or the end of the
text.  Only a value can follow ``=``, so ``=`` and its value are one
token: whitespace and comments, then a quoted string, a bare run
``[A-Za-z0-9_.+\\-!?]+`` or a ``{``.  Values allow ``+-!?`` and names
do not, so ``=a->b`` gives the value ``a-`` while ``a->b`` gives two
names.  A ``{`` value is scanned by depth, and the token stream
restarts after its closing brace, so the parse stays linear in the size
of the text.

A token the grammar does not allow is an error at its start, after the
whitespace and comments.  Where a name or a value is wanted, a ``"``
there opens a string that never ends; and since the skip stops in
front of a ``/*`` that never ends, an error at one names that comment.
Lines are counted as the statements go by, and from the start of the
text only for an error.

`document_to_lts` turns each distinct pair of raw ``label`` and
``facets`` attributes into a `Label` once, and within one call shares
one `ChannelAction` per communication text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import HetcompError, ParseError
from .lts import ChannelAction, Label, Lts, Transition, _parse_label

#: Whitespace and comments, as many as follow one another; an
#: unterminated ``/*`` stops the match in front of it.
_COMMENT = r"(?://|#)[^\n]*\n?|/\*.*?\*/"
_SKIP = rf"(?:\s+|{_COMMENT})*"
#: A quoted string, body in group 1; ``\"`` and ``\\`` are the escapes,
#: any other backslash stands for itself.
_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'
_QUOTED = f'"({_BODY})"'
_UNESCAPE_RE = re.compile(r'\\(["\\])')
#: A bare name, and a character of a bare value (which also allows
#: ``+-!?``).
_BARE = r"[A-Za-z0-9_.]+"
_VALUE_CHAR = r"[A-Za-z0-9_.+\-!?]"
#: What to skip, in group 1, then one token; the outer group that
#: matched is its kind.  When no value follows ``=``, the ``eq`` token
#: ends where the value was wanted.
_TOKEN_RE = re.compile(
    rf"({_SKIP})(?:(?P<name>{_BARE})|(?P<arrow>->)"
    r"|(?P<symbol>[\[\]{};,])"
    rf"|(?P<eq>={_SKIP}(?P<value>{_QUOTED}|{_VALUE_CHAR}+|\{{)?)"
    rf"|(?P<quoted>{_QUOTED})|(?P<other>.)|(?P<end>)\Z)", re.S)
_NAME, _ARROW, _SYMBOL, _EQ, _VALUE, _QUOTE, _END = map(
    _TOKEN_RE.groupindex.get,
    ("name", "arrow", "symbol", "eq", "value", "quoted", "end"))
_BRACE_RE = re.compile("[{}]")
#: The common statement (see the module docstring), from its first
#: token on: the name is a bare run (group 1) or a quoted body (2), the
#: target's are 4 and 5 after the arrow (3), and the list's inside is 6.
#: What follows a bare name here cannot extend it, but a key may follow
#: a bare value at once, so only the value needs the lookahead.  Each
#: of `_ATTR_RE`'s matches in a list is a pair: bare or quoted key, then
#: bare or quoted value.
_BARE_VALUE = rf"{_VALUE_CHAR}+(?!{_VALUE_CHAR})"
_ATTR_RE = re.compile(
    rf"(?:({_BARE})|{_QUOTED})\s*=\s*(?:({_BARE_VALUE})|{_QUOTED})", re.S)
_STMT_RE = re.compile(
    rf"(?:({_BARE})|{_QUOTED})(?:\s*(->)\s*(?:({_BARE})|{_QUOTED}))?"
    rf'(?:\s*\[\s*((?:(?:{_BARE}|"{_BODY}")\s*=\s*(?:{_BARE_VALUE}|"{_BODY}")'
    rf'[\s,;]*)*)\])?\s*;(?:[\s;]+|{_COMMENT})*', re.S)


@dataclass
class DotNode:
    name: str
    attrs: dict[str, str]
    line: int
    col: int


@dataclass
class DotEdge:
    source: str
    target: str
    attrs: dict[str, str]
    line: int
    col: int


@dataclass
class DotDocument:
    """Raw parse of one digraph, before LTS interpretation."""

    graph_name: str
    nodes: list[DotNode] = field(default_factory=list)
    edges: list[DotEdge] = field(default_factory=list)


def _error(text: str, source: str, pos: int, message: str,
           at_token: bool = True) -> ParseError:
    """A ParseError at pos; at a token, one that names an open comment."""
    if at_token and text.startswith("/*", pos):
        message = "unterminated /* comment"
    return ParseError(message, line=text.count("\n", 0, pos) + 1,
                      col=pos - text.rfind("\n", 0, pos), source=source)


def _expected(text: str, source: str, pos: int, what: str) -> ParseError:
    """The error where a name or a value, called what, was wanted."""
    if text.startswith('"', pos):
        return _error(text, source, pos, "unterminated string")
    return _error(text, source, pos, f"expected {what}")


def _unquote(body: str) -> str:
    return _UNESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def _name(m: re.Match[str], text: str, source: str, what: str) -> str:
    """The name token m holds, unquoted; an error if it holds none."""
    kind = m.lastindex
    if kind == _NAME:
        return m[_NAME]
    if kind == _QUOTE:
        return _unquote(m[_QUOTE + 1])
    raise _expected(text, source, m.end(1), what)


def parse_dot_document(text: str, source: str = "<dot>") -> DotDocument:
    tokens = _TOKEN_RE.finditer(text)
    m = next(tokens)
    if _name(m, text, source, "'digraph'") != "digraph":
        raise _error(text, source, m.end(), "expected 'digraph'", False)
    m = next(tokens)
    graph_name = ""
    if m[_SYMBOL] != "{":
        graph_name = _name(m, text, source, "a graph name")
        m = next(tokens)
        if m[_SYMBOL] != "{":
            raise _error(text, source, m.end(1), "expected '{'")
    doc = DotDocument(graph_name)
    nodes, edges = doc.nodes, doc.edges
    line, line_start, counted = 1, -1, 0  # lines counted up to `counted`
    stmt_at, pairs_in = _STMT_RE.match, _ATTR_RE.findall
    escapes = "\\" in text  # else no quoted body needs unescaping
    m = next(tokens)
    pos = m.end(1)
    while True:
        # pos is the start of the next statement, after whitespace and
        # comments, in both paths
        newlines = text.count("\n", counted, pos)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, pos)
        counted = pos
        s = stmt_at(text, pos)
        if s is not None:
            bare, quoted, arrow, bare_to, quoted_to, listed = s.groups()
            name = bare or quoted
            if escapes:
                name = _unquote(name)
            if not listed:
                attrs = {}
            elif escapes:
                attrs = {_unquote(k or qk): _unquote(v or qv)
                         for k, qk, v, qv in pairs_in(listed)}
            else:
                attrs = {k or qk: v or qv for k, qk, v, qv in pairs_in(listed)}
            if arrow:
                target = bare_to or quoted_to
                edges.append(DotEdge(name, _unquote(target) if escapes
                                     else target, attrs, line, pos - line_start))
            elif listed is None or name not in ("graph", "node", "edge"):
                nodes.append(DotNode(name, attrs, line, pos - line_start))
            pos = s.end()
            continue
        # any other statement: read by tokens, from its start to the next
        tokens = _TOKEN_RE.finditer(text, pos)
        m = next(tokens)
        if m[_SYMBOL] == "}":
            break
        if m.lastindex == _END:
            raise _error(text, source, pos,
                         "unexpected end of input: missing '}'")
        col = pos - line_start
        chain = [m[_NAME] or _name(m, text, source, "a node name or '}'")]
        m = next(tokens)
        while m[_ARROW]:
            m = next(tokens)
            chain.append(m[_NAME] or _name(m, text, source, "an edge target"))
            m = next(tokens)
        listed = m[_SYMBOL] == "["
        attrs = {}
        while m[_SYMBOL] == "[":
            m = next(tokens)
            while m[_SYMBOL] != "]":
                key = m[_NAME] or _name(m, text, source, "an attribute name")
                m = next(tokens)
                if m.lastindex != _EQ:
                    raise _error(text, source, m.end(1), "expected '='")
                value = m[_VALUE]
                if value is None:
                    raise _expected(text, source, m.end(), "an attribute value")
                if value == "{":
                    start = m.start(_VALUE)
                    depth = 0
                    for brace in _BRACE_RE.finditer(text, start):
                        depth += 1 if brace[0] == "{" else -1
                        if not depth:
                            break
                    else:
                        raise _error(text, source, start,
                                     "unterminated { group")
                    value = text[start:brace.end()]
                    tokens = _TOKEN_RE.finditer(text, brace.end())
                elif value[0] == '"':
                    value = _unquote(m[_VALUE + 1])
                attrs[key] = value
                m = next(tokens)
                while m[_SYMBOL] in (",", ";"):
                    m = next(tokens)
            m = next(tokens)
        if len(chain) == 2:
            edges.append(DotEdge(chain[0], chain[1], attrs, line, col))
        elif len(chain) > 2:
            for a, b in zip(chain, chain[1:]):
                edges.append(DotEdge(a, b, dict(attrs), line, col))
        elif not (listed and chain[0] in ("graph", "node", "edge")):
            nodes.append(DotNode(chain[0], attrs, line, col))
        # else a default-attribute statement, ignored
        while m[_SYMBOL] == ";":
            m = next(tokens)
        pos = m.end(1)  # the next statement, statement pattern first
    m = next(tokens)
    if m.lastindex != _END:
        raise _error(text, source, m.end(1), "trailing input after closing '}'")
    return doc


_MARKUP_RE = re.compile(r"\{\\[A-Za-z]+\s+([^{}]*)\}")


def strip_markup(raw: str) -> str:
    """Remove colour/markup wrappers and one layer of literal quotes."""
    s = raw
    while "{" in s:
        t = _MARKUP_RE.sub(r"\1", s)
        if t == s:
            break
        s = t
    s = s.strip()
    if len(s) >= 2 and s[0] == '"' and s[-1] == '"':
        s = s[1:-1].strip()
    return s


def document_to_lts(doc: DotDocument, source: str = "<dot>") -> Lts:
    if not doc.nodes and not doc.edges:
        raise ParseError("empty graph: no nodes and no edges", source=source)

    states = {node.name for node in doc.nodes}
    states.update([e.source for e in doc.edges], [e.target for e in doc.edges])
    init_nodes = [node for node in doc.nodes if "init" in node.attrs
                  and strip_markup(node.attrs["init"]).lower() == "true"]
    init_names = sorted({n.name for n in init_nodes})
    if len(init_names) > 1:
        n = init_nodes[-1]
        raise ParseError(f"two distinct init=true nodes: {init_names[0]} and "
                         f"{init_names[1]}", line=n.line, col=n.col, source=source)
    if init_names:
        initial = init_names[0]
    elif doc.edges:
        initial = doc.edges[0].source
    else:
        raise ParseError("cannot determine the initial state: no init=true "
                         "node and no edges", source=source)

    # edges sharing raw label and facets attributes share one Label, made
    # at the first, and the labels of one document share ChannelActions
    transitions = []
    labels: dict[tuple[str, str], Label] = {}
    comms: dict[str, ChannelAction] = {}
    for edge in doc.edges:
        attrs = edge.attrs
        raw = attrs.get("label", ""), attrs.get("facets", "")
        label = labels.get(raw)
        if label is None:
            text = strip_markup(raw[0]) or "tau"
            facets_text = strip_markup(raw[1])
            if facets_text:
                text += "|" + facets_text
            try:
                label = labels[raw] = _parse_label(text, comms)
            except HetcompError as e:
                raise ParseError(f"bad edge label: {e}", line=edge.line,
                                 col=edge.col, source=source) from e
        transitions.append(Transition(edge.source, label, edge.target))

    try:
        return Lts(states, initial, transitions)
    except HetcompError as e:
        raise ParseError(str(e), source=source) from e


def parse_dot(text: str, source: str = "<dot>") -> Lts:
    """Parse one digraph into an Lts (see the module docstring)."""
    return document_to_lts(parse_dot_document(text, source), source)
