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

The scanner matches compiled patterns at a cursor and turns offsets
into line:col by bisecting a table of newline offsets built once, so
parsing stays linear in the size of the text.  Whitespace and comments
are skipped once per token: the cursor always rests after them, right
after the scanner is made and after every token it consumes, so looking
at the next token never skips again.  An unterminated ``/*`` stops the
cursor in front of it, where no symbol, name or value matches, so the
parser fails at that offset; an error raised at the cursor there names
the unterminated comment.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import HetcompError, ParseError
from .lts import Label, Lts, Transition, parse_label

#: Whitespace and comments, as many as follow one another; an
#: unterminated ``/*`` stops the match in front of it.
_SKIP_RE = re.compile(r"(?:\s+|(?://|#)[^\n]*\n?|/\*.*?\*/)*", re.S)
#: A quoted string, body in group 1; ``\"`` and ``\\`` are the escapes,
#: any other backslash stands for itself.
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_UNESCAPE_RE = re.compile(r'\\(["\\])')
_NAME_RE = re.compile(_QUOTED + r"|[A-Za-z0-9_.]+", re.S)
_VALUE_RE = re.compile(_QUOTED + r"|[A-Za-z0-9_.+\-!?]+", re.S)


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


class _Scanner:
    """A cursor over the text; tokens are patterns matched at the cursor.

    The cursor always rests after whitespace and comments; ``end`` is
    the offset just past the last token consumed.
    """

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        self.end = 0
        self.skip(0)

    def line_col(self, pos: int | None = None) -> tuple[int, int]:
        p = self.pos if pos is None else pos
        i = bisect_left(self.newlines, p)
        return i + 1, p - (self.newlines[i - 1] if i else -1)

    def error(self, message: str, pos: int | None = None) -> ParseError:
        if pos is None and self.text.startswith("/*", self.pos):
            message = "unterminated /* comment"
        line, col = self.line_col(pos)
        return ParseError(message, line=line, col=col, source=self.source)

    def skip(self, pos: int) -> None:
        """Consume the text up to pos, then whitespace and comments."""
        self.end = pos
        self.pos = _SKIP_RE.match(self.text, pos).end()

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def try_symbol(self, sym: str) -> bool:
        if self.text.startswith(sym, self.pos):
            self.skip(self.pos + len(sym))
            return True
        return False

    def expect_symbol(self, sym: str) -> None:
        if not self.try_symbol(sym):
            raise self.error(f"expected {sym!r}")

    def peek_symbol(self, sym: str) -> bool:
        return self.text.startswith(sym, self.pos)

    def _token(self, pattern: re.Pattern[str], what: str) -> str:
        """A quoted string (unescaped) or a bare run matched by pattern."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            if self.text.startswith('"', self.pos):
                raise self.error("unterminated string")
            raise self.error(f"expected {what}")
        self.skip(m.end())
        quoted = m.group(1)
        return m.group() if quoted is None else _UNESCAPE_RE.sub(r"\1", quoted)

    def name(self, what: str) -> str:
        return self._token(_NAME_RE, what)

    def value(self) -> str:
        """An attribute value: bare token, quoted string, or {...} group."""
        if self.text.startswith("{", self.pos):
            return self._scan_braces()
        return self._token(_VALUE_RE, "an attribute value")

    def _scan_braces(self) -> str:
        start = pos = self.pos
        depth = 0
        t, n = self.text, len(self.text)
        while pos < n:
            c = t[pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    self.skip(pos + 1)
                    return t[start:pos + 1]
            pos += 1
        raise self.error("unterminated { group", start)


def _parse_attr_list(sc: _Scanner) -> dict[str, str]:
    attrs: dict[str, str] = {}
    while sc.try_symbol("["):
        while not sc.try_symbol("]"):
            key = sc.name("an attribute name")
            sc.expect_symbol("=")
            attrs[key] = sc.value()
            while sc.try_symbol(",") or sc.try_symbol(";"):
                pass
    return attrs


def parse_dot_document(text: str, source: str = "<dot>") -> DotDocument:
    sc = _Scanner(text, source)
    if sc.name("'digraph'") != "digraph":
        raise sc.error("expected 'digraph'", sc.end)
    if sc.peek_symbol("{"):
        graph_name = ""
    else:
        graph_name = sc.name("a graph name")
    sc.expect_symbol("{")
    doc = DotDocument(graph_name)
    while True:
        if sc.try_symbol("}"):
            break
        if sc.at_end():
            raise sc.error("unexpected end of input: missing '}'")
        line, col = sc.line_col()
        name = sc.name("a node name or '}'")
        if sc.peek_symbol("->"):
            chain = [name]
            while sc.try_symbol("->"):
                chain.append(sc.name("an edge target"))
            attrs = _parse_attr_list(sc)
            for a, b in zip(chain, chain[1:]):
                doc.edges.append(DotEdge(a, b, dict(attrs), line, col))
        elif name in ("graph", "node", "edge") and sc.peek_symbol("["):
            _parse_attr_list(sc)  # default-attribute statement, ignored
        else:
            doc.nodes.append(DotNode(name, _parse_attr_list(sc), line, col))
        while sc.try_symbol(";"):
            pass
    if not sc.at_end():
        raise sc.error("trailing input after closing '}'")
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

    states: list[str] = []
    seen: set[str] = set()

    def add_state(name: str) -> None:
        if name not in seen:
            seen.add(name)
            states.append(name)

    init_nodes: list[DotNode] = []
    for node in doc.nodes:
        add_state(node.name)
        if strip_markup(node.attrs.get("init", "")).lower() == "true":
            init_nodes.append(node)
    for edge in doc.edges:
        add_state(edge.source)
        add_state(edge.target)

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

    # edges sharing a label text share one Label, parsed at the first
    transitions = []
    labels: dict[str, Label] = {}
    for edge in doc.edges:
        label_text = strip_markup(edge.attrs.get("label", ""))
        facets_text = strip_markup(edge.attrs.get("facets", ""))
        combined = label_text or "tau"
        if facets_text:
            combined += "|" + facets_text
        label = labels.get(combined)
        if label is None:
            try:
                label = labels[combined] = parse_label(combined)
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
