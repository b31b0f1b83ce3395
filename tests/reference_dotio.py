"""Reference DOT scanner: `_Scanner` and `parse_dot_document` as they
were before the scanner skipped whitespace once per token.

Kept verbatim as a test oracle.  Every `try_symbol`, `peek_symbol`,
`at_end`, `name` and `value` skips whitespace and comments again at
the cursor, which makes its behaviour easy to read off: an unterminated
`/*` is reported where a token is next looked for.  The differential
tests compare documents and errors of `hetcomp.dotio` against it.
"""

import re
from bisect import bisect_left

from hetcomp.dotio import DotDocument, DotEdge, DotNode
from hetcomp.errors import ParseError

#: Whitespace and comments, as many as follow one another; an
#: unterminated ``/*`` stops the match in front of it.
_SKIP_RE = re.compile(r"(?:\s+|(?://|#)[^\n]*\n?|/\*.*?\*/)*", re.S)
#: A quoted string, body in group 1; ``\"`` and ``\\`` are the escapes,
#: any other backslash stands for itself.
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_UNESCAPE_RE = re.compile(r'\\(["\\])')
_NAME_RE = re.compile(_QUOTED + r"|[A-Za-z0-9_.]+", re.S)
_VALUE_RE = re.compile(_QUOTED + r"|[A-Za-z0-9_.+\-!?]+", re.S)


class _Scanner:
    """A cursor over the text; tokens are patterns matched at the cursor."""

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.pos = 0
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def line_col(self, pos: int | None = None) -> tuple[int, int]:
        p = self.pos if pos is None else pos
        i = bisect_left(self.newlines, p)
        return i + 1, p - (self.newlines[i - 1] if i else -1)

    def error(self, message: str, pos: int | None = None) -> ParseError:
        line, col = self.line_col(pos)
        return ParseError(message, line=line, col=col, source=self.source)

    def skip(self) -> None:
        self.pos = _SKIP_RE.match(self.text, self.pos).end()
        if self.text.startswith("/*", self.pos):
            raise self.error("unterminated /* comment")

    def at_end(self) -> bool:
        self.skip()
        return self.pos >= len(self.text)

    def try_symbol(self, sym: str) -> bool:
        self.skip()
        if self.text.startswith(sym, self.pos):
            self.pos += len(sym)
            return True
        return False

    def expect_symbol(self, sym: str) -> None:
        if not self.try_symbol(sym):
            raise self.error(f"expected {sym!r}")

    def peek_symbol(self, sym: str) -> bool:
        self.skip()
        return self.text.startswith(sym, self.pos)

    def _token(self, pattern: re.Pattern[str], what: str) -> str:
        """A quoted string (unescaped) or a bare run matched by pattern."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            if self.text.startswith('"', self.pos):
                raise self.error("unterminated string")
            raise self.error(f"expected {what}")
        self.pos = m.end()
        quoted = m.group(1)
        return m.group() if quoted is None else _UNESCAPE_RE.sub(r"\1", quoted)

    def name(self, what: str) -> str:
        self.skip()
        return self._token(_NAME_RE, what)

    def value(self) -> str:
        """An attribute value: bare token, quoted string, or {...} group."""
        self.skip()
        if self.text.startswith("{", self.pos):
            return self._scan_braces()
        return self._token(_VALUE_RE, "an attribute value")

    def _scan_braces(self) -> str:
        start = self.pos
        depth = 0
        t, n = self.text, len(self.text)
        while self.pos < n:
            c = t[self.pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return t[start:self.pos]
            self.pos += 1
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
        raise sc.error("expected 'digraph'")
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

