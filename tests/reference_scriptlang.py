"""Reference script parser: `scriptlang` as it was before each line was
read in one pass.

Kept verbatim as a test oracle, apart from its imports.  Its lexer
walks the line one character at a time, its `_LineParser` makes one
`peek` or `take` call per token, and `_value_vars` decodes the argument
shapes a second time for the use-before-bound check.  The differential
tests compare statements and errors of `hetcomp.scriptlang` against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from hetcomp.errors import ParseError
from hetcomp.lts import FACET_NAMES

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Var:
    name: str
    line: int


@dataclass(frozen=True)
class Str:
    value: str
    line: int


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    line: int


Expr = Union[Var, Str, Call]


@dataclass(frozen=True)
class Binding:
    name: str
    expr: Call
    line: int


@dataclass(frozen=True)
class Command:
    call: Call
    line: int


@dataclass(frozen=True)
class ChannelDecl:
    channel: str
    kind: str
    capacity: int | None
    line: int


Statement = Union[Binding, Command, ChannelDecl]


@dataclass(frozen=True)
class ScriptProgram:
    statements: tuple[Statement, ...]


#: argument shapes; a trailing '*' kind absorbs any number of arguments
_SHAPES: dict[str, tuple[str, ...]] = {
    "dot": ("string",),
    "compose": ("expr", "expr*"),
    "rename": ("expr", "token", "token"),
    "replace": ("expr", "token", "expr"),
    "remove": ("expr", "token"),
    "select": ("expr", "token"),
    "filter": ("expr", "facet*"),
    "chans": ("expr",),
    "check": ("expr", "string"),
    "emit_uppaal": ("expr", "string"),
    "emit_dot": ("expr", "string"),
    "emit_lotos": ("expr", "string"),
}

#: calls that produce a value and therefore may appear in expressions
PRODUCING = frozenset(
    ["dot", "compose", "rename", "replace", "remove", "select", "filter"])

#: calls usable as bare statements
COMMANDS = frozenset(
    ["chans", "check", "emit_uppaal", "emit_dot", "emit_lotos", "filter"])


def _lex_line(text: str, line: int, source: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
        elif c == "#":
            break
        elif c == '"':
            j = i + 1
            out = []
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] in '"\\':
                    out.append(text[j + 1])
                    j += 2
                elif text[j] == '"':
                    break
                else:
                    out.append(text[j])
                    j += 1
            else:
                raise ParseError("unterminated string", line=line,
                                 col=i + 1, source=source)
            tokens.append(("string", "".join(out)))
            i = j + 1
        elif c in "=(),":
            tokens.append((c, c))
            i += 1
        else:
            m = _IDENT_RE.match(text, i)
            if m:
                tokens.append(("ident", m.group()))
                i = m.end()
                continue
            m = _NUMBER_RE.match(text, i)
            if m:
                tokens.append(("number", m.group()))
                i = m.end()
                continue
            raise ParseError(f"unexpected character {c!r}", line=line,
                             col=i + 1, source=source)
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str]], line: int, source: str):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.source = source

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, source=self.source)

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of line")
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def expr(self) -> Expr:
        tok = self.take()
        if tok[0] == "string":
            return Str(tok[1], self.line)
        if tok[0] != "ident":
            raise self.error(f"expected an expression, found {tok[1]!r}")
        nxt = self.peek()
        if nxt is None or nxt[0] != "(":
            return Var(tok[1], self.line)
        self.take("(")
        args: list[Expr] = []
        if self.peek() is not None and self.peek()[0] != ")":
            args.append(self.expr())
            while self.peek() is not None and self.peek()[0] == ",":
                self.take(",")
                args.append(self.expr())
        self.take(")")
        return Call(tok[1], tuple(args), self.line)


def _check_call(call: Call, source: str) -> None:
    shape = _SHAPES.get(call.func)
    if shape is None:
        raise ParseError(f"unknown operation {call.func!r}",
                         line=call.line, source=source)
    fixed = [k for k in shape if not k.endswith("*")]
    variadic = next((k[:-1] for k in shape if k.endswith("*")), None)
    if len(call.args) < len(fixed) or (variadic is None
                                       and len(call.args) > len(fixed)):
        want = f"at least {len(fixed)}" if variadic else str(len(fixed))
        raise ParseError(f"{call.func} takes {want} argument(s), "
                         f"got {len(call.args)}", line=call.line, source=source)
    for i, arg in enumerate(call.args):
        kind = fixed[i] if i < len(fixed) else variadic
        if kind == "expr":
            if isinstance(arg, Str):
                raise ParseError(
                    f"argument {i + 1} of {call.func} must be a model "
                    "expression, not a string", line=call.line, source=source)
            if isinstance(arg, Call):
                if arg.func not in PRODUCING:
                    raise ParseError(f"{arg.func} produces no value and "
                                     "cannot be nested", line=arg.line,
                                     source=source)
                _check_call(arg, source)
        elif kind == "token":
            if not isinstance(arg, Var):
                raise ParseError(
                    f"argument {i + 1} of {call.func} must be a plain name",
                    line=call.line, source=source)
        elif kind == "facet":
            if not isinstance(arg, Var) or arg.name not in FACET_NAMES:
                raise ParseError(
                    f"argument {i + 1} of {call.func} must be a facet name "
                    f"({', '.join(FACET_NAMES)})", line=call.line,
                    source=source)
        elif kind == "string":
            if not isinstance(arg, Str):
                raise ParseError(
                    f"argument {i + 1} of {call.func} must be a string",
                    line=call.line, source=source)


def _value_vars(call: Call) -> list[Var]:
    """Vars standing for bound values (not channel/instance tokens)."""
    shape = _SHAPES[call.func]
    fixed = [k for k in shape if not k.endswith("*")]
    variadic = next((k[:-1] for k in shape if k.endswith("*")), None)
    out: list[Var] = []
    for i, arg in enumerate(call.args):
        kind = fixed[i] if i < len(fixed) else variadic
        if kind != "expr":
            continue
        if isinstance(arg, Var):
            out.append(arg)
        elif isinstance(arg, Call):
            out.extend(_value_vars(arg))
    return out


def parse_script(text: str, source: str = "<script>") -> ScriptProgram:
    statements: list[Statement] = []
    bound: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, lineno, source)
        if not tokens:
            continue
        lp = _LineParser(tokens, lineno, source)

        if (tokens[0] == ("ident", "channel") and len(tokens) >= 2
                and tokens[1][0] == "ident"):
            lp.take()
            chan = lp.take("ident")[1]
            kind = lp.take("ident")[1]
            if kind == "sync":
                stmt: Statement = ChannelDecl(chan, "sync", None, lineno)
            elif kind == "async":
                cap = int(lp.take("number")[1])
                if cap < 1:
                    raise ParseError("async capacity must be >= 1",
                                     line=lineno, source=source)
                stmt = ChannelDecl(chan, "async", cap, lineno)
            else:
                raise ParseError(f"channel mode must be sync or async, "
                                 f"found {kind!r}", line=lineno, source=source)
        elif len(tokens) >= 2 and tokens[0][0] == "ident" and tokens[1][0] == "=":
            name = lp.take("ident")[1]
            lp.take("=")
            expr = lp.expr()
            if not isinstance(expr, Call) or expr.func not in PRODUCING:
                raise ParseError(
                    "the right-hand side of a binding must be one of: "
                    + ", ".join(sorted(PRODUCING)), line=lineno, source=source)
            _check_call(expr, source)
            stmt = Binding(name, expr, lineno)
        else:
            expr = lp.expr()
            if not isinstance(expr, Call):
                raise ParseError("expected a statement", line=lineno,
                                 source=source)
            if expr.func not in COMMANDS:
                if expr.func in PRODUCING:
                    raise ParseError(f"the result of {expr.func} must be "
                                     "bound to a name", line=lineno,
                                     source=source)
                raise ParseError(f"unknown operation {expr.func!r}",
                                 line=lineno, source=source)
            _check_call(expr, source)
            stmt = Command(expr, lineno)

        if not lp.at_end():
            raise ParseError(f"trailing input after statement: "
                             f"{lp.peek()[1]!r}", line=lineno, source=source)

        call = None
        if isinstance(stmt, Binding):
            call = stmt.expr
        elif isinstance(stmt, Command):
            call = stmt.call
        if call is not None:
            for var in _value_vars(call):
                if var.name not in bound:
                    raise ParseError(f"name {var.name!r} is used before it "
                                     "is bound", line=var.line, source=source)
        if isinstance(stmt, Binding):
            bound.add(stmt.name)
        statements.append(stmt)
    return ScriptProgram(tuple(statements))
