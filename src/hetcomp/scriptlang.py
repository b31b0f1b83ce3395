r"""Parser for the composition script language.

One statement per line, `#` starts a comment.  Lines end at ``\n``
only, with one ``\r`` before it dropped, so a form feed or another
Unicode line break stays inside its line.  Statement forms:

    name = dot("file.dot")
    name = compose(a, b, ...)
    name = rename(p, oldChan, newChan)
    name = replace(sys, instance, p)
    name = remove(sys, instance)
    name = select(sys, instance)
    name = filter(p, facet, ...)
    chans(p)
    channel c sync
    channel c async <capacity>
    check(sys, "A[] not deadlock")
    emit_uppaal(sys, "file.xml")
    emit_dot(x, "file.dot")
    emit_lotos(p, "file.lotos")

Calls nest: compose(compose(a, b), c) is the same as compose(a, b, c).
Parsing performs the static checks: unknown operation names, wrong
argument shapes, and use of a name before it is bound are all rejected
with the offending line number.

Each line is read in one pass.  One `findall` of `_TOKEN_RE` splits it
into names, numbers, strings and `=(),`; blanks are space, tab and CR,
and `#` ends the line.  Strings escape `\"` and `\\`; any other
backslash stands for itself, as in DOT.  `_SHAPES` gives the kind of
every argument, for the parser's checks and, through `arg_kinds`, for
the interpreter, which evaluates every model argument and checks those
that must be a `process` or a `net`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters, digits
from typing import Union

from .dotio import _QUOTED, _UNESCAPE_RE
from .errors import ParseError
from .lts import FACET_NAMES

#: One token after any blanks: a string, its body in group 1, or else
#: in group 2 a name, a number, punctuation, a comment or any other
#: character but a blank, an error; the quote of an unterminated string
#: is such a character.  Only blanks are left at the end of a line.
_TOKEN_RE = re.compile(r"[ \t\r]*(?:" + _QUOTED + r"|([A-Za-z_][A-Za-z0-9_]*"
                       r"|[0-9]+|[=(),]|#.*|[^ \t\r]))", re.S)
#: a token's kind by the first character of group 2 ("" for a string):
#: a comment ends the line, and a character missing here is an error
_KINDS = {"": "string", "#": "end", **{c: c for c in "=(),"},
          **dict.fromkeys(ascii_letters + "_", "ident"),
          **dict.fromkeys(digits, "number")}
#: the token that closes every line
_END = ("end", "")


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


#: the kind of every argument: a model (any `value`, or a `process` or
#: a `net` operand), a plain `name`, a `facet` name or a `string`; a
#: trailing '*' kind absorbs any number of arguments
_SHAPES: dict[str, tuple[str, ...]] = {
    "dot": ("string",),
    "compose": ("value", "value*"),
    "rename": ("process", "name", "name"),
    "replace": ("net", "name", "process"),
    "remove": ("net", "name"),
    "select": ("net", "name"),
    "filter": ("value", "facet*"),
    "chans": ("value",),
    "check": ("value", "string"),
    "emit_uppaal": ("value", "string"),
    "emit_dot": ("value", "string"),
    "emit_lotos": ("process", "string"),
}

#: the kinds of argument that are model expressions
MODELS = frozenset(["value", "process", "net"])

#: calls that produce a value and therefore may appear in expressions
PRODUCING = frozenset(
    ["dot", "compose", "rename", "replace", "remove", "select", "filter"])

#: calls usable as bare statements
COMMANDS = frozenset(
    ["chans", "check", "emit_uppaal", "emit_dot", "emit_lotos", "filter"])


def arg_kinds(call: Call) -> tuple[str, ...]:
    """The kind of each of call's arguments, read off its shape."""
    shape = _SHAPES[call.func]
    if not shape[-1].endswith("*"):
        return shape
    return shape[:-1] + (shape[-1][:-1],) * (len(call.args) - len(shape) + 1)


def _lex_line(text: str, line: int, source: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of one line, closed by `_END`."""
    try:
        # re.sub on every string body made lexing a third slower
        tokens = [(_KINDS[other[:1]], other or (
            _UNESCAPE_RE.sub(r"\1", body) if "\\" in body else body))
                  for body, other in _TOKEN_RE.findall(text)]
    except KeyError:    # an error: report the first one, where it is
        for m in _TOKEN_RE.finditer(text):
            bad = m[2]
            if bad is not None and bad[:1] not in _KINDS:
                raise ParseError("unterminated string" if bad == '"'
                                 else f"unexpected character {bad!r}",
                                 line=line, col=m.start(2) + 1,
                                 source=source) from None
    tokens.append(_END)
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str]], line: int, source: str):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.source = source

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.line, source=self.source)

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise self.error("unexpected end of line")
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        kind, text = self.take()
        if kind == "string":
            return Str(text, self.line)
        if kind != "ident":
            raise self.error(f"expected an expression, found {text!r}")
        if self.tokens[self.pos][0] != "(":
            return Var(text, self.line)
        self.pos += 1
        args: list[Expr] = []
        if self.tokens[self.pos][0] != ")":
            args.append(self.expr())
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                args.append(self.expr())
        self.take(")")
        return Call(text, tuple(args), self.line)


def _check_call(call: Call, source: str, values: list[Var]) -> None:
    """Check call against its shape; add the Vars that stand for bound
    values (not channel, instance or facet names) to values.  call.func
    is a PRODUCING or COMMANDS name, so it has a shape."""
    shape = _SHAPES[call.func]
    variadic = shape[-1].endswith("*")
    fixed = len(shape) - variadic
    if len(call.args) < fixed or (not variadic and len(call.args) > fixed):
        want = f"at least {fixed}" if variadic else str(fixed)
        raise ParseError(f"{call.func} takes {want} argument(s), "
                         f"got {len(call.args)}", line=call.line, source=source)
    for i, (kind, arg) in enumerate(zip(arg_kinds(call), call.args), 1):
        if kind in MODELS:
            if isinstance(arg, Str):
                raise ParseError(
                    f"argument {i} of {call.func} must be a model "
                    "expression, not a string", line=call.line, source=source)
            if isinstance(arg, Var):
                values.append(arg)
            else:
                if arg.func not in PRODUCING:
                    raise ParseError(f"{arg.func} produces no value and "
                                     "cannot be nested", line=arg.line,
                                     source=source)
                _check_call(arg, source, values)
        elif kind == "name":
            if not isinstance(arg, Var):
                raise ParseError(
                    f"argument {i} of {call.func} must be a plain name",
                    line=call.line, source=source)
        elif kind == "facet":
            if not isinstance(arg, Var) or arg.name not in FACET_NAMES:
                raise ParseError(
                    f"argument {i} of {call.func} must be a facet name "
                    f"({', '.join(FACET_NAMES)})", line=call.line,
                    source=source)
        elif not isinstance(arg, Str):
            raise ParseError(f"argument {i} of {call.func} must be a string",
                             line=call.line, source=source)


def parse_script(text: str, source: str = "<script>") -> ScriptProgram:
    statements: list[Statement] = []
    bound: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = _lex_line(raw[:-1] if raw.endswith("\r") else raw, lineno,
                           source)
        if tokens[0][0] == "end":
            continue
        lp = _LineParser(tokens, lineno, source)
        values: list[Var] = []

        if tokens[0] == ("ident", "channel") and tokens[1][0] == "ident":
            lp.take()
            chan = lp.take("ident")[1]
            kind = lp.take("ident")[1]
            if kind not in ("sync", "async"):
                raise ParseError(f"channel mode must be sync or async, "
                                 f"found {kind!r}", line=lineno, source=source)
            cap = int(lp.take("number")[1]) if kind == "async" else None
            if kind == "async" and cap < 1:
                raise ParseError("async capacity must be >= 1",
                                 line=lineno, source=source)
            stmt: Statement = ChannelDecl(chan, kind, cap, lineno)
        elif tokens[0][0] == "ident" and tokens[1][0] == "=":
            name = lp.take("ident")[1]
            lp.take("=")
            expr = lp.expr()
            if not isinstance(expr, Call) or expr.func not in PRODUCING:
                raise ParseError(
                    "the right-hand side of a binding must be one of: "
                    + ", ".join(sorted(PRODUCING)), line=lineno, source=source)
            _check_call(expr, source, values)
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
            _check_call(expr, source, values)
            stmt = Command(expr, lineno)

        if tokens[lp.pos][0] != "end":
            raise ParseError(f"trailing input after statement: "
                             f"{tokens[lp.pos][1]!r}", line=lineno,
                             source=source)
        for var in values:
            if var.name not in bound:
                raise ParseError(f"name {var.name!r} is used before it "
                                 "is bound", line=var.line, source=source)
        if isinstance(stmt, Binding):
            bound.add(stmt.name)
        statements.append(stmt)
    return ScriptProgram(tuple(statements))
