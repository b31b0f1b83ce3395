"""The hetcomp command-line driver.

Subcommands:

    hetcomp run <script>      execute a composition script
    hetcomp check <script>    same, but emit statements only check
                              their operands and write nothing
    hetcomp convert <in.dot> --to uppaal|lotos|dot

Exit codes: 0 when every executed check holds, 1 when some check is
false, 3 when none is false but some is unknown (state bound hit), and
2 on any error.  An emit statement whose product hits the state bound
is unknown too: it writes no file and names its line on stderr.  The
state bound, a positive integer, can be set through the HETCOMP_BOUND
environment variable; --bound overrides it.

`main()` may be called many times in one process, as a library entry
point: the argument parser is built on the first call and reused, and
every call reads HETCOMP_BOUND afresh.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import checker, emitters
from .algebra import (ChannelMode, Process, SystemNet, compose, extract_chan,
                      remove, rename, replace, select, with_channel_modes)
from .dotio import document_to_lts, parse_dot_document
from .errors import HetcompError, ScriptError, StateBoundExceeded
from .lts import channels_of, filter_facet, is_token
from .scriptlang import (MODELS, Binding, Call, ChannelDecl, Expr,
                         ScriptProgram, Str, Var, arg_kinds, parse_script)
from .semantics import product


@dataclass
class RunOptions:
    bound: int | None = None
    trace_len: int | None = None
    out_dir: str | None = None
    fmt: str = "text"
    skip_emit: bool = False


def _name_from(graph_name: str, path: Path) -> str:
    if is_token(graph_name):
        return graph_name
    stem = "".join(c if c.isalnum() or c == "_" else "_" for c in path.stem)
    return stem if is_token(stem) else "process"


def load_process(path: Path) -> Process:
    """Read a DOT file as a Process named after its graph (or file)."""
    text = path.read_text(encoding="utf-8")
    doc = parse_dot_document(text, source=str(path))
    return Process(_name_from(doc.graph_name, path),
                   document_to_lts(doc, source=str(path)))


def _write_output(text: str, filename: str | None,
                  out_dir: str | None) -> None:
    """Write text to filename, under out_dir when it is relative, or to
    stdout when no filename is given."""
    if filename is None:
        sys.stdout.write(text)
        return
    if not filename:
        raise HetcompError("the output file name is empty")
    out = Path(filename)
    if not out.is_absolute() and out_dir:
        out = Path(out_dir) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")


class Interpreter:
    """Executes a parsed script statement by statement.

    A call's operands follow the parser's table (`operands`); its
    operation is the method of its name, or else the function of its
    name in this module, looked up when the call runs.
    """

    def __init__(self, script_path: Path, options: RunOptions):
        self.script_path = script_path
        self.options = options
        self.env: dict[str, Process | SystemNet] = {}
        self.modes: dict[str, ChannelMode] = {}
        self.outcomes: list[str] = []
        # (id of a value, declared modes) -> (value, its net under them)
        self._moded: dict[tuple, tuple[Process | SystemNet, SystemNet]] = {}

    def run(self, program: ScriptProgram) -> None:
        for stmt in program.statements:
            try:
                self._exec(stmt)
            except (HetcompError, OSError) as e:
                raise ScriptError(str(e), line=stmt.line,
                                  source=str(self.script_path)) from e

    def exit_code(self) -> int:
        if "false" in self.outcomes:
            return 1
        if "unknown" in self.outcomes:
            return 3
        return 0

    # ---- statements and expressions ----

    def _exec(self, stmt) -> None:
        if isinstance(stmt, ChannelDecl):
            self.modes[stmt.channel] = ChannelMode(stmt.kind, stmt.capacity)
        elif isinstance(stmt, Binding):
            value = self._eval(stmt.expr)
            if isinstance(value, Process):
                value = Process(stmt.name, value.body, value.interface)
            self.env[stmt.name] = value
        elif not stmt.call.func.startswith("emit_"):
            self._eval(stmt.call)  # a bare filter's result is discarded
        elif self.options.skip_emit:
            self.operands(stmt.call)  # checked, but nothing is rendered
        else:
            try:
                self._eval(stmt.call)
            except StateBoundExceeded as e:
                self.outcomes.append("unknown")
                print(f"{self.script_path}:{stmt.line}: {stmt.call.func} "
                      f"unknown, no file written: {e}", file=sys.stderr)

    def _eval(self, expr: Expr):
        if isinstance(expr, Var):
            try:
                return self.env[expr.name]
            except KeyError:
                raise ScriptError(f"name {expr.name!r} is not bound") from None
        op = getattr(self, expr.func, None) or globals()[expr.func]
        return op(*self.operands(expr))

    def operands(self, call: Call) -> list:
        """call's arguments as its operation takes them: model arguments
        evaluated and checked against their operand type, names and
        strings as text."""
        out = []
        for kind, arg in zip(arg_kinds(call), call.args):
            if isinstance(arg, Str):
                out.append(arg.value)
            elif kind not in MODELS:
                out.append(arg.name)
            else:
                value = self._eval(arg)
                if kind == "process" and not isinstance(value, Process):
                    raise ScriptError(f"{call.func} expects a process here, "
                                      "got a net")
                if kind == "net" and isinstance(value, Process):
                    raise ScriptError(f"{call.func} expects a composed net "
                                      "here, got a process")
                out.append(value)
        return out

    # ---- operations that are not algebra functions ----

    def dot(self, path: str) -> Process:
        return load_process(self.script_path.parent / path)

    def filter(self, value: Process | SystemNet, *facets: str):
        def keep(p: Process) -> Process:
            return Process(p.name, filter_facet(p.body, set(facets)),
                           p.interface)
        if isinstance(value, Process):
            return keep(value)
        return SystemNet(tuple((n, keep(p)) for n, p in value.components),
                         value.channel_modes)

    def chans(self, value: Process | SystemNet) -> None:
        if isinstance(value, Process):
            chans = extract_chan(value)
        else:
            chans = sorted({c for _, p in value.components
                            for c in channels_of(p.body)})
        print(" ".join(chans))

    def check(self, value: Process | SystemNet, qtext: str) -> None:
        net = self._moded_net(value)
        query = checker.parse_query(qtext)
        verdict = checker.check(net, query, self.options.bound)
        self.outcomes.append(verdict.outcome)
        if self.options.fmt == "json":
            print(json.dumps(checker.verdict_to_json(verdict), sort_keys=True))
            return
        print(f"check {query.text}: {verdict.outcome}")
        if verdict.witness is not None:
            steps = verdict.witness
            shown = steps[:self.options.trace_len]
            print(f"  witness ({len(steps)} steps):")
            for i, t in enumerate(shown, start=1):
                print(f"    {i}. {t.label.text}")
            if len(shown) < len(steps):
                print(f"    ... ({len(shown)} of {len(steps)} steps shown)")

    def emit_uppaal(self, value: Process | SystemNet,
                    filename: str | None) -> None:
        _write_output(emitters.emit_uppaal(self._moded_net(value)), filename,
                      self.options.out_dir)

    def emit_dot(self, value: Process | SystemNet,
                 filename: str | None) -> None:
        if not isinstance(value, Process):
            value = product(self._moded_net(value), self.options.bound)
        _write_output(emitters.emit_dot(value), filename, self.options.out_dir)

    def emit_lotos(self, value: Process, filename: str | None) -> None:
        _write_output(emitters.emit_lotos(value), filename,
                      self.options.out_dir)

    def _moded_net(self, value: Process | SystemNet) -> SystemNet:
        """value as a net under the modes declared so far.

        One value under one set of declarations gives one net for the
        whole run, so the statements that use it share its search.  The
        key is the value's identity, which stays valid because the entry
        keeps the value alive.
        """
        key = (id(value), tuple(self.modes.items()))
        entry = self._moded.get(key)
        if entry is None:
            net = compose(value) if isinstance(value, Process) else value
            entry = self._moded[key] = (
                value, with_channel_modes(net, self.modes))
        return entry[1]


def run_script(path: str | Path, options: RunOptions) -> int:
    script = Path(path)
    try:
        text = script.read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        program = parse_script(text, source=str(script))
        interp = Interpreter(script, options)
        interp.run(program)
    except HetcompError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return interp.exit_code()


def _cmd_convert(args: argparse.Namespace) -> int:
    path = Path(args.input)
    try:
        interp = Interpreter(path, RunOptions(out_dir=args.out_dir))
        getattr(interp, f"emit_{args.to}")(load_process(path), args.output)
    except (HetcompError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive = _int_at_least(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=_positive, default=None,
                   help="max global states to explore, a positive integer "
                        "(default: HETCOMP_BOUND or 1000000)")
    p.add_argument("--trace-len", type=_int_at_least(0), default=None,
                   metavar="K",
                   help="truncate text-format witness display to K steps")
    p.add_argument("--out-dir", default=None,
                   help="directory prefix for emitted files")
    p.add_argument("--format", choices=["json", "text"], default="text",
                   dest="fmt", help="verdict output format")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="hetcomp",
        description="Compose heterogeneous behavioural models over a "
                    "transition-system core and analyse the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a composition script")
    run_p.add_argument("script")
    _add_common(run_p)

    check_p = sub.add_parser(
        "check", help="execute a script without writing emitted files")
    check_p.add_argument("script")
    _add_common(check_p)

    conv_p = sub.add_parser("convert", help="translate a DOT model")
    conv_p.add_argument("input")
    conv_p.add_argument("--to", choices=["uppaal", "lotos", "dot"],
                        required=True)
    conv_p.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")
    conv_p.add_argument("--out-dir", default=None,
                        help="directory prefix for the output file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "convert":
        return _cmd_convert(args)

    bound = args.bound
    if bound is None and os.environ.get("HETCOMP_BOUND"):
        try:
            bound = _positive(os.environ["HETCOMP_BOUND"])
        except argparse.ArgumentTypeError as e:
            print(f"error: HETCOMP_BOUND: {e}", file=sys.stderr)
            return 2
    options = RunOptions(bound=bound, trace_len=args.trace_len,
                         out_dir=args.out_dir, fmt=args.fmt,
                         skip_emit=args.command == "check")
    return run_script(args.script, options)


if __name__ == "__main__":
    sys.exit(main())
