"""Rendering nets and processes into tool formats: Uppaal XML, DOT, LOTOS.

All three emitters are deterministic: components, states and edges are
sorted canonically, so emitting the same value twice gives identical
bytes.  Facets never vanish silently; whatever a format cannot express
natively travels in its comment channel (Uppaal `comments` labels, the
DOT `facets` attribute, LOTOS comments).

Each emitter renders a piece of text once per call and looks it up
after that: `emit_dot` quotes each state name once, and every emitter
renders the attributes, comments or escaped text of each distinct
`Label` once, through a `functools.cache` of its render function made
for that call.  The transitions come in their `Lts`'s one sort, and
the last line carries the final newline, so the text is built by one
join.
"""

from __future__ import annotations

import math
import re
from functools import cache

from .algebra import Process, SystemNet, fresh_names, shared_channels
from .errors import EmitError
from .lts import Direction, Label, Lts, channels_of

_UPPAAL_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _escape(text: str) -> str:
    """Text as XML character data: &, > and < become entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _grid(states: list[str]) -> dict[str, tuple[int, int]]:
    cols = max(1, math.ceil(math.sqrt(len(states))))
    return {s: (100 * (i % cols), 100 * (i // cols))
            for i, s in enumerate(states)}


def emit_uppaal(net: SystemNet) -> str:
    """Render a sync-only net as a flat-1.1 Uppaal XML document.

    One template per component; edges on shared channels carry `c!`/`c?`
    synchronisation labels, other edges are unlabelled.  Every edge also
    carries the full original label text as a comments label.  Channel,
    instance and (named) location identifiers must be valid Uppaal
    identifiers; locations whose state name is not stay anonymous.
    """
    interface_channels = sorted({c for _, p in net.components
                                 for c in p.interface})
    for c in interface_channels:
        if net.mode_of(c).kind == "async":
            raise EmitError(f"cannot emit Uppaal XML: channel {c} is "
                            "asynchronous (only handshake channels translate)")
        if not _UPPAAL_ID_RE.match(c):
            raise EmitError(f"channel {c!r} is not a valid Uppaal identifier")
    shared = sorted(shared_channels(net))

    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        "<!DOCTYPE nta PUBLIC '-//Uppaal Team//DTD Flat System 1.1//EN' "
        "'http://www.it.uu.se/research/group/darts/uppaal/flat-1_1.dtd'>",
        "<nta>",
        "  <declaration>// channels shared by the composed processes",
    ]
    lines.extend(f"chan {c};" for c in shared)
    lines.append("</declaration>")

    next_id = 0
    texts = cache(lambda label: _uppaal_texts(label, shared))
    for inst, proc in net.components:
        if not _UPPAAL_ID_RE.match(inst):
            raise EmitError(f"instance name {inst!r} is not a valid "
                            "Uppaal identifier")
        states = sorted(proc.body.states)
        pos = _grid(states)
        ids = {}
        for s in states:
            ids[s] = f"id{next_id}"
            next_id += 1
        lines.append("  <template>")
        lines.append(f'    <name x="0" y="0">{_escape(inst)}</name>')
        for s in states:
            x, y = pos[s]
            lines.append(f'    <location id="{ids[s]}" x="{x}" y="{y}">')
            if _UPPAAL_ID_RE.match(s):
                lines.append(f'      <name x="{x + 8}" y="{y - 24}">'
                             f"{_escape(s)}</name>")
            lines.append("    </location>")
        lines.append(f'    <init ref="{ids[proc.body.initial]}"/>')
        for t in proc.body._sorted:
            x, y = pos[t.source]
            lines.append("    <transition>")
            lines.append(f'      <source ref="{ids[t.source]}"/>')
            lines.append(f'      <target ref="{ids[t.target]}"/>')
            sync, comment = texts(t.label)
            if sync is not None:
                lines.append(f'      <label kind="synchronisation" '
                             f'x="{x + 8}" y="{y + 8}">{sync}</label>')
            lines.append(f'      <label kind="comments" x="{x + 8}" '
                         f'y="{y + 32}">{comment}</label>')
            lines.append("    </transition>")
        lines.append("  </template>")

    instances = ", ".join(inst for inst, _ in net.components)
    lines.append(f"  <system>system {instances};</system>")
    lines.append("</nta>\n")
    return "\n".join(lines)


def _uppaal_texts(label: Label, shared: list[str]) -> tuple[str | None, str]:
    """label's escaped synchronisation text (None if it has none) and
    escaped comment text."""
    comm = label.comm
    sync = (_escape(comm.text) if comm.direction is not Direction.INTERNAL
            and comm.channel in shared else None)
    return sync, _escape(label.text)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(x: Process | Lts) -> str:
    """Render a process body or a bare Lts in the DOT subset we parse.

    Node and edge statements come out sorted; the initial state carries
    init=true; non-communication facets go into a facets attribute.
    """
    if isinstance(x, Process):
        name, lts = x.name, x.body
    else:
        name, lts = "g", x
    quoted = {s: _dot_quote(s) for s in lts.states}
    lines = [f"digraph {name} {{"]
    for s in sorted(lts.states):
        attrs = " [init=true]" if s == lts.initial else ""
        lines.append(f"  {quoted[s]}{attrs};")
    attrs = cache(_dot_attrs)
    for t in lts._sorted:
        lines.append(f"  {quoted[t.source]} -> {quoted[t.target]} "
                     f"[{attrs(t.label)}];")
    lines.append("}\n")
    return "\n".join(lines)


def _dot_attrs(label: Label) -> str:
    attrs = f"label={_dot_quote(label.comm.text)}"
    if label.facets:
        attrs += f", facets={_dot_quote(label.facets_text)}"
    return attrs


def _lotos_comment(text: str) -> str:
    return "(* " + text.replace("*)", "* )") + " *)"


def _lotos_action(label: Label) -> str:
    """label's action prefix with its commented original text."""
    comm = label.comm
    prefix = "i" if comm.direction is Direction.INTERNAL else comm.channel
    return f"{prefix}; {_lotos_comment(label.text)}"


def emit_lotos(p: Process) -> str:
    """Render a process as mutually recursive LOTOS process definitions.

    One definition per state, offering its outgoing actions as a choice
    of action prefixes.  LOTOS gates are directionless, so the original
    `!`/`?` direction of each action rides along in a comment.
    """
    gates = sorted(channels_of(p.body))
    gate_list = f" [{', '.join(gates)}]" if gates else ""

    fresh = fresh_names()
    proc_names = {s: fresh(f"{p.name}_" + re.sub(r"[^A-Za-z0-9_]", "_", s))
                  for s in sorted(p.body.states)}

    lines = [
        f"(* LOTOS rendering of process {p.name} *)",
        "(* gates are directionless; each action keeps its original",
        "   direction and extra facets in the trailing comment *)",
        f"process {p.name}{gate_list} : noexit :=",
        f"  {proc_names[p.body.initial]}{gate_list}",
        "where",
        "",
    ]
    actions = cache(_lotos_action)
    for s in sorted(p.body.states):
        lines.append(f"process {proc_names[s]}{gate_list} : noexit :=")
        outgoing = p.body.outgoing(s)
        if not outgoing:
            lines.append("  stop")
        else:
            terms = []
            for t in outgoing:
                terms.append(f"{actions(t.label)} "
                             f"{proc_names[t.target]}{gate_list}")
            if len(terms) == 1:
                lines.append(f"  {terms[0]}")
            else:
                for i, term in enumerate(terms):
                    lines.append(f"    {term}")
                    if i < len(terms) - 1:
                        lines.append("  []")
        lines.append("endproc")
        lines.append("")
    lines.append("endproc\n")
    return "\n".join(lines)
