"""Labelled transition systems with multi-facet labels.

This is the semantic ground every supported formalism is mapped onto: a
set of named states, one initial state, and a set of labelled
transitions.  A label always carries one communication action (send,
receive, or internal step) and may stack further named facets (guard,
time, data, other) which are stored verbatim and never interpreted.

Label text grammar::

    label  = comm ('|' facet)*
    comm   = ident '!'            send on channel ident
           | ident '?'            receive on channel ident
           | ident                internal action
    facet  = name ':' payload     name in {guard, time, data, other}
           | payload              stored under name 'other'

Facets repeating a name are merged in first-occurrence order with ';'
between payloads, so re-parsing a formatted label is stable.

Labels are values that many transitions share, so `ChannelAction` and
`Label` compute their `text` and their hash once, when they are made.
Neither is a dataclass field: eq, repr and `fields()` see only the
fields, the hash equals the one of the fields' tuple, and pickling
rebuilds the value through its constructor so the hash is recomputed
under the loading process's hash seed.  A `Transition` is slotted, as
a product holds one per edge, and unpickles the same way.  An `Lts`
sorts its transitions once, on first use, and `sorted_transitions`,
`outgoing` and the emitters all read that sort.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import HetcompError, ParseError

#: Channel names must stay plain tokens: they become Uppaal channel
#: declarations and LOTOS gates, both of which want identifiers.
TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")

#: State names and internal-action names are looser so that product
#: states such as ``P1:s0,P2:t1`` stay representable.  Whitespace,
#: quotes and backslashes are banned to keep emitter quoting trivial.
NAME_RE = re.compile(r'[^\s"\\]+\Z')

FACET_NAMES = ("guard", "time", "data", "other")


def is_token(s: str) -> bool:
    return bool(TOKEN_RE.match(s))


def _check_name(s: str, what: str) -> None:
    if not NAME_RE.match(s):
        raise HetcompError(f"invalid {what} {s!r}: must be non-empty, "
                           "without whitespace, quotes or backslashes")


class Direction(enum.Enum):
    SEND = "!"
    RECEIVE = "?"
    INTERNAL = ""


@dataclass(frozen=True)
class ChannelAction:
    """Communication part of a label: a channel plus a direction.

    `text` (channel then direction mark) is computed once, in
    `__post_init__`, as is the hash.
    """

    channel: str
    direction: Direction

    def __post_init__(self):
        if self.direction is Direction.INTERNAL:
            _check_name(self.channel, "internal action name")
            # a trailing !/? or an embedded | would not survive re-parsing
            if self.channel.endswith(("!", "?")):
                raise HetcompError(
                    f"internal action name {self.channel!r} must not end in '!' or '?'")
            if "|" in self.channel:
                raise HetcompError(
                    f"internal action name {self.channel!r} must not contain '|'")
        elif not is_token(self.channel):
            raise HetcompError(f"invalid channel name {self.channel!r}: "
                               "must be letters, digits or underscores")
        object.__setattr__(self, "text", self.channel + self.direction.value)
        object.__setattr__(self, "_hash", hash((self.channel, self.direction)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.channel, self.direction)


@dataclass(frozen=True)
class Label:
    """A faceted transition label; the communication facet is mandatory.

    `text` (the grammar's form) is computed once, in `__post_init__`, as
    is the hash.
    """

    comm: ChannelAction
    facets: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        seen = set()
        for name, payload in self.facets:
            if name not in FACET_NAMES:
                raise HetcompError(f"unknown facet name {name!r} "
                                   f"(expected one of {', '.join(FACET_NAMES)})")
            if name in seen:
                raise HetcompError(f"duplicate facet {name!r} in one label")
            seen.add(name)
            if "|" in payload or "\n" in payload:
                raise HetcompError(
                    f"facet payload {payload!r} must not contain '|' or newlines")
        text = self.comm.text
        if self.facets:
            text += "|" + self.facets_text
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "_hash", hash((self.comm, self.facets)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.comm, self.facets)

    @classmethod
    def send(cls, channel: str, facets: Iterable[tuple[str, str]] = ()) -> "Label":
        return cls(ChannelAction(channel, Direction.SEND), tuple(facets))

    @classmethod
    def receive(cls, channel: str, facets: Iterable[tuple[str, str]] = ()) -> "Label":
        return cls(ChannelAction(channel, Direction.RECEIVE), tuple(facets))

    @classmethod
    def internal(cls, name: str = "tau", facets: Iterable[tuple[str, str]] = ()) -> "Label":
        return cls(ChannelAction(name, Direction.INTERNAL), tuple(facets))

    @property
    def facets_text(self) -> str:
        return "|".join(f"{name}:{payload}" for name, payload in self.facets)

    def facet(self, name: str) -> str | None:
        for n, payload in self.facets:
            if n == name:
                return payload
        return None


def parse_label(text: str) -> Label:
    """Parse a label from its text form (see the module grammar)."""
    return _parse_label(text, {})


def _parse_label(text: str, comms: dict[str, ChannelAction]) -> Label:
    """parse_label, sharing one ChannelAction per communication text
    through comms, so a reader of many labels builds each only once."""
    segments = text.split("|")
    comm_text = segments[0].strip()
    comm = comms.get(comm_text)
    if comm is None:
        if not comm_text:
            raise ParseError(f"label {text!r} has an empty communication part")
        if comm_text.endswith("!"):
            comm = ChannelAction(_comm_token(comm_text, text), Direction.SEND)
        elif comm_text.endswith("?"):
            comm = ChannelAction(_comm_token(comm_text, text), Direction.RECEIVE)
        else:
            comm = ChannelAction(comm_text, Direction.INTERNAL)
        comms[comm_text] = comm
    facets: list[tuple[str, str]] = []
    index: dict[str, int] = {}
    for seg in segments[1:]:
        if not seg.strip():
            raise ParseError(f"label {text!r} has an empty facet segment")
        name, _, payload = seg.partition(":")
        if name.strip() in FACET_NAMES and _ == ":":
            name, payload = name.strip(), payload
        else:
            name, payload = "other", seg
        if name in index:
            i = index[name]
            facets[i] = (name, facets[i][1] + ";" + payload)
        else:
            index[name] = len(facets)
            facets.append((name, payload))
    return Label(comm, tuple(facets))


def _comm_token(comm_text: str, whole: str) -> str:
    channel = comm_text[:-1]
    if not is_token(channel):
        raise ParseError(f"label {whole!r}: channel {channel!r} is not a plain token")
    return channel


@dataclass(frozen=True, slots=True)
class Transition:
    """One labelled edge; slotted, and unpickled through its constructor."""

    source: str
    label: Label
    target: str

    def __reduce__(self):
        return type(self), (self.source, self.label, self.target)


@dataclass(frozen=True)
class Lts:
    """States, one initial state, and a set of labelled transitions.

    The transitions are sorted once, on first use, by source, label
    text and target; `sorted_transitions` copies that sort and
    `outgoing` reads a per-state index built from it.
    """

    states: frozenset[str]
    initial: str
    transitions: frozenset[Transition]

    def __init__(self, states: Iterable[str], initial: str,
                 transitions: Iterable[Transition]):
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", frozenset(transitions))
        states = self.states
        for s in states:
            _check_name(s, "state name")
        if initial not in states:
            raise HetcompError(f"initial state {initial!r} is not a state")
        for t in self.transitions:
            if t.source not in states or t.target not in states:
                raise HetcompError(
                    f"transition {t.source!r} -> {t.target!r} leaves the state set")

    def sorted_transitions(self) -> list[Transition]:
        return list(self._sorted)

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        """Transitions leaving state, in canonical order (() if none)."""
        return self._outgoing.get(state, ())

    # cached attributes, not fields: no part in equality, hash or repr
    @cached_property
    def _sorted(self) -> tuple[Transition, ...]:
        return tuple(sorted(self.transitions, key=_transition_key))

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        return {s: tuple(ts) for s, ts in groupby(self._sorted, _source)}


_transition_key = attrgetter("source", "label.text", "target")
_source = attrgetter("source")


def channels_of(lts: Lts) -> set[str]:
    """Channels used by send/receive actions; internal actions carry none."""
    return {t.label.comm.channel for t in lts.transitions
            if t.label.comm.direction is not Direction.INTERNAL}


def _relabel(lts: Lts, f: Callable[[Label], Label]) -> Lts:
    """lts with every label l replaced by f(l).

    f runs once per distinct label and returns l itself to keep it, and
    an edge whose label is kept is reused as it is.  Transitions that
    become identical triples merge, since the relation is a set.
    """
    relabelled: dict[Label, Label] = {}
    transitions = []
    for t in lts.transitions:
        label = relabelled.get(t.label)
        if label is None:
            label = relabelled[t.label] = f(t.label)
        transitions.append(t if label is t.label
                           else Transition(t.source, label, t.target))
    return Lts(lts.states, lts.initial, transitions)


def filter_facet(lts: Lts, keep: Iterable[str]) -> Lts:
    """Drop every facet whose name is not in ``keep``; the
    communication facet is always retained."""
    keep = set(keep)

    def kept(label: Label) -> Label:
        facets = tuple(f for f in label.facets if f[0] in keep)
        return label if facets == label.facets else Label(label.comm, facets)
    return _relabel(lts, kept)


def rename_channel(lts: Lts, old: str, new: str) -> Lts:
    """Rename every channel action called ``old`` to ``new``.

    Applies to all directions, internal actions included (an internal
    action's name is its bare channel field).  Renaming an absent
    channel is a no-op; merged duplicates may shrink the transition set.
    """
    if old == new:
        return lts

    def renamed(label: Label) -> Label:
        comm = label.comm
        return label if comm.channel != old else Label(
            ChannelAction(new, comm.direction), label.facets)
    return _relabel(lts, renamed)


def isomorphic(a: Lts, b: Lts) -> bool:
    """Whether a state bijection maps ``a`` onto ``b``.

    The bijection must carry initial to initial and transitions to
    transitions with identical labels.  Candidate pairings are pruned by
    iterated neighbourhood colouring, which stops as soon as a round
    splits no class, before an iterative backtracking search.  Colouring
    takes a round per split, so a chain with one label on every edge
    costs about |S| rounds; distinct labels settle in two.
    """
    if len(a.states) != len(b.states) or len(a.transitions) != len(b.transitions):
        return False
    if sorted(t.label.text for t in a.transitions) != \
            sorted(t.label.text for t in b.transitions):
        return False

    def incoming(lts: Lts) -> dict[str, list[Transition]]:
        inc: dict[str, list[Transition]] = {s: [] for s in lts.states}
        for t in lts.transitions:
            inc[t.target].append(t)
        return inc

    def refine(lts: Lts, inc: dict[str, list[Transition]]) -> dict[str, int]:
        colors = {s: (s == lts.initial) for s in lts.states}
        count = len(set(colors.values()))
        while True:
            sig = {
                s: (colors[s],
                    tuple(sorted((t.label.text, colors[t.target])
                                 for t in lts.outgoing(s))),
                    tuple(sorted((t.label.text, colors[t.source]) for t in inc[s])))
                for s in lts.states
            }
            palette = {v: i for i, v in enumerate(sorted(set(sig.values()), key=repr))}
            colors = {s: palette[sig[s]] for s in lts.states}
            # a signature holds the old colour, so a round only splits
            # classes; one that splits none leaves the partition stable
            if len(palette) == count:
                return colors
            count = len(palette)

    a_in = incoming(a)
    ca, cb = refine(a, a_in), refine(b, incoming(b))
    if sorted(ca.values()) != sorted(cb.values()):
        return False

    by_color: dict[int, list[str]] = {}
    for s, c in cb.items():
        by_color.setdefault(c, []).append(s)
    # smallest candidate sets first keeps the backtracking shallow
    order = sorted(a.states, key=lambda s: (len(by_color.get(ca[s], ())), s))
    b_trans = {(t.source, t.label, t.target) for t in b.transitions}

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(s: str) -> Iterator[str]:
        """b's states that s can map to, given the mapping so far."""
        for cand in sorted(by_color.get(ca[s], ())):
            if cand in used or (s == a.initial) != (cand == b.initial):
                continue
            if all((cand, t.label, mapping[t.target]) in b_trans
                   for t in a.outgoing(s) if t.target in mapping) \
                    and all((mapping[t.source], t.label, cand) in b_trans
                            for t in a_in[s] if t.source in mapping) \
                    and all((cand, t.label, cand) in b_trans
                            for t in a.outgoing(s) if t.target == s):
                yield cand

    # depth-first over order: levels[i] yields order[i]'s candidates
    levels = [candidates(order[0])]
    while levels:
        s = order[len(levels) - 1]
        if s in mapping:                # back here: drop s's last choice
            used.discard(mapping.pop(s))
        cand = next(levels[-1], None)
        if cand is None:
            levels.pop()
            continue
        mapping[s] = cand
        used.add(cand)
        if len(levels) == len(order):
            return True
        levels.append(candidates(order[len(levels)]))
    return False
