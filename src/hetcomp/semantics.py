"""Global semantics of a net: the reachable synchronous product.

A global state holds one local state per component plus the contents
of the asynchronous buffers.  Global transitions follow the channel
discipline:

* a shared synchronous channel moves by binary rendezvous: one sender
  and one distinct receiver step together, lone offers block;
* a shared asynchronous channel buffers abstract tokens: sending is
  enabled while the buffer has room, receiving only while it is
  non-empty (receiving on an empty buffer is disabled, not a skip);
* a channel appearing in a single component's interface has nobody to
  talk to, so its sends and receives interleave freely as local steps;
* internal actions are always local.

"Shared" is `algebra.shared_channels`: present in at least two
component interfaces.  Buffers are tracked for shared asynchronous
channels only.

One breadth-first engine, `Search`, serves `explore`, `product`,
`traces`, `traces_equal` and `checker.check`, and each net value runs
it at most once per state bound.  A search is a record: the states it
has discovered in order, and for each state it has expanded the first
parent and the steps, as positions into that order.  `search_of` keeps
one search per bound on the net (in a table that is no part of the
net's value, and that copies and pickles leave behind), and every
consumer replays the record before it extends it.  BFS order is
deterministic, so a consumer gets exactly what a fresh search would
give it, first hits, witnesses and the bound's cut included.  The
search runs on a compiled form of the net, `_Compiled`, built once per
search in the manner of a partitioned next-state function:

* every step kind the net can take (`Local`, `AsyncSend`,
  `AsyncReceive`, and `Handshake` per channel, sender and receiver)
  gets an integer rank by sorting all of them once with
  `_kind_sort_key`;
* each component's local states are numbered once, in the order of
  their part of a state's name (see below), and the moves from every
  local state are compiled up front into one list indexed by that
  number: local steps, asynchronous sends and receives (with their
  buffer slot and capacity) and synchronous sends (with the components
  that could receive them), each with its target number and rank;
* a compiled global state is a flat tuple: one local int per
  component, then one buffer per shared asynchronous channel (in
  channel order) holding the senders' component indices, oldest first.

A state's name, `GlobalState.text`, joins ``inst:state`` per component
with ``,`` and appends ``;chan=tok.tok`` per buffer.  `_quote` escapes
``%``, ``,`` and ``;`` in each local state, so two states never share a
name.  A step is a (rank, target) pair, and the enabled steps of a state
sort as plain tuples; the record keeps them as (rank, target position)
pairs.  Steps of equal rank (nondeterminism) move the same one or two
components and leave equal buffers, so their texts differ only in those
components' parts, each compared with the separator that follows it.
Component i's local ints follow the order of its quoted states plus that
separator: ``,`` for all but the last component, then ``;`` if the net
tracks buffers and nothing if not.  So the tuple order is exactly
`step_sort_key`'s and the local numbers never show.  `GlobalState` and
`GlobalTransition` values are decoded only where the public contract
needs them: `explore`, witnesses (`Search.path_to`), the public
`enabled` (which validates its state first) and the labels of
`product`.  State names (`GlobalState.text` of a decoded state) are
joined from a per-component table of ``inst:state`` strings, without
decoding the state.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Union

from .algebra import ChannelMode, SystemNet, shared_channels
from .errors import SemanticsError, StateBoundExceeded
from .lts import Direction, Label, Lts, Transition, parse_label

DEFAULT_STATE_BOUND = 1_000_000


@dataclass(frozen=True)
class GlobalState:
    """Locals sorted by instance name; buffers sorted by channel."""

    locals: tuple[tuple[str, str], ...]
    buffers: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def local_of(self, instance: str) -> str:
        for inst, state in self.locals:
            if inst == instance:
                return state
        raise SemanticsError(f"no local state for instance {instance!r}")

    def buffer_of(self, channel: str) -> tuple[str, ...]:
        for chan, toks in self.buffers:
            if chan == channel:
                return toks
        raise SemanticsError(f"no buffer tracked for channel {channel!r}")

    @property
    def text(self) -> str:
        """The state's name, ``inst:state,...;chan=tok.tok...``.

        Each local state is quoted by `_quote`, so the name is one-to-one.
        """
        s = ",".join(f"{inst}:{_quote(state)}" for inst, state in self.locals)
        for chan, toks in self.buffers:
            s += f";{chan}=" + ".".join(toks)
        return s


def _quote(state: str) -> str:
    """state with the separators of `GlobalState.text` escaped."""
    return state.replace("%", "%25").replace(",", "%2C").replace(";", "%3B")


@dataclass(frozen=True)
class Handshake:
    channel: str
    sender: str
    receiver: str


@dataclass(frozen=True)
class AsyncSend:
    channel: str
    instance: str


@dataclass(frozen=True)
class AsyncReceive:
    channel: str
    instance: str


@dataclass(frozen=True)
class Local:
    instance: str
    action: str


Kind = Union[Handshake, AsyncSend, AsyncReceive, Local]


@dataclass(frozen=True)
class GlobalTransition:
    source: GlobalState
    kind: Kind
    target: GlobalState
    local_label: Label | None = field(default=None, compare=False)

    @property
    def label(self) -> Label:
        """The product-level label this step carries."""
        return _label_of(self.kind, self.local_label)


def _label_of(kind: Kind, local_label: Label | None) -> Label:
    if isinstance(kind, Handshake):
        return Label.internal(f"{kind.channel}#{kind.sender}>{kind.receiver}")
    if isinstance(kind, AsyncSend):
        return Label.internal(f"{kind.channel}!@{kind.instance}")
    if isinstance(kind, AsyncReceive):
        return Label.internal(f"{kind.channel}?@{kind.instance}")
    if local_label is not None:
        return local_label
    return parse_label(kind.action)


def _kind_sort_key(kind: Kind) -> tuple:
    if isinstance(kind, AsyncReceive):
        return ("async_receive", kind.channel, kind.instance, "", "")
    if isinstance(kind, AsyncSend):
        return ("async_send", kind.channel, kind.instance, "", "")
    if isinstance(kind, Handshake):
        return ("handshake", kind.channel, kind.sender, kind.receiver, "")
    return ("local", "", kind.instance, "", kind.action)


def step_sort_key(t: GlobalTransition) -> tuple:
    return _kind_sort_key(t.kind) + (t.target.text,)


def _channel_table(net: SystemNet) -> dict[str, ChannelMode]:
    """Each shared channel with its mode, in channel order."""
    return {c: net.mode_of(c) for c in sorted(shared_channels(net))}


def _buffered(table: dict[str, ChannelMode]) -> list[str]:
    return [c for c, mode in table.items() if mode.kind == "async"]


def initial_state(net: SystemNet) -> GlobalState:
    locals_ = tuple((inst, proc.body.initial) for inst, proc in net.components)
    return GlobalState(locals_, tuple((c, ()) for c in tracked_buffers(net)))


def tracked_buffers(net: SystemNet) -> list[str]:
    """Shared async channels, the ones whose buffers are part of state."""
    return _buffered(_channel_table(net))


def _check_consistent(net: SystemNet, table: dict[str, ChannelMode],
                      g: GlobalState) -> None:
    if [inst for inst, _ in g.locals] != net.instance_names():
        raise SemanticsError("global state does not match the net's components")
    for inst, state in g.locals:
        if state not in net.get(inst).body.states:
            raise SemanticsError(
                f"state {state!r} is not a state of component {inst}")
    if [c for c, _ in g.buffers] != _buffered(table):
        raise SemanticsError("global state tracks the wrong buffer set")
    for chan, toks in g.buffers:
        cap = table[chan].capacity
        if len(toks) > cap:
            raise SemanticsError(f"buffer of {chan} exceeds capacity {cap}")
        for tok in toks:
            if not net.has(tok):
                raise SemanticsError(
                    f"buffer of {chan} holds {tok!r}, which is no component")


class _Compiled:
    """The net with ranked step kinds and one move table per component.

    `successors` is the next-state function on compiled states; `decode`
    and `transition` turn compiled values back into public ones.  The
    constructor numbers every local state of every component and
    compiles its moves, so the search that follows only reads tables.
    """

    def __init__(self, net: SystemNet):
        self.table = table = _channel_table(net)
        self.names = names = net.instance_names()
        self.position = {inst: i for i, inst in enumerate(names)}
        self.buffered = _buffered(table)
        slot = {c: len(names) + j for j, c in enumerate(self.buffered)}
        bodies = [proc.body for _, proc in net.components]
        # local ints in text order: each quoted state followed by the
        # separator after its part of a state's name
        seps = [","] * (len(names) - 1) + [";" if self.buffered else ""]
        self.states = [sorted(body.states, key=lambda s: _quote(s) + sep)
                       for body, sep in zip(bodies, seps)]   # by local int
        self.index = [{state: l for l, state in enumerate(states)}
                      for states in self.states]
        self.texts = [[f"{inst}:{_quote(state)}" for state in states]
                      for inst, states in zip(names, self.states)]

        # every step kind the net can take, with its label if it is
        # local, and each component's kind by label, None for a sync
        # action
        kinds: dict[Kind, Label | None] = {}
        senders: dict[str, set[int]] = {}
        receivers: dict[str, set[int]] = {}
        kind_of: list[dict[Label, Kind | None]] = []
        for i, (inst, body) in enumerate(zip(names, bodies)):
            of: dict[Label, Kind | None] = {}
            for label in {t.label for t in body.transitions}:
                comm = label.comm
                mode = table.get(comm.channel)
                if comm.direction is Direction.INTERNAL or mode is None:
                    kind = Local(inst, label.text)
                    kinds[kind] = label
                elif mode.kind == "async":
                    kind = (AsyncSend(comm.channel, inst)
                            if comm.direction is Direction.SEND
                            else AsyncReceive(comm.channel, inst))
                    kinds[kind] = None
                else:
                    side = senders if comm.direction is Direction.SEND else receivers
                    side.setdefault(comm.channel, set()).add(i)
                    kind = None
                of[label] = kind
            kind_of.append(of)
        handshakes = {(chan, i, j): Handshake(chan, names[i], names[j])
                      for chan, sending in senders.items() for i in sending
                      for j in receivers.get(chan, ()) if j != i}
        kinds.update(dict.fromkeys(handshakes.values()))
        self.kinds: list[Kind] = sorted(kinds, key=_kind_sort_key)
        rank = {kind: r for r, kind in enumerate(self.kinds)}
        self.local_labels = [kinds[kind] for kind in self.kinds]
        # (channel, sender) -> ((receiver, rank), ...)
        partners: dict[tuple[str, int], tuple[tuple[int, int], ...]] = {}
        for (chan, i, j), kind in handshakes.items():
            key = (chan, i)
            partners[key] = partners.get(key, ()) + ((j, rank[kind]),)

        # moves[i][l], component i's moves from local l: (steps,
        # receives).  steps holds local steps (rank, target), async
        # steps (rank, target, slot, capacity or 0 for a receive) and
        # sync sends (channel, target, ((receiver, rank), ...)), or is
        # None if there are none; receives maps each channel to its sync
        # receive targets.  Moves are deduplicated, so two steps of one
        # state are never equal.
        self.moves: list[list[tuple]] = []
        for i, (body, index, of) in enumerate(zip(bodies, self.index,
                                                  kind_of)):
            rank_of = {label: rank[kind] for label, kind in of.items()
                       if kind is not None}
            found = [({}, {}, {}, {}) for _ in index]   # by source local
            for t in body.transitions:
                label, target = t.label, index[t.target]
                locs, asyncs, sends, receives = found[index[t.source]]
                kind, comm = of[label], label.comm
                if isinstance(kind, Local):
                    locs[rank_of[label], target] = None
                elif kind is not None:
                    asyncs[rank_of[label], target, slot[comm.channel],
                           table[comm.channel].capacity
                           if isinstance(kind, AsyncSend) else 0] = None
                elif comm.direction is Direction.RECEIVE:
                    receives.setdefault(comm.channel, {})[target] = None
                elif (comm.channel, i) in partners:
                    sends[comm.channel, target,
                          partners[comm.channel, i]] = None
            self.moves.append([
                (((tuple(locs), tuple(asyncs), tuple(sends))
                  if locs or asyncs or sends else None),
                 {chan: tuple(ts) for chan, ts in receives.items()})
                for locs, asyncs, sends, receives in found])
        self.initial = tuple(index[body.initial] for index, body
                             in zip(self.index, bodies)
                             ) + ((),) * len(self.buffered)

    def successors(self, s: tuple) -> list[tuple[int, tuple]]:
        """The enabled steps of s as (rank, target) in canonical order."""
        out = []
        moves = self.moves
        for i, (steps, _) in enumerate(map(list.__getitem__, moves, s)):
            if steps is None:
                continue
            locs, asyncs, sends = steps
            for rank, target in locs:
                out.append((rank, s[:i] + (target,) + s[i + 1:]))
            for rank, target, at, cap in asyncs:
                buf = s[at]
                if cap:
                    if len(buf) < cap:
                        t = list(s)
                        t[i], t[at] = target, buf + (i,)
                        out.append((rank, tuple(t)))
                elif buf:
                    t = list(s)
                    t[i], t[at] = target, buf[1:]
                    out.append((rank, tuple(t)))
            for chan, target, partners in sends:
                for j, rank in partners:
                    for other in moves[j][s[j]][1].get(chan, ()):
                        t = list(s)
                        t[i], t[j] = target, other
                        out.append((rank, tuple(t)))
        out.sort()
        return out

    def decode(self, s: tuple) -> GlobalState:
        names, n = self.names, len(self.names)
        return GlobalState(
            tuple(zip(names, map(list.__getitem__, self.states, s))),
            tuple((chan, tuple(names[k] for k in s[n + j]))
                  for j, chan in enumerate(self.buffered)))

    def encode(self, g: GlobalState) -> tuple:
        """The compiled form of g, a state consistent with the net."""
        return tuple(index[state] for index, (_, state)
                     in zip(self.index, g.locals)) + tuple(
            tuple(self.position[tok] for tok in toks) for _, toks in g.buffers)

    def text(self, s: tuple) -> str:
        """`GlobalState.text` of s's decoded state, joined from tables."""
        text = ",".join(map(list.__getitem__, self.texts, s))
        names, n = self.names, len(self.names)
        for j, chan in enumerate(self.buffered):
            text += f";{chan}=" + ".".join([names[k] for k in s[n + j]])
        return text

    def transition(self, s: tuple, rank: int, t: tuple) -> GlobalTransition:
        return GlobalTransition(self.decode(s), self.kinds[rank],
                                self.decode(t), self.local_labels[rank])


def enabled(net: SystemNet, g: GlobalState) -> list[GlobalTransition]:
    """All global transitions permitted from g, in canonical order."""
    compiled = _Compiled(net)
    _check_consistent(net, compiled.table, g)
    s = compiled.encode(g)
    return [GlobalTransition(g, compiled.kinds[rank], compiled.decode(t),
                             compiled.local_labels[rank])
            for rank, t in compiled.successors(s)]


class Search:
    """The breadth-first search of a net's reachable states, as a record.

    The record grows as the search runs:

    * `states` holds the compiled states in discovery order;
    * `parent[k]` is the position of the state that state k was first
      reached from, or -1 for the initial state (an int array);
    * `steps[k]`, for each expanded state k, holds its enabled steps as
      one flat tuple (rank, target position, rank, target position,
      ...) in canonical order, with -1 for a target the bound cut off,
      so `not steps[k]` still means deadlock;
    * `index` maps each state to its position while states are still
      being discovered, and is dropped once every one is expanded;
    * `cut` is the number of states expanded when the bound first cut
      a target off, or None.

    At most `bound` states are discovered.  Iterating yields the
    position of each expanded state in discovery order, after its steps
    are recorded: one loop replays the record and expands the next
    state only where an iterator reaches the record's end.  So every
    iterator over one search, interleaved with others or after them,
    sees the sequence a fresh search would give.  `compiled` decodes
    states and steps.
    """

    def __init__(self, net: SystemNet, bound: int | None = None):
        self.compiled = _Compiled(net)
        self.bound = DEFAULT_STATE_BOUND if bound is None else bound
        initial = self.compiled.initial
        self.states: list[tuple] = [initial]
        self.index: dict[tuple, int] | None = {initial: 0}
        self.parent = array("q", [-1])   # no int object per entry
        self.steps: list[tuple[int, ...]] = []
        self.cut: int | None = None

    def __iter__(self) -> Iterator[int]:
        k = 0
        while k < len(self.states):
            if k == len(self.steps):
                self._expand()
            yield k
            k += 1

    def _expand(self) -> None:
        """Record the steps of the first state not yet expanded."""
        states, index, parent, steps = (self.states, self.index, self.parent,
                                        self.steps)
        k, bound = len(steps), self.bound
        flat: list[int] = []
        for rank, t in self.compiled.successors(states[k]):
            j = index.get(t)
            if j is None:
                if len(states) < bound:
                    j = index[t] = len(states)
                    states.append(t)
                    parent.append(k)
                else:
                    j = -1
                    if self.cut is None:
                        self.cut = k + 1
            flat += rank, j
        steps.append(tuple(flat))
        if len(steps) == len(states):
            self.index = None

    def complete(self) -> None:
        """Expand every state; StateBoundExceeded once the bound cuts in.

        The error is raised where a fresh search would raise it: after
        `cut` states, with the discovered states not yet expanded then
        as its frontier.
        """
        for _ in self:
            if self.cut is not None:
                raise StateBoundExceeded(self.bound,
                                         len(self.states) - self.cut)

    def path_to(self, k: int) -> tuple[GlobalTransition, ...]:
        """The shortest path from the initial state to expanded state k.

        Each step is the first one in canonical order from its source to
        its target, the one that discovered the target.
        """
        compiled, states, parent, steps = (self.compiled, self.states,
                                           self.parent, self.steps)
        path = []
        source = parent[k]
        while source >= 0:
            flat = steps[source]
            rank = flat[2 * flat[1::2].index(k)]
            path.append(compiled.transition(states[source], rank, states[k]))
            k, source = source, parent[source]
        return tuple(reversed(path))


def search_of(net: SystemNet, bound: int | None = None) -> Search:
    """net's search for bound, made on first use and kept with net."""
    bound = DEFAULT_STATE_BOUND if bound is None else bound
    search = net._searches.get(bound)
    if search is None:
        search = net._searches[bound] = Search(net, bound)
    return search


def _pairs(flat: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The (rank, target position) pairs of a recorded step tuple."""
    it = iter(flat)
    return zip(it, it)


def _labels(compiled: _Compiled) -> list[Label]:
    """The product-level label of each step kind, by rank."""
    return [_label_of(kind, local_label) for kind, local_label
            in zip(compiled.kinds, compiled.local_labels)]


def explore(net: SystemNet, bound: int | None = None
            ) -> tuple[list[GlobalState], dict[GlobalState, list[GlobalTransition]]]:
    """BFS over reachable global states.

    Returns the states in discovery order plus each state's enabled
    list.  Raises StateBoundExceeded when more than `bound` states are
    reachable.
    """
    search = search_of(net, bound)
    search.complete()
    compiled = search.compiled
    kinds, local_labels = compiled.kinds, compiled.local_labels
    state = list(map(compiled.decode, search.states))
    steps = {g: [GlobalTransition(g, kinds[rank], state[j], local_labels[rank])
                 for rank, j in _pairs(flat)]
             for g, flat in zip(state, search.steps)}
    return state, steps


def product(net: SystemNet, bound: int | None = None) -> Lts:
    """The reachable global LTS, with canonical state names and labels.

    The names are the states' `GlobalState.text`, one per state.
    """
    search = search_of(net, bound)
    search.complete()
    compiled = search.compiled
    name = list(map(compiled.text, search.states))
    labels = _labels(compiled)
    return Lts(name, name[0], [Transition(source, labels[rank], name[j])
                               for source, flat in zip(name, search.steps)
                               for rank, j in _pairs(flat)])


def _walk(net: SystemNet, bound: int | None) -> tuple[list[str], list]:
    """Each rank's label text, and the steps of net's completed search."""
    search = search_of(net, bound)
    search.complete()
    return [label.text for label in _labels(search.compiled)], search.steps


def traces(net: SystemNet, k: int, bound: int | None = None
           ) -> set[tuple[str, ...]]:
    """All label-text sequences of length <= k, as a set."""
    text, steps = _walk(net, bound)
    layer = {((), 0)}
    out: set[tuple[str, ...]] = {()}
    for _ in range(k):
        layer = {(prefix + (text[rank],), j)
                 for prefix, at in layer for rank, j in _pairs(steps[at])}
        if not layer:
            break
        out.update(prefix for prefix, _ in layer)
    return out


def traces_equal(a: SystemNet, b: SystemNet, k: int,
                 bound: int | None = None) -> bool:
    """Whether both nets have the same label traces up to length k.

    Runs a synchronized subset walk over the two search records instead
    of materializing the trace sets, so it stays polynomial in the
    product sizes even when the trace sets explode.  Steps of different
    ranks with one label text are one letter.
    """
    walks = _walk(a, bound), _walk(b, bound)

    def letters(walk, states: frozenset[int]) -> dict[str, frozenset[int]]:
        text, steps = walk
        merged: dict[str, set[int]] = {}
        for s in states:
            for rank, j in _pairs(steps[s]):
                merged.setdefault(text[rank], set()).add(j)
        return {l: frozenset(v) for l, v in merged.items()}

    start = (frozenset([0]), frozenset([0]))
    frontier, visited = {start}, {start}
    for _ in range(k):
        reached = set()
        for pair in frontier:
            la, lb = map(letters, walks, pair)
            if la.keys() != lb.keys():
                return False
            reached.update((la[letter], lb[letter]) for letter in la)
        frontier = reached - visited
        if not frontier:
            break
        visited |= frontier
    return True
