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
`traces` and `checker.check`.  It builds the channel table once per
search and expands the states it built without re-validating them; the
public `enabled` validates its state, then calls the same successor step.
"""

from __future__ import annotations

from collections import deque
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
        s = ",".join(f"{inst}:{state}" for inst, state in self.locals)
        for chan, toks in self.buffers:
            s += f";{chan}=" + ".".join(toks)
        return s


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
        k = self.kind
        if isinstance(k, Handshake):
            return Label.internal(f"{k.channel}#{k.sender}>{k.receiver}")
        if isinstance(k, AsyncSend):
            return Label.internal(f"{k.channel}!@{k.instance}")
        if isinstance(k, AsyncReceive):
            return Label.internal(f"{k.channel}?@{k.instance}")
        if self.local_label is not None:
            return self.local_label
        return parse_label(k.action)


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


def _initial(net: SystemNet, table: dict[str, ChannelMode]) -> GlobalState:
    locals_ = tuple((inst, proc.body.initial) for inst, proc in net.components)
    return GlobalState(locals_, tuple((c, ()) for c in _buffered(table)))


def initial_state(net: SystemNet) -> GlobalState:
    return _initial(net, _channel_table(net))


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


def _put(pairs: tuple, i: int, value) -> tuple:
    """pairs with the value of its i-th (key, value) pair replaced."""
    return pairs[:i] + ((pairs[i][0], value),) + pairs[i + 1:]


def _successors(net: SystemNet, table: dict[str, ChannelMode],
                g: GlobalState) -> list[GlobalTransition]:
    """`enabled` for a state known to belong to net; table is its channels."""
    locals_, buffers = g.locals, g.buffers
    slot = {chan: j for j, (chan, _) in enumerate(buffers)}
    out: list[GlobalTransition] = []
    receivers: dict[str, list[tuple[int, Transition]]] = {}
    senders: dict[str, list[tuple[int, Transition]]] = {}

    for i, (inst, proc) in enumerate(net.components):
        for t in proc.body.outgoing(locals_[i][1]):
            comm = t.label.comm
            mode = table.get(comm.channel)
            if comm.direction is Direction.INTERNAL or mode is None:
                out.append(GlobalTransition(
                    g, Local(inst, t.label.text),
                    GlobalState(_put(locals_, i, t.target), buffers), t.label))
            elif mode.kind == "sync":
                side = senders if comm.direction is Direction.SEND else receivers
                side.setdefault(comm.channel, []).append((i, t))
            else:
                j = slot[comm.channel]
                toks = buffers[j][1]
                if comm.direction is Direction.SEND and len(toks) < mode.capacity:
                    out.append(GlobalTransition(
                        g, AsyncSend(comm.channel, inst),
                        GlobalState(_put(locals_, i, t.target),
                                    _put(buffers, j, toks + (inst,)))))
                elif comm.direction is Direction.RECEIVE and toks:
                    out.append(GlobalTransition(
                        g, AsyncReceive(comm.channel, inst),
                        GlobalState(_put(locals_, i, t.target),
                                    _put(buffers, j, toks[1:]))))

    for chan, sends in senders.items():
        for si, s_t in sends:
            for ri, r_t in receivers.get(chan, ()):
                if ri != si:
                    moved = _put(_put(locals_, si, s_t.target), ri, r_t.target)
                    out.append(GlobalTransition(
                        g, Handshake(chan, locals_[si][0], locals_[ri][0]),
                        GlobalState(moved, buffers)))

    return sorted(set(out), key=step_sort_key)


def enabled(net: SystemNet, g: GlobalState) -> list[GlobalTransition]:
    """All global transitions permitted from g, in canonical order."""
    table = _channel_table(net)
    _check_consistent(net, table, g)
    return _successors(net, table, g)


class Search:
    """One breadth-first search over the reachable global states of net.

    Iterated once, it yields each state with its canonical enabled steps
    in discovery order, after discovering their targets.  At most `bound`
    states are discovered; `truncated` records that one was cut off.
    `parent` maps each discovered state to the step that first reached it.
    """

    def __init__(self, net: SystemNet, bound: int | None = None):
        self.net = net
        self.bound = DEFAULT_STATE_BOUND if bound is None else bound
        self.table = _channel_table(net)
        self.parent: dict[GlobalState, GlobalTransition | None] = {
            _initial(net, self.table): None}
        self.truncated = False

    def __iter__(self) -> Iterator[tuple[GlobalState, list[GlobalTransition]]]:
        net, table, parent, bound = self.net, self.table, self.parent, self.bound
        queue = deque(parent)
        while queue:
            g = queue.popleft()
            steps = _successors(net, table, g)
            for t in steps:
                if t.target not in parent:
                    if len(parent) < bound:
                        parent[t.target] = t
                        queue.append(t.target)
                    else:
                        self.truncated = True
            yield g, steps

    def path_to(self, g: GlobalState) -> tuple[GlobalTransition, ...]:
        """The shortest path from the initial state to discovered g."""
        path: list[GlobalTransition] = []
        step = self.parent[g]
        while step is not None:
            path.append(step)
            step = self.parent[step.source]
        return tuple(reversed(path))


def explore(net: SystemNet, bound: int | None = None
            ) -> tuple[list[GlobalState], dict[GlobalState, list[GlobalTransition]]]:
    """BFS over reachable global states.

    Returns the states in discovery order plus each state's enabled
    list.  Raises StateBoundExceeded when more than `bound` states are
    reachable.
    """
    search = Search(net, bound)
    steps: dict[GlobalState, list[GlobalTransition]] = {}
    for g, here in search:
        steps[g] = here
        if search.truncated:
            raise StateBoundExceeded(search.bound,
                                     len(search.parent) - len(steps))
    return list(search.parent), steps


def product(net: SystemNet, bound: int | None = None) -> Lts:
    """The reachable global LTS, with canonical state names and labels."""
    states, steps = explore(net, bound)
    transitions = [
        Transition(g.text, t.label, t.target.text)
        for g in states for t in steps[g]
    ]
    return Lts([g.text for g in states], states[0].text, transitions)


def traces(net: SystemNet, k: int, bound: int | None = None
           ) -> set[tuple[str, ...]]:
    """All label-text sequences of length <= k, as a set."""
    states, steps = explore(net, bound)
    layer = {((), states[0])}
    out: set[tuple[str, ...]] = {()}
    for _ in range(k):
        layer = {(prefix + (t.label.text,), t.target)
                 for prefix, g in layer for t in steps[g]}
        if not layer:
            break
        out.update(prefix for prefix, _ in layer)
    return out


def traces_equal(a: SystemNet, b: SystemNet, k: int,
                 bound: int | None = None) -> bool:
    """Whether both nets have the same label traces up to length k.

    Runs a synchronized subset walk over the two products instead of
    materializing the trace sets, so it stays polynomial in the product
    sizes even when the trace sets explode.
    """
    pa, pb = product(a, bound), product(b, bound)

    def letters(lts: Lts, states: frozenset[str]) -> dict[str, frozenset[str]]:
        merged: dict[str, set[str]] = {}
        for s in states:
            for t in lts.outgoing(s):
                merged.setdefault(t.label.text, set()).add(t.target)
        return {l: frozenset(v) for l, v in merged.items()}

    start = (frozenset([pa.initial]), frozenset([pb.initial]))
    frontier = [start]
    visited = {start}
    for _ in range(k):
        nxt = []
        for setA, setB in frontier:
            la = letters(pa, setA)
            lb = letters(pb, setB)
            if set(la) != set(lb):
                return False
            for letter in la:
                pair = (la[letter], lb[letter])
                if pair not in visited:
                    visited.add(pair)
                    nxt.append(pair)
        if not nxt:
            break
        frontier = nxt
    return True
