"""Reference semantics: the global product computed on GlobalState values.

This is the engine `hetcomp.semantics` ran before it compiled nets to
integer states, kept verbatim as a test oracle.  Every state is a
`GlobalState` of instance/state strings, every step a fresh
`GlobalTransition`, and steps are sorted with `step_sort_key` itself.
It reaches far beyond the brute-force oracle (it only visits reachable
states), so the differential tests compare `explore`, `check` and
`product` against it on nets of thousands of states.
"""

from collections import deque

from hetcomp import (DEFAULT_STATE_BOUND, AsyncReceive, AsyncSend, Direction,
                     GlobalState, GlobalTransition, Handshake, Local, Lts,
                     StateBoundExceeded, Transition, Verdict, shared_channels)
from hetcomp.semantics import step_sort_key


def channel_table(net):
    """Each shared channel with its mode, in channel order."""
    return {c: net.mode_of(c) for c in sorted(shared_channels(net))}


def initial(net, table):
    locals_ = tuple((inst, proc.body.initial) for inst, proc in net.components)
    return GlobalState(locals_, tuple((c, ()) for c, mode in table.items()
                                      if mode.kind == "async"))


def _put(pairs, i, value):
    """pairs with the value of its i-th (key, value) pair replaced."""
    return pairs[:i] + ((pairs[i][0], value),) + pairs[i + 1:]


def successors(net, table, g):
    """The enabled steps of g, deduplicated and in canonical order."""
    locals_, buffers = g.locals, g.buffers
    slot = {chan: j for j, (chan, _) in enumerate(buffers)}
    out = []
    receivers = {}
    senders = {}

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


class Search:
    """Breadth-first search: yields (state, steps) in discovery order."""

    def __init__(self, net, bound=None):
        self.net = net
        self.bound = DEFAULT_STATE_BOUND if bound is None else bound
        self.table = channel_table(net)
        self.parent = {initial(net, self.table): None}
        self.truncated = False

    def __iter__(self):
        net, table, parent, bound = self.net, self.table, self.parent, self.bound
        queue = deque(parent)
        while queue:
            g = queue.popleft()
            steps = successors(net, table, g)
            for t in steps:
                if t.target not in parent:
                    if len(parent) < bound:
                        parent[t.target] = t
                        queue.append(t.target)
                    else:
                        self.truncated = True
            yield g, steps

    def path_to(self, g):
        path = []
        step = self.parent[g]
        while step is not None:
            path.append(step)
            step = self.parent[step.source]
        return tuple(reversed(path))


def explore(net, bound=None):
    search = Search(net, bound)
    steps = {}
    for g, here in search:
        steps[g] = here
        if search.truncated:
            raise StateBoundExceeded(search.bound,
                                     len(search.parent) - len(steps))
    return list(search.parent), steps


def product(net, bound=None):
    return lts_of(*explore(net, bound))


def lts_of(states, steps):
    """The product LTS of an `explore` result."""
    transitions = [Transition(g.text, t.label, t.target.text)
                   for g in states for t in steps[g]]
    return Lts([g.text for g in states], states[0].text, transitions)


def check(net, q, bound=None):
    """`hetcomp.check` for a query already validated against net."""
    is_reach = q.kind == "reach"
    search = Search(net, bound)
    for g, steps in search:
        if (all(g.local_of(i) == s for i, s in q.conjuncts) if is_reach
                else not steps):
            return Verdict("true" if is_reach else "false", search.path_to(g))
    if search.truncated:
        return Verdict("unknown", None, search.bound)
    return Verdict("false" if is_reach else "true")
