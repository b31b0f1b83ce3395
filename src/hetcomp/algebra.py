"""The net algebra: named processes composed over shared channels.

A Process wraps an Lts with a name and a channel interface.  A
SystemNet is a flat, ordered collection of process instances plus
per-channel communication modes.  The operators here rewrite nets
syntactically; what the compositions mean is the business of the
semantics module.

All values are immutable; every operator returns a fresh value.
Component maps are kept sorted by instance name so that structurally
equal nets compare (and hash) equal regardless of how they were built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

from .errors import AlgebraError
from .lts import Lts, channels_of, is_token, rename_channel


@dataclass(frozen=True)
class ChannelMode:
    """Sync (rendezvous) or async with a fixed positive buffer capacity."""

    kind: str
    capacity: int | None = None

    def __post_init__(self):
        if self.kind == "sync":
            if self.capacity is not None:
                raise AlgebraError("sync channels take no capacity")
        elif self.kind == "async":
            if not isinstance(self.capacity, int) or self.capacity < 1:
                raise AlgebraError("async channels need a capacity >= 1")
        else:
            raise AlgebraError(f"unknown channel mode kind {self.kind!r}")


SYNC = ChannelMode("sync")


def async_mode(capacity: int) -> ChannelMode:
    return ChannelMode("async", capacity)


@dataclass(frozen=True)
class Process:
    """A named behaviour: an Lts plus the channels it exposes.

    A missing or empty interface defaults to the channels the body
    actually uses; a declared interface may add channels but must cover
    the body's.
    """

    name: str
    interface: tuple[str, ...]
    body: Lts

    def __init__(self, name: str, body: Lts,
                 interface: Iterable[str] | None = None):
        if not is_token(name):
            raise AlgebraError(f"invalid process name {name!r}")
        used = channels_of(body)
        if interface is None:
            iface = tuple(sorted(used))
        else:
            iface = tuple(dict.fromkeys(interface))
            if not iface:
                iface = tuple(sorted(used))
            else:
                for c in iface:
                    if not is_token(c):
                        raise AlgebraError(f"invalid channel name {c!r} "
                                           f"in the interface of {name}")
                missing = used - set(iface)
                if missing:
                    raise AlgebraError(
                        f"interface of {name} misses channels the body uses: "
                        + ", ".join(sorted(missing)))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "interface", iface)
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class SystemNet:
    """A flat net of named process instances with channel modes."""

    components: tuple[tuple[str, Process], ...]
    channel_modes: tuple[tuple[str, ChannelMode], ...]

    def __init__(self,
                 components: Iterable[tuple[str, Process]] | Mapping[str, Process],
                 channel_modes: Iterable[tuple[str, ChannelMode]]
                 | Mapping[str, ChannelMode] = ()):
        pairs = list(components.items() if isinstance(components, Mapping)
                     else components)
        if not pairs:
            raise AlgebraError("a net needs at least one component")
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise AlgebraError("duplicate instance names: " + ", ".join(dup))
        for n, _ in pairs:
            if not is_token(n):
                raise AlgebraError(f"invalid instance name {n!r}")
        modes = list(channel_modes.items() if isinstance(channel_modes, Mapping)
                     else channel_modes)
        object.__setattr__(self, "components", tuple(sorted(pairs)))
        object.__setattr__(self, "channel_modes",
                           tuple(sorted(dict(modes).items())))
        # lookup tables, not fields: no part in equality, hashing or repr
        object.__setattr__(self, "_by_name", dict(self.components))
        object.__setattr__(self, "_modes", dict(self.channel_modes))
        # the net's searches by state bound (`semantics.search_of`)
        object.__setattr__(self, "_searches", {})

    def __reduce__(self):
        # through the constructor: a copy or an unpickled net gets fresh
        # tables and no searches
        return type(self), (self.components, self.channel_modes)

    def instance_names(self) -> list[str]:
        return [n for n, _ in self.components]

    def get(self, instance: str) -> Process:
        try:
            return self._by_name[instance]
        except KeyError:
            raise AlgebraError(f"no component named {instance!r} in the net "
                               f"({', '.join(self.instance_names())})") from None

    def has(self, instance: str) -> bool:
        return instance in self._by_name

    def mode_of(self, channel: str) -> ChannelMode:
        return self._modes.get(channel, SYNC)


def shared_channels(net: SystemNet) -> set[str]:
    """Channels occurring in at least two component interfaces."""
    counts: dict[str, int] = {}
    for _, proc in net.components:
        for c in proc.interface:
            counts[c] = counts.get(c, 0) + 1
    return {c for c, n in counts.items() if n >= 2}


def with_channel_modes(net: SystemNet,
                       modes: Mapping[str, ChannelMode]) -> SystemNet:
    """Overlay channel-mode declarations onto a net (new keys win)."""
    merged = dict(net.channel_modes)
    merged.update(modes)
    return SystemNet(net.components, merged)


def _merge_modes(into: dict[str, ChannelMode],
                 more: Iterable[tuple[str, ChannelMode]]) -> None:
    for chan, mode in more:
        old = into.get(chan)
        if old is not None and old != mode:
            raise AlgebraError(
                f"conflicting modes for channel {chan}: {_mode_text(old)} "
                f"vs {_mode_text(mode)}")
        into[chan] = mode


def _mode_text(m: ChannelMode) -> str:
    return m.kind if m.kind == "sync" else f"async[{m.capacity}]"


def fresh_names(taken: Iterable[str] = ()) -> Callable[[str], str]:
    """A namer: each call takes and returns the first free name among
    base, base_2, base_3, ...  Names are only ever taken, so it resumes
    each base at its next suffix, and naming n clashes is linear."""
    taken = set(taken)
    next_suffix: dict[str, int] = {}

    def fresh(base: str) -> str:
        name, k = base, next_suffix.get(base, 2)
        while name in taken:
            name, k = f"{base}_{k}", k + 1
        next_suffix[base] = k
        taken.add(name)
        return name
    return fresh


def compose(*parts: Union[Process, SystemNet]) -> SystemNet:
    """Flat parallel composition of processes and nets.

    Nested nets are flattened, so nesting and arity do not matter:
    compose(compose(A,B),C) equals compose(A,B,C).  Instance names come
    from process names; clashes get _2, _3, ... in composition order.
    """
    if not parts:
        raise AlgebraError("compose needs at least one part")
    procs: list[Process] = []
    modes: dict[str, ChannelMode] = {}
    for part in parts:
        if isinstance(part, Process):
            procs.append(part)
        elif isinstance(part, SystemNet):
            procs.extend(p for _, p in part.components)
            _merge_modes(modes, part.channel_modes)
        else:
            raise AlgebraError(f"compose takes processes and nets, "
                               f"not {type(part).__name__}")
    fresh = fresh_names()
    return SystemNet([(fresh(p.name), p) for p in procs], modes)


def select(net: SystemNet, instance: str) -> Process:
    """Project one component out of a net, unchanged."""
    return net.get(instance)


def rename(p: Process, old: str, new: str) -> Process:
    """Rename channel old to new in the body and the interface."""
    if not is_token(new):
        raise AlgebraError(f"invalid channel name {new!r}")
    if old == new or old not in p.interface:
        body = rename_channel(p.body, old, new)
        return p if body == p.body else Process(p.name, body, p.interface)
    iface = tuple(dict.fromkeys(new if c == old else c for c in p.interface))
    return Process(p.name, rename_channel(p.body, old, new), iface)


def remove(net: SystemNet, instance: str) -> SystemNet:
    """Drop a component; the net must keep at least one."""
    net.get(instance)
    if len(net.components) < 2:
        raise AlgebraError("cannot remove the last component of a net")
    rest = [(n, p) for n, p in net.components if n != instance]
    return SystemNet(rest, net.channel_modes)


def replace(net: SystemNet, old_instance: str, new: Process) -> SystemNet:
    """Substitute new for an existing component, the algebraic way.

    The old component is not deleted: every channel it shares with the
    rest of the net is renamed, inside it only, to a fresh hidden name,
    which cuts it off; new is then composed in and takes over the
    traffic on the channels it plugs into.
    """
    old_proc = net.get(old_instance)
    shared = shared_channels(net)
    if not shared & set(new.interface):
        raise AlgebraError(
            f"replacement process {new.name} shares no channel with the net "
            f"(net shares: {', '.join(sorted(shared)) or 'none'})")

    used = set()
    for _, proc in list(net.components) + [("", new)]:
        used.update(proc.interface)
        used.update(t.label.comm.channel for t in proc.body.transitions)
    used.update(c for c, _ in net.channel_modes)

    isolated = old_proc
    for chan in sorted(shared & set(old_proc.interface)):
        k = 1
        while f"__hidden_{k}_{chan}" in used:
            k += 1
        fresh = f"__hidden_{k}_{chan}"
        used.add(fresh)
        isolated = rename(isolated, chan, fresh)

    components = dict(net.components)
    components[old_instance] = isolated
    components[fresh_names(components)(new.name)] = new
    return SystemNet(components, net.channel_modes)


def extract_chan(p: Process) -> list[str]:
    """The channels the process body actually uses, sorted."""
    return sorted(channels_of(p.body))
