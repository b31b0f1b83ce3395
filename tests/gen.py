"""Random model generators shared by the test modules.

Everything is driven by an explicit random.Random so failures replay
from a seed. Sizes follow the oracle regime: small components, few
channels, buffer capacities at most 2.
"""

import random

from hetcomp import (Label, Lts, Process, SystemNet, Transition, async_mode,
                     compose, with_channel_modes)

FACET_PAYLOADS = ["x>0", "t<5", "n=3", "v in range", 'say "hi"', "a+b"]


def random_label(rng: random.Random, channels, facets: bool = False) -> Label:
    roll = rng.random()
    if roll < 0.4:
        label = Label.send(rng.choice(channels))
    elif roll < 0.8:
        label = Label.receive(rng.choice(channels))
    else:
        label = Label.internal(rng.choice(["step", "tick", "work"]))
    if facets and rng.random() < 0.5:
        names = rng.sample(["guard", "time", "data", "other"],
                           rng.randint(1, 2))
        label = Label(label.comm,
                      tuple((n, rng.choice(FACET_PAYLOADS))
                            for n in sorted(names)))
    return label


def random_lts(rng: random.Random, channels, max_states: int = 4,
               facets: bool = False) -> Lts:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = set()
    for _ in range(rng.randint(0, 2 * n)):
        transitions.add(Transition(rng.choice(states),
                                   random_label(rng, channels, facets),
                                   rng.choice(states)))
    return Lts(states, "s0", transitions)


def random_process(rng: random.Random, name: str, channels,
                   max_states: int = 4, facets: bool = False) -> Process:
    return Process(name, random_lts(rng, channels, max_states, facets))


def random_net(rng: random.Random, sync_only: bool = False,
               max_components: int = 3, facets: bool = False) -> SystemNet:
    channels = ["a", "b"][:rng.randint(1, 2)]
    k = rng.randint(2, max_components)
    net = compose(*(random_process(rng, f"P{i + 1}", channels, facets=facets)
                    for i in range(k)))
    if sync_only:
        return net
    modes = {}
    for c in channels:
        if rng.random() < 0.4:
            modes[c] = async_mode(rng.randint(1, 2))
    return with_channel_modes(net, modes)


def random_conjuncts(rng: random.Random, net: SystemNet):
    instances = net.instance_names()
    picked = rng.sample(instances, rng.randint(1, len(instances)))
    return tuple((inst, rng.choice(sorted(net.get(inst).body.states)))
                 for inst in sorted(picked))


def philo_net(n: int) -> SystemNet:
    """Dining philosophers: n philosophers P<i> and n forks F<i>, sync only.

    P<i> cycles t -gl<i>!-> l -gr<i>!-> e -pl<i>!-> r -pr<i>!-> t (take
    the left fork, the right one, put the left, put the right).  Fork
    F<i> is P<i>'s left fork and P<i-1>'s right one.  Every assignment of
    each fork to free, left or right neighbour is reachable except the
    one where every philosopher holds only its right fork: 3^n - 1
    states and n(2*3^(n-1) - 1) transitions.  The one deadlock, every
    philosopher holding its left fork, is n steps deep.
    """
    procs = []
    for i in range(n):
        h = (i - 1) % n
        procs.append(Process(f"P{i}", Lts("tler", "t", [
            Transition("t", Label.send(f"gl{i}"), "l"),
            Transition("l", Label.send(f"gr{i}"), "e"),
            Transition("e", Label.send(f"pl{i}"), "r"),
            Transition("r", Label.send(f"pr{i}"), "t")])))
        procs.append(Process(f"F{i}", Lts(["free", "L", "R"], "free", [
            Transition("free", Label.receive(f"gl{i}"), "L"),
            Transition("L", Label.receive(f"pl{i}"), "free"),
            Transition("free", Label.receive(f"gr{h}"), "R"),
            Transition("R", Label.receive(f"pr{h}"), "free")])))
    return compose(*procs)
