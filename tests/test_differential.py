"""The compiled engine against the reference semantics, and beyond it.

`reference_semantics` is the engine hetcomp ran before it compiled nets
to integer states.  `explore`, `check` (both query forms, witnesses and
their labels included) and `product` must agree with it exactly: same
states in the same discovery order, same canonical step order, same
bound errors.  Philosophers at n=11 are past the reference's reach in a
test run; there the closed forms decide.
"""

import random

from hetcomp import (DEADLOCK_FREE, Lts, Process, StateBoundExceeded,
                     SystemNet, Transition, check, explore, product, reach)
import reference_semantics as ref
from gen import philo_net, random_conjuncts, random_net

# '!' and '+' sort below the ',' that ends a state name in a state's
# text, '-' above it: names that order differently as names and as texts
ODD_NAMES = ["s", "s+", "s!x", "s-"]


def _odd_names(net):
    """net with its components' states s0..s3 renamed to ODD_NAMES."""
    def name(s):
        return ODD_NAMES[int(s[1:])]

    return SystemNet(
        [(inst, Process(p.name, Lts(map(name, p.body.states),
                                    name(p.body.initial),
                                    [Transition(name(t.source), t.label,
                                                name(t.target))
                                     for t in p.body.transitions]),
                        p.interface))
         for inst, p in net.components],
        net.channel_modes)


def _outcome(f, *args):
    try:
        return f(*args)
    except StateBoundExceeded as e:
        return ("bound exceeded", e.bound, e.frontier)


def _explored(net, bound, engine):
    try:
        states, steps = engine(net, bound)
    except StateBoundExceeded as e:
        return ("bound exceeded", e.bound, e.frontier)
    return states, [(steps[g], [t.label for t in steps[g]]) for g in states]


def _verdict(v):
    return v, v.witness and [t.label for t in v.witness]


def _agree(net, bound, query):
    assert _explored(net, bound, explore) == _explored(net, bound, ref.explore)
    assert _outcome(product, net, bound) == _outcome(ref.product, net, bound)
    for q in (DEADLOCK_FREE, query):
        assert _verdict(check(net, q, bound)) == _verdict(ref.check(net, q, bound))


def test_random_nets_agree_with_reference():
    rng = random.Random(41)
    for k in range(250):
        net = random_net(rng, max_components=4, facets=True)
        if k % 3 == 0:
            net = _odd_names(net)
        query = reach(*random_conjuncts(rng, net))
        for bound in (None, 3, 7):
            _agree(net, bound, query)


def test_philosophers_agree_with_reference():
    net = philo_net(8)
    states, steps = ref.explore(net)
    assert len(states) == 3 ** 8 - 1
    assert explore(net) == (states, steps)
    assert product(net) == ref.lts_of(states, steps)
    for q in (DEADLOCK_FREE, reach(("P0", "e"), ("P2", "e"))):
        assert _verdict(check(net, q)) == _verdict(ref.check(net, q))


def test_philosophers_closed_forms_at_n_11():
    # 177,146 states: P0 and P1 never eat together, and the one deadlock
    # (every philosopher holding its left fork) is 11 steps deep
    n = 11
    net = philo_net(n)
    v = check(net, reach(("P0", "e"), ("P1", "e")))
    assert v.outcome == "false" and v.bound is None
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "false"
    assert [t.label.text for t in v.witness] == [
        f"gl{i}#P{i}>F{i}" for i in sorted(range(n), key=str)]
