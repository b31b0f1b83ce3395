"""The compiled engine against the reference semantics, and beyond it.

`reference_semantics` is the engine hetcomp ran before it compiled nets
to integer states.  `explore`, `check` (both query forms, witnesses and
their labels included), `product` and `traces` must agree with it
exactly: same states in the same discovery order, same canonical step
order, same bound errors.  Philosophers at n=11 are past the
reference's reach in a test run; there the closed forms decide.
"""

import random

from hetcomp import (DEADLOCK_FREE, Label, Lts, Process, StateBoundExceeded,
                     SystemNet, Transition, async_mode, check, compose,
                     explore, product, reach, traces, with_channel_modes)
import reference_semantics as ref
from gen import philo_net, random_conjuncts, random_net
from test_search import _ref_traces

# '!' and '+' sort below the ',' that ends a state name in a state's
# text, '-' above it and below the ';' that ends the last one before
# buffers: names that order differently as names and as texts
ODD_NAMES = ["s", "s+", "s!x", "s-"]
# the separators of a state's text and the quote character, whose
# quoted forms order differently from the names
SEPARATOR_NAMES = ["s", "s,x", "s;x", "s%2Cx"]


def _odd_names(net, names=ODD_NAMES):
    """net with its components' states s0..s3 renamed to names."""
    def name(s):
        return names[int(s[1:])]

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
    assert (_outcome(traces, net, 3, bound)
            == _outcome(_ref_traces, net, 3, bound))
    for q in (DEADLOCK_FREE, query):
        assert _verdict(check(net, q, bound)) == _verdict(ref.check(net, q, bound))


def test_random_nets_agree_with_reference():
    rng = random.Random(41)
    for k in range(250):
        net = random_net(rng, max_components=4, facets=True)
        if k % 3 == 0:
            net = _odd_names(net)
        elif k % 3 == 1:
            net = _odd_names(net, SEPARATOR_NAMES)
        query = reach(*random_conjuncts(rng, net))
        for bound in (None, 3, 7):
            _agree(net, bound, query)


def test_tied_steps_of_the_last_component_before_buffers():
    # B's two tick targets are tied; their parts of the text end in the
    # ';' before the buffer, and "B:s-;c=" < "B:s;c=" though "s" < "s-"
    net = with_channel_modes(compose(
        Process("A", Lts(["a0", "a1"], "a0",
                         [Transition("a0", Label.send("c"), "a1")])),
        Process("B", Lts(["u", "s", "s-"], "u",
                         [Transition("u", Label.internal("tick"), t)
                          for t in ("s", "s-")]
                         + [Transition("s", Label.receive("c"), "s")]))),
        {"c": async_mode(1)})
    states, _ = explore(net)
    assert [g.text for g in states[:4]] == [
        "A:a0,B:u;c=", "A:a1,B:u;c=A", "A:a0,B:s-;c=", "A:a0,B:s;c="]
    _agree(net, None, reach(("B", "s")))


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
