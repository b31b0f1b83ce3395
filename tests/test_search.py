"""One recorded search per net: sharing must not change any result.

`check`, `product`, `explore` and `traces` all read and extend the
search a net keeps for each bound.  Whatever order they run in, each
result must equal the same call on a fresh equal net and on
`reference_semantics`: verdicts, witnesses, "unknown" verdicts and
bound errors alike.  The record lives in the net value but is no part
of it: not of eq, hash, repr, `fields()`, a pickle or a copy.
"""

import copy
import dataclasses
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hetcomp import (DEADLOCK_FREE, DEFAULT_STATE_BOUND, Label, Lts, Process,
                     StateBoundExceeded, SystemNet, Transition, async_mode,
                     check, compose, emit_dot, explore, product, reach,
                     traces, with_channel_modes)
from hetcomp.semantics import Search, search_of
import reference_semantics as ref
from gen import philo_net, random_conjuncts, random_net

CONSUMERS = ("deadlock", "reach", "product", "explore", "traces")
TRACE_LEN = 3

seeds = st.integers(0, 2 ** 32 - 1)
bounds = st.sampled_from([None, 1, 2, 3, 5, 8, 13])


def _bound_error(e):
    return ("bound exceeded", e.bound, e.frontier, str(e))


def _labelled(steps):
    """Steps with their labels, which GlobalTransition's eq leaves out."""
    return steps, [t.label for t in steps]


def _ref_traces(net, k, bound):
    """`traces` over the reference engine's `explore`."""
    states, steps = ref.explore(net, bound)
    layer = {((), states[0])}
    out = {()}
    for _ in range(k):
        layer = {(prefix + (t.label.text,), t.target)
                 for prefix, g in layer for t in steps[g]}
        out.update(prefix for prefix, _ in layer)
    return out


def _run(name, net, query, bound, engine):
    """What consumer name gives on net, through hetcomp or the reference."""
    hetcomp_side = engine == "hetcomp"
    try:
        if name in ("deadlock", "reach"):
            q = DEADLOCK_FREE if name == "deadlock" else query
            v = (check if hetcomp_side else ref.check)(net, q, bound)
            return v, v.witness and _labelled(v.witness)
        if name == "product":
            return (product if hetcomp_side else ref.product)(net, bound)
        if name == "explore":
            states, steps = (explore if hetcomp_side else ref.explore)(net,
                                                                       bound)
            return states, [_labelled(steps[g]) for g in states]
        return (traces(net, TRACE_LEN, bound) if hetcomp_side
                else _ref_traces(net, TRACE_LEN, bound))
    except StateBoundExceeded as e:
        return _bound_error(e)


def _fresh(net):
    """An equal net built anew, so with no search of its own."""
    fresh = SystemNet(net.components, net.channel_modes)
    assert fresh == net and fresh._searches == {}
    return fresh


@given(seeds, bounds, st.permutations(CONSUMERS))
@settings(max_examples=150, deadline=None)
def test_consumers_in_any_order_agree_with_fresh_nets_and_reference(
        seed, bound, order):
    rng = random.Random(seed)
    net = random_net(rng, max_components=4, facets=True)
    query = reach(*random_conjuncts(rng, net))
    for name in order:
        got = _run(name, net, query, bound, "hetcomp")
        assert got == _run(name, _fresh(net), query, bound, "hetcomp"), name
        assert got == _run(name, net, query, bound, "reference"), name


@given(seeds, bounds, st.lists(st.booleans(), max_size=80))
@settings(max_examples=150, deadline=None)
def test_interleaved_iterators_over_one_search_see_one_sequence(
        seed, bound, schedule):
    net = random_net(random.Random(seed), max_components=4)

    def seen(search, k):
        return search.compiled.decode(search.states[k]), search.steps[k]

    alone = Search(net, bound)
    want = [seen(alone, k) for k in alone]
    search = Search(net, bound)
    iterators, got = [iter(search), iter(search)], [[], []]
    for second in schedule:
        k = next(iterators[second], None)
        if k is not None:
            got[second].append(seen(search, k))
    for it, out in zip(iterators, got):
        out.extend(seen(search, k) for k in it)
    assert got[0] == got[1] == want
    assert list(search) == list(range(len(want)))
    reference = ref.Search(net, bound)
    assert [g for g, _ in want] == [g for g, _ in reference]
    assert (search.cut is not None) == reference.truncated
    assert search.index is None   # dropped once every state is expanded


def test_local_state_numbering_does_not_show():
    """Each component's initial state sorts last, so numbering local
    states in name order differs from numbering them as found.  P's
    two "work" steps tie in rank, so target text orders them: "m+"
    sorts after "m", but "P:m+,Q:y" sorts before "P:m,Q:y".
    """
    p = Lts(["z", "m", "m+", "a", "d", "n"], "z", [
        Transition("z", Label.internal("work"), "m"),
        Transition("z", Label.internal("work"), "m+"),
        Transition("m+", Label.send("go"), "a"),
        Transition("m", Label.internal("halt"), "d"),
        Transition("a", Label.send("c"), "z"),
        Transition("n", Label.internal("work"), "z")])   # n is unreachable
    q = Lts(["y", "b"], "y", [
        Transition("y", Label.receive("go"), "b"),
        Transition("b", Label.receive("c"), "y")])
    net = with_channel_modes(compose(Process("P", p), Process("Q", q)),
                             {"c": async_mode(1)})
    for _, proc in net.components:
        assert sorted(proc.body.states)[-1] == proc.body.initial
    states, steps = explore(net)
    first = [t.kind for t in steps[states[0]]]
    assert len(first) == 2 and first[0] == first[1]

    query = reach(("P", "z"), ("Q", "b"))
    for name in CONSUMERS:
        got = _run(name, net, query, None, "hetcomp")
        assert got == _run(name, net, query, None, "reference"), name
    assert check(net, DEADLOCK_FREE).outcome == "false"
    assert check(net, query).outcome == "true"
    assert emit_dot(product(net)) == emit_dot(ref.product(net))


def test_recorded_steps_point_at_positions():
    net = philo_net(4)
    search = search_of(net)
    search.complete()
    assert search.cut is None and len(search.states) == 3 ** 4 - 1
    assert search.parent[0] == -1
    for k, flat in enumerate(search.steps):
        successors = search.compiled.successors(search.states[k])
        assert [(rank, search.states[j]) for rank, j
                in zip(flat[::2], flat[1::2])] == successors
        assert all(search.parent[j] <= k for j in flat[1::2])


def test_a_cut_off_target_is_recorded_as_minus_one():
    net = philo_net(3)
    search = search_of(net, 5)
    for _ in search:
        pass
    assert len(search.states) == 5 and search.cut is not None
    assert -1 in search.steps[search.cut - 1][1::2]
    assert all(-1 not in flat[1::2] for flat in search.steps[:search.cut - 1])
    assert all(search.steps)   # philosophers deadlock only at depth 3


def test_one_search_per_net_and_bound():
    net = philo_net(3)
    assert search_of(net) is search_of(net, DEFAULT_STATE_BOUND)
    assert search_of(net, 10) is search_of(net, 10)
    assert search_of(net, 10) is not search_of(net)
    assert search_of(_fresh(net)) is not search_of(net)


def test_every_consumer_shares_one_compile_and_one_expansion(compiles):
    net = philo_net(5)
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "false" and len(v.witness) == 5
    search = search_of(net)
    partial = len(search.steps)
    assert 0 < partial < 3 ** 5 - 1
    assert check(net, reach(("P0", "e"), ("P1", "e"))).outcome == "false"
    expanded = len(search.steps)
    assert expanded == 3 ** 5 - 1
    lts = product(net)
    explore(net)
    traces(net, 4)
    assert check(net, DEADLOCK_FREE) == v
    assert len(compiles) == 1 and len(search.steps) == expanded
    assert lts == product(_fresh(net))
    assert len(compiles) == 2


# ---- the record is no part of the net value ----

def test_a_net_pickles_the_same_before_and_after_its_search():
    net = philo_net(3)
    before = pickle.dumps(net)
    check(net, DEADLOCK_FREE)
    product(net)
    assert net._searches
    assert pickle.dumps(net) == before
    loaded = pickle.loads(before)
    assert loaded == net and hash(loaded) == hash(net)
    assert loaded._searches == {}


def test_a_copied_net_carries_no_search():
    net = philo_net(3)
    query = reach(("P0", "e"), ("P1", "e"))
    verdict = check(net, query)
    for copied in (copy.copy(net), copy.deepcopy(net)):
        assert copied == net and hash(copied) == hash(net)
        assert copied._searches == {}
        assert check(copied, query) == verdict
        assert search_of(copied) is not search_of(net)


def test_the_search_is_no_part_of_eq_hash_repr_or_fields():
    net, other = philo_net(3), philo_net(3)
    shown, hashed = repr(net), hash(net)
    product(net)
    assert net._searches and not other._searches
    assert [f.name for f in dataclasses.fields(SystemNet)] == [
        "components", "channel_modes"]
    assert "_searches" not in shown
    assert repr(net) == shown == repr(other)
    assert hash(net) == hashed == hash(other)
    assert net == other
