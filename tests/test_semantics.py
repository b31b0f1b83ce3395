"""Global semantics tests: enabledness rules, product, traces."""

import random

import pytest

from hetcomp import (AsyncReceive, AsyncSend, GlobalState, Handshake, Label,
                     Local, Lts, Process, SemanticsError, StateBoundExceeded,
                     Transition, async_mode, compose, enabled, explore,
                     initial_state, parse_label, product, traces,
                     traces_equal, with_channel_modes)
from hetcomp.semantics import step_sort_key, tracked_buffers
import bruteforce
from gen import random_net


def proc(name, *edges):
    """edges are (source, label_text, target) triples."""
    states = {s for s, _, t in edges for s in (s, t)} or {"s0"}
    init = edges[0][0] if edges else "s0"
    return Process(name, Lts(states, init,
                             [Transition(s, parse_label(l), t)
                              for s, l, t in edges]))


# ---- local steps: internal actions and unshared channels ----

def test_internal_steps_interleave_freely():
    net = compose(proc("A", ("u", "step|time:5", "v")),
                  proc("B", ("w", "tick", "x")))
    lts = product(net)
    assert len(lts.states) == 4
    labels = {t.label.text for t in lts.transitions}
    assert labels == {"step|time:5", "tick"}


def test_unshared_channel_is_local():
    net = compose(proc("A", ("u", "a!", "v")), proc("B", ("w", "b?", "x")))
    steps = enabled(net, initial_state(net))
    assert [s.kind for s in steps] == [Local("A", "a!"), Local("B", "b?")]
    assert len(product(net).states) == 4


# ---- synchronous rendezvous ----

def test_rendezvous_steps_together():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    lts = product(net)
    assert set(lts.states) == {"A:u,B:w", "A:v,B:x"}
    (t,) = lts.transitions
    assert t.label.text == "c#A>B"


def test_lone_offer_blocks():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c!", "x")))
    assert enabled(net, initial_state(net)) == []
    assert len(product(net).states) == 1


def test_all_simultaneous_pairs_are_offered():
    net = compose(proc("A", ("u", "c!", "v")),
                  proc("B", ("w", "c?", "x")),
                  proc("C", ("y", "c?", "z")))
    steps = enabled(net, initial_state(net))
    assert {s.kind for s in steps} == {Handshake("c", "A", "B"),
                                       Handshake("c", "A", "C")}


def test_no_self_synchronization():
    net = compose(proc("A", ("u", "c!", "v"), ("u", "c?", "w")),
                  proc("B", ("x", "c?", "y")))
    steps = enabled(net, initial_state(net))
    assert [s.kind for s in steps] == [Handshake("c", "A", "B")]


def test_handshake_consumes_both_offers():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    lts = product(net)
    terminal = [s for s in lts.states if not lts.outgoing(s)]
    assert terminal == ["A:v,B:x"]


# ---- asynchronous buffers ----

def _async_pair(cap=1):
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    return with_channel_modes(net, {"c": async_mode(cap)})


def test_async_send_then_receive():
    net = _async_pair()
    lts = product(net)
    assert set(lts.states) == {"A:u,B:w;c=", "A:v,B:w;c=A", "A:v,B:x;c="}
    texts = {(t.source, t.label.text, t.target) for t in lts.transitions}
    assert ("A:u,B:w;c=", "c!@A", "A:v,B:w;c=A") in texts
    assert ("A:v,B:w;c=A", "c?@B", "A:v,B:x;c=") in texts


def test_empty_buffer_receive_is_disabled():
    net = _async_pair()
    steps = enabled(net, initial_state(net))
    assert [s.kind for s in steps] == [AsyncSend("c", "A")]


def test_full_buffer_send_is_disabled():
    net = with_channel_modes(
        compose(proc("A", ("u", "c!", "u")), proc("B", ("w", "c?", "w"))),
        {"c": async_mode(2)})
    lts = product(net)
    # locals never move, only the buffer level does: 0, 1, 2 tokens
    assert len(lts.states) == 3
    assert len(lts.transitions) == 4
    full = "A:u,B:w;c=A.A"
    assert [t.label.text for t in lts.outgoing(full)] == ["c?@B"]


def test_buffer_records_sender_order():
    net = with_channel_modes(
        compose(proc("A", ("u", "c!", "u")),
                proc("B", ("w", "c!", "w")),
                proc("R", ("r", "c?", "r"))),
        {"c": async_mode(2)})
    lts = product(net)
    assert "A:u,B:w,R:r;c=A.B" in lts.states
    assert "A:u,B:w,R:r;c=B.A" in lts.states


def test_unshared_async_channel_stays_local():
    net = with_channel_modes(compose(proc("A", ("u", "c!", "v")),
                                     proc("B", ("w", "d?", "x"))),
                             {"c": async_mode(1), "d": async_mode(1)})
    assert tracked_buffers(net) == []
    steps = enabled(net, initial_state(net))
    assert [s.kind for s in steps] == [Local("A", "c!"), Local("B", "d?")]


# ---- state and step plumbing ----

def test_global_state_accessors():
    g = GlobalState((("A", "u"),), (("c", ("A",)),))
    assert g.local_of("A") == "u"
    assert g.buffer_of("c") == ("A",)
    assert g.text == "A:u;c=A"
    with pytest.raises(SemanticsError):
        g.local_of("B")
    with pytest.raises(SemanticsError):
        g.buffer_of("d")
    quoted = GlobalState((("A", "a%2C,b;c"), ("B", "d")), (("c", ("A", "B")),))
    assert quoted.text == "A:a%252C%2Cb%3Bc,B:d;c=A.B"


def test_enabled_rejects_foreign_states():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    other = compose(proc("A", ("z", "c!", "z")), proc("B", ("w", "c?", "x")))
    with pytest.raises(SemanticsError):
        enabled(net, initial_state(other))
    pair = _async_pair()
    locals_ = initial_state(pair).locals
    with pytest.raises(SemanticsError, match="'Z', which is no component"):
        enabled(pair, GlobalState(locals_, (("c", ("Z",)),)))
    with pytest.raises(SemanticsError, match="does not match the net's comp"):
        enabled(pair, GlobalState(locals_[:1], (("c", ()),)))
    with pytest.raises(SemanticsError, match="tracks the wrong buffer set"):
        enabled(pair, GlobalState(locals_, (("d", ()),)))
    with pytest.raises(SemanticsError, match="buffer of c exceeds capacity 1"):
        enabled(pair, GlobalState(locals_, (("c", ("A", "A")),)))


def test_local_label_keeps_facets_verbatim():
    net = compose(proc("A", ("u", "a!|guard:x>0|data:v", "v")),
                  proc("B", ("w", "tick", "w")))
    steps = enabled(net, initial_state(net))
    local_a = [s for s in steps if s.kind == Local("A", "a!|guard:x>0|data:v")]
    assert local_a and local_a[0].label == parse_label("a!|guard:x>0|data:v")


def test_enabled_is_canonically_sorted():
    rng = random.Random(3)
    for _ in range(40):
        net = random_net(rng)
        for g, steps in explore(net, bound=200)[1].items():
            assert steps == sorted(steps, key=step_sort_key)
            assert len(set(steps)) == len(steps)


# ---- canonical tie-breaks: equal kinds order by target text ----
# "+" sorts below both "," and ";", so "a+" targets come before "a" ones
# although "a" < "a+" as names.

def test_nondeterministic_local_steps_order_by_target_text():
    net = compose(proc("A", ("u", "step", "a"), ("u", "step", "a+")),
                  proc("B", ("w", "tick", "w")))
    steps = enabled(net, initial_state(net))
    assert [(s.kind, s.target.text) for s in steps] == [
        (Local("A", "step"), "A:a+,B:w"), (Local("A", "step"), "A:a,B:w"),
        (Local("B", "tick"), "A:u,B:w")]


def test_nondeterministic_handshake_orders_by_target_text():
    net = compose(proc("A", ("u", "c!", "a"), ("u", "c!", "a+")),
                  proc("B", ("w", "c?", "b"), ("w", "c?", "b+")),
                  proc("C", ("z", "c?", "z")))
    steps = enabled(net, initial_state(net))
    assert [(s.kind, s.target.text) for s in steps] == [
        (Handshake("c", "A", "B"), "A:a+,B:b+,C:z"),
        (Handshake("c", "A", "B"), "A:a+,B:b,C:z"),
        (Handshake("c", "A", "B"), "A:a,B:b+,C:z"),
        (Handshake("c", "A", "B"), "A:a,B:b,C:z"),
        (Handshake("c", "A", "C"), "A:a+,B:w,C:z"),
        (Handshake("c", "A", "C"), "A:a,B:w,C:z")]


def test_nondeterministic_async_steps_order_by_target_text():
    net = with_channel_modes(
        compose(proc("A", ("u", "c!", "a"), ("u", "c!|guard:g", "a+")),
                proc("B", ("w", "c?", "b"), ("w", "c?", "b+"))),
        {"c": async_mode(2)})
    g = GlobalState((("A", "u"), ("B", "w")), (("c", ("A",)),))
    steps = enabled(net, g)
    assert [(s.kind, s.target.text) for s in steps] == [
        (AsyncReceive("c", "B"), "A:u,B:b+;c="),
        (AsyncReceive("c", "B"), "A:u,B:b;c="),
        (AsyncSend("c", "A"), "A:a+,B:w;c=A.A"),
        (AsyncSend("c", "A"), "A:a,B:w;c=A.A")]


# ---- explore and bounds ----

def test_explore_bound_is_enforced():
    net = with_channel_modes(
        compose(proc("A", ("u", "c!", "u")), proc("B", ("w", "c?", "w"))),
        {"c": async_mode(2)})
    with pytest.raises(StateBoundExceeded) as exc:
        explore(net, bound=2)
    assert exc.value.bound == 2
    states, _ = explore(net, bound=3)
    assert len(states) == 3


def test_explore_discovery_order_starts_at_initial():
    net = compose(proc("A", ("u", "step", "v")), proc("B", ("w", "tick", "x")))
    states, steps = explore(net)
    assert states[0] == initial_state(net)
    assert set(steps) == set(states)


# ---- agreement with the brute-force oracle ----

def test_reachable_sets_match_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        net = random_net(rng)
        states, _ = explore(net)
        ours = {(g.locals, g.buffers) for g in states}
        assert ours == bruteforce.reachable_nodes(net)


def test_successors_match_bruteforce_pointwise():
    rng = random.Random(12)
    for _ in range(40):
        net = random_net(rng)
        states, steps = explore(net)
        for g in states:
            ours = sorted((t.target.locals, t.target.buffers)
                          for t in steps[g])
            theirs = sorted(bruteforce.node_edges(net, (g.locals, g.buffers)))
            assert ours == theirs


# ---- traces ----

def test_traces_basics():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    assert traces(net, 0) == {()}
    assert traces(net, 3) == {(), ("c#A>B",)}


def test_traces_grow_with_k():
    net = compose(proc("A", ("u", "step", "v"), ("v", "step", "u")),
                  proc("B", ("w", "tick", "w")))
    for k in range(4):
        assert traces(net, k) <= traces(net, k + 1)
        assert max(map(len, traces(net, k))) == k


def test_traces_of_a_long_chain():
    chain = [(f"s{i}", "step", f"s{i + 1}") for i in range(5000)]
    seqs = traces(compose(proc("A", *chain)), 5000)
    assert len(seqs) == 5001
    assert ("step",) * 5000 in seqs


def test_traces_equal_matches_literal_traces():
    rng = random.Random(13)
    for _ in range(60):
        a, b = random_net(rng), random_net(rng)
        want = traces(a, 3) == traces(b, 3)
        assert traces_equal(a, b, 3) == want


def test_traces_equal_reflexive_and_detects_depth():
    a = compose(proc("A", ("u", "step", "v")), proc("B", ("w", "tick", "x")))
    b = compose(proc("A", ("u", "step", "v")),
                proc("B", ("w", "tick", "x"), ("x", "tock", "w")))
    assert traces_equal(a, a, 10)
    assert traces_equal(a, b, 1)       # tock only shows up at depth 2
    assert not traces_equal(a, b, 2)


def test_traces_equal_with_two_states_of_one_name():
    # A:x with B:"y,B:z" and A:"x,B:y" with B:z, which would both be
    # "A:x,B:y,B:z" unquoted; the walk reads positions, not names
    net = compose(proc("A", ("u", "step", "x,B:y"), ("u", "go", "x")),
                  proc("B", ("z", "tick", "y,B:z")))
    plain = compose(proc("A", ("u", "step", "x_B_y"), ("u", "go", "x")),
                    proc("B", ("z", "tick", "y_B_z")))
    assert len(traces(net, 3)) == 8
    assert traces(net, 3) == traces(plain, 3)
    assert traces_equal(net, net, 3)
    assert traces_equal(net, plain, 3) and traces_equal(plain, net, 3)


def test_idle_component_preserves_traces():
    rng = random.Random(14)
    idle = Process("zidle", Lts(["z0"], "z0", []))
    for _ in range(25):
        net = random_net(rng)
        extended = compose(net, idle)
        assert len(product(extended).states) == len(product(net).states)
        assert traces_equal(net, extended, 4)


def test_product_names_states_apart_by_quoting_separators():
    # A:x with B:"y,B:z" and A:"x,B:y" with B:z would both read
    # "A:x,B:y,B:z" unquoted
    net = compose(proc("A", ("u", "step", "x,B:y"), ("u", "go", "x")),
                  proc("B", ("z", "tick", "y,B:z")))
    states, _ = explore(net)
    lts = product(net)
    assert len(states) == len(lts.states) == 6
    assert sorted(g.text for g in states) == sorted(lts.states) == [
        "A:u,B:y%2CB:z", "A:u,B:z", "A:x%2CB:y,B:y%2CB:z", "A:x%2CB:y,B:z",
        "A:x,B:y%2CB:z", "A:x,B:z"]
