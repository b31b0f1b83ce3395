"""Core model tests: labels, the label grammar, Lts operations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcomp import (ChannelAction, Direction, HetcompError, Label, Lts,
                     ParseError, Transition, channels_of, filter_facet,
                     isomorphic, parse_label, rename_channel)
from gen import random_lts

channels = st.sampled_from(["a", "b", "c", "open", "close", "nc"])
payloads = st.text(alphabet="abcxyz<>=+ \"\\:;.", max_size=8)
facet_names = st.sampled_from(["guard", "time", "data", "other"])


@st.composite
def labels(draw):
    roll = draw(st.integers(0, 2))
    chan = draw(channels)
    if roll == 0:
        comm = ChannelAction(chan, Direction.SEND)
    elif roll == 1:
        comm = ChannelAction(chan, Direction.RECEIVE)
    else:
        comm = ChannelAction(draw(st.sampled_from(["step", "tick", "go"])),
                             Direction.INTERNAL)
    names = draw(st.lists(facet_names, unique=True, max_size=3))
    facets = tuple((n, draw(payloads)) for n in names)
    return Label(comm, facets)


@st.composite
def ltses(draw, max_states=6, facets=True):
    n = draw(st.integers(1, max_states))
    states = [f"s{i}" for i in range(n)]
    k = draw(st.integers(0, 2 * n))
    transitions = [
        Transition(draw(st.sampled_from(states)), draw(labels()),
                   draw(st.sampled_from(states)))
        for _ in range(k)
    ]
    return Lts(states, "s0", transitions)


# ---- label grammar ----

def test_direction_classification():
    assert parse_label("c!").comm == ChannelAction("c", Direction.SEND)
    assert parse_label("c?").comm == ChannelAction("c", Direction.RECEIVE)
    assert parse_label("c").comm == ChannelAction("c", Direction.INTERNAL)


def test_facets_parse_in_order():
    label = parse_label("open!|time:t<5|guard:x>0")
    assert label.comm.text == "open!"
    assert label.facets == (("time", "t<5"), ("guard", "x>0"))


def test_unnamed_facet_goes_to_other():
    label = parse_label("c?|whatever text")
    assert label.facets == (("other", "whatever text"),)
    # unknown name:payload is kept whole under other as well
    assert parse_label("c?|speed:11").facets == (("other", "speed:11"),)


def test_duplicate_facet_names_merge_with_semicolon():
    label = parse_label("c!|guard:a|guard:b")
    assert label.facets == (("guard", "a;b"),)
    assert parse_label(label.text) == label


def test_empty_comm_or_facet_segment_rejected():
    with pytest.raises(ParseError):
        parse_label("")
    with pytest.raises(ParseError):
        parse_label("c!|")
    with pytest.raises(ParseError):
        parse_label("not a token!")


def test_internal_name_restrictions():
    with pytest.raises(HetcompError):
        ChannelAction("bad!", Direction.INTERNAL)
    with pytest.raises(HetcompError):
        ChannelAction("a|b", Direction.INTERNAL)
    with pytest.raises(HetcompError):
        ChannelAction("has space", Direction.INTERNAL)
    # but product-style names are fine
    assert ChannelAction("c#P1>P2", Direction.INTERNAL).text == "c#P1>P2"


def test_label_validation():
    with pytest.raises(HetcompError):
        Label(ChannelAction("c", Direction.SEND), (("speed", "1"),))
    with pytest.raises(HetcompError):
        Label(ChannelAction("c", Direction.SEND), (("guard", "a|b"),))
    with pytest.raises(HetcompError):
        Label(ChannelAction("c", Direction.SEND),
              (("guard", "1"), ("guard", "2")))


@given(labels())
def test_label_text_roundtrip(label):
    assert parse_label(label.text) == label


# ---- Lts construction ----

def test_lts_validates_initial_and_endpoints():
    with pytest.raises(HetcompError):
        Lts(["a"], "b", [])
    with pytest.raises(HetcompError):
        Lts(["a"], "a", [Transition("a", Label.internal(), "b")])


def test_transitions_are_a_set():
    t = Transition("a", Label.send("c"), "b")
    lts = Lts(["a", "b"], "a", [t, t])
    assert len(lts.transitions) == 1


# ---- channels_of ----

def test_channels_of_collector_shape():
    # same label multiset as the data-collector model
    labels_ = ["connection!", "KO?", "OK?", "ready!", "stop?",
               "readState!", "getState?"]
    transitions = [Transition("s0", parse_label(text), "s0")
                   for text in labels_]
    lts = Lts(["s0"], "s0", transitions)
    assert channels_of(lts) == {"connection", "KO", "OK", "ready", "stop",
                                "readState", "getState"}


def test_channels_of_trivial_cases():
    assert channels_of(Lts(["s"], "s", [])) == set()
    only_internal = Lts(["s"], "s", [Transition("s", parse_label("step"), "s")])
    assert channels_of(only_internal) == set()


# ---- filter_facet ----

def test_filter_keeps_comm_always():
    lts = Lts(["a", "b"], "a",
              [Transition("a", parse_label("open!|time:t<5|guard:x>0"), "b")])
    out = filter_facet(lts, set())
    (t,) = out.transitions
    assert t.label.text == "open!"


def test_filter_identity_when_keeping_all():
    lts = Lts(["a", "b"], "a",
              [Transition("a", parse_label("open!|time:t<5"), "b")])
    assert filter_facet(lts, {"guard", "time", "data", "other"}) == lts


def test_filter_merges_transitions_that_collapse():
    # two parallel edges differing only in the dropped facet
    lts = Lts(["a", "b"], "a", [
        Transition("a", parse_label("c!|time:1"), "b"),
        Transition("a", parse_label("c!|time:2"), "b"),
    ])
    assert len(lts.transitions) == 2
    out = filter_facet(lts, set())
    assert len(out.transitions) == 1
    assert sorted(t.label.text for t in out.transitions) == ["c!"]


@given(ltses())
def test_filter_matches_pointwise_projection(lts):
    out = filter_facet(lts, {"guard"})
    assert out.states == lts.states and out.initial == lts.initial
    expected = {
        Transition(t.source,
                   Label(t.label.comm,
                         tuple(f for f in t.label.facets if f[0] == "guard")),
                   t.target)
        for t in lts.transitions
    }
    assert out.transitions == frozenset(expected)


# ---- rename_channel ----

def test_rename_hits_exactly_the_named_channel():
    lts = Lts(["a", "b"], "a", [
        Transition("a", parse_label("connection!"), "b"),
        Transition("b", parse_label("KO?"), "a"),
    ])
    out = rename_channel(lts, "connection", "connect")
    assert sorted(t.label.text for t in out.transitions) == ["KO?", "connect!"]


def test_rename_identity_and_noop():
    lts = Lts(["a"], "a", [Transition("a", parse_label("c!"), "a")])
    assert rename_channel(lts, "c", "c") == lts
    assert rename_channel(lts, "absent", "d") == lts


@given(ltses(facets=False))
def test_rename_roundtrip_through_fresh_name(lts):
    # zz is never generated, so renaming there and back restores the model
    assert rename_channel(rename_channel(lts, "a", "zz"), "zz", "a") == lts


@given(ltses())
def test_rename_never_grows_the_transition_set(lts):
    out = rename_channel(lts, "a", "b")
    assert len(out.transitions) <= len(lts.transitions)
    assert out.states == lts.states


@given(ltses())
def test_rename_channel_set_law(lts):
    if "a" in channels_of(lts) and "zz" not in channels_of(lts):
        out = rename_channel(lts, "a", "zz")
        assert channels_of(out) == (channels_of(lts) - {"a"}) | {"zz"}


# ---- isomorphism ----

def _mapped(lts, mapping):
    return Lts([mapping[s] for s in lts.states], mapping[lts.initial],
               [Transition(mapping[t.source], t.label, mapping[t.target])
                for t in lts.transitions])


@given(ltses())
@settings(max_examples=60)
def test_isomorphic_to_renamed_self(lts):
    mapping = {s: f"q_{s}" for s in lts.states}
    assert isomorphic(lts, _mapped(lts, mapping))


def test_isomorphic_negative_cases():
    a = Lts(["a", "b"], "a", [Transition("a", parse_label("x!"), "b")])
    b = Lts(["a", "b"], "a", [Transition("a", parse_label("y!"), "b")])
    assert not isomorphic(a, b)
    c = Lts(["a", "b"], "b", [Transition("a", parse_label("x!"), "b")])
    assert not isomorphic(a, c)  # initial state position differs
    d = Lts(["a", "b", "c"], "a", [Transition("a", parse_label("x!"), "b")])
    assert not isomorphic(a, d)


def test_isomorphic_needs_consistent_structure():
    # same label multiset, different wiring
    a = Lts(["1", "2", "3"], "1", [
        Transition("1", parse_label("x!"), "2"),
        Transition("2", parse_label("x!"), "3"),
    ])
    b = Lts(["1", "2", "3"], "1", [
        Transition("1", parse_label("x!"), "2"),
        Transition("1", parse_label("x!"), "3"),
    ])
    assert not isomorphic(a, b)


def test_sorted_transitions_are_canonical():
    lts = Lts(["b", "a"], "a", [
        Transition("b", parse_label("x!"), "a"),
        Transition("a", parse_label("x!"), "b"),
        Transition("a", parse_label("a?"), "a"),
    ])
    triple = [(t.source, t.label.text, t.target)
              for t in lts.sorted_transitions()]
    assert triple == sorted(triple)


def test_outgoing_matches_a_sorted_scan():
    rng = random.Random(11)
    dead_ends = 0
    for _ in range(300):
        lts = random_lts(rng, ["a", "b"], max_states=5, facets=True)
        for s in sorted(lts.states) + ["not_a_state"]:
            scan = sorted((t for t in lts.transitions if t.source == s),
                          key=lambda t: (t.source, t.label.text, t.target))
            assert list(lts.outgoing(s)) == scan
            dead_ends += s in lts.states and not scan
    assert dead_ends > 0


def test_outgoing_leaves_equality_and_hash_alone():
    rng = random.Random(12)
    for _ in range(50):
        lts = random_lts(rng, ["a", "b"], max_states=5, facets=True)
        fresh = Lts(lts.states, lts.initial, lts.transitions)
        lts.outgoing(lts.initial)
        assert lts == fresh
        assert hash(lts) == hash(fresh)
        assert repr(lts) == repr(fresh)
