"""Core model tests: labels, the label grammar, Lts operations."""

import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

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


def test_channel_name_must_be_token():
    for direction in (Direction.SEND, Direction.RECEIVE):
        with pytest.raises(HetcompError, match="invalid channel name 'a b'"):
            ChannelAction("a b", direction)


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


@given(ltses())
def test_rename_matches_pointwise_relabelling(lts):
    out = rename_channel(lts, "a", "zz")
    assert out.states == lts.states and out.initial == lts.initial
    expected = {
        Transition(t.source,
                   Label(ChannelAction("zz", t.label.comm.direction),
                         t.label.facets)
                   if t.label.comm.channel == "a" else t.label,
                   t.target)
        for t in lts.transitions
    }
    assert out.transitions == frozenset(expected)


def test_filter_and_rename_rebuild_only_what_changes():
    guard = parse_label("c!|guard:x>0")
    both = parse_label("c!|guard:x>0|time:t<5")
    other = parse_label("d?")
    ts = [Transition("a", guard, "b"), Transition("b", both, "a"),
          Transition("a", both, "a"), Transition("b", other, "b")]
    lts = Lts(["a", "b"], "a", ts)

    out = {t.source + t.target: t for t in filter_facet(lts, {"guard"}).transitions}
    assert out["ab"] is ts[0] and out["bb"] is ts[3]
    # one new label for the two transitions that lose a facet
    assert out["ba"].label is out["aa"].label == guard

    out = {t.source + t.target: t
           for t in rename_channel(lts, "c", "e").transitions}
    assert out["bb"] is ts[3]
    assert out["ba"].label is out["aa"].label == parse_label("e!|guard:x>0|time:t<5")
    assert out["ab"].label == parse_label("e!|guard:x>0")


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


def _chain(n, labels, names):
    return Lts(names, names[0], [Transition(names[i], labels[i], names[i + 1])
                                 for i in range(n - 1)])


def test_isomorphic_on_long_chains_with_distinct_labels():
    n = 3000
    labels = [Label.internal(f"a{i}") for i in range(n - 1)]
    names = [f"s{i}" for i in range(n)]
    a = _chain(n, labels, names)
    shuffled = names[:]
    random.Random(13).shuffle(shuffled)
    assert isomorphic(a, _chain(n, labels, shuffled))
    relabelled = labels[:]
    relabelled[1500] = Label.internal("b")
    assert not isomorphic(a, _chain(n, relabelled, shuffled))
    # the same label multiset, so only the colouring can tell
    swapped = labels[:]
    swapped[1000], swapped[2000] = swapped[2000], swapped[1000]
    assert not isomorphic(a, _chain(n, swapped, shuffled))


def _isomorphic_by_brute_force(a, b):
    if len(a.states) != len(b.states):
        return False
    names = sorted(a.states)
    want = {(t.source, t.label, t.target) for t in b.transitions}
    for image in itertools.permutations(sorted(b.states)):
        m = dict(zip(names, image))
        if m[a.initial] == b.initial and want == {
                (m[t.source], t.label, m[t.target]) for t in a.transitions}:
            return True
    return False


def test_isomorphic_agrees_with_brute_force_on_symmetric_ltses():
    # few labels and permuted copies with one edge retargeted half the
    # time: colouring leaves ties, so the search has to backtrack
    rng = random.Random(14)
    labels = [Label.internal("x"), Label.internal("y")]
    verdicts = set()
    for _ in range(400):
        n = rng.randint(2, 6)
        names = [f"s{i}" for i in range(n)]
        a = Lts(names, "s0", {Transition(rng.choice(names),
                                         rng.choice(labels),
                                         rng.choice(names))
                              for _ in range(rng.randint(n, 2 * n))})
        image = names[:]
        rng.shuffle(image)
        m = dict(zip(names, image))
        moved = [Transition(m[t.source], t.label, m[t.target])
                 for t in a.transitions]
        if rng.random() < 0.5:
            i = rng.randrange(len(moved))
            moved[i] = Transition(moved[i].source, moved[i].label,
                                  rng.choice(image))
        b = Lts(image, m["s0"], moved)
        verdict = isomorphic(a, b)
        assert verdict == _isomorphic_by_brute_force(a, b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_isomorphic_backtracks_over_copies_of_one_cycle():
    # an initial state enters 2-3 equal cycles with one label; colouring
    # cannot tell the copies apart, and shuffled names make the search
    # place states of different copies next to each other
    rng = random.Random(15)
    x = Label.internal("x")
    for _ in range(60):
        copies, length = rng.randint(2, 3), rng.randint(2, 4)
        names = ["i"] + [f"c{j}_{k}" for j in range(copies)
                         for k in range(length)]
        edges = [("i", f"c{j}_0") for j in range(copies)] + [
            (f"c{j}_{k}", f"c{j}_{(k + 1) % length}")
            for j in range(copies) for k in range(length)]
        sides = []
        for _ in range(2):
            image = names[:]
            rng.shuffle(image)
            m = dict(zip(names, image))
            sides.append(Lts(image, m["i"], [Transition(m[s], x, m[t])
                                              for s, t in edges]))
        assert isomorphic(*sides)


# ---- the value contract: text and hash computed once ----

@given(labels())
@settings(max_examples=100)
def test_label_hash_and_text_match_the_fields(label):
    assert hash(label) == hash((label.comm, label.facets))
    comm = label.comm
    assert hash(comm) == hash((comm.channel, comm.direction))
    assert comm.text == comm.channel + comm.direction.value
    assert label.text == "|".join(
        [comm.text] + [f"{name}:{payload}" for name, payload in label.facets])
    t = Transition("s", label, "t")
    assert hash(t) == hash(("s", label, "t"))


def test_label_fields_repr_and_eq_are_the_fields_only():
    assert [f.name for f in dataclasses.fields(ChannelAction)] == [
        "channel", "direction"]
    assert [f.name for f in dataclasses.fields(Label)] == ["comm", "facets"]
    assert [f.name for f in dataclasses.fields(Transition)] == [
        "source", "label", "target"]
    assert [f.name for f in dataclasses.fields(Lts)] == [
        "states", "initial", "transitions"]
    label = Label.send("a", [("guard", "x>0")])
    assert repr(label) == ("Label(comm=ChannelAction(channel='a', "
                           "direction=<Direction.SEND: '!'>), "
                           "facets=(('guard', 'x>0'),))")
    assert dataclasses.asdict(label) == {
        "comm": {"channel": "a", "direction": Direction.SEND},
        "facets": (("guard", "x>0"),)}
    again = parse_label("a!|guard:x>0")
    assert again == label and again is not label
    assert label != Label.receive("a", [("guard", "x>0")])
    assert label != Label.send("a")
    for copy_ in (copy.copy(label), copy.deepcopy(label),
                  dataclasses.replace(label)):
        assert copy_ == label
        assert (copy_.text, hash(copy_)) == (label.text, hash(label))
    moved = dataclasses.replace(label, comm=ChannelAction("b", Direction.SEND))
    assert (moved.text, hash(moved)) == (
        "b!|guard:x>0", hash((moved.comm, moved.facets)))


def test_sorted_transitions_is_a_fresh_list_each_call():
    lts = Lts(["a", "b"], "a", [Transition("a", parse_label("x!"), "b"),
                                Transition("b", parse_label("y?"), "a")])
    first = lts.sorted_transitions()
    assert isinstance(first, list)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert lts.sorted_transitions() == expected
    assert lts.sorted_transitions() is not lts.sorted_transitions()
    assert lts.outgoing("a") == (expected[0],)
    assert lts == Lts(["a", "b"], "a", expected)


_PICKLE_LABEL = ("import pickle, sys; from hetcomp import Label; "
                 "sys.stdout.write(pickle.dumps(Label.send("
                 "'chan', [('guard', 'x>0'), ('data', 'v')])).hex())")
_LOAD_LABEL = ("import pickle, sys; from hetcomp import Label; "
               "label = pickle.loads(bytes.fromhex(sys.stdin.read())); "
               "fresh = Label.send('chan', [('guard', 'x>0'), ('data', 'v')]); "
               "assert label in {fresh}, 'not found'; "
               "assert hash(label) == hash(fresh); "
               "assert hash(label.comm) == hash(fresh.comm); "
               "assert label.text == fresh.text == 'chan!|guard:x>0|data:v'")


def test_pickled_label_rehashes_under_another_hash_seed():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1"
    dumped = subprocess.run([sys.executable, "-c", _PICKLE_LABEL], env=env,
                            capture_output=True, text=True, check=True).stdout
    env["PYTHONHASHSEED"] = "2"
    loaded = subprocess.run([sys.executable, "-c", _LOAD_LABEL], env=env,
                            input=dumped, capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr


# ---- Transition: a slotted frozen value ----

def test_transition_is_slotted_frozen_and_keeps_its_value_contract():
    label = Label.send("a", [("guard", "x>0")])
    t = Transition("s", label, "t")
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.source = "u"
    assert t.source == "s"
    assert repr(t) == (
        "Transition(source='s', label=Label(comm=ChannelAction(channel='a', "
        "direction=<Direction.SEND: '!'>), facets=(('guard', 'x>0'),)), "
        "target='t')")
    assert t == Transition("s", parse_label("a!|guard:x>0"), "t")
    assert t != Transition("s", label, "u")
    assert hash(t) == hash(("s", label, "t"))
    for copy_ in (copy.copy(t), copy.deepcopy(t), dataclasses.replace(t),
                  pickle.loads(pickle.dumps(t))):
        assert copy_ == t and hash(copy_) == hash(t)
    assert dataclasses.replace(t, target="u") == Transition("s", label, "u")


_PICKLE_TRANSITIONS = (
    "import pickle, sys; from hetcomp import Label, Transition; "
    "sys.stdout.write(pickle.dumps(frozenset({Transition('s', Label.send("
    "'chan', [('guard', 'x>0')]), 't'), Transition('t', Label.internal("
    "'tau'), 's')})).hex())")
_LOAD_TRANSITIONS = (
    "import pickle, sys; from hetcomp import Label, Transition; "
    "loaded = pickle.loads(bytes.fromhex(sys.stdin.read())); "
    "fresh = Transition('s', Label.send('chan', [('guard', 'x>0')]), 't'); "
    "assert fresh in loaded, 'not found'; "
    "assert Transition('t', Label.internal('tau'), 's') in loaded; "
    "assert hash(next(t for t in loaded if t.source == 's')) == hash(fresh)")


def test_pickled_transitions_rehash_under_another_hash_seed():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1"
    dumped = subprocess.run([sys.executable, "-c", _PICKLE_TRANSITIONS],
                            env=env, capture_output=True, text=True,
                            check=True).stdout
    env["PYTHONHASHSEED"] = "2"
    loaded = subprocess.run([sys.executable, "-c", _LOAD_TRANSITIONS],
                            env=env, input=dumped, capture_output=True,
                            text=True)
    assert loaded.returncode == 0, loaded.stderr
