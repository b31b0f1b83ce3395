"""Net-level operator tests: compose, select, rename, replace, remove."""

import random

import pytest

from hetcomp import (AlgebraError, ChannelMode, Label, Lts, Process,
                     SystemNet, Transition, async_mode, channels_of, compose,
                     extract_chan, parse_dot, remove, rename, replace, select,
                     shared_channels, with_channel_modes, SYNC)
from gen import random_net, random_process


def proc(name, *labels, states=("u", "v")):
    # two-state body with one edge per action text
    transitions = []
    for text in labels:
        if text.endswith("!"):
            lab = Label.send(text[:-1])
        elif text.endswith("?"):
            lab = Label.receive(text[:-1])
        else:
            lab = Label.internal(text)
        transitions.append(Transition(states[0], lab, states[1]))
    return Process(name, Lts(states, states[0], transitions))


# ---- Process and modes ----

def test_interface_defaults_to_used_channels():
    p = proc("P", "b!", "a?", "step")
    assert p.interface == ("a", "b")
    assert extract_chan(p) == ["a", "b"]


def test_explicit_interface_may_widen_but_not_miss():
    body = proc("P", "a!").body
    p = Process("P", body, ["a", "c"])
    assert p.interface == ("a", "c")
    assert extract_chan(p) == ["a"]
    with pytest.raises(AlgebraError):
        Process("P", body, ["c"])
    with pytest.raises(AlgebraError, match="invalid channel name 'no good' "
                                           "in the interface of P"):
        Process("P", body, ["a", "no good"])


def test_interface_deduplicates_in_order():
    p = Process("P", proc("P", "a!").body, ["b", "a", "b"])
    assert p.interface == ("b", "a")


def test_process_name_must_be_token():
    with pytest.raises(AlgebraError):
        Process("no good", proc("P").body)


def test_channel_mode_validation():
    assert SYNC.kind == "sync"
    assert async_mode(2).capacity == 2
    with pytest.raises(AlgebraError):
        async_mode(0)
    with pytest.raises(AlgebraError):
        ChannelMode("weird")
    with pytest.raises(AlgebraError, match="sync channels take no capacity"):
        ChannelMode("sync", 2)


# ---- data-collector interfaces ----

def test_collector_interfaces_through_rename(corpus_dir):
    dc = Process("dtctrl",
                 parse_dot((corpus_dir / "dataCollector.dot").read_text()))
    assert extract_chan(dc) == ["KO", "OK", "connection", "getState",
                                "readState", "ready", "stop"]
    dt1 = rename(rename(dc, "connection", "connect"),
                 "readState", "sendState")
    assert extract_chan(dt1) == ["KO", "OK", "connect", "getState",
                                 "ready", "sendState", "stop"]
    spv = Process("spv", parse_dot((corpus_dir / "spv.dot").read_text()))
    rpt = Process("rpt1", parse_dot((corpus_dir / "rpt1.dot").read_text()))
    sys_net = compose(dt1, spv, rpt)
    assert sys_net.instance_names() == ["dtctrl", "rpt1", "spv"]
    assert shared_channels(sys_net) == {
        "KO", "OK", "connect", "getState", "ready", "sendState", "stop",
        "rconnect", "rdata",
    }


# ---- compose ----

def test_compose_flattens_nested_nets():
    a, b, c = proc("A", "x!"), proc("B", "x?"), proc("C", "y!")
    assert compose(compose(a, b), c) == compose(a, b, c)
    assert compose(a, compose(b, c)) == compose(a, b, c)


def test_compose_clash_suffixes():
    p = proc("P", "a!")
    net = compose(p, p, p)
    assert net.instance_names() == ["P", "P_2", "P_3"]
    assert all(q == p for _, q in net.components)


def test_compose_suffix_skips_taken_names():
    p = proc("P", "a!")
    p2 = proc("P_2", "a?")
    net = compose(p, p2, p)
    assert net.instance_names() == ["P", "P_2", "P_3"]
    assert net.get("P_3") == p
    net = compose(p, p2, p, p)
    assert net.instance_names() == ["P", "P_2", "P_3", "P_4"]
    assert net.get("P_2") == p2 and net.get("P_4") == p


def test_compose_merges_and_checks_modes():
    a, b = proc("A", "c!"), proc("B", "c?")
    n1 = with_channel_modes(compose(a), {"c": async_mode(1)})
    n2 = with_channel_modes(compose(b), {"c": async_mode(1)})
    merged = compose(n1, n2)
    assert merged.mode_of("c") == async_mode(1)
    n3 = with_channel_modes(compose(b), {"c": async_mode(2)})
    with pytest.raises(AlgebraError):
        compose(n1, n3)


def test_compose_requires_parts():
    with pytest.raises(AlgebraError):
        compose()
    with pytest.raises(AlgebraError,
                       match="compose takes processes and nets, not int"):
        compose(proc("P"), 1)


def test_mode_of_defaults_to_sync():
    net = compose(proc("A", "c!"), proc("B", "c?"))
    assert net.mode_of("c") == SYNC
    assert with_channel_modes(net, {"c": async_mode(1)}).mode_of("c") \
        == async_mode(1)


def test_duplicate_instance_names_rejected():
    p = proc("P", "a!")
    with pytest.raises(AlgebraError):
        SystemNet([("P", p), ("P", p)])
    with pytest.raises(AlgebraError):
        SystemNet([])
    with pytest.raises(AlgebraError, match="invalid instance name 'no good'"):
        SystemNet([("no good", p)])


# ---- shared channels ----

def test_shared_channels_needs_two_interfaces():
    net = compose(proc("A", "a!", "b!"), proc("B", "b?", "c?"))
    assert shared_channels(net) == {"b"}
    solo = compose(proc("A", "a!"))
    assert shared_channels(solo) == set()


# ---- select / remove / rename ----

def test_select_projects_unchanged():
    a = proc("A", "x!")
    net = compose(a, proc("B", "x?"))
    assert select(net, "A") == a
    with pytest.raises(AlgebraError):
        select(net, "nope")


def test_remove_drops_one_component():
    net = compose(proc("A", "x!"), proc("B", "x?"), proc("C", "y"))
    out = remove(net, "B")
    assert out.instance_names() == ["A", "C"]
    with pytest.raises(AlgebraError):
        remove(compose(proc("A", "x!")), "A")
    with pytest.raises(AlgebraError):
        remove(net, "nope")


def test_rename_rewrites_interface_and_body():
    p = rename(proc("P", "a!", "b?"), "a", "z")
    assert p.interface == ("z", "b")
    assert channels_of(p.body) == {"z", "b"}


def test_rename_merges_interface_entries():
    p = rename(proc("P", "a!", "b?"), "a", "b")
    assert p.interface == ("b",)


def test_rename_internal_action_names_too():
    p = rename(proc("P", "step"), "step", "tick")
    assert [t.label.text for t in p.body.transitions] == ["tick"]
    assert p.interface == ()


def test_rename_noop_returns_same_process():
    p = proc("P", "a!")
    assert rename(p, "c", "d") is p
    assert rename(p, "a", "a") is p
    with pytest.raises(AlgebraError):
        rename(p, "a", "not a token")


# ---- replace ----

def test_replace_isolates_old_and_composes_new():
    net = compose(proc("P", "c!"), proc("Q", "c?"))
    out = replace(net, "P", proc("R", "c!"))
    assert out.instance_names() == ["P", "Q", "R"]
    assert select(out, "P").interface == ("__hidden_1_c",)
    assert select(out, "Q") == select(net, "Q")
    assert shared_channels(out) == {"c"}


def test_replace_without_shared_channel_rejected():
    net = compose(proc("P", "c!"), proc("Q", "c?"))
    with pytest.raises(AlgebraError):
        replace(net, "P", proc("R", "z!"))
    with pytest.raises(AlgebraError):
        replace(net, "nope", proc("R", "c!"))


def test_replace_new_name_clashing_with_instance():
    net = compose(proc("P", "c!"), proc("Q", "c?"))
    out = replace(net, "P", proc("P", "c!"))
    assert out.instance_names() == ["P", "P_2", "Q"]
    assert select(out, "P_2").interface == ("c",)
    # a net that already holds P and P_2
    again = replace(out, "Q", proc("P", "c?"))
    assert again.instance_names() == ["P", "P_2", "P_3", "Q"]
    assert select(again, "P_3") == proc("P", "c?")


def test_replace_hidden_name_collision_bumps_counter():
    body = Lts(["u", "v"], "u", [Transition("u", Label.send("c"), "v"),
                                 Transition("v", Label.send("__hidden_1_c"), "u")])
    net = compose(Process("P", body), proc("Q", "c?"))
    out = replace(net, "P", proc("R", "c!"))
    assert "__hidden_2_c" in select(out, "P").interface


def test_replace_keeps_old_unshared_channels():
    net = compose(proc("P", "c!", "priv!"), proc("Q", "c?"))
    out = replace(net, "P", proc("R", "c!"))
    assert set(select(out, "P").interface) == {"__hidden_1_c", "priv"}


def test_replace_isolation_invariant_random():
    rng = random.Random(7)
    for i in range(100):
        net = random_net(rng)
        old = rng.choice(net.instance_names())
        shared_before = shared_channels(net)
        new = random_process(rng, "New", ["a", "b"])
        if not shared_before & set(new.interface):
            continue
        out = replace(net, old, new)
        isolated = select(out, old)
        # the old instance no longer touches any channel the net shared
        assert not set(isolated.interface) & shared_before
        # everything else is untouched and new is present
        for name in net.instance_names():
            if name != old:
                assert select(out, name) == select(net, name)
        assert any(p == new for _, p in out.components)


def test_extract_chan_is_sorted_and_body_based():
    p = Process("P", proc("P", "b!", "a?").body, ["c", "b", "a"])
    assert extract_chan(p) == ["a", "b"]
