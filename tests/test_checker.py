"""Checker tests: query parsing, verdicts, witnesses, bounds."""

import random

import pytest

from hetcomp import (DEADLOCK_FREE, Label, Lts, ParseError, Process, Query,
                     QueryError, Transition, Verdict, async_mode, check,
                     compose, enabled, explore, initial_state, parse_label,
                     parse_query, reach, verdict_to_json, with_channel_modes)
import bruteforce
from gen import random_conjuncts, random_net


def proc(name, *edges):
    states = {s for e in edges for s in (e[0], e[2])} or {"s0"}
    init = edges[0][0] if edges else "s0"
    return Process(name, Lts(states, init,
                             [Transition(s, parse_label(l), t)
                              for s, l, t in edges]))


# ---- query parsing ----

def test_parse_deadlock_query():
    assert parse_query("A[] not deadlock") == DEADLOCK_FREE
    assert parse_query("  A[]   not   deadlock  ") == DEADLOCK_FREE
    assert DEADLOCK_FREE.text == "A[] not deadlock"


def test_parse_reach_query():
    q = parse_query("E<> dtctrl1.S4 and rpt1.E2")
    assert q == reach(("dtctrl1", "S4"), ("rpt1", "E2"))
    assert q.text == "E<> dtctrl1.S4 and rpt1.E2"
    assert parse_query("E<> a.s") == reach(("a", "s"))


def test_parse_reach_query_takes_any_state_name():
    # the state part is any name a model may give a state: DOT bare names
    # allow '.', quoted ones all but whitespace, '"' and '\\'; an atom
    # splits at its first '.', since the instance is a token
    for text, conjuncts in [("E<> a.s.1", [("a", "s.1")]),
                            ("E<> a.s-2", [("a", "s-2")]),
                            ("E<> a.s,x;y and b.%+!", [("a", "s,x;y"),
                                                       ("b", "%+!")])]:
        q = parse_query(text)
        assert q == reach(*conjuncts)
        assert q.text == text and parse_query(q.text) == q
    for bad in ['E<> a.s"x', "E<> a.s\\x", "E<> a-b.s", "E<> .s"]:
        with pytest.raises(ParseError):
            parse_query(bad)


def test_parse_query_errors():
    for bad in ["", "deadlock", "A[] deadlock", "E<>", "E<> a", "E<> a.",
                "E<> a.s and", "E<> a.s or b.t", "A<> not deadlock"]:
        with pytest.raises(ParseError):
            parse_query(bad)


def test_query_validation():
    with pytest.raises(QueryError):
        Query("deadlock_free", (("a", "s"),))
    with pytest.raises(QueryError):
        Query("reach", ())
    with pytest.raises(QueryError):
        reach(("a", "s"), ("a", "t"))
    with pytest.raises(QueryError):
        Query("liveness")


# ---- deadlock freedom ----

def test_self_loop_is_deadlock_free():
    net = compose(proc("A", ("s0", "step", "s0")))
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "true" and v.holds is True and v.witness is None


def test_terminal_state_is_a_deadlock():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "false" and v.holds is False
    assert [t.label.text for t in v.witness] == ["c#A>B"]


def test_deadlocked_initial_state_gives_empty_witness():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c!", "x")))
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "false" and v.witness == ()


def test_witness_is_shortest():
    # one-step path to a terminal state, plus a longer lively branch
    net = compose(proc("A", ("u", "a", "v"),
                       ("u", "b", "w"), ("w", "c", "x"), ("x", "d", "u")))
    v = check(net, DEADLOCK_FREE)
    assert v.outcome == "false"
    assert len(v.witness) == 1 and v.witness[0].label.text == "a"


# ---- reachability ----

def test_reach_initial_state_has_empty_witness():
    net = compose(proc("A", ("u", "step", "v")))
    v = check(net, reach(("A", "u")))
    assert v.outcome == "true" and v.witness == ()


def test_reach_with_witness_path():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    v = check(net, reach(("A", "v"), ("B", "x")))
    assert v.outcome == "true"
    assert [t.label.text for t in v.witness] == ["c#A>B"]


def test_reach_false_without_witness():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c!", "x")))
    v = check(net, reach(("A", "v")))
    assert v.outcome == "false" and v.holds is False and v.witness is None


def test_reach_validates_conjuncts_against_net():
    net = compose(proc("A", ("u", "step", "v")))
    with pytest.raises(QueryError):
        check(net, reach(("B", "u")))
    with pytest.raises(QueryError):
        check(net, reach(("A", "nope")))


# ---- witnesses replay ----

def _replay(net, witness):
    g = initial_state(net)
    for step in witness:
        assert step.source == g
        assert step in enabled(net, g)
        g = step.target
    return g


def test_witnesses_replay_under_enabled():
    rng = random.Random(21)
    seen_false = seen_true = 0
    for _ in range(80):
        net = random_net(rng)
        v = check(net, DEADLOCK_FREE)
        if v.outcome == "false":
            seen_false += 1
            end = _replay(net, v.witness)
            assert enabled(net, end) == []
        q = reach(*random_conjuncts(rng, net))
        w = check(net, q)
        if w.outcome == "true":
            seen_true += 1
            end = _replay(net, w.witness)
            assert all(end.local_of(i) == s for i, s in q.conjuncts)
    assert seen_false > 5 and seen_true > 5


def test_witnesses_end_at_first_hit_in_explore_order():
    # check and explore run one engine: the witness ends at the first
    # matching state in explore's discovery order, at its BFS depth
    rng = random.Random(24)
    seen_dead = seen_hit = 0
    for _ in range(80):
        net = random_net(rng)
        states, steps = explore(net)
        depth = {states[0]: 0}
        for g in states:
            for t in steps[g]:
                depth.setdefault(t.target, depth[g] + 1)
        q = reach(*random_conjuncts(rng, net))
        for query, hits in (
                (DEADLOCK_FREE, [g for g in states if not steps[g]]),
                (q, [g for g in states
                     if all(g.local_of(i) == s for i, s in q.conjuncts)])):
            v = check(net, query)
            if not hits:
                assert v.witness is None
                continue
            seen_dead += query is DEADLOCK_FREE
            seen_hit += query is q
            assert _replay(net, v.witness) == hits[0]
            assert len(v.witness) == depth[hits[0]]
    assert seen_dead > 5 and seen_hit > 5


# ---- bounded search and unknown ----

def _pump(capacity):
    net = compose(proc("A", ("u", "c!", "u")), proc("B", ("w", "c?", "w")))
    return with_channel_modes(net, {"c": async_mode(capacity)})


def test_unknown_when_bound_truncates():
    net = _pump(3)  # 4 reachable buffer levels, all lively
    v = check(net, DEADLOCK_FREE, bound=2)
    assert v.outcome == "unknown" and v.holds is None
    assert v.witness is None and v.bound == 2


def test_definite_answers_survive_truncation():
    # terminal state one step from init, long lively chain on the other
    # branch that the bound will never let the search finish
    chain = [("u", "a", "dead")]
    chain += [(f"p{i}", "c", f"p{i + 1}") for i in range(9)]
    chain += [("u", "b", "p0"), ("p9", "c", "p0")]
    dead = compose(proc("A", *chain))
    v = check(dead, DEADLOCK_FREE, bound=2)
    assert v.outcome == "false"
    assert [t.label.text for t in v.witness] == ["a"]

    v = check(_pump(50), reach(("B", "w")), bound=2)
    assert v.outcome == "true"


def test_reach_unknown_when_target_past_bound():
    net = _pump(3)
    # B never leaves w, but a fresh unreachable-looking target needs the
    # whole space; bound cuts the search first
    net2 = compose(proc("A", ("u", "c!", "u")),
                   proc("B", ("w", "c?", "w"), ("z", "c?", "z")))
    net2 = with_channel_modes(net2, {"c": async_mode(3)})
    v = check(net2, reach(("B", "z")), bound=2)
    assert v.outcome == "unknown" and v.bound == 2
    full = check(net2, reach(("B", "z")))
    assert full.outcome == "false"


def test_verdict_agrees_across_bounds_when_definite():
    rng = random.Random(22)
    for _ in range(40):
        net = random_net(rng)
        v = check(net, DEADLOCK_FREE)
        again = check(net, DEADLOCK_FREE, bound=10_000)
        assert v.outcome == again.outcome


# ---- oracle agreement (smoke; the acceptance suite scales this up) ----

def test_agreement_with_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        net = random_net(rng)
        assert check(net, DEADLOCK_FREE).holds == bruteforce.bf_deadlock_free(net)
        q = random_conjuncts(rng, net)
        assert check(net, reach(*q)).holds == bruteforce.bf_reachable(net, q)


# ---- JSON ----

def test_verdict_json_shapes():
    net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    v = check(net, DEADLOCK_FREE)
    j = verdict_to_json(v)
    assert set(j) == {"holds", "outcome", "witness"}
    assert j["holds"] is False and j["outcome"] == "false"
    (step,) = j["witness"]
    assert step == {"kind": "handshake", "channel": "c", "sender": "A",
                    "receiver": "B", "label": "c#A>B", "to": "A:v,B:x"}

    j = verdict_to_json(check(_pump(3), DEADLOCK_FREE, bound=2))
    assert j == {"holds": None, "outcome": "unknown", "witness": None}


def test_step_json_other_kinds():
    net = _pump(1)
    v = check(net, reach(("B", "w")))
    assert verdict_to_json(v)["witness"] == []
    # drive one async send for its JSON shape
    from hetcomp.checker import step_to_json
    (send,) = enabled(net, initial_state(net))
    assert step_to_json(send) == {"kind": "async_send", "channel": "c",
                                  "instance": "A", "label": "c!@A",
                                  "to": "A:u,B:w;c=A"}
    (recv,) = [t for t in enabled(net, send.target)
               if t.kind.__class__.__name__ == "AsyncReceive"]
    assert step_to_json(recv) == {"kind": "async_receive", "channel": "c",
                                  "instance": "B", "label": "c?@B",
                                  "to": "A:u,B:w;c="}
    local_net = compose(proc("A", ("u", "z!", "v")))
    (loc,) = enabled(local_net, initial_state(local_net))
    assert step_to_json(loc) == {"kind": "local", "instance": "A",
                                 "action": "z!", "label": "z!",
                                 "to": "A:v"}
    sync_net = compose(proc("A", ("u", "c!", "v")), proc("B", ("w", "c?", "x")))
    (shake,) = enabled(sync_net, initial_state(sync_net))
    assert step_to_json(shake) == {"kind": "handshake", "channel": "c",
                                   "sender": "A", "receiver": "B",
                                   "label": "c#A>B", "to": "A:v,B:x"}
    # the keys come in one order: label, to, kind, then the kind's fields
    assert [list(step_to_json(t)) for t in (send, loc, shake)] == [
        ["label", "to", "kind", "channel", "instance"],
        ["label", "to", "kind", "instance", "action"],
        ["label", "to", "kind", "channel", "sender", "receiver"]]
