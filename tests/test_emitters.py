"""Emitter tests: Uppaal XML, DOT, LOTOS; golden files and round-trips.

Golden files freeze the exact bytes; regenerate intentionally with
UPDATE_GOLDEN=1 pytest tests/test_emitters.py and review the diff.
"""

import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcomp import (EmitError, Label, Lts, Process, Transition, async_mode,
                     compose, emit_dot, emit_lotos, emit_uppaal, isomorphic,
                     parse_dot, parse_label, rename, with_channel_modes)
import uppaal_reader
from gen import random_lts, random_net

st_random = st.randoms(use_true_random=False)


def _check_golden(golden_dir, name, text):
    path = golden_dir / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(text)
    assert path.exists(), f"golden file {name} missing; run with UPDATE_GOLDEN=1"
    assert text == path.read_text()


def _case_study_net(corpus_dir):
    dc = Process("dtctrl1",
                 parse_dot((corpus_dir / "dataCollector.dot").read_text()))
    dt1 = rename(rename(dc, "connection", "connect"), "readState", "sendState")
    spv = Process("spv", parse_dot((corpus_dir / "spv.dot").read_text()))
    rpt = Process("rpt1", parse_dot((corpus_dir / "rpt1.dot").read_text()))
    return compose(dt1, spv, rpt)


# ---- golden files ----

def test_golden_dot(corpus_dir, golden_dir):
    dc = Process("dataCollector",
                 parse_dot((corpus_dir / "dataCollector.dot").read_text()))
    _check_golden(golden_dir, "dataCollector.dot", emit_dot(dc))


def test_golden_lotos(corpus_dir, golden_dir):
    dc = Process("dtctrl1",
                 parse_dot((corpus_dir / "dataCollector.dot").read_text()))
    dt1 = rename(rename(dc, "connection", "connect"), "readState", "sendState")
    _check_golden(golden_dir, "dtctrl1.lotos", emit_lotos(dt1))


def test_golden_uppaal(corpus_dir, golden_dir):
    _check_golden(golden_dir, "case_study.xml",
                  emit_uppaal(_case_study_net(corpus_dir)))


# ---- Uppaal ----

def test_uppaal_is_wellformed_flat_xml(corpus_dir):
    text = emit_uppaal(_case_study_net(corpus_dir))
    assert text.splitlines()[1].startswith("<!DOCTYPE nta")
    assert "flat-1_1.dtd" in text.splitlines()[1]
    root = ET.fromstring(text)
    assert root.tag == "nta"
    assert [t.find("name").text for t in root.iter("template")] \
        == ["dtctrl1", "rpt1", "spv"]


def test_uppaal_declares_each_shared_channel_once(corpus_dir):
    text = emit_uppaal(_case_study_net(corpus_dir))
    decls = uppaal_reader.declared_channels(text)
    assert decls == sorted({"KO", "OK", "connect", "getState", "ready",
                            "sendState", "stop", "rconnect", "rdata"})
    for c in decls:
        assert text.count(f"chan {c};") == 1


def test_uppaal_system_line(corpus_dir):
    text = emit_uppaal(_case_study_net(corpus_dir))
    assert uppaal_reader.system_instances(text) == ["dtctrl1", "rpt1", "spv"]


def test_uppaal_reader_reconstructs_components(corpus_dir):
    net = _case_study_net(corpus_dir)
    templates = uppaal_reader.read_templates(emit_uppaal(net))
    assert [name for name, _ in templates] == net.instance_names()
    for inst, rebuilt in templates:
        body = net.get(inst).body
        assert sorted(t.label.text for t in rebuilt.transitions) \
            == sorted(t.label.text for t in body.transitions)
        assert isomorphic(rebuilt, body)


def test_uppaal_sync_labels_only_for_shared():
    a = Process("A", parse_dot('digraph g { u -> v [label="c!"]; '
                               'u -> u [label="p!"]; }'))
    b = Process("B", parse_dot('digraph g { w -> x [label="c?"] }'))
    text = emit_uppaal(compose(a, b))
    root = ET.fromstring(text)
    syncs = [l.text for l in root.iter("label")
             if l.get("kind") == "synchronisation"]
    assert syncs == ["c!", "c?"]
    comments = [l.text for l in root.iter("label") if l.get("kind") == "comments"]
    assert sorted(comments) == ["c!", "c?", "p!"]


def test_uppaal_rejects_async_nets():
    a = Process("A", parse_dot('digraph g { u -> v [label="c!"] }'))
    b = Process("B", parse_dot('digraph g { w -> x [label="c?"] }'))
    net = with_channel_modes(compose(a, b), {"c": async_mode(1)})
    with pytest.raises(EmitError):
        emit_uppaal(net)


def test_uppaal_rejects_non_identifier_names():
    a = Process("A", parse_dot('digraph g { u -> v [label="c2x!"] }'))
    ok = compose(a)
    emit_uppaal(ok)
    bad_chan = Process("A", parse_dot('digraph g { u -> v [label="2c!"] }'))
    with pytest.raises(EmitError):
        emit_uppaal(compose(bad_chan))
    with pytest.raises(EmitError):
        # instance names come from process names
        emit_uppaal(compose(Process("2x", a.body)))


def test_uppaal_anonymous_locations_for_odd_state_names():
    p = Process("A", parse_dot('digraph g { "s.1" -> "s.2" [label="c!"] }'))
    text = emit_uppaal(compose(p))
    root = ET.fromstring(text)
    locs = list(root.iter("location"))
    assert len(locs) == 2
    assert all(l.find("name") is None for l in locs)
    # ids are document-unique and referenced by the edges
    ids = [l.get("id") for l in locs]
    assert len(set(ids)) == 2


def test_uppaal_location_ids_unique_across_templates(corpus_dir):
    text = emit_uppaal(_case_study_net(corpus_dir))
    root = ET.fromstring(text)
    ids = [l.get("id") for l in root.iter("location")]
    assert len(ids) == len(set(ids))
    for ref in root.iter("init"):
        assert ref.get("ref") in set(ids)


def test_uppaal_facets_travel_in_comments():
    p = Process("A", parse_dot(
        'digraph g { u -> v [label="c!|guard:x>0", facets="time:t<5"] }'))
    b = Process("B", parse_dot('digraph g { w -> x [label="c?"] }'))
    text = emit_uppaal(compose(p, b))
    root = ET.fromstring(text)
    comments = {l.text for l in root.iter("label")
                if l.get("kind") == "comments"}
    assert "c!|guard:x>0|time:t<5" in comments


def test_uppaal_escapes_markup_in_label_text():
    p = Process("A", parse_dot(
        'digraph g { u -> v [label="c!|guard:a<b&&c>d|data:&amp;"] }'))
    b = Process("B", parse_dot('digraph g { w -> x [label="c?"] }'))
    text = emit_uppaal(compose(p, b))
    assert ('<label kind="comments" x="8" y="32">'
            "c!|guard:a&lt;b&amp;&amp;c&gt;d|data:&amp;amp;</label>\n") in text


def test_import_leaves_out_xml_and_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and email,
    # which more than doubled the import time of the package
    code = ("import sys, hetcomp; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') "
            "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# ---- DOT ----

def test_emit_dot_shape():
    p = Process("P", Lts(["b", "a"], "b",
                         [Transition("b", parse_label("c!|time:5"), "a")]))
    text = emit_dot(p)
    lines = text.splitlines()
    assert lines[0] == "digraph P {"
    assert '  "b" [init=true];' in lines
    assert '  "a";' in lines
    assert '  "b" -> "a" [label="c!", facets="time:5"];' in lines
    assert lines[-1] == "}"


def test_emit_dot_quoting():
    lab = Label.send("c", [("guard", 'say "hi" \\now')])
    p = Process("P", Lts(["a"], "a", [Transition("a", lab, "a")]))
    text = emit_dot(p)
    assert '\\"hi\\"' in text
    assert parse_dot(text).transitions == p.body.transitions


def test_emit_dot_isolated_states_survive():
    lts = Lts(["a", "b", "lone"], "a",
              [Transition("a", parse_label("x!"), "b")])
    roundtrip = parse_dot(emit_dot(lts))
    assert roundtrip == lts


@given(st_random)
@settings(max_examples=120, deadline=None)
def test_dot_roundtrip_random(pyrandom):
    lts = random_lts(pyrandom, ["a", "b", "open"], max_states=20, facets=True)
    assert parse_dot(emit_dot(lts)) == lts


def test_dot_emit_is_order_insensitive():
    transitions = [Transition("s0", parse_label("a!"), "s1"),
                   Transition("s1", parse_label("b?"), "s0"),
                   Transition("s0", parse_label("go"), "s0")]
    a = emit_dot(Lts(["s0", "s1"], "s0", transitions))
    b = emit_dot(Lts(["s1", "s0"], "s0", list(reversed(transitions))))
    assert a == b


# ---- LOTOS ----

def test_lotos_structure_for_collector(corpus_dir):
    dc = Process("dtctrl1",
                 parse_dot((corpus_dir / "dataCollector.dot").read_text()))
    dt1 = rename(rename(dc, "connection", "connect"), "readState", "sendState")
    text = emit_lotos(dt1)
    # one wrapper plus one definition per state
    defs = [l for l in text.splitlines() if l.startswith("process ")]
    assert len(defs) == 1 + 5
    gates = re.search(r"process dtctrl1\s*\[([^\]]*)\]", text).group(1)
    assert [g.strip() for g in gates.split(",")] == [
        "KO", "OK", "connect", "getState", "ready", "sendState", "stop"]
    assert text.count("endproc") == 1 + 5
    # choice between S4's two continuations
    assert "[]" in text


def test_lotos_direction_comments_and_internal():
    p = Process("P", parse_dot(
        'digraph g { a -> b [label="c!"]; b -> a [label="c?"]; '
        'a -> a [label="think"]; }'))
    text = emit_lotos(p)
    assert "(* send *)" in text or "(* c! *)" in text
    assert "i;" in text or "i ;" in text


def test_lotos_terminal_state_is_stop():
    p = Process("P", parse_dot('digraph g { a -> b [label="c!"] }'))
    text = emit_lotos(p)
    assert "stop" in text


def test_lotos_comment_sanitizes_close_marker():
    lab = Label.send("c", [("guard", "x *) y")])
    p = Process("P", Lts(["a"], "a", [Transition("a", lab, "a")]))
    text = emit_lotos(p)
    # the payload marker cannot terminate the comment early
    assert "x * ) y" in text
    assert "x *) y" not in text


def test_lotos_state_name_sanitization_no_collisions():
    lts = Lts(["s.1", "s_1"], "s.1",
              [Transition("s.1", parse_label("c!"), "s_1"),
               Transition("s_1", parse_label("c?"), "s.1")])
    text = emit_lotos(Process("P", lts))
    # both states need distinct process names even though both sanitize
    # to P_s_1
    defs = re.findall(r"^process (\w+)", text, flags=re.M)
    assert len(defs) == len(set(defs)) == 3


# ---- determinism across emitters ----

def test_emitters_are_deterministic(corpus_dir):
    net = _case_study_net(corpus_dir)
    assert emit_uppaal(net) == emit_uppaal(net)
    p = net.get("dtctrl1")
    assert emit_dot(p) == emit_dot(p)
    assert emit_lotos(p) == emit_lotos(p)


def test_random_nets_emit_deterministically():
    rng = random.Random(31)
    for _ in range(25):
        net = random_net(rng, sync_only=True)
        assert emit_uppaal(net) == emit_uppaal(net)
