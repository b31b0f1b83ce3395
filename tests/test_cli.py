"""End-to-end CLI tests, driven through subprocesses, and repeated
in-process `main()` calls, which must not affect one another."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from hetcomp import compose, emit_dot, emit_lotos, emit_uppaal
from hetcomp.cli import load_process, main
from gen import philo_net

CLI = [sys.executable, "-m", "hetcomp.cli"]


def run_cli(*args, cwd=None, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, env=full_env, timeout=120)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


RENDEZVOUS = """
a = dot("a.dot")
b = dot("b.dot")
sys = compose(a, b)
check(sys, "A[] not deadlock")
"""

A_DOT = 'digraph a { u -> v [label="c!"] }\n'
B_DOT = 'digraph b { w -> x [label="c?"] }\n'


@pytest.fixture
def rendezvous(tmp_path):
    write(tmp_path, "a.dot", A_DOT)
    write(tmp_path, "b.dot", B_DOT)
    return write(tmp_path, "run.hcs", RENDEZVOUS)


# ---- run ----

def test_case_study_script_runs_clean(tmp_path, corpus_dir):
    r = run_cli("run", str(corpus_dir / "case_study.hcs"),
                "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "check A[] not deadlock: true" in r.stdout
    assert "check E<> dtctrl1.S4 and rpt1.E2: true" in r.stdout
    out = tmp_path / "out"
    assert (out / "case_study.xml").exists()
    assert (out / "case_study_product.dot").exists()
    assert (out / "dtctrl1.lotos").exists()
    ET.fromstring((out / "case_study.xml").read_text())


def test_empty_script_exits_zero(tmp_path):
    script = write(tmp_path, "empty.hcs", "# nothing to do\n")
    r = run_cli("run", str(script))
    assert r.returncode == 0 and r.stdout == "" and r.stderr == ""


def test_deadlock_gives_exit_one_and_witness(rendezvous):
    r = run_cli("run", str(rendezvous))
    assert r.returncode == 1
    assert "check A[] not deadlock: false" in r.stdout
    assert "witness (1 steps):" in r.stdout
    assert "1. c#A>B" not in r.stdout  # instances are named a and b
    assert "1. c#a>b" in r.stdout


def test_chans_prints_sorted_channels(tmp_path):
    write(tmp_path, "a.dot", A_DOT)
    script = write(tmp_path, "s.hcs",
                   'a = dot("a.dot")\nchans(a)\n')
    r = run_cli("run", str(script))
    assert r.returncode == 0
    assert r.stdout == "c\n"


FACETED_A = ('digraph a { u -> v [label="c!", facets="guard:x>0|time:t<5"]; '
             'v -> u [label="tick|data:d1"]; }\n')
FACETED_B = ('digraph b { w -> x [label="c?", facets="time:t<9"]; '
             'x -> w [label="d!|guard:y|time:t>1"]; }\n')
FILTERS = """
a = dot("a.dot")
b = dot("b.dot")
fa = filter(a, guard)
fn = filter(compose(a, b), time)
chans(fn)
sys = compose(fa, b)
check(sys, "A[] not deadlock")
check(fn, "E<> a.v and b.x")
emit_dot(sys, "sys.dot")
emit_dot(fn, "fn.dot")
emit_lotos(fa, "fa.lotos")
"""


def test_filter_of_a_process_and_a_net_then_checked_and_emitted(tmp_path,
                                                                capsys):
    write(tmp_path, "a.dot", FACETED_A)
    write(tmp_path, "b.dot", FACETED_B)
    script = write(tmp_path, "s.hcs", FILTERS)
    out = tmp_path / "out"
    assert main(["run", str(script), "--out-dir", str(out)]) == 0
    assert capsys.readouterr() == (
        "c d\n"
        "check A[] not deadlock: true\n"
        "check E<> a.v and b.x: true\n"
        "  witness (1 steps):\n"
        "    1. c#a>b\n"
        f"wrote {out / 'sys.dot'}\n"
        f"wrote {out / 'fn.dot'}\n"
        f"wrote {out / 'fa.lotos'}\n", "")
    assert (out / "sys.dot").read_text() == """\
digraph g {
  "b:w,fa:u" [init=true];
  "b:w,fa:v";
  "b:x,fa:u";
  "b:x,fa:v";
  "b:w,fa:u" -> "b:x,fa:v" [label="c#fa>b"];
  "b:w,fa:v" -> "b:w,fa:u" [label="tick"];
  "b:x,fa:u" -> "b:w,fa:u" [label="d!", facets="guard:y|time:t>1"];
  "b:x,fa:v" -> "b:w,fa:v" [label="d!", facets="guard:y|time:t>1"];
  "b:x,fa:v" -> "b:x,fa:u" [label="tick"];
}
"""
    assert (out / "fn.dot").read_text() == """\
digraph g {
  "a:u,b:w" [init=true];
  "a:u,b:x";
  "a:v,b:w";
  "a:v,b:x";
  "a:u,b:w" -> "a:v,b:x" [label="c#a>b"];
  "a:u,b:x" -> "a:u,b:w" [label="d!", facets="time:t>1"];
  "a:v,b:w" -> "a:u,b:w" [label="tick"];
  "a:v,b:x" -> "a:v,b:w" [label="d!", facets="time:t>1"];
  "a:v,b:x" -> "a:u,b:x" [label="tick"];
}
"""
    assert (out / "fa.lotos").read_text() == """\
(* LOTOS rendering of process fa *)
(* gates are directionless; each action keeps its original
   direction and extra facets in the trailing comment *)
process fa [c] : noexit :=
  fa_u [c]
where

process fa_u [c] : noexit :=
  c; (* c!|guard:x>0 *) fa_v [c]
endproc

process fa_v [c] : noexit :=
  i; (* tick *) fa_u [c]
endproc

endproc
"""


def test_unknown_outcome_exits_three(tmp_path):
    # a live ring, too many states for the bound, no deadlock found
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s2 [label="go"]; '
          's2 -> s3 [label="go"]; s3 -> s0 [label="go"]; }\n')
    script = write(tmp_path, "s.hcs",
                   'r = dot("ring.dot")\ncheck(r, "A[] not deadlock")\n')
    r = run_cli("run", str(script), "--bound", "2")
    assert r.returncode == 3
    assert "check A[] not deadlock: unknown" in r.stdout


def test_false_beats_unknown_in_exit_code(tmp_path):
    # two senders on a shared channel deadlock at the initial state,
    # decidable at any bound; the ring is cut off and stays unknown
    write(tmp_path, "s1.dot", 'digraph s1 { u -> v [label="c!"] }\n')
    write(tmp_path, "s2.dot", 'digraph s2 { w -> x [label="c!"] }\n')
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s0 [label="go"]; }\n')
    script = write(tmp_path, "both.hcs",
                   'a = dot("s1.dot")\n'
                   'b = dot("s2.dot")\n'
                   'r = dot("ring.dot")\n'
                   'check(r, "E<> r.s1")\n'
                   'check(compose(a, b), "A[] not deadlock")\n')
    r = run_cli("run", str(script), "--bound", "1")
    assert "unknown" in r.stdout and "false" in r.stdout
    assert r.returncode == 1


def test_emit_at_the_bound_is_unknown_and_writes_nothing(tmp_path,
                                                         corpus_dir):
    r = run_cli("run", str(corpus_dir / "case_study.hcs"), "--bound", "3",
                "--out-dir", str(tmp_path))
    assert r.returncode == 3, r.stderr
    assert r.stdout.count(": unknown\n") == 2
    assert r.stderr == (f"{corpus_dir / 'case_study.hcs'}:20: emit_dot "
                        "unknown, no file written: state-space bound of 3 "
                        "states exceeded (frontier size 1)\n")
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["case_study.xml",
                                                     "dtctrl1.lotos"]


def test_false_beats_an_emit_at_the_bound(tmp_path):
    write(tmp_path, "s1.dot", 'digraph s1 { u -> v [label="c!"] }\n')
    write(tmp_path, "s2.dot", 'digraph s2 { w -> x [label="c!"] }\n')
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s0 [label="go"]; }\n')
    script = write(tmp_path, "s.hcs",
                   'r = dot("ring.dot")\n'
                   'emit_dot(compose(r), "p.dot")\n'
                   'check(compose(dot("s1.dot"), dot("s2.dot")), '
                   '"A[] not deadlock")\n')
    r = run_cli("run", str(script), "--bound", "1", "--out-dir",
                str(tmp_path / "out"))
    assert r.returncode == 1
    assert "s.hcs:2: emit_dot unknown, no file written" in r.stderr
    assert not (tmp_path / "out").exists()


def test_missing_script_exits_two(tmp_path):
    r = run_cli("run", str(tmp_path / "nope.hcs"))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_missing_model_file_exits_two(tmp_path):
    script = write(tmp_path, "s.hcs", 'a = dot("absent.dot")\n')
    r = run_cli("run", str(script))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_parse_error_reports_script_line(tmp_path):
    script = write(tmp_path, "s.hcs", '# one\np = frobnicate("x")\n')
    r = run_cli("run", str(script))
    assert r.returncode == 2
    assert "s.hcs:2" in r.stderr


def test_model_error_reports_script_line(tmp_path):
    write(tmp_path, "bad.dot", "digraph b { }\n")
    script = write(tmp_path, "s.hcs", '\np = dot("bad.dot")\n')
    r = run_cli("run", str(script))
    assert r.returncode == 2
    assert "error:" in r.stderr and "bad.dot" in r.stderr


@pytest.mark.parametrize("stmt, message", [
    ("r = rename(s, c, d)", "rename expects a process here, got a net"),
    ("r = rename(compose(a, b), c, d)",
     "rename expects a process here, got a net"),
    ("r = replace(a, a, b)",
     "replace expects a composed net here, got a process"),
    ("r = replace(s, a, s)", "replace expects a process here, got a net"),
    ("r = remove(a, a)", "remove expects a composed net here, got a process"),
    ("r = select(b, b)", "select expects a composed net here, got a process"),
    ('emit_lotos(s, "s.lotos")',
     "emit_lotos expects a process here, got a net"),
])
def test_operand_type_errors_exit_two_and_name_the_line(tmp_path, capsys,
                                                        stmt, message):
    write(tmp_path, "a.dot", A_DOT)
    write(tmp_path, "b.dot", B_DOT)
    script = write(tmp_path, "s.hcs", 'a = dot("a.dot")\nb = dot("b.dot")\n'
                                      f"s = compose(a, b)\n{stmt}\n")
    assert main(["run", str(script), "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {script}:4: {message}\n"


def test_dot_paths_resolve_relative_to_script(tmp_path):
    sub = tmp_path / "models"
    sub.mkdir()
    write(sub, "a.dot", A_DOT)
    script = write(sub, "s.hcs", 'a = dot("a.dot")\nchans(a)\n')
    # run from an unrelated cwd
    r = run_cli("run", str(script), cwd=str(tmp_path))
    assert r.returncode == 0 and r.stdout == "c\n"


# ---- bounds ----

def test_env_bound_respected_and_flag_overrides(tmp_path):
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s2 [label="go"]; '
          's2 -> s0 [label="go"]; }\n')
    script = write(tmp_path, "s.hcs",
                   'r = dot("ring.dot")\ncheck(r, "A[] not deadlock")\n')
    r = run_cli("run", str(script), env={"HETCOMP_BOUND": "1"})
    assert r.returncode == 3
    r = run_cli("run", str(script), "--bound", "10",
                env={"HETCOMP_BOUND": "1"})
    assert r.returncode == 0
    r = run_cli("run", str(script), env={"HETCOMP_BOUND": "plenty"})
    assert r.returncode == 2


@pytest.mark.parametrize("args, env, named", [
    (["--bound", "0"], None, "--bound"),
    (["--bound", "-5"], None, "--bound"),
    ([], {"HETCOMP_BOUND": "0"}, "HETCOMP_BOUND"),
    (["--trace-len", "-1"], None, "--trace-len"),
])
def test_bad_numbers_exit_two_and_name_the_flag(rendezvous, args, env, named):
    r = run_cli("run", str(rendezvous), *args, env=env)
    assert r.returncode == 2
    assert named in r.stderr and r.stdout == ""


# ---- output formats ----

def test_json_format(rendezvous):
    r = run_cli("run", str(rendezvous), "--format", "json")
    assert r.returncode == 1
    verdict = json.loads(r.stdout)
    assert verdict["holds"] is False
    assert verdict["outcome"] == "false"
    (step,) = verdict["witness"]
    assert step["kind"] == "handshake"
    assert step["label"] == "c#a>b"
    assert step["to"] == "a:v,b:x"


def test_trace_len_truncates_text_output(tmp_path):
    write(tmp_path, "chain.dot",
          'digraph c { s0 -> s1 [label="g1"]; s1 -> s2 [label="g2"]; '
          's2 -> s3 [label="g3"]; }\n')
    script = write(tmp_path, "s.hcs",
                   'c = dot("chain.dot")\ncheck(c, "A[] not deadlock")\n')
    r = run_cli("run", str(script), "--trace-len", "2")
    assert r.returncode == 1
    assert "witness (3 steps):" in r.stdout
    assert "2. g2" in r.stdout and "3. g3" not in r.stdout
    assert "... (2 of 3 steps shown)" in r.stdout


# ---- check subcommand ----

def test_check_reaches_states_named_with_dots_and_dashes(tmp_path):
    write(tmp_path, "a.dot", 'digraph a { s.0 -> s.1 [label="go"]; '
          's.1 -> "s-2" [label="go"]; }\n')
    script = write(tmp_path, "s.hcs", 'a = dot("a.dot")\nsys = compose(a)\n'
                   'check(sys, "E<> a.s.1")\ncheck(sys, "E<> a.s-2")\n')
    r = run_cli("check", str(script))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ("check E<> a.s.1: true\n"
                        "  witness (1 steps):\n    1. go\n"
                        "check E<> a.s-2: true\n"
                        "  witness (2 steps):\n    1. go\n    2. go\n")


def test_check_runs_but_writes_nothing(tmp_path, corpus_dir):
    r = run_cli("check", str(corpus_dir / "case_study.hcs"),
                "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "check A[] not deadlock: true" in r.stdout
    assert "wrote" not in r.stdout
    assert list(tmp_path.iterdir()) == []


def test_check_skips_emit_before_building_it(tmp_path):
    # the product has 3 states, over the bound: check must not build it
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s2 [label="go"]; '
          's2 -> s0 [label="go"]; }\n')
    script = write(tmp_path, "s.hcs",
                   'r = dot("ring.dot")\nemit_dot(compose(r), "p.dot")\n')
    out = tmp_path / "out"
    r = run_cli("check", str(script), "--bound", "2", "--out-dir", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["check", "run"])
def test_check_type_checks_emit_operands_like_run(tmp_path, capsys, command):
    write(tmp_path, "a.dot", A_DOT)
    write(tmp_path, "b.dot", B_DOT)
    script = write(tmp_path, "s.hcs", 'a = dot("a.dot")\nb = dot("b.dot")\n'
                   's = compose(a, b)\nemit_lotos(s, "s.lotos")\n')
    out = tmp_path / "out"
    assert main([command, str(script), "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {script}:4: emit_lotos "
                                       "expects a process here, got a net\n")
    assert not out.exists()


def test_check_writes_no_file_for_valid_emits(tmp_path, capsys):
    write(tmp_path, "a.dot", A_DOT)
    write(tmp_path, "b.dot", B_DOT)
    script = write(tmp_path, "s.hcs", 'a = dot("a.dot")\nb = dot("b.dot")\n'
                   's = compose(a, b)\nemit_lotos(a, "a.lotos")\n'
                   'emit_uppaal(s, "s.xml")\nemit_dot(s, "s.dot")\n')
    out = tmp_path / "out"
    assert main(["check", str(script), "--out-dir", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert not out.exists()
    assert main(["run", str(script), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["a.lotos", "s.dot",
                                                     "s.xml"]


# ---- convert ----

def test_convert_to_each_target(tmp_path, corpus_dir):
    src = corpus_dir / "dataCollector.dot"
    proc = load_process(src)
    want = {"dot": emit_dot(proc), "lotos": emit_lotos(proc),
            "uppaal": emit_uppaal(compose(proc))}
    assert want["dot"].startswith("digraph ") and "process " in want["lotos"]
    ET.fromstring(want["uppaal"])
    for to, text in want.items():
        r = run_cli("convert", str(src), "--to", to)
        assert r.returncode == 0 and r.stdout == text and r.stderr == ""
        out = tmp_path / f"m.{to}"
        r = run_cli("convert", str(src), "--to", to, "-o", str(out))
        assert r.returncode == 0 and r.stdout == f"wrote {out}\n"
        assert out.read_text() == text


def test_convert_roundtrip_is_stable(tmp_path, corpus_dir):
    src = str(corpus_dir / "dataCollector.dot")
    once = run_cli("convert", src, "--to", "dot").stdout
    again_path = write(tmp_path, "again.dot", once)
    twice = run_cli("convert", str(again_path), "--to", "dot").stdout
    assert once == twice


def test_convert_errors(tmp_path, corpus_dir):
    r = run_cli("convert", str(tmp_path / "absent.dot"), "--to", "dot")
    assert r.returncode == 2 and "error:" in r.stderr
    bad = write(tmp_path, "bad.dot", "not dot at all")
    r = run_cli("convert", str(bad), "--to", "dot")
    assert r.returncode == 2
    r = run_cli("convert", str(corpus_dir / "dataCollector.dot"),
                "--to", "promela")
    assert r.returncode == 2


def test_convert_to_a_directory_exits_two_and_names_it(tmp_path, corpus_dir):
    r = run_cli("convert", str(corpus_dir / "rpt1.dot"), "--to", "dot",
                "-o", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and str(tmp_path) in r.stderr
    assert "Traceback" not in r.stderr


def test_convert_to_an_empty_file_name_exits_two(corpus_dir):
    r = run_cli("convert", str(corpus_dir / "rpt1.dot"), "--to", "dot",
                "-o", "")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: the output file name is empty\n"


# ---- determinism ----

def test_runs_are_deterministic_across_hash_seeds(tmp_path, corpus_dir):
    outs = []
    for seed, sub in (("0", "d0"), ("42", "d1")):
        d = tmp_path / sub
        d.mkdir()
        r = run_cli("run", str(corpus_dir / "case_study.hcs"),
                    "--out-dir", str(d), env={"PYTHONHASHSEED": seed})
        assert r.returncode == 0
        body = {p.name: p.read_text() for p in (d / "out").iterdir()}
        outs.append((r.stdout.replace(str(d), "<out>"), body))
    assert outs[0] == outs[1]


# ---- repeated calls in one process ----

def test_repeated_main_calls_match_fresh_processes(tmp_path, corpus_dir,
                                                   capsys):
    script = str(corpus_dir / "case_study.hcs")
    calls = [
        ["convert", str(corpus_dir / "dataCollector.dot"), "--to", "lotos",
         "-o", str(tmp_path / "dc.lotos")],
        ["check", script],
        ["run", script, "--format", "json", "--out-dir", str(tmp_path)],
    ]
    fresh = [run_cli(*argv) for argv in calls]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert in_process == [(r.returncode, r.stdout) for r in fresh]


def test_env_bound_is_read_on_every_call(tmp_path, monkeypatch, capsys):
    write(tmp_path, "ring.dot",
          'digraph r { s0 -> s1 [label="go"]; s1 -> s0 [label="go"]; }\n')
    script = str(write(tmp_path, "s.hcs",
                       'r = dot("ring.dot")\ncheck(r, "A[] not deadlock")\n'))
    monkeypatch.delenv("HETCOMP_BOUND", raising=False)
    assert main(["run", script]) == 0
    monkeypatch.setenv("HETCOMP_BOUND", "1")
    assert main(["run", script]) == 3
    monkeypatch.delenv("HETCOMP_BOUND")
    assert main(["run", script]) == 0


def test_bad_bound_exits_two_on_every_call(rendezvous, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(["run", str(rendezvous), "--bound", "0"])
        assert e.value.code == 2
        assert "--bound" in capsys.readouterr().err


def test_emit_of_a_product_with_separators_in_state_names(tmp_path):
    # a:x with b:"y,b:z" and a:"x,b:y" with b:z would share one name
    # unquoted
    write(tmp_path, "a.dot", 'digraph A { u -> "x,b:y" [label=step]; '
                             'u -> x [label=go]; }\n')
    write(tmp_path, "b.dot", 'digraph B { z -> "y,b:z" [label=tick]; }\n')
    script = write(tmp_path, "s.hcs", 'a = dot("a.dot")\nb = dot("b.dot")\n'
                                      'emit_dot(compose(a, b), "p.dot")\n')
    r = run_cli("run", str(script), "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "p.dot").read_text().splitlines()
    assert [line for line in lines[1:-1] if " -> " not in line] == [
        '  "a:u,b:y%2Cb:z";', '  "a:u,b:z" [init=true];',
        '  "a:x%2Cb:y,b:y%2Cb:z";', '  "a:x%2Cb:y,b:z";',
        '  "a:x,b:y%2Cb:z";', '  "a:x,b:z";']


def test_philo_script_runs_with_closed_form_counts(tmp_path, capsys):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "philo_script.py")
    made = subprocess.run([sys.executable, script, str(tmp_path), "--n", "3"],
                          capture_output=True, text=True, timeout=120)
    assert made.returncode == 0, made.stderr
    assert len(list(tmp_path.glob("*.dot"))) == 6
    assert main(["run", str(tmp_path / "philo.hcs"),
                 "--out-dir", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "check A[] not deadlock: false\n  witness (3 steps):" in out
    assert "check E<> P0.e and P1.e: false" in out
    lines = (tmp_path / "out" / "philo_product.dot").read_text().splitlines()
    # 3^3 - 1 states and 3(2*3^2 - 1) transitions
    assert sum(" -> " not in line for line in lines[1:-1]) == 26
    assert sum(" -> " in line for line in lines) == 51


# ---- one net, and so one search, per value and declared modes ----

def _philo_files(tmp_path, n=3):
    net = philo_net(n)
    for inst, proc in net.components:
        write(tmp_path, f"{inst}.dot", emit_dot(proc))
    return net.instance_names()


def _loads(instances):
    return "".join(f'{inst} = dot("{inst}.dot")\n' for inst in instances) \
        + f"sys = compose({', '.join(instances)})\n"


def test_checks_and_emit_of_one_net_compile_it_once(tmp_path, capsys,
                                                     compiles):
    body = _loads(_philo_files(tmp_path)) + (
        'check(sys, "A[] not deadlock")\n'
        'check(sys, "E<> P0.e and P1.e")\n'
        'emit_dot(sys, "p.dot")\n')
    script = write(tmp_path, "s.hcs", body)
    assert main(["run", str(script), "--out-dir", str(tmp_path)]) == 1
    assert len(compiles) == 1
    out = capsys.readouterr().out
    assert "check A[] not deadlock: false\n  witness (3 steps):" in out
    assert "check E<> P0.e and P1.e: false" in out
    lines = (tmp_path / "p.dot").read_text().splitlines()
    assert sum(" -> " in line for line in lines) == 51


def test_a_channel_declaration_between_checks_gives_a_new_net(
        tmp_path, capsys, compiles):
    loads = _loads(_philo_files(tmp_path))
    query = 'check(sys, "A[] not deadlock")\n'
    declare = "channel gl0 async 1\n"
    outputs = {}
    for name, body in (("both", loads + query + declare + query),
                       ("sync", loads + query),
                       ("async", declare + loads + query)):
        main(["run", str(write(tmp_path, f"{name}.hcs", body))])
        outputs[name] = capsys.readouterr().out
    assert len(compiles) == 4
    assert compiles[0] != compiles[1]
    assert outputs["both"] == outputs["sync"] + outputs["async"]
    assert outputs["sync"] != outputs["async"]
