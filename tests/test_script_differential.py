"""The script parser against the frozen reference parser.

Seeded mutations of the case-study script and of scripts built from
every statement form must give the same statements, or an error of the
same type with the same message, line and column.  The edits insert
the tokens whose handling is easiest to get wrong when a line is
tokenized by one pattern: unterminated strings, escapes (`\\"`, `\\\\`
and a kept `\\x`), `#` inside and outside strings, a number run into a
name (`12ab`), non-ASCII characters and blanks other than space, tab
and CR.

Lines end at "\n" only, with one CR before it dropped; the reference
splits with `str.splitlines`, which also breaks at CR, form feed and
other Unicode line breaks.  It is handed the text as `NewlineOnly`,
whose `splitlines` follows the current rule, so a `\r` or `\f` from
the mutator stays inside its line on both sides.
"""

import random

import pytest

import reference_scriptlang
from hetcomp.errors import HetcompError
from hetcomp.scriptlang import parse_script

STATEMENTS = [
    'p = dot("p.dot")',
    'q = dot("dir\\\\q \\"x\\" \\y.dot")  # a comment',
    's = compose(p, q)',
    's = compose(compose(p, q), p, rename(q, a, b))',
    'r = rename(rename(p, connection, connect), readState, sendState)',
    't = replace(s, p, r)',
    'u = remove(s, q)',
    'v = select(compose(p, q), p)',
    'f = filter(p, guard, time, data, other)',
    'filter(s, sync)',
    'chans(s)',
    'chans(s) \t ',
    's = compose(p, ',
    'channel c sync',
    'channel d async 2',
    'channel e async 0',
    'check(s, "A[] not deadlock # not a comment")',
    'check(compose(p, filter(q, guard)), "E<> p.S4 and q.E2")',
    'emit_uppaal(s, "out/s.xml")',
    'emit_dot(p, "o.dot")',
    'emit_lotos(r, "o\\x.lotos")\t# tab, then a comment',
    'filter = dot("x.dot")',
    'g = filter(filter, guard)',
    'p = compose(p, p)\r',
    '',
    '# only a comment',
]

SNIPPETS = [
    '"', '""', '"a b"', '"#"', '\\', '\\"', '\\\\', '\\x', '#', "12ab", "7",
    "0", "é", "ü", "\xa0", "€", "=", "(", ")", ",", "()", "(,)", " ", "\t",
    "\r", "\n", "\f", "channel", "sync", "async", "async 3", "p", "q", "s",
    "x", "_", "guard", "speed", "filter", "dot(", "compose(", "chans(",
    "check(", "emit_lotos(", "rename(", "replace(", "remove(", "select(",
    "hide(", "p =", "= p", ", p", "a b",
]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(0, 4))
        roll = rng.random()
        if roll < 0.5:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif roll < 0.75:
            text = text[:i] + rng.choice(SNIPPETS) + text[j:]
        elif roll < 0.9:
            text = text[:i] + text[j:]
        else:
            text = text[:i]
    return text


class NewlineOnly(str):
    """A script text whose lines end at "\n" only, one CR before it dropped."""

    def splitlines(self):
        return [line[:-1] if line.endswith("\r") else line
                for line in self.split("\n")]


def reference(text: str, source: str = "<script>"):
    return reference_scriptlang.parse_script(NewlineOnly(text), source)


def outcome(parse, text: str):
    try:
        return repr(parse(text, "s.hcs").statements)
    except HetcompError as e:
        return type(e).__name__, e.message, e.line, e.col


def bases(corpus_dir, rng: random.Random) -> list[str]:
    """The case study, and scripts of a few statements each."""
    scripts = [(corpus_dir / "case_study.hcs").read_text()]
    for _ in range(40):
        lines = ['p = dot("p.dot")', 'q = dot("q.dot")', 's = compose(p, q)']
        lines += rng.sample(STATEMENTS, rng.randint(1, 5))
        scripts.append("\n".join(lines) + "\n")
    return scripts


@pytest.mark.parametrize("seed", range(4))
def test_mutated_scripts_match_the_reference(corpus_dir, seed):
    rng = random.Random(seed)
    texts = bases(corpus_dir, rng)
    accepted = 0
    for _ in range(600):
        text = mutate(rng.choice(texts), rng)
        want = outcome(reference, text)
        assert outcome(parse_script, text) == want, text
        accepted += isinstance(want, str)
    assert accepted > 30


def test_every_statement_alone_matches_the_reference():
    for stmt in STATEMENTS:
        text = 'p = dot("p.dot")\nq = dot("q.dot")\ns = compose(p, q)\n' + stmt
        want = outcome(reference, text)
        assert outcome(parse_script, text) == want, text
