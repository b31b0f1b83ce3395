"""The DOT frontend against the frozen reference scanner.

Seeded mutations of the corpus models, of `tests/gen.py` models and of
a few hand-written fragments must give the same `DotDocument`, or an
error of the same type with the same message, line and column.  The
edits insert the tokens whose handling is easiest to get wrong when
one token pattern reads the whole text: unterminated comments, strings
and brace groups, `->` inside values, `=` away from a value, and empty
quoted names.  `scripts/dot_differential.py` runs the same mutations
on as many seeds as asked.
"""

import random

import pytest

import reference_dotio
from gen import random_process
from hetcomp.dotio import parse_dot_document
from hetcomp.emitters import emit_dot
from hetcomp.errors import HetcompError

#: Rejected fragments, at the tokens where one token pattern for the
#: whole text is likeliest to go wrong: `=` outside a list, `=` before
#: `->`, `-` and `+` run into names, and `=` right before an
#: unterminated /* or ".
REJECTED = [
    'digraph g { rankdir=LR; a -> b }',
    'digraph g { a -> b [label=->]; b -> c [label=-> c] }',
    'digraph g { a-b; a+b -> c; "a-b" -> "a+b" [label=a+b] }',
    'digraph g { a -> b [label=/* x ] }',
    'digraph g { a -> b [label="x ] }',
    # a chain broken by `;` leaves an arrow where a statement starts
    'digraph g { a -> b [x=1]; -> c }',
    # a bare run split by backtracking would read two attributes
    'digraph g { a -> b [lablabel=el="a?"]; }',
]

FRAGMENTS = [
    'digraph g { a -> b -> c [label="x!", facets="guard: x>0"]; c; }',
    'digraph { node [shape=box]; graph [rankdir=LR] edge [x=1]\n'
    '  a [init=true] ; a -> b [label={\\red go!}]; }',
    '# header\n// more\ndigraph "quoted name" {\n  "" -> "a\\"b" '
    '[label="\\\\ x?"];;\n  b -> a [label=tau,,;label=y!] /* c */\n}\n',
    'digraph g{a->b[label="p->q"]b->c[label={\\blue {nested}}]}',
    # a quoted `}` right after a brace group
    'digraph g { a -> b [label={\\red x!}, facets="guard: }"]; b -> a }',
    # at the edges of the statement pattern: two lists, separators run
    # together, a statement over several lines, a comment inside one,
    # one without `;`, an escaped quote in a name, a brace group late
    'digraph g { a [x=1][y=2]; a -> b [x=1 y=2,,;z=3]; }',
    'digraph g {\n  a\n  ->\n  b\n  [label="x!",\n   facets="time:t<1"]\n  ;\n}',
    'digraph g { a -> /* c */ b [label=/* d */"y?"]; b # e\n -> a; }',
    'digraph g { a -> b [label="x!"] b -> c; c }',
    'digraph g { "a\\"b" -> c; c -> "a\\"b" [label="q\\"r"]; }',
    'digraph g { a -> b [x=1, label={\\red y!}]; b -> a [x=2]; }',
    # more `;` after a comment that follows a statement
    'digraph g { a; # y\n; b -> a; /* c */ ;; c; // z\n }',
] + REJECTED

SNIPPETS = [
    "/*", "*/", "/* c */", "//x\n", "# y\n", '"', '""', '"a b"', "{", "}",
    "{\\red a!}", "->", "-", ">", "=", "[", "]", ";", ",", " ", "\n", "\t",
    "\\", '\\"', "digraph", "node", "graph", "edge", "label=", "x", "a->b",
    "[label=", "=->", '="->"', "=a->b", "0.5", "!", "?",
]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
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


def outcome(parse, text: str):
    try:
        return parse(text, "m.dot")
    except HetcompError as e:
        return type(e), e.message, e.line, e.col


def bases(corpus_dir):
    rng = random.Random(5)
    models = [emit_dot(random_process(rng, f"P{i}", ["a", "b"],
                                      facets=True)) for i in range(12)]
    corpus = [p.read_text() for p in sorted(corpus_dir.glob("*.dot"))]
    return corpus + models + FRAGMENTS


@pytest.mark.parametrize("seed", range(4))
def test_mutated_documents_match_the_reference(corpus_dir, seed):
    rng = random.Random(seed)
    texts = bases(corpus_dir)
    accepted = 0
    for _ in range(800):
        text = mutate(rng.choice(texts), rng)
        want = outcome(reference_dotio.parse_dot_document, text)
        assert outcome(parse_dot_document, text) == want, text
        accepted += not isinstance(want, tuple)
    assert accepted > 50


def test_unmutated_bases_parse_alike(corpus_dir):
    for text in bases(corpus_dir):
        want = outcome(reference_dotio.parse_dot_document, text)
        assert outcome(parse_dot_document, text) == want, text
        assert isinstance(want, tuple) == (text in REJECTED), text
