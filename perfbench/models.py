"""Seeded model generators and the closed-form counts used as references.

Every generator takes an explicit ``random.Random``; the same seed gives
the same text.  For the philosophers and the FIFO groups the seed only
shuffles statements and components, so every seed does the same
exploration work (state names decide the breadth-first tie-breaks, hence
how far a search runs before it stops) and the closed forms below hold.
None of the reference numbers here comes from hetcomp itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen

FACET_PAYLOADS = ("x>0", "t<5", "n=3", "v in range", "a+b", "y<=2")


def _token(rng: random.Random, length: int = 3) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(length))


def dot_text(graph: str, initial: str, states, edges, rng: random.Random
             ) -> str:
    """A DOT digraph in the subset hetcomp reads, statements shuffled.

    ``edges`` holds ``(source, label, facets, target)`` with ``facets``
    already joined by ``|`` (empty for none).
    """
    lines = [f'  {s}{" [init=true]" if s == initial else ""};' for s in states]
    for src, label, facets, dst in edges:
        attrs = f'label="{label}"'
        if facets:
            attrs += f', facets="{facets}"'
        lines.append(f"  {src} -> {dst} [{attrs}];")
    rng.shuffle(lines)
    return "digraph " + graph + " {\n" + "\n".join(lines) + "\n}\n"


# ---- dining philosophers -------------------------------------------------
#
# Philosopher i:  t -gl!-> l -gr!-> e -pl!-> r -pr!-> t
#   (take left fork, take right fork, put left, put right)
# Fork i:  free -gl_i?-> L -pl_i?-> free  and  free -gr_{i-1}?-> R -pr_{i-1}?-> free
# A global state is one owner per fork (free, left or right neighbour);
# all 3^n assignments are reachable except "every philosopher holds only
# its right fork", since the last one to put down its left fork would
# have needed a fork its neighbour already held.


def philo_counts(n: int) -> tuple[int, int]:
    """(states, transitions) of the reachable product."""
    return 3 ** n - 1, n * (2 * 3 ** (n - 1) - 1)


@dataclass(frozen=True)
class PhiloModel:
    dots: tuple[tuple[str, str], ...]   # (instance, DOT text)
    eat: str                            # the philosophers' eating state


def philo_model(n: int, rng: random.Random) -> PhiloModel:
    dots = []
    for i in range(n):
        h = (i - 1) % n
        edges = [("t", f"gl{i}!", "", "l"), ("l", f"gr{i}!", "", "e"),
                 ("e", f"pl{i}!", "", "r"), ("r", f"pr{i}!", "", "t")]
        dots.append((f"P{i}", dot_text(f"P{i}", "t", "tler", edges, rng)))
        edges = [("free", f"gl{i}?", "", "L"), ("L", f"pl{i}?", "", "free"),
                 ("free", f"gr{h}?", "", "R"), ("R", f"pr{h}?", "", "free")]
        dots.append((f"F{i}", dot_text(f"F{i}", "free", ["free", "L", "R"],
                                       edges, rng)))
    rng.shuffle(dots)
    return PhiloModel(tuple(dots), "e")


# ---- FIFO groups -----------------------------------------------------------
#
# Group g: senders A_g and B_g (s0 -q_g!-> s1 -work-> s0) and a one-state
# receiver R_g (r0 -q_g?-> r0) on an asynchronous channel of capacity c.
# A group state is the two sender states times any buffer word of length
# <= c over {A_g, B_g}: S1 = 4(2^(c+1) - 1).  Steps: one internal step per
# busy sender, one send per idle sender while the buffer has room, one
# receive per non-empty buffer.


def fifo_group_counts(c: int) -> tuple[int, int]:
    s1 = 4 * (2 ** (c + 1) - 1)
    t1 = s1 + 4 * (2 ** c - 1) + 4 * (2 ** (c + 1) - 2)
    return s1, t1


def fifo_counts(k: int, c: int) -> tuple[int, int]:
    """(states, transitions) of k independent groups."""
    s1, t1 = fifo_group_counts(c)
    return s1 ** k, k * s1 ** (k - 1) * t1


def fifo_witness_steps(c: int) -> int:
    """Shortest path to both senders of group 1 being busy."""
    return 2 if c >= 2 else 3


@dataclass(frozen=True)
class FifoModel:
    dots: tuple[tuple[str, str], ...]   # (file stem == instance, DOT text)
    script: str
    busy: str                           # the senders' busy state
    reach_query: str


def fifo_model(k: int, c: int, rng: random.Random) -> FifoModel:
    idle, busy, r0, work = "s0", "s1", "r0", "work"
    chans = [f"q{g}" for g in range(1, k + 1)]
    dots, insts = [], []
    for g, q in enumerate(chans, start=1):
        for who in ("A", "B"):
            edges = [(idle, f"{q}!", "", busy), (busy, work, "", idle)]
            dots.append((f"{who}{g}", dot_text(f"{who}{g}", idle, [idle, busy],
                                               edges, rng)))
        dots.append((f"R{g}", dot_text(f"R{g}", r0, [r0],
                                       [(r0, f"{q}?", "", r0)], rng)))
        insts += [f"A{g}", f"B{g}", f"R{g}"]
    query = f"E<> A1.{busy} and B1.{busy}"
    lines = [f"channel {q} async {c}" for q in chans]
    lines += [f'{i} = dot("{i}.dot")' for i in insts]
    shuffled = insts[:]
    rng.shuffle(shuffled)
    lines += [f"sys = compose({', '.join(shuffled)})",
              "chans(sys)",
              'check(sys, "A[] not deadlock")',
              f'check(sys, "{query}")',
              'emit_dot(sys, "product.dot")',
              'emit_lotos(A1, "A1.lotos")']
    return FifoModel(tuple(dots), "\n".join(lines) + "\n", busy, query)


# ---- one large component -----------------------------------------------


@dataclass(frozen=True)
class BigModel:
    text: str
    states: int
    edges: int
    rename_from: str
    rename_to: str
    keep_facet: str
    edges_after_filter: int   # distinct edges once facets are filtered


def big_model(n_states: int, n_edges: int, rng: random.Random) -> BigModel:
    """About 30% of the edges carry one or two facets."""
    states = [f"n{i}_{_token(rng, 2)}" for i in range(n_states)]
    chans = [f"c{_token(rng)}{i}" for i in range(24)]
    seen, edges = set(), []
    while len(edges) < n_edges:
        roll = rng.random()
        c = rng.choice(chans)
        comm = f"{c}!" if roll < 0.4 else f"{c}?" if roll < 0.8 else "tau"
        src, dst = rng.choice(states), rng.choice(states)
        facets = ()
        if rng.random() < 0.3:
            names = sorted(rng.sample(("guard", "time", "data"),
                                      rng.randint(1, 2)))
            facets = tuple((f, rng.choice(FACET_PAYLOADS)) for f in names)
        key = (src, comm, facets, dst)
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    keep = "guard"
    after = {(s, cm, tuple(f for f in fs if f[0] == keep), d)
             for s, cm, fs, d in edges}
    # every state appears as a node so the state count does not depend
    # on which states the edges happen to touch
    text = dot_text("big", states[0], states,
                    [(s, cm, "|".join(f"{n}:{p}" for n, p in fs), d)
                     for s, cm, fs, d in edges], rng)
    return BigModel(text, n_states, n_edges, chans[0], f"z{_token(rng)}",
                    keep, len(after))


# ---- small random nets (the brute-force oracle's regime) ---------------
#
# Components come from tests/gen.py, the generator the oracle tests use.
# Nets draw them from a shared pool, so that a few hundred DOT files
# serve thousands of scripts and set-up stays cheap.


@dataclass(frozen=True)
class SmallNet:
    parts: tuple[tuple[str, str], ...]   # (instance, pool file stem)
    async_caps: tuple[tuple[str, int], ...]
    reach: tuple[tuple[str, str], ...]

    @property
    def reach_text(self) -> str:
        return "E<> " + " and ".join(f"{i}.{s}" for i, s in self.reach)

    def script(self) -> str:
        lines = [f"channel {c} async {cap}" for c, cap in self.async_caps]
        lines += [f'{inst} = dot("{stem}.dot")' for inst, stem in self.parts]
        lines += [f"sys = compose({', '.join(inst for inst, _ in self.parts)})",
                  'check(sys, "A[] not deadlock")',
                  f'check(sys, "{self.reach_text}")']
        return "\n".join(lines) + "\n"


SMALL_POOL = 300


def small_pool(rng: random.Random) -> dict:
    """The pool's components by file stem, each on channels a or a and b."""
    return {f"c{i}": gen.random_lts(rng, ["a", "b"][:rng.randint(1, 2)])
            for i in range(SMALL_POOL)}


def small_net(rng: random.Random, pool: dict) -> SmallNet:
    """2-4 pool components; each channel async (capacity 1-2) with p=0.4."""
    stems = rng.sample(sorted(pool), rng.randint(2, 4))
    parts = tuple((f"P{i + 1}", stem) for i, stem in enumerate(stems))
    caps = tuple((c, rng.randint(1, 2)) for c in ("a", "b")
                 if rng.random() < 0.4)
    picked = sorted(rng.sample(parts, rng.randint(1, len(parts))))
    reach = tuple((inst, rng.choice(sorted(pool[stem].states)))
                  for inst, stem in picked)
    return SmallNet(parts, caps, reach)


def small_dot(stem: str, lts, rng: random.Random) -> str:
    """DOT text of a pool component (its labels carry no facets)."""
    edges = sorted((t.source, t.label.text, "", t.target)
                   for t in lts.transitions)
    return dot_text(stem, lts.initial, sorted(lts.states), edges, rng)
