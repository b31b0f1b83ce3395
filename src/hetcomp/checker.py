"""Deadlock-freedom and reachability checking over the global semantics.

Two query forms are supported, mirroring the Uppaal-style notation:

    A[] not deadlock
    E<> inst.state and inst2.state2 ...

An atom's instance is a token of letters, digits and `_`, its state any
name `lts.NAME_RE` allows, so an atom splits at its first `.`.

Checking reads the net's recorded search (`semantics.search_of`), the
one `explore` and `product` read, on compiled states (a reachability
target is a list of component index and local int pairs).  It replays
what earlier consumers recorded, extends the search only past that,
and stops at the first target or deadlocked state in discovery order,
so witnesses are shortest paths with ties broken by the canonical
enabled order, read back from the recorded steps.  A search that the
state bound cut off without an answer yields "unknown", distinct from
true and false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import SystemNet
from .errors import ParseError, QueryError
from .semantics import GlobalTransition, search_of
from .semantics import enabled  # noqa: F401  wrapped by perfbench/spans.py


@dataclass(frozen=True)
class Query:
    """Either deadlock-freedom or a conjunction of local-state targets."""

    kind: str
    conjuncts: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind == "deadlock_free":
            if self.conjuncts:
                raise QueryError("deadlock-freedom takes no conjuncts")
        elif self.kind == "reach":
            if not self.conjuncts:
                raise QueryError("a reachability query needs conjuncts")
            instances = [i for i, _ in self.conjuncts]
            if len(set(instances)) != len(instances):
                raise QueryError("reachability conjuncts must reference "
                                 "distinct instances")
        else:
            raise QueryError(f"unknown query kind {self.kind!r}")

    @property
    def text(self) -> str:
        if self.kind == "deadlock_free":
            return "A[] not deadlock"
        return "E<> " + " and ".join(f"{i}.{s}" for i, s in self.conjuncts)


DEADLOCK_FREE = Query("deadlock_free")


def reach(*conjuncts: tuple[str, str]) -> Query:
    return Query("reach", tuple(conjuncts))


_ATOM_RE = re.compile(r'([A-Za-z0-9_]+)\.([^\s"\\]+)\Z')


def parse_query(text: str) -> Query:
    """Parse `A[] not deadlock` or `E<> inst.state (and inst.state)*`."""
    s = text.strip()
    if re.fullmatch(r"A\[\]\s+not\s+deadlock", s):
        return DEADLOCK_FREE
    if s.startswith("E<>"):
        rest = s[3:].strip()
        if not rest:
            raise ParseError(f"query {text!r}: E<> needs at least one "
                             "inst.state atom")
        conjuncts = []
        for atom in re.split(r"\s+and\s+", rest):
            m = _ATOM_RE.match(atom.strip())
            if not m:
                raise ParseError(f"query {text!r}: bad atom {atom.strip()!r} "
                                 "(expected inst.state)")
            conjuncts.append((m.group(1), m.group(2)))
        return Query("reach", tuple(conjuncts))
    raise ParseError(f"query {text!r}: expected 'A[] not deadlock' or "
                     "'E<> inst.state and ...'")


@dataclass(frozen=True)
class Verdict:
    """Outcome plus, when one exists, a shortest witness path.

    For a failed deadlock-freedom check the witness leads to the
    deadlocked state; for a successful reachability check it leads to
    the satisfying state.  outcome "unknown" reports a search cut off
    by the state bound.
    """

    outcome: str
    witness: tuple[GlobalTransition, ...] | None = None
    bound: int | None = None

    @property
    def holds(self) -> bool | None:
        if self.outcome == "unknown":
            return None
        return self.outcome == "true"


def check(net: SystemNet, q: Query, bound: int | None = None) -> Verdict:
    """BFS decision of q over the reachable global states of net."""
    is_reach = q.kind == "reach"
    search = search_of(net, bound)
    compiled, states, steps = search.compiled, search.states, search.steps
    goal = []   # (component, local int)
    for inst, state in q.conjuncts:
        i = compiled.position.get(inst)
        if i is None:
            raise QueryError(
                f"query names unknown instance {inst!r} "
                f"(net has: {', '.join(compiled.names)})")
        l = compiled.index[i].get(state)
        if l is None:
            raise QueryError(
                f"query names unknown state {state!r} of instance {inst}")
        goal.append((i, l))
    for k in search:
        if (all(states[k][i] == l for i, l in goal) if is_reach
                else not steps[k]):
            return Verdict("true" if is_reach else "false", search.path_to(k))
    if search.cut is not None:
        return Verdict("unknown", None, search.bound)
    return Verdict("false" if is_reach else "true")


def step_to_json(t: GlobalTransition) -> dict:
    """The step's label and target text, its kind's tag and its fields."""
    return {"label": t.label.text, "to": t.target.text, "kind": t.kind.tag,
            **vars(t.kind)}


def verdict_to_json(v: Verdict) -> dict:
    return {
        "holds": v.holds,
        "outcome": v.outcome,
        "witness": None if v.witness is None
        else [step_to_json(t) for t in v.witness],
    }
